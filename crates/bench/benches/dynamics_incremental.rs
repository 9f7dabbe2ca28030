//! The dynamics engine's headline claim: recomputing only invalidated
//! catchment entries per routing event beats naive full recomputation.
//!
//! Both engines replay the same site-flap scenario over the busiest
//! root letter; the incremental one re-derives assignments only for
//! users whose winning origin group changed or became challengeable.
//! Besides the criterion groups, a summary (min-of-N ms per event and
//! the recompute-vs-reuse ledger) is recorded in
//! `results/dynamics_bench.json`, alongside the `timings.json` the
//! repro driver writes.

use anycast_bench::{bench_world, min_secs};
use anycast_core::World;
use criterion::{criterion_group, criterion_main, Criterion};
use dynamics::{DynUser, DynamicsEngine, RecomputeMode, Scenario};
use netsim::SimTime;
use std::sync::Arc;
use topology::SiteId;

fn dyn_users(world: &World) -> Vec<DynUser> {
    let total_users = world.population.total_users();
    let total_qpd = world.ditl.total_queries_per_day();
    world
        .population
        .locations
        .iter()
        .map(|l| DynUser {
            asn: l.asn,
            location: world.internet.world.region(l.region).center,
            weight: l.users,
            queries_per_day: if total_users > 0.0 {
                total_qpd * l.users / total_users
            } else {
                0.0
            },
        })
        .collect()
}

fn engine(world: &World, mode: RecomputeMode) -> DynamicsEngine<'_> {
    let letter = world
        .letters
        .letters
        .iter()
        .max_by_key(|l| l.deployment.global_site_count())
        .expect("letters exist");
    DynamicsEngine::new(
        &world.internet.graph,
        Arc::clone(&letter.deployment),
        world.model.clone(),
        dyn_users(world),
        mode,
    )
}

fn hottest_site(eng: &DynamicsEngine<'_>) -> SiteId {
    let loads = eng.site_loads();
    let mut best = 0usize;
    for (i, l) in loads.iter().enumerate() {
        if *l > loads[best] {
            best = i;
        }
    }
    SiteId(best as u32)
}

fn bench(c: &mut Criterion) {
    let world = bench_world();
    let mut incremental = engine(&world, RecomputeMode::Incremental);
    let mut full = engine(&world, RecomputeMode::Full);
    let target = hottest_site(&incremental);
    // Two flaps, no jitter: four events, ending back at baseline so the
    // engines can be reused across iterations.
    let scenario = Scenario::site_flap(
        "bench-flap",
        target,
        SimTime::from_secs(60.0),
        600_000.0,
        2,
        0.0,
        2021,
    );

    let mut group = c.benchmark_group("dynamics_event_recompute");
    group.sample_size(10);
    group.bench_function("incremental", |b| {
        b.iter(|| criterion::black_box(incremental.run(&scenario)).records.len())
    });
    group.bench_function("full", |b| {
        b.iter(|| criterion::black_box(full.run(&scenario)).records.len())
    });
    group.finish();

    // Recorded summary: a min-of-N timed comparison plus the ledger the
    // obs counters also carry, so the perf claim lives in the repo next
    // to timings.json rather than only in criterion's target dir.
    const RUNS: usize = 5;
    let (inc_secs, inc_timeline) = min_secs(RUNS, || incremental.run(&scenario));
    let (full_secs, full_timeline) = min_secs(RUNS, || full.run(&scenario));
    let events = inc_timeline.records.len().saturating_sub(1);
    let (inc_rc, inc_ru) = inc_timeline.recompute_totals();
    let (full_rc, full_ru) = full_timeline.recompute_totals();
    assert!(
        inc_rc < full_rc,
        "incremental recomputed {inc_rc} entries, full {full_rc} — the delta path must win"
    );
    let json = format!(
        "{{\"scenario\": \"site-flap x2\", \"events\": {events}, \
         \"incremental\": {{\"secs_per_run\": {inc_secs:.4}, \"ms_per_event\": {:.3}, \
         \"assign_recomputed\": {inc_rc}, \"assign_reused\": {inc_ru}}}, \
         \"full\": {{\"secs_per_run\": {full_secs:.4}, \"ms_per_event\": {:.3}, \
         \"assign_recomputed\": {full_rc}, \"assign_reused\": {full_ru}}}, \
         \"speedup\": {:.2}}}",
        inc_secs * 1000.0 / events.max(1) as f64,
        full_secs * 1000.0 / events.max(1) as f64,
        if inc_secs > 0.0 { full_secs / inc_secs } else { 0.0 },
    );
    anycast_bench::record_bench_section("dynamics_incremental", &json);
    println!("dynamics incremental vs full: {json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
