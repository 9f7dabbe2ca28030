//! The columnar core's scale claim: per-epoch cost of a single-site
//! event grows with the users the event *shifts*, not with the
//! population.
//!
//! The same site-flap scenario replays over the busiest root letter at
//! expanded populations of 10k, 100k, and 1M users (the world's ~2k
//! weighted locations fanned out with `expand_counts`). Slice-based
//! epoch invalidation visits only the flapped group's member slices
//! and the epoch loop writes per-cohort state, not per-user rows, so
//! the 1M-user epoch must land within ~2× of the 100k-user one (in
//! practice they are equal) — the acceptance criterion recorded as
//! `ratio_1m_vs_100k` in the `dynamics_scale` section of
//! `results/dynamics_bench.json`.

use anycast_bench::{bench_world, min_secs};
use anycast_core::World;
use criterion::{criterion_group, criterion_main, Criterion};
use dynamics::{expand_counts, DynUser, DynamicsEngine, RecomputeMode, Scenario};
use netsim::SimTime;
use std::sync::Arc;
use topology::SiteId;

const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

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

fn expanded_engine(world: &World, population: usize) -> DynamicsEngine<'_> {
    let letter = world
        .letters
        .letters
        .iter()
        .max_by_key(|l| l.deployment.global_site_count())
        .expect("letters exist");
    let base = dyn_users(world);
    let counts = expand_counts(
        &base.iter().map(|u| u.weight).collect::<Vec<_>>(),
        population,
        2021,
    );
    DynamicsEngine::new_expanded(
        &world.internet.graph,
        Arc::clone(&letter.deployment),
        world.model.clone(),
        &base,
        &counts,
        2021,
        RecomputeMode::Incremental,
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
    let mut engines: Vec<DynamicsEngine<'_>> =
        POPULATIONS.iter().map(|&p| expanded_engine(&world, p)).collect();
    let target = hottest_site(&engines[0]);
    // Two flaps, no jitter: four events, ending back at baseline so the
    // engines can be reused across iterations.
    let scenario = Scenario::site_flap(
        "bench-scale-flap",
        target,
        SimTime::from_secs(60.0),
        600_000.0,
        2,
        0.0,
        2021,
    );

    let mut group = c.benchmark_group("dynamics_scale_epoch");
    group.sample_size(10);
    for (eng, &pop) in engines.iter_mut().zip(&POPULATIONS) {
        group.bench_function(format!("{pop}_users"), |b| {
            b.iter(|| criterion::black_box(eng.run(&scenario)).records.len())
        });
    }
    group.finish();

    // Recorded summary: minimum ms per epoch at each population (the
    // minimum of repeated runs estimates intrinsic cost — anything
    // above it is scheduler interference on shared hosts, which would
    // otherwise swamp the 1M-vs-100k comparison), plus the
    // invalidation ledger proving the slice walk undercut a scan.
    const RUNS: usize = 15;
    let mut sections = Vec::new();
    let mut per_epoch = Vec::new();
    for (eng, &pop) in engines.iter_mut().zip(&POPULATIONS) {
        // One untimed warm-up run so each engine is measured with the
        // same cache state (the criterion loop above warmed whichever
        // engine ran last).
        eng.run(&scenario);
        let (secs, timeline) = min_secs(RUNS, || eng.run(&scenario));
        let events = timeline.records.len().saturating_sub(1).max(1);
        let ms_per_epoch = secs * 1000.0 / events as f64;
        per_epoch.push(ms_per_epoch);
        let (slice, scan) = eng.invalidation_ledger();
        assert!(
            slice < scan,
            "slice invalidation visited {slice} of {scan} scan-equivalent users at {pop}"
        );
        sections.push(format!(
            "{{\"population\": {pop}, \"cohorts\": {}, \"events\": {events}, \
             \"ms_per_epoch\": {ms_per_epoch:.3}, \
             \"slice_users\": {slice}, \"scan_equivalent_users\": {scan}}}",
            eng.cohort_count(),
        ));
    }
    let ratio = if per_epoch[1] > 0.0 { per_epoch[2] / per_epoch[1] } else { 0.0 };
    let json = format!(
        "{{\"scenario\": \"site-flap x2\", \"runs\": [{}], \"ratio_1m_vs_100k\": {ratio:.3}}}",
        sections.join(", "),
    );
    anycast_bench::record_bench_section("dynamics_scale", &json);
    println!("dynamics columnar scale sweep: {json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
