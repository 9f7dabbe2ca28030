//! Deployment swaps as epochs, not rebuilds: a ring promotion/demotion
//! cycle on the incremental engine against the full-recompute oracle.
//!
//! The engine serves the CDN's R74 ring, promotes to R95, holds, and
//! demotes back. The incremental path re-keys every stored assignment
//! across the nested-ring site remap and re-ranks only users the added
//! sites actually win (promotion) or whose site left the ring
//! (demotion); the oracle re-ranks everyone twice. The timed summary
//! and recompute ledger land in the `"dynamics_swap"` section of
//! `results/dynamics_bench.json`.

use anycast_bench::{bench_world, min_secs, record_bench_section};
use anycast_core::World;
use cdn::Cdn;
use criterion::{criterion_group, criterion_main, Criterion};
use dynamics::{DynUser, DynamicsEngine, RecomputeMode, Scenario, SwapDeployment};
use netsim::SimTime;
use std::sync::Arc;

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

fn swap_set(cdn: &Cdn) -> Vec<SwapDeployment> {
    cdn.rings
        .iter()
        .map(|r| SwapDeployment {
            deployment: Arc::clone(&r.deployment),
            universe: cdn.ring_universe(r),
        })
        .collect()
}

fn engine(world: &World, ring: usize, mode: RecomputeMode) -> DynamicsEngine<'_> {
    DynamicsEngine::new(
        &world.internet.graph,
        Arc::clone(&world.cdn.rings[ring].deployment),
        world.model.clone(),
        dyn_users(world),
        mode,
    )
    .with_swap_set(swap_set(&world.cdn), ring)
}

fn bench(c: &mut Criterion) {
    let world = bench_world();
    let from = world.cdn.ring_index("R74").expect("paper ring R74");
    let to = world.cdn.ring_index("R95").expect("paper ring R95");
    let mut incremental = engine(&world, from, RecomputeMode::Incremental);
    let mut full = engine(&world, from, RecomputeMode::Full);
    // Promote, hold, demote back: the cycle ends on the starting ring,
    // so the engines can be reused across iterations.
    let scenario =
        Scenario::ring_swap("bench-ring-cycle", to as u32, from as u32, SimTime::from_secs(60.0), 1_800_000.0);

    let mut group = c.benchmark_group("dynamics_swap");
    group.sample_size(10);
    group.bench_function("incremental", |b| {
        b.iter(|| criterion::black_box(incremental.run(&scenario)).records.len())
    });
    group.bench_function("full", |b| {
        b.iter(|| criterion::black_box(full.run(&scenario)).records.len())
    });
    group.finish();

    const RUNS: usize = 5;
    let (inc_secs, inc_timeline) = min_secs(RUNS, || incremental.run(&scenario));
    let (full_secs, full_timeline) = min_secs(RUNS, || full.run(&scenario));
    let events = inc_timeline.records.len().saturating_sub(1);
    let (inc_rc, inc_ru) = inc_timeline.recompute_totals();
    let (full_rc, full_ru) = full_timeline.recompute_totals();
    assert!(
        inc_rc < full_rc,
        "swap epochs recomputed {inc_rc} entries incrementally, {full_rc} fully — \
         the remap + site-diff path must win"
    );
    let json = format!(
        "{{\"scenario\": \"ring promote R74->R95, demote back\", \"events\": {events}, \
         \"incremental\": {{\"secs_per_run\": {inc_secs:.4}, \"ms_per_event\": {:.3}, \
         \"assign_recomputed\": {inc_rc}, \"assign_reused\": {inc_ru}}}, \
         \"full\": {{\"secs_per_run\": {full_secs:.4}, \"ms_per_event\": {:.3}, \
         \"assign_recomputed\": {full_rc}, \"assign_reused\": {full_ru}}}, \
         \"speedup\": {:.2}}}",
        inc_secs * 1000.0 / events.max(1) as f64,
        full_secs * 1000.0 / events.max(1) as f64,
        if inc_secs > 0.0 { full_secs / inc_secs } else { 0.0 },
    );
    record_bench_section("dynamics_swap", &json);
    println!("dynamics swap incremental vs full: {json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
