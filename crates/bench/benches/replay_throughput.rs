//! The replay hot path's scale claim: one core replays ≥10M queries
//! per second through the live dynamics engine.
//!
//! The streaming generator never materializes queries — each
//! `(window, user)` slot costs one seed derivation plus a few
//! multiplies, and every query in a cohort pays the cohort's current
//! RTT in one batched histogram update — so throughput is set by the
//! slot loop over the columnar table, not by the query count. The
//! sweep pins `par` to one thread, replays a flap scenario over an
//! expanded population, and records `queries_per_sec` in the
//! `replay_throughput` section of `results/dynamics_bench.json`; the
//! acceptance floor is asserted here.

use anycast_bench::{bench_world, min_secs};
use anycast_context::par;
use anycast_core::World;
use criterion::{criterion_group, criterion_main, Criterion};
use dynamics::{expand_counts, DynUser, DynamicsEngine, RecomputeMode, RoutingEvent, Scenario};
use netsim::SimTime;
use replay::{replay, ReplayConfig};
use std::sync::Arc;
use topology::SiteId;

const POPULATION: usize = 200_000;
const FLOOR_QPS: f64 = 10_000_000.0;

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

fn expanded_engine(world: &World) -> DynamicsEngine<'_> {
    let letter = world
        .letters
        .letters
        .iter()
        .max_by_key(|l| l.deployment.global_site_count())
        .expect("letters exist");
    let base = dyn_users(world);
    let counts = expand_counts(
        &base.iter().map(|u| u.weight).collect::<Vec<_>>(),
        POPULATION,
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

/// The scenario under replay: the hottest site flaps mid-horizon, so
/// the stream crosses two catchment changes without turning the bench
/// into an epoch-cost measurement.
fn flap_scenario(eng: &DynamicsEngine<'_>) -> Scenario {
    let loads = eng.site_loads();
    let mut hot = 0usize;
    for (i, l) in loads.iter().enumerate() {
        if *l > loads[hot] {
            hot = i;
        }
    }
    Scenario::new("bench-replay-flap")
        .at(SimTime::from_secs(300.0), RoutingEvent::SiteDown(SiteId(hot as u32)))
        .at(SimTime::from_secs(600.0), RoutingEvent::SiteUp(SiteId(hot as u32)))
}

fn bench(c: &mut Criterion) {
    let world = bench_world();
    let mut eng = expanded_engine(&world);
    let scenario = flap_scenario(&eng);
    let cfg = ReplayConfig { seed: 2021, ..ReplayConfig::default() };

    // The scale claim is single-core: pin the worker pool to one
    // thread for the whole measurement.
    par::set_threads(1);

    let mut group = c.benchmark_group("replay_throughput");
    group.sample_size(10);
    group.bench_function(format!("{POPULATION}_users"), |b| {
        b.iter(|| criterion::black_box(replay(&mut eng, &scenario, &cfg)).generated)
    });
    group.finish();

    // Recorded summary: the minimum of repeated runs estimates the
    // intrinsic per-query cost; anything above it is scheduler noise.
    const RUNS: usize = 15;
    replay(&mut eng, &scenario, &cfg);
    let (secs, outcome) = min_secs(RUNS, || replay(&mut eng, &scenario, &cfg));
    par::set_threads(0);
    assert_eq!(
        outcome.served + outcome.degraded,
        outcome.generated,
        "every generated query must be served or degraded"
    );
    let qps = outcome.generated as f64 / secs;
    assert!(
        qps >= FLOOR_QPS,
        "replay must sustain {FLOOR_QPS:.0} q/s on one core, measured {qps:.0}"
    );
    let json = format!(
        "{{\"scenario\": \"hottest-site flap\", \"population\": {POPULATION}, \
         \"threads\": 1, \"windows\": {}, \"queries_per_run\": {}, \
         \"min_secs\": {secs:.6}, \"queries_per_sec\": {qps:.0}, \
         \"floor_queries_per_sec\": {FLOOR_QPS:.0}}}",
        outcome.windows.len(),
        outcome.generated,
    );
    anycast_bench::record_bench_section("replay_throughput", &json);
    println!("replay throughput sweep: {json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
