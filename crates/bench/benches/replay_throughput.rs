//! The replay hot path's scale claim: one core replays ≥10M queries
//! per second through the live dynamics engine.
//!
//! The streaming generator never materializes queries — each
//! `(window, user)` slot costs one seed derivation plus a few
//! multiplies, and every query in a cohort pays the cohort's current
//! RTT in one batched histogram update — so throughput is set by the
//! slot loop over the columnar table, not by the query count. The
//! sweep pins `par` to one thread, replays a flap scenario over an
//! expanded population, and records `queries_per_sec` (stochastic
//! counts summed, about 16 per user-window) next to
//! `user_windows_per_sec` (the slots actually walked) in the
//! `replay_throughput` section of `results/dynamics_bench.json`; the
//! acceptance floor is asserted here.

use anycast_bench::{bench_world, expanded_engine, host_fields, min_secs, record_bench_section};
use anycast_context::obs::{json, object};
use anycast_context::par;
use anycast_core::experiments::dynamics_exp::hottest_site;
use dynamics::{RoutingEvent, Scenario};
use netsim::SimTime;
use replay::{replay, ReplayConfig};

const POPULATION: usize = 200_000;
const FLOOR_QPS: f64 = 10_000_000.0;

fn main() {
    let world = bench_world();
    let mut eng = expanded_engine(&world, POPULATION);
    // The scenario under replay: the hottest site flaps mid-horizon, so
    // the stream crosses two catchment changes without turning the
    // bench into an epoch-cost measurement.
    let hot = hottest_site(&eng);
    let scenario = Scenario::new("bench-replay-flap")
        .at(SimTime::from_secs(300.0), RoutingEvent::SiteDown(hot))
        .at(SimTime::from_secs(600.0), RoutingEvent::SiteUp(hot));
    let cfg = ReplayConfig { seed: 2021, ..ReplayConfig::default() };

    // The scale claim is single-core: pin the worker pool to one
    // thread for the whole measurement. The minimum of repeated runs
    // estimates the intrinsic per-query cost; anything above it is
    // scheduler noise.
    par::set_threads(1);
    let section = object! { "scenario": "hottest-site flap", "population": POPULATION };
    let section = host_fields(section);
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
    let windows = outcome.windows.len();
    let json: json::Json = section
        .field("windows", windows)
        .field("queries_per_run", outcome.generated)
        .field("min_secs", json::fixed(secs, 6))
        .field("queries_per_sec", json::fixed(qps, 0))
        .field("user_windows_per_sec", json::fixed((POPULATION * windows) as f64 / secs, 0))
        .field("floor_queries_per_sec", json::fixed(FLOOR_QPS, 0))
        .into();
    record_bench_section("replay_throughput", &json);
    println!("replay throughput sweep: {}", json.0);
}
