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
//! practice they are equal) — the acceptance bound recorded as
//! `ratio_1m_vs_100k` in the `dynamics_scale` section of
//! `results/dynamics_bench.json`.

use anycast_bench::{bench_world, expanded_engine, host_fields, min_secs, record_bench_section};
use anycast_context::obs::{json, object};
use anycast_core::experiments::dynamics_exp::hottest_site;
use dynamics::{DynamicsEngine, Scenario};
use netsim::SimTime;

const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

fn main() {
    let world = bench_world();
    let mut engines: Vec<DynamicsEngine<'_>> =
        POPULATIONS.iter().map(|&p| expanded_engine(&world, p)).collect();
    let target = hottest_site(&engines[0]);
    // Two flaps, no jitter: four events, ending back at baseline so the
    // engines can be reused across runs.
    let scenario = Scenario::site_flap(
        "bench-scale-flap",
        target,
        SimTime::from_secs(60.0),
        600_000.0,
        2,
        0.0,
        2021,
    );

    // Recorded summary: minimum ms per epoch at each population (the
    // minimum of repeated runs estimates intrinsic cost — anything
    // above it is scheduler interference on shared hosts, which would
    // otherwise swamp the 1M-vs-100k comparison), plus one run's
    // invalidation ledger proving the slice walk undercut a scan.
    const RUNS: usize = 15;
    let mut runs = Vec::new();
    let mut per_epoch = Vec::new();
    for (eng, &pop) in engines.iter_mut().zip(&POPULATIONS) {
        // One untimed warm-up run so each engine is measured with the
        // same cache state (the previous engine's runs evicted this
        // one's). The recorded ledger is this run's share of the
        // engine's cumulative totals, so it does not depend on RUNS.
        let (slice0, scan0) = eng.invalidation_ledger();
        eng.run(&scenario);
        let (slice1, scan1) = eng.invalidation_ledger();
        let (slice, scan) = (slice1 - slice0, scan1 - scan0);
        assert!(
            slice < scan,
            "slice invalidation visited {slice} of {scan} scan-equivalent users at {pop}"
        );
        let (secs, timeline) = min_secs(RUNS, || eng.run(&scenario));
        let events = timeline.records.len().saturating_sub(1).max(1);
        let ms_per_epoch = secs * 1000.0 / events as f64;
        per_epoch.push(ms_per_epoch);
        runs.push(object! {
            "population": pop, "cohorts": eng.cohort_count(), "events": events,
            "ms_per_epoch": json::fixed(ms_per_epoch, 3),
            "slice_users": slice, "scan_equivalent_users": scan,
        });
    }
    let ratio = if per_epoch[1] > 0.0 { per_epoch[2] / per_epoch[1] } else { 0.0 };
    let json: json::Json = host_fields(object! { "scenario": "site-flap x2" })
        .field("runs", json::array(runs))
        .field("ratio_1m_vs_100k", json::fixed(ratio, 3))
        .into();
    record_bench_section("dynamics_scale", &json);
    println!("dynamics columnar scale sweep: {}", json.0);
}
