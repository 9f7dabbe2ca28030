//! The dynamics engine's headline claim: recomputing only invalidated
//! catchment entries per routing event beats naive full recomputation.
//!
//! Both engines replay the same site-flap scenario over the busiest
//! root letter; the incremental one re-derives assignments only for
//! users whose winning origin group changed or became challengeable.
//! The summary (min-of-N ms per event and the recompute-vs-reuse
//! ledger) is recorded in `results/dynamics_bench.json`, alongside the
//! `timings.json` the repro driver writes.

use anycast_bench::{bench_world, host_fields, letter_engine, min_secs, record_bench_section};
use anycast_core::experiments::dynamics_exp::hottest_site;
use dynamics::{RecomputeMode, Scenario};
use netsim::SimTime;

fn main() {
    let world = bench_world();
    let mut incremental = letter_engine(&world, RecomputeMode::Incremental);
    let mut full = letter_engine(&world, RecomputeMode::Full);
    let target = hottest_site(&incremental);
    // Two flaps, no jitter: four events, ending back at baseline so the
    // engines can be reused across runs.
    let scenario = Scenario::site_flap(
        "bench-flap",
        target,
        SimTime::from_secs(60.0),
        600_000.0,
        2,
        0.0,
        2021,
    );

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
        "{{\"scenario\": \"site-flap x2\", {}, \"events\": {events}, \
         \"incremental\": {{\"secs_per_run\": {inc_secs:.4}, \"ms_per_event\": {:.3}, \
         \"assign_recomputed\": {inc_rc}, \"assign_reused\": {inc_ru}}}, \
         \"full\": {{\"secs_per_run\": {full_secs:.4}, \"ms_per_event\": {:.3}, \
         \"assign_recomputed\": {full_rc}, \"assign_reused\": {full_ru}}}, \
         \"speedup\": {:.2}}}",
        host_fields(),
        inc_secs * 1000.0 / events.max(1) as f64,
        full_secs * 1000.0 / events.max(1) as f64,
        if inc_secs > 0.0 { full_secs / inc_secs } else { 0.0 },
    );
    record_bench_section("dynamics_incremental", &json);
    println!("dynamics incremental vs full: {json}");
}
