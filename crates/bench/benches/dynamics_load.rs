//! The closed loop's scale claim: per-epoch controller cost is
//! population-independent.
//!
//! The controller observes per-site loads and entry sessions, both
//! computed in one pass over *cohorts*, and its decisions are staged
//! per-neighbor withholds — so a `dynload`-style flash crowd with the
//! distributed policy attached must cost the same per epoch at 1M
//! users as at 100k (the work scales with catchment structure, not
//! with how many users each cohort fans out to). The acceptance
//! bound is recorded as `ratio_1m_vs_100k` in the `dynamics_load`
//! section of `results/dynamics_bench.json`.

use anycast_bench::{bench_world, expanded_engine, host_fields, min_secs, record_bench_section};
use anycast_core::experiments::dynamics_exp::{crowd_caps, entry_sessions, most_shedable_sites};
use anycast_core::World;
use dynamics::{DynamicsEngine, RoutingEvent, Scenario};
use loadmgmt::DistributedController;
use netsim::SimTime;

const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Builds one closed-loop engine at `population`: probe the flash
/// crowd's stressed loads, restore, then attach probe-derived
/// capacities and the distributed controller, as `dynload` does.
/// Returns the engine and the crowd scenario it will replay.
fn closed_loop_engine(world: &World, population: usize) -> (DynamicsEngine<'_>, Scenario) {
    let mut eng = expanded_engine(world, population);
    let init = eng.site_loads();
    let target = most_shedable_sites(&eng)[0];
    let center = eng.deployment().site(target).location;
    let (radius_km, factor) = (6_000.0, 2.0);
    eng.run(
        &Scenario::new("probe")
            .at(SimTime::from_secs(1.0), RoutingEvent::DemandScale { center, radius_km, factor }),
    );
    let caps = crowd_caps(&init, &eng.site_loads(), &entry_sessions(&eng));
    eng.run(&Scenario::new("restore").at(
        SimTime::from_secs(1.0),
        RoutingEvent::DemandScale { center, radius_km, factor: 1.0 / factor },
    ));
    let eng = eng.with_capacities(caps).with_controller(Box::new(DistributedController::default()));
    let scenario = Scenario::flash_crowd(
        "bench-load-crowd",
        center,
        radius_km,
        factor,
        SimTime::from_secs(60.0),
        300_000.0,
        60_000.0,
    );
    (eng, scenario)
}

fn main() {
    let world = bench_world();
    let mut rigs: Vec<(DynamicsEngine<'_>, Scenario)> =
        POPULATIONS.iter().map(|&p| closed_loop_engine(&world, p)).collect();

    // Recorded summary: minimum ms per epoch at each population (the
    // minimum of repeated runs estimates intrinsic cost; anything above
    // it is scheduler interference), plus the load ledger of the
    // untimed warm-up run proving the controller acted in it.
    const RUNS: usize = 15;
    let mut sections = Vec::new();
    let mut per_epoch = Vec::new();
    for ((eng, scenario), &pop) in rigs.iter_mut().zip(&POPULATIONS) {
        let before = eng.load_ledger().clone();
        eng.run(scenario);
        let after = eng.load_ledger();
        let rounds = after.controller_rounds - before.controller_rounds;
        let shed_users = after.shed_users - before.shed_users;
        assert!(rounds >= 1, "the crowd must make the controller act at {pop} users");
        let (secs, timeline) = min_secs(RUNS, || eng.run(scenario));
        let events = timeline.records.len().saturating_sub(1).max(1);
        let ms_per_epoch = secs * 1000.0 / events as f64;
        per_epoch.push(ms_per_epoch);
        sections.push(format!(
            "{{\"population\": {pop}, \"cohorts\": {}, \"events\": {events}, \
             \"ms_per_epoch\": {ms_per_epoch:.3}, \
             \"controller_rounds\": {rounds}, \"shed_users\": {shed_users:.3}}}",
            eng.cohort_count(),
        ));
    }
    let ratio = if per_epoch[1] > 0.0 { per_epoch[2] / per_epoch[1] } else { 0.0 };
    let json = format!(
        "{{\"scenario\": \"flash-crowd x2 + distributed controller\", {}, \"runs\": [{}], \
         \"ratio_1m_vs_100k\": {ratio:.3}}}",
        host_fields(),
        sections.join(", "),
    );
    record_bench_section("dynamics_load", &json);
    println!("dynamics closed-loop scale sweep: {json}");
}
