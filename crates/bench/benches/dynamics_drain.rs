//! Load-aware drain cost: what staged withhold escalation and the
//! per-stage capacity check add on top of a binary drain.
//!
//! Both runs drain the busiest root letter's hottest site and recover
//! it; the staged variant escalates through three withhold stages with
//! a post-stage load check against per-site capacities, the binary
//! variant (stages = 1) downs the site in one epoch. The gap is the
//! price of the gradual-drain machinery per maintenance window.

use analysis::SiteCapacities;
use anycast_bench::{bench_world, letter_engine, min_secs};
use anycast_core::experiments::dynamics_exp::hottest_site;
use dynamics::{RecomputeMode, Scenario};
use netsim::SimTime;
use topology::SiteId;

fn drain_scenario(name: &str, target: SiteId, stages: u32) -> Scenario {
    Scenario::gradual_drain(name, target, SimTime::from_secs(30.0), 60_000.0, stages, 300_000.0)
}

fn main() {
    let world = bench_world();
    // Capacity for the whole population at every site: every drain
    // completes and ends back at baseline, so the engines can be reused
    // across runs.
    let probe = letter_engine(&world, RecomputeMode::Incremental);
    let total: f64 = probe.site_loads().iter().sum();
    let capacities = SiteCapacities::uniform(probe.deployment().sites.len(), total.max(1.0));
    let target = hottest_site(&probe);
    let mut staged =
        letter_engine(&world, RecomputeMode::Incremental).with_capacities(capacities.clone());
    let mut binary = letter_engine(&world, RecomputeMode::Incremental).with_capacities(capacities);
    let staged_scenario = drain_scenario("bench-drain-staged", target, 3);
    let binary_scenario = drain_scenario("bench-drain-binary", target, 1);

    let (staged_secs, t_staged) = min_secs(10, || staged.run(&staged_scenario));
    let (binary_secs, t_binary) = min_secs(10, || binary.run(&binary_scenario));
    println!("dynamics_drain/staged_3: min {:.3} ms", staged_secs * 1e3);
    println!("dynamics_drain/binary: min {:.3} ms", binary_secs * 1e3);

    // The staged run escalates through more epochs than the binary one.
    assert!(
        t_staged.records.len() > t_binary.records.len(),
        "staged drain must emit more epochs ({} vs {})",
        t_staged.records.len(),
        t_binary.records.len()
    );
    assert!(
        t_staged.records.iter().all(|r| !r.note.contains("abort")),
        "generous capacity must never abort"
    );
}
