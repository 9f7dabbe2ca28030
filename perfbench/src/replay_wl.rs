//! The `replay` workload: `dynreplay`'s ×2 flash crowd and a flap of
//! the most-shedable site under the distributed controller, replayed
//! at a million users over a multi-hour horizon of short windows, so
//! serving windows outnumber engine epochs by tens to one.

use crate::report::{digest, Checks};
use crate::setup::{busiest_letter, crowd_caps, entry_sessions, most_shedable_sites, Engines};
use crate::trace;
use analysis::SiteCapacities;
use anycast_core::World;
use dynamics::{DynamicsEngine, EpochStepper, RecomputeMode, RoutingEvent, Scenario};
use netsim::SimTime;
use replay::{replay, QuerySchedule, ReplayConfig, ReplayOutcome};
use std::sync::Arc;
use std::time::Instant;
use topology::SiteId;

/// Replay horizon, simulated ms (three hours).
pub const HORIZON_MS: f64 = 3.0 * 3_600_000.0;

/// Serving-window length, simulated ms.
pub const WINDOW_MS: f64 = 10_000.0;

/// Controller ticks after the incident, one every 15 simulated minutes.
const LATE_TICK_MS: f64 = 900_000.0;

/// Everything the replay workload needs besides the world.
pub struct ReplaySetup<'w> {
    /// Engine builder over the busiest letter.
    pub engines: Engines<'w>,
    /// Stress-derived crowd capacities.
    pub caps: SiteCapacities,
    /// The crowd + flap scenario.
    pub scenario: Scenario,
    /// Window, horizon and stream seed.
    pub cfg: ReplayConfig,
    /// The flapped site.
    pub target: SiteId,
}

impl<'w> ReplaySetup<'w> {
    /// Derives capacities and the scenario from `world` the way
    /// `dynreplay` does, stretching the horizon with periodic controller
    /// ticks; `seed` drives the query stream.
    pub fn new(world: &'w World, seed: u64) -> Self {
        let letter = busiest_letter(world);
        let engines = Engines::new(world, Arc::clone(&letter.deployment));
        let mut probe = engines.build(RecomputeMode::Incremental);
        let init = probe.site_loads();
        let target = most_shedable_sites(&probe)[0];
        let center = letter.deployment.site(target).location;
        let (radius_km, factor) = (6_000.0, 2.0);
        probe.run(
            &Scenario::new("stress")
                .at(
                    SimTime::from_secs(1.0),
                    RoutingEvent::DemandScale {
                        center,
                        radius_km,
                        factor,
                    },
                )
                .at(SimTime::from_secs(2.0), RoutingEvent::SiteDown(target)),
        );
        let caps = crowd_caps(&init, &probe.site_loads(), &entry_sessions(&probe));
        drop(probe);
        let late_ticks = ((HORIZON_MS - 720_000.0) / LATE_TICK_MS).floor() as usize;
        let scenario = Scenario::new(format!("{}-replay", letter.deployment.name))
            .at(
                SimTime::from_secs(120.0),
                RoutingEvent::DemandScale {
                    center,
                    radius_km,
                    factor,
                },
            )
            .at(SimTime::from_secs(180.0), RoutingEvent::SiteDown(target))
            .ticks(SimTime::from_secs(240.0), 60_000.0, 4)
            .at(SimTime::from_secs(480.0), RoutingEvent::SiteUp(target))
            .at(
                SimTime::from_secs(600.0),
                RoutingEvent::DemandScale {
                    center,
                    radius_km,
                    factor: 1.0 / factor,
                },
            )
            .ticks(SimTime::from_secs(660.0), 60_000.0, 2)
            .ticks(
                SimTime::from_secs((720_000.0 + LATE_TICK_MS) / 1_000.0),
                LATE_TICK_MS,
                late_ticks,
            );
        let cfg = ReplayConfig {
            seed,
            window_ms: WINDOW_MS,
            horizon_ms: HORIZON_MS,
            dns_uncacheable_share: workload::DitlConfig::default().uncacheable_share(),
            ..ReplayConfig::default()
        };
        Self {
            engines,
            caps,
            scenario,
            cfg,
            target,
        }
    }

    /// A fresh engine with the crowd capacities and the distributed
    /// controller.
    pub fn engine(&self) -> DynamicsEngine<'w> {
        self.engines
            .build(RecomputeMode::Incremental)
            .with_capacities(self.caps.clone())
            .with_controller(Box::new(loadmgmt::DistributedController::default()))
    }

    /// Serving windows per replay.
    pub fn windows(&self) -> u64 {
        (self.cfg.horizon_ms / self.cfg.window_ms).ceil() as u64
    }
}

/// One `replay::replay` call on a fresh engine; returns its wall time.
pub fn replay_pass(setup: &ReplaySetup<'_>) -> (f64, ReplayOutcome) {
    let mut eng = setup.engine();
    let _s = trace::span("bench.replay_pass");
    let t = Instant::now();
    let outcome = {
        let _s = trace::span("replay.replay");
        replay(&mut eng, &setup.scenario, &setup.cfg)
    };
    (t.elapsed().as_secs_f64(), outcome)
}

/// Conservation in every window and in the totals.
pub fn check_outcome(setup: &ReplaySetup<'_>, out: &ReplayOutcome, checks: &mut Checks) {
    checks.check(out.windows.len() as u64 == setup.windows(), || {
        format!(
            "{} windows served, {} expected",
            out.windows.len(),
            setup.windows()
        )
    });
    for w in &out.windows {
        checks.check(w.served + w.degraded == w.generated, || {
            format!("window at {} ms: served + degraded != generated", w.t_ms)
        });
    }
    checks.check(
        out.served + out.degraded == out.generated && out.generated > 0,
        || "stream totals do not conserve".into(),
    );
}

/// Exact digest of a replay's window stream and timeline.
pub fn stream_digest(out: &ReplayOutcome) -> u64 {
    digest(format!("{:?}{:?}", out.windows, out.timeline.records).as_bytes())
}

/// Steps the same scenario on a fresh engine with the same controller
/// — `DynamicsEngine::run`'s loop, surrendered epoch by epoch — and
/// returns per-step wall times (ms) and the timeline digest.
pub fn engine_pass(setup: &ReplaySetup<'_>) -> (Vec<f64>, u64) {
    let mut eng = setup.engine();
    let _s = trace::span("bench.engine_pass");
    let mut stepper = EpochStepper::new(&eng, &setup.scenario);
    let mut steps = Vec::new();
    loop {
        let t = Instant::now();
        let stepped = {
            let _s = trace::span("dynamics.step");
            stepper.step(&mut eng)
        };
        if !stepped {
            break;
        }
        steps.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let timeline = stepper.finish(&mut eng);
    (steps, digest(format!("{:?}", timeline.records).as_bytes()))
}

/// The serving kernel alone: `QuerySchedule::window_counts` over every
/// cohort for `windows` windows of the initial catchment, ns per user
/// per window. Returns the total generated queries as well, so the
/// work cannot be optimized away.
pub fn window_counts_ns_per_user(setup: &ReplaySetup<'_>, windows: u64) -> (f64, u64) {
    let mut eng = setup.engine();
    let schedule = QuerySchedule::new(eng.population(), &setup.cfg);
    let cohorts = eng.serving_cohorts();
    let cols = eng.columns();
    let mut total = 0u64;
    let t = Instant::now();
    for w in 0..windows {
        let _s = trace::span("replay.window_counts");
        for c in &cohorts {
            let qpd = &cols.queries_per_day[c.start as usize..c.end as usize];
            let (dns, cdn) = schedule.window_counts(w, c.start, qpd);
            total += dns + cdn;
        }
    }
    let ns = t.elapsed().as_secs_f64() * 1e9;
    let population = schedule.population() as f64;
    (
        ns / (population * windows as f64),
        std::hint::black_box(total),
    )
}

/// `DynamicsEngine::columns` right after a catchment change: the flap
/// of the target site, down then up, `reps` times; ms per call.
pub fn columns_ms(setup: &ReplaySetup<'_>, reps: usize) -> Vec<f64> {
    let mut eng = setup.engine();
    eng.columns();
    let mut scenario = Scenario::new("columns");
    for i in 0..reps {
        let t = SimTime::from_secs(60.0 * (i as f64 + 1.0));
        let ev = if i % 2 == 0 {
            RoutingEvent::SiteDown(setup.target)
        } else {
            RoutingEvent::SiteUp(setup.target)
        };
        scenario = scenario.at(t, ev);
    }
    let mut stepper = EpochStepper::new(&eng, &scenario);
    let mut out = Vec::with_capacity(reps);
    while stepper.step(&mut eng) {
        let t = Instant::now();
        {
            let _s = trace::span("dynamics.columns");
            std::hint::black_box(eng.columns());
        }
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out
}
