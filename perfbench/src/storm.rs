//! The `storm` workload: a routing storm and a load storm on the
//! busiest root letter at a million expanded users, each run in two
//! phases over the same incidents — *engine passes* that time every
//! `EpochStepper::step` of the incremental engine alone, and *verified
//! passes* through `chaos::run_storm` with the full-recompute oracle
//! every 16 epochs.
//!
//! The engine pass applies `chaos::switch_schedule` exactly as the
//! harness does, so its timeline must equal the verified pass's: the
//! engine that is timed is the engine that was verified.

use crate::report::{digest, Checks};
use crate::setup::{busiest_letter, storm_neighbors, Engines};
use crate::trace;
use analysis::SiteCapacities;
use anycast_core::World;
use chaos::{
    check_epoch, compare_oracle, generate, run_storm, scenario_from, switch_schedule, ChaosOptions,
    ChaosReport, CounterBaseline, Incident, IncidentKind, PolicyName, StormConfig, StormRegime,
};
use dynamics::{DynamicsEngine, EpochRecord, EpochStepper, RecomputeMode, Timeline};
use geo::GeoPoint;
use netsim::SimTime;
use std::sync::Arc;
use std::time::Instant;
use topology::{Asn, SiteId};

/// Oracle cadence, epochs — the `dynchaos` experiment's.
pub const ORACLE_EVERY: u64 = 16;

/// Incidents per storm.
pub const INCIDENTS_PER_STORM: usize = 60;

/// Incidents generated per storm before stratified selection.
const POOL: usize = 16 * INCIDENTS_PER_STORM;

/// What one epoch mostly did, from the labels of the records it
/// appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Quiet: controller ticks, demand surges, capacity dips.
    Quiet,
    /// Site down/up, or a same-instant flap.
    Flap,
    /// Staged drain start, stage, end or abort.
    Drain,
    /// Controller decision rounds followed the epoch.
    Ctrl,
    /// Peering loss or restore toward a neighbor AS.
    Peering,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 5] = [
        Kind::Peering,
        Kind::Drain,
        Kind::Ctrl,
        Kind::Flap,
        Kind::Quiet,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Quiet => "quiet",
            Kind::Flap => "flap",
            Kind::Drain => "drain",
            Kind::Ctrl => "ctrl",
            Kind::Peering => "peering",
        }
    }
}

/// Kind of one label token (`"peering-down AS7"`, `"tick"`, …).
fn token_kind(token: &str) -> Option<Kind> {
    let verb = token.split_whitespace().next().unwrap_or("");
    Some(match verb {
        "peering-down" | "peering-up" | "peering-flap" => Kind::Peering,
        "drain-start" | "drain-stage" | "drain-end" | "drain-abort" => Kind::Drain,
        "down" | "up" | "flap" => Kind::Flap,
        "tick" | "surge" | "cap" => Kind::Quiet,
        _ => return None,
    })
}

/// Classifies one `EpochStepper::step` by the records it appended: the
/// costliest kind any label names, in the order peering, controller,
/// drain, flap, quiet. A label outside the routing and load storm
/// families is an error, never a silent bucket.
pub fn classify(records: &[EpochRecord]) -> Result<Kind, String> {
    let mut kind: Option<Kind> = None;
    for r in records {
        let k = if r.event.starts_with("ctrl[") {
            Kind::Ctrl
        } else {
            let mut worst: Option<Kind> = None;
            for token in r.event.split(" + ").flat_map(|t| t.split(" => ")) {
                let k = token_kind(token)
                    .ok_or_else(|| format!("unclassified epoch label {:?}", r.event))?;
                worst = worst.max(Some(k));
            }
            worst.ok_or_else(|| format!("empty epoch label at t={}", r.t_ms))?
        };
        kind = kind.max(Some(k));
    }
    kind.ok_or_else(|| "step appended no records".into())
}

/// One storm: its incidents and whether it runs on the capacity-aware,
/// controller-driven engine.
pub struct Storm {
    /// `routing` or `load`.
    pub name: &'static str,
    /// The incident list (a pure function of the seed).
    pub incidents: Vec<Incident>,
    /// Capacity table and hysteresis controller attached.
    pub with_load: bool,
}

/// Everything the storm workload needs besides the world.
pub struct StormSetup<'w> {
    /// Engine builder over the busiest letter.
    pub engines: Engines<'w>,
    /// Site capacities of the load storm (1.25× headroom).
    pub caps: SiteCapacities,
    /// The routing storm, then the load storm.
    pub storms: Vec<Storm>,
    /// Sites in the deployment.
    pub sites: usize,
}

impl<'w> StormSetup<'w> {
    /// Derives both storms the way `dynchaos` does, from the storm
    /// seed `seed` over `world`, at [`INCIDENTS_PER_STORM`] incidents
    /// each (see [`stratify`]).
    pub fn new(world: &'w World, seed: u64) -> Self {
        let letter = busiest_letter(world);
        let dep = &letter.deployment;
        let engines = Engines::new(world, Arc::clone(dep));
        let probe = engines.build(RecomputeMode::Incremental);
        let neighbors = storm_neighbors(&probe, dep);
        let loads = probe.site_loads();
        let caps = SiteCapacities::from_headroom(&loads, 1.25, 1.0);
        drop(probe);
        let mut by_load: Vec<SiteId> = (0..loads.len() as u32).map(SiteId).collect();
        by_load.sort_by(|a, b| {
            loads[b.0 as usize]
                .total_cmp(&loads[a.0 as usize])
                .then(a.cmp(b))
        });
        let centers: Vec<GeoPoint> = dep.sites.iter().map(|s| s.location).collect();
        let targets = Targets {
            by_load,
            neighbors: neighbors.clone(),
            centers: centers.clone(),
        };
        let cfg = |seed: u64, regime: StormRegime| StormConfig {
            seed,
            incidents: POOL,
            start: SimTime::from_secs(60.0),
            mean_gap_ms: 45_000.0,
            sites: dep.sites.len() as u32,
            neighbors: neighbors.clone(),
            centers: if regime == StormRegime::Load {
                centers.clone()
            } else {
                vec![]
            },
            rings: 0,
            regime,
        };
        let storms = vec![
            Storm {
                name: "routing",
                incidents: stratify(
                    &generate(&cfg(seed, StormRegime::Routing)),
                    StormRegime::Routing,
                    &targets,
                    seed,
                ),
                with_load: false,
            },
            Storm {
                name: "load",
                incidents: stratify(
                    &generate(&cfg(seed ^ 0x9e37_79b9, StormRegime::Load)),
                    StormRegime::Load,
                    &targets,
                    seed,
                ),
                with_load: true,
            },
        ];
        Self {
            engines,
            caps,
            storms,
            sites: dep.sites.len(),
        }
    }

    /// A fresh engine for `storm` in `mode`.
    pub fn engine(&self, storm: &Storm, mode: RecomputeMode) -> DynamicsEngine<'w> {
        let eng = self.engines.build(mode);
        if storm.with_load {
            eng.with_capacities(self.caps.clone())
                .with_controller(Box::new(loadmgmt::HysteresisController::default()))
        } else {
            eng
        }
    }
}

/// Incident family of `k`, for stratification.
fn family(k: &IncidentKind) -> usize {
    match k {
        IncidentKind::Flap { .. } => 0,
        IncidentKind::Drain { .. } => 1,
        IncidentKind::PeeringFlap { .. } => 2,
        IncidentKind::SwapCycle { .. } => 3,
        IncidentKind::Surge { .. } => 4,
        IncidentKind::CapacityDip { .. } => 5,
        IncidentKind::PolicySwitch { .. } => 6,
        IncidentKind::Tick => 7,
    }
}

/// Each family's share of a storm, in percent, indexed by [`family`]:
/// the roll table of `chaos::generate` for each regime.
fn mix(regime: StormRegime) -> [u32; 8] {
    match regime {
        StormRegime::Routing => [35, 25, 20, 0, 0, 0, 0, 20],
        StormRegime::Swap => [25, 20, 15, 25, 0, 0, 0, 15],
        StormRegime::Load => [20, 12, 8, 0, 20, 20, 8, 12],
    }
}

/// Ranges `chaos::generate` draws outages, holds, drain stage gaps and
/// holds, surge factors, surge radii and capacity-dip factors from.
const OUTAGE_MS: (f64, f64) = (20_000.0, 140_000.0);
const HOLD_MS: (f64, f64) = (30_000.0, 120_000.0);
const STAGE_MS: (f64, f64) = (8_000.0, 32_000.0);
const DRAIN_HOLD_MS: (f64, f64) = (15_000.0, 75_000.0);
const SURGE_FACTOR: (f64, f64) = (1.25, 2.5);
const SURGE_RADIUS_KM: (f64, f64) = (2_000.0, 8_000.0);
const DIP_FACTOR: (f64, f64) = (0.4, 0.9);

/// Midpoint of the k-th of n equal sub-ranges of `range`.
fn stratum_mid((lo, hi): (f64, f64), k: usize, n: usize) -> f64 {
    lo + (hi - lo) * (k as f64 + 0.5) / n as f64
}

/// What incidents may target: sites ranked by load (heaviest first),
/// peering-flap neighbors, and surge centers indexed by site id.
pub struct Targets {
    /// Site ids, heaviest load first.
    pub by_load: Vec<SiteId>,
    /// Peering-flap neighbor ASes.
    pub neighbors: Vec<Asn>,
    /// Surge epicenter per site id.
    pub centers: Vec<GeoPoint>,
}

/// Stratified storm of [`INCIDENTS_PER_STORM`] incidents drawn from a
/// generated pool, so that storms of different seeds cost alike.
///
/// Each family's count is fixed by the regime's [`mix`] (largest
/// remainder); the picks keep pool order and take the pool's first
/// start times, keeping `dynchaos`'s incident spacing. A family's n
/// incidents cover n strata once each: the median site of each of n
/// equal load strata (flap, drain, capacity dip, surge epicenter), the
/// midpoint of each of n equal sub-ranges of every duration and factor
/// the generator draws, drain stage counts 1, 2, 3 in turn, and the
/// neighbors in turn for peering flaps. The seed orders the strata
/// within each family and draws every start time; policy switches
/// rotate through `PolicyName::ALL` in time order.
pub fn stratify(
    pool: &[Incident],
    regime: StormRegime,
    targets: &Targets,
    seed: u64,
) -> Vec<Incident> {
    let shares = mix(regime);
    let exact: Vec<f64> = shares
        .iter()
        .map(|&p| f64::from(p) * INCIDENTS_PER_STORM as f64 / 100.0)
        .collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..quota.len()).collect();
    let rem = |f: usize| exact[f] - exact[f].floor();
    order.sort_by(|&a, &b| rem(b).total_cmp(&rem(a)).then(a.cmp(&b)));
    let short = INCIDENTS_PER_STORM - quota.iter().sum::<usize>();
    for &f in order.iter().take(short) {
        quota[f] += 1;
    }
    // The seed's stratum order per family.
    let perms: Vec<Vec<usize>> = quota
        .iter()
        .enumerate()
        .map(|(f, &n)| {
            let mut p: Vec<usize> = (0..n).collect();
            p.sort_by_key(|&k| par::seed_for(seed ^ f as u64, k as u64));
            p
        })
        .collect();
    let ranked = &targets.by_load;
    let site = |k: usize, n: usize| {
        let (lo, hi) = (
            k * ranked.len() / n,
            ((k + 1) * ranked.len() / n).max(k * ranked.len() / n + 1),
        );
        ranked[(lo + hi - 1) / 2]
    };
    let mut seen = [0usize; 8];
    let mut picks = Vec::with_capacity(INCIDENTS_PER_STORM);
    for inc in pool {
        let f = family(&inc.kind);
        let (j, n) = (seen[f], quota[f]);
        if j == n {
            continue;
        }
        seen[f] += 1;
        let k = perms[f][j];
        let mut kind = inc.kind;
        // Durations take the k-th stratum too, reversed for the second
        // parameter of a family so that long and short pair up evenly.
        let (fwd, rev) = (k, n - 1 - k);
        match &mut kind {
            IncidentKind::Flap { site: s, outage_ms } => {
                *s = site(k, n);
                *outage_ms = stratum_mid(OUTAGE_MS, rev, n);
            }
            IncidentKind::Drain {
                site: s,
                stage_ms,
                stages,
                hold_ms,
            } => {
                *s = site(k, n);
                *stages = 1 + (k % 3) as u32;
                *stage_ms = stratum_mid(STAGE_MS, rev, n);
                *hold_ms = stratum_mid(DRAIN_HOLD_MS, fwd, n);
            }
            IncidentKind::PeeringFlap {
                neighbor,
                outage_ms,
            } => {
                *neighbor = targets.neighbors[k % targets.neighbors.len()];
                *outage_ms = stratum_mid(OUTAGE_MS, fwd, n);
            }
            IncidentKind::Surge {
                center,
                radius_km,
                factor,
                hold_ms,
            } => {
                *center = targets.centers[site(k, n).0 as usize];
                *factor = stratum_mid(SURGE_FACTOR, fwd, n);
                *radius_km = stratum_mid(SURGE_RADIUS_KM, rev, n);
                *hold_ms = stratum_mid(HOLD_MS, rev, n);
            }
            IncidentKind::CapacityDip {
                site: s,
                factor,
                hold_ms,
            } => {
                *s = site(k, n);
                *factor = stratum_mid(DIP_FACTOR, fwd, n);
                *hold_ms = stratum_mid(HOLD_MS, rev, n);
            }
            IncidentKind::PolicySwitch { policy } => {
                *policy = PolicyName::ALL[(j + 1) % PolicyName::ALL.len()];
            }
            IncidentKind::SwapCycle { .. } | IncidentKind::Tick => {}
        }
        picks.push(kind);
    }
    picks
        .into_iter()
        .zip(pool)
        .map(|(kind, slot)| Incident { at: slot.at, kind })
        .collect()
}

/// The engine pass over one storm.
pub struct EnginePass {
    /// Per-step wall time, ms, with the step's kind.
    pub steps: Vec<(Kind, f64)>,
    /// Wall time of the stepping loop (engine construction excluded), s.
    pub secs: f64,
    /// The finished timeline.
    pub timeline: Timeline,
    /// `dynamics.assign_reused` delta.
    pub reused: u64,
    /// `dynamics.assign_recomputed` delta.
    pub recomputed: u64,
    /// `dynamics.invalidation.slice_users` delta.
    pub slice_users: u64,
    /// `bgp.origin_computations` delta.
    pub origin_computations: u64,
    /// Controller rounds from the engine's load ledger.
    pub controller_rounds: u64,
}

/// Steps `storm` on a fresh incremental engine, timing every step and
/// applying the policy-switch schedule before the epoch it precedes.
pub fn engine_pass(setup: &StormSetup<'_>, storm: &Storm, checks: &mut Checks) -> EnginePass {
    let mut eng = setup.engine(storm, RecomputeMode::Incremental);
    let _s = trace::span("bench.engine_pass");
    let scenario = scenario_from(storm.name, &storm.incidents);
    let switches = switch_schedule(&storm.incidents);
    let c0 = Counters::read();
    let t_pass = Instant::now();
    let mut stepper = EpochStepper::new(&eng, &scenario);
    let mut steps = Vec::new();
    let mut si = 0usize;
    loop {
        if let Some(next) = stepper.next_time() {
            while si < switches.len() && switches[si].0.as_ms() <= next.as_ms() {
                eng.set_controller(Some(switches[si].1.controller()));
                si += 1;
            }
        }
        let before = stepper.records().len();
        let t = Instant::now();
        let stepped = {
            let _s = trace::span("dynamics.step");
            stepper.step(&mut eng)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !stepped {
            break;
        }
        match classify(&stepper.records()[before..]) {
            Ok(kind) => steps.push((kind, ms)),
            Err(e) => checks.check(false, || format!("{}: {e}", storm.name)),
        }
    }
    let timeline = stepper.finish(&mut eng);
    let secs = t_pass.elapsed().as_secs_f64();
    let c1 = Counters::read();
    EnginePass {
        steps,
        secs,
        timeline,
        reused: c1.reused - c0.reused,
        recomputed: c1.recomputed - c0.recomputed,
        slice_users: c1.slice_users - c0.slice_users,
        origin_computations: c1.origin_computations - c0.origin_computations,
        controller_rounds: eng.load_ledger().controller_rounds,
    }
}

/// `run_storm` over `storm` with the oracle every [`ORACLE_EVERY`]
/// epochs, returning its wall time (both engines' construction
/// included, as a caller of the harness pays it) and report.
pub fn verified_pass(setup: &StormSetup<'_>, storm: &Storm) -> (f64, ChaosReport) {
    let factory = |mode: RecomputeMode| setup.engine(storm, mode);
    let opts = ChaosOptions {
        name: storm.name.into(),
        oracle_every: ORACLE_EVERY,
        counter_checks: true,
        synthetic_violation_label: None,
        stop_on_violation: false,
    };
    let t = Instant::now();
    let report = {
        let _s = trace::span("chaos.run_storm");
        run_storm(&factory, &storm.incidents, &opts)
    };
    (t.elapsed().as_secs_f64(), report)
}

/// Checks a verified pass against the engine pass of the same storm.
pub fn check_verified(
    storm: &Storm,
    engine: &EnginePass,
    report: &ChaosReport,
    checks: &mut Checks,
) {
    checks.check(report.ok(), || {
        let first = report
            .violations
            .first()
            .map(|v| v.to_string())
            .unwrap_or_default();
        format!(
            "{}: {} violations, first: {first}",
            storm.name,
            report.violations.len()
        )
    });
    checks.check(
        timeline_digest(&engine.timeline) == timeline_digest(&report.timeline),
        || {
            format!(
                "{}: engine-pass timeline differs from the verified timeline",
                storm.name
            )
        },
    );
}

/// Exact digest of a timeline: every record's `Debug` form, whose
/// floats print shortest-roundtrip.
pub fn timeline_digest(t: &Timeline) -> u64 {
    digest(format!("{:?}", t.records).as_bytes())
}

/// Wall time of the verification layers, measured by re-running the
/// harness loop by hand: the Full-mode oracle's steps, `check_epoch`
/// and `compare_oracle`, each summed over the storm.
#[derive(Debug, Default, Clone, Copy)]
pub struct VerifyLayers {
    /// Oracle engine stepping, s.
    pub oracle_s: f64,
    /// `check_epoch` total, s.
    pub invariants_s: f64,
    /// `compare_oracle` total, s.
    pub compare_s: f64,
}

/// The lockstep loop of `chaos::run_storm`, timed per layer. Its
/// violations must match the harness's (none).
pub fn verify_layers(setup: &StormSetup<'_>, storm: &Storm, checks: &mut Checks) -> VerifyLayers {
    let scenario = scenario_from(storm.name, &storm.incidents);
    let switches = switch_schedule(&storm.incidents);
    let mut eng = setup.engine(storm, RecomputeMode::Incremental);
    let mut oracle = setup.engine(storm, RecomputeMode::Full);
    let population = eng.population();
    let mut stepper = EpochStepper::new(&eng, &scenario);
    let mut ostepper = EpochStepper::new(&oracle, &scenario);
    let baseline = CounterBaseline::capture();
    let mut out = VerifyLayers::default();
    let mut violations = Vec::new();
    let (mut epochs, mut si) = (0u64, 0usize);
    loop {
        if let Some(next) = stepper.next_time() {
            while si < switches.len() && switches[si].0.as_ms() <= next.as_ms() {
                eng.set_controller(Some(switches[si].1.controller()));
                oracle.set_controller(Some(switches[si].1.controller()));
                si += 1;
            }
        }
        let before = stepper.records().len();
        if !stepper.step(&mut eng) {
            break;
        }
        epochs += 1;
        let obefore = ostepper.records().len();
        let t = Instant::now();
        let stepped = {
            let _s = trace::span("chaos.oracle_step");
            ostepper.step(&mut oracle)
        };
        out.oracle_s += t.elapsed().as_secs_f64();
        if !stepped {
            checks.check(false, || format!("{}: oracle ran dry early", storm.name));
            break;
        }
        let new = &stepper.records()[before..];
        let t = Instant::now();
        {
            let _s = trace::span("chaos.check_epoch");
            check_epoch(
                &eng,
                new,
                population,
                Some(&baseline),
                epochs,
                &mut violations,
            );
        }
        out.invariants_s += t.elapsed().as_secs_f64();
        if epochs % ORACLE_EVERY == 0 {
            let t = Instant::now();
            {
                let _s = trace::span("chaos.compare_oracle");
                compare_oracle(
                    &eng,
                    &oracle,
                    new,
                    &ostepper.records()[obefore..],
                    epochs,
                    &mut violations,
                );
            }
            out.compare_s += t.elapsed().as_secs_f64();
        }
    }
    stepper.finish(&mut eng);
    ostepper.finish(&mut oracle);
    checks.check(violations.is_empty(), || {
        format!(
            "{}: {} violations in the timed lockstep loop",
            storm.name,
            violations.len()
        )
    });
    out
}

/// Counters read around an engine pass.
struct Counters {
    reused: u64,
    recomputed: u64,
    slice_users: u64,
    origin_computations: u64,
}

impl Counters {
    fn read() -> Self {
        Self {
            reused: obs::counter_value("dynamics.assign_reused"),
            recomputed: obs::counter_value("dynamics.assign_recomputed"),
            slice_users: obs::counter_value("dynamics.invalidation.slice_users"),
            origin_computations: obs::counter_value("bgp.origin_computations"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::world_config;
    use anycast_core::WorldConfig;

    fn rec(event: &str) -> EpochRecord {
        EpochRecord {
            t_ms: 1.0,
            event: event.into(),
            shifted: 0.0,
            shifted_frac: 0.0,
            unserved_frac: 0.0,
            median_ms: None,
            inflation_ms: None,
            mean_path_km: None,
            convergence_ms: 0.0,
            degraded_queries: 0.0,
            recomputed: 0,
            reused: 0,
            headroom_frac: None,
            note: String::new(),
        }
    }

    #[test]
    fn stratify_fixes_the_mix_and_keeps_the_spacing() {
        let cfg = |seed| StormConfig {
            seed,
            incidents: POOL,
            start: SimTime::from_secs(60.0),
            mean_gap_ms: 45_000.0,
            sites: 40,
            neighbors: vec![topology::Asn(7)],
            centers: vec![],
            rings: 0,
            regime: StormRegime::Routing,
        };
        let counts = |v: &[Incident]| {
            let mut c = [0usize; 8];
            v.iter().for_each(|i| c[family(&i.kind)] += 1);
            c
        };
        let (a, b) = (generate(&cfg(1)), generate(&cfg(2)));
        let targets = Targets {
            by_load: (0..40).rev().map(SiteId).collect(),
            neighbors: vec![topology::Asn(7), topology::Asn(9)],
            centers: vec![],
        };
        let sa = stratify(&a, StormRegime::Routing, &targets, 1);
        let sb = stratify(&b, StormRegime::Routing, &targets, 2);
        assert_eq!(sa.len(), INCIDENTS_PER_STORM);
        // 35/25/20/20 percent of 60 incidents.
        assert_eq!(counts(&sa), [21, 15, 12, 0, 0, 0, 0, 12]);
        assert_eq!(
            counts(&sb),
            counts(&sa),
            "the mix does not depend on the seed"
        );
        assert!(sa.iter().zip(&a).all(|(s, p)| s.at == p.at));
        assert_ne!(sa, sb);
        // The 21 flaps hit the median site of each of 21 load strata
        // (sites 39..0, heaviest first), in a seed-chosen order.
        let flaps = |v: &[Incident]| -> Vec<u32> {
            v.iter()
                .filter_map(|i| match i.kind {
                    IncidentKind::Flap { site, .. } => Some(site.0),
                    _ => None,
                })
                .collect()
        };
        let (fa, fb) = (flaps(&sa), flaps(&sb));
        assert_ne!(fa, fb);
        let sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(fa.clone()), sorted(fb));
        let expect: Vec<u32> = sorted(
            (0..21)
                .map(|k| 39 - ((k * 40 / 21 + (k + 1) * 40 / 21 - 1) / 2) as u32)
                .collect(),
        );
        assert_eq!(sorted(fa), expect);
    }

    #[test]
    fn classifier_ranks_the_costliest_label() {
        let k = |labels: &[&str]| classify(&labels.iter().map(|l| rec(l)).collect::<Vec<_>>());
        assert_eq!(k(&["tick"]), Ok(Kind::Quiet));
        assert_eq!(k(&["down site-3 + surge x1.50"]), Ok(Kind::Flap));
        assert_eq!(
            k(&["drain-stage site-1 => drain-abort site-1"]),
            Ok(Kind::Drain)
        );
        assert_eq!(
            k(&["surge x2.00", "ctrl[hysteresis] shed 2 + release 1"]),
            Ok(Kind::Ctrl)
        );
        assert_eq!(
            k(&["peering-flap AS12 + drain-end site-4"]),
            Ok(Kind::Peering)
        );
        assert!(k(&["withdraw AS9"]).is_err(), "no catch-all bucket");
        assert!(k(&["promote ring-1"]).is_err(), "no catch-all bucket");
        assert!(k(&[]).is_err());
    }

    /// Every label both storm regimes emit on a small world classifies.
    #[test]
    fn classifier_covers_both_storm_regimes() {
        let world = World::build(&WorldConfig {
            scale: 0.12,
            atlas_probes: 80,
            log_samples: 7,
            client_samples: 5,
            dyn_population: Some(20_000),
            ..world_config(7)
        });
        let setup = StormSetup::new(&world, 7);
        let mut checks = Checks::default();
        let mut kinds = std::collections::BTreeSet::new();
        for storm in &setup.storms {
            let pass = engine_pass(&setup, storm, &mut checks);
            kinds.extend(pass.steps.iter().map(|(k, _)| *k));
        }
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);
        assert!(kinds.contains(&Kind::Peering) && kinds.contains(&Kind::Flap));
    }
}
