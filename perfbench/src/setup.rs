//! Set-up shared by the workloads: the paper-scale world and the
//! million-user engines over the busiest root letter.
//!
//! The engine helpers mirror the private helpers of the `dyn*`
//! experiments (`dynamics_exp.rs`, `chaos_exp.rs`) so that the storm
//! and replay workloads drive the same deployments, populations and
//! capacity tables those experiments do, through public APIs only.

use analysis::SiteCapacities;
use anycast_core::{World, WorldConfig};
use dns::letters::RootLetter;
use dynamics::{DynUser, DynamicsEngine, RecomputeMode};
use std::sync::Arc;
use std::time::Instant;
use topology::{AnycastDeployment, Asn, SiteId};

/// World scale of every workload: the paper's.
pub const SCALE: f64 = 1.0;

/// Expanded users behind every engine (`WorldConfig::dyn_population`
/// at scale 1.0).
pub const POPULATION: usize = 1_000_000;

/// The paper-scale world for `seed`.
pub fn world_config(seed: u64) -> WorldConfig {
    WorldConfig {
        dyn_population: Some(POPULATION),
        ..WorldConfig::paper(seed)
    }
}

/// Builds the world `reps` times (each build dropped before the next,
/// so peak memory holds one world) and keeps the last one, returning
/// it with every build's wall time.
pub fn build_world(seed: u64, reps: usize) -> (World, Vec<f64>) {
    let cfg = world_config(seed);
    let mut times = Vec::with_capacity(reps);
    let mut world = None;
    for _ in 0..reps.max(1) {
        drop(world.take());
        let _s = crate::trace::span("core.world_build");
        let t = Instant::now();
        world = Some(World::build(&cfg));
        times.push(t.elapsed().as_secs_f64());
    }
    (world.expect("at least one build"), times)
}

/// The world's population as dynamics traffic sources, query volume
/// apportioned from the DITL total by user weight.
pub fn dyn_users(world: &World) -> Vec<DynUser> {
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

/// The root letter with the most global sites (first on ties).
pub fn busiest_letter(world: &World) -> &RootLetter {
    world
        .letters
        .letters
        .iter()
        .fold(None::<&RootLetter>, |best, l| match best {
            Some(b) if b.deployment.global_site_count() >= l.deployment.global_site_count() => {
                Some(b)
            }
            _ => Some(l),
        })
        .expect("letter set is non-empty")
}

/// Builds engines over one deployment at [`POPULATION`] users. The
/// base sources and their expansion counts are computed once, so each
/// [`Engines::build`] times only `DynamicsEngine::new_expanded`.
pub struct Engines<'w> {
    world: &'w World,
    deployment: Arc<AnycastDeployment>,
    base: Vec<DynUser>,
    counts: Vec<u32>,
}

impl<'w> Engines<'w> {
    /// Expansion inputs for `deployment` in `world`.
    pub fn new(world: &'w World, deployment: Arc<AnycastDeployment>) -> Self {
        let base = dyn_users(world);
        let counts = dynamics::expand_counts(
            &base.iter().map(|u| u.weight).collect::<Vec<_>>(),
            world.config.dyn_population(),
            world.config.seed,
        );
        Self {
            world,
            deployment,
            base,
            counts,
        }
    }

    /// A fresh engine in `mode`.
    pub fn build(&self, mode: RecomputeMode) -> DynamicsEngine<'w> {
        let _s = crate::trace::span("dynamics.new_expanded");
        DynamicsEngine::new_expanded(
            &self.world.internet.graph,
            Arc::clone(&self.deployment),
            self.world.model,
            &self.base,
            &self.counts,
            self.world.config.seed,
            mode,
        )
    }

    /// Builds `reps` engines (dropping each), returning the wall times.
    pub fn time_builds(&self, reps: usize) -> Vec<f64> {
        (0..reps.max(1))
            .map(|_| {
                let t = Instant::now();
                let eng = self.build(RecomputeMode::Incremental);
                let secs = t.elapsed().as_secs_f64();
                drop(eng);
                secs
            })
            .collect()
    }
}

/// The heaviest transit ASes hosting no site: peering-flap targets
/// whose loss reroutes user weight.
pub fn storm_neighbors(probe: &DynamicsEngine<'_>, deployment: &AnycastDeployment) -> Vec<Asn> {
    probe
        .transit_loads()
        .into_iter()
        .map(|(asn, _)| asn)
        .filter(|asn| !deployment.sites.iter().any(|s| s.host == *asn))
        .take(3)
        .collect()
}

/// Per-site entry sessions, lightest first.
pub fn entry_sessions(eng: &DynamicsEngine<'_>) -> Vec<Vec<(Asn, f64)>> {
    (0..eng.deployment().sites.len())
        .map(|i| {
            let mut v: Vec<(Asn, f64)> = eng.site_via_loads(SiteId(i as u32)).into_iter().collect();
            v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            v
        })
        .collect()
}

/// Sites ranked by entry-session count, then load, then id.
pub fn most_shedable_sites(eng: &DynamicsEngine<'_>) -> Vec<SiteId> {
    let loads = eng.site_loads();
    let sessions: Vec<usize> = (0..loads.len())
        .map(|i| eng.site_via_loads(SiteId(i as u32)).len())
        .collect();
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| {
        sessions[b]
            .cmp(&sessions[a])
            .then(loads[b].total_cmp(&loads[a]))
            .then(a.cmp(&b))
    });
    order.into_iter().map(|i| SiteId(i as u32)).collect()
}

/// The flash-crowd capacity table of the `dynload*`/`dynreplay`
/// experiments: hit sites must shed 40% of their surge, calm sites get
/// their worst load plus 20% and a spill budget.
pub fn crowd_caps(init: &[f64], stressed: &[f64], sessions: &[Vec<(Asn, f64)>]) -> SiteCapacities {
    let total: f64 = init.iter().sum();
    let floor = (total * 0.02).max(1.0);
    let hit: Vec<bool> = init
        .iter()
        .zip(stressed)
        .zip(sessions)
        .map(|((i, s), sess)| sess.len() >= 2 && *s > i * 1.05 + 1e-9)
        .collect();
    let spill_budget: f64 = sessions
        .iter()
        .zip(&hit)
        .filter(|(_, h)| **h)
        .map(|(sess, _)| sess.first().map_or(0.0, |(_, w)| *w))
        .sum();
    SiteCapacities::from_per_site(
        init.iter()
            .zip(stressed)
            .zip(&hit)
            .zip(sessions)
            .map(|(((i, s), h), sess)| {
                if *h {
                    let heaviest = sess.last().map_or(0.0, |(_, w)| *w);
                    (i + (s - i) * 0.6).max(heaviest * 1.01).max(floor)
                } else {
                    (i.max(*s) * 1.2 + spill_budget).max(floor)
                }
            })
            .collect(),
    )
}
