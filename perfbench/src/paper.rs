//! The `paper` workload: the 23 static experiment ids run one after
//! another through `experiments::run` on one paper-scale world.
//!
//! Sequential on purpose: `repro`'s parallel fan-out puts fig12 on the
//! critical path and hides every other experiment's cost.

use crate::report::{digest, Checks};
use crate::trace;
use anycast_core::experiments::{self, ALL_IDS};
use anycast_core::World;
use std::time::Instant;

/// The registry ids of the paper's figures, tables and static
/// extensions: every id except the `dyn*` family, in registry order.
pub fn static_ids() -> Vec<&'static str> {
    ALL_IDS
        .iter()
        .copied()
        .filter(|id| !id.starts_with("dyn"))
        .collect()
}

/// One sequential pass over [`static_ids`].
pub struct Pass {
    /// Wall time of the whole pass, s.
    pub secs: f64,
    /// Per-id wall time of `experiments::run`, s, in id order.
    pub per_id: Vec<(&'static str, f64)>,
    /// Every artifact as `(artifact id, CSV bytes)`, in output order.
    pub csvs: Vec<(String, String)>,
}

/// Runs every static id once.
pub fn run_pass(world: &World) -> Pass {
    let _s = trace::span("bench.paper_pass");
    let t_pass = Instant::now();
    let mut per_id = Vec::new();
    let mut csvs = Vec::new();
    for id in static_ids() {
        let t = Instant::now();
        let artifacts = {
            let _s = trace::span("core.exp");
            experiments::run(id, world)
        };
        per_id.push((id, t.elapsed().as_secs_f64()));
        csvs.extend(
            artifacts
                .iter()
                .map(|a| (a.id().to_string(), a.render_csv())),
        );
    }
    Pass {
        secs: t_pass.elapsed().as_secs_f64(),
        per_id,
        csvs,
    }
}

/// Output checks of a pass. The first pass at the reference seed must
/// match the committed `results/<id>.csv` byte for byte; every later
/// pass must repeat the first pass's artifact digests.
pub fn check_pass(pass: &Pass, first: Option<&Pass>, reference: bool, checks: &mut Checks) {
    match first {
        None if reference => {
            for (id, csv) in &pass.csvs {
                let path = format!("results/{id}.csv");
                let ok = std::fs::read(&path).is_ok_and(|bytes| bytes == csv.as_bytes());
                checks.check(ok, || format!("{id}: CSV differs from {path}"));
            }
        }
        None => {}
        Some(first) => {
            checks.check(pass.csvs.len() == first.csvs.len(), || {
                "artifact count changed between passes".into()
            });
            for ((id, a), (_, b)) in pass.csvs.iter().zip(&first.csvs) {
                checks.check(digest(a.as_bytes()) == digest(b.as_bytes()), || {
                    format!("{id}: digest changed between passes")
                });
            }
        }
    }
}

/// Digest over every artifact id and CSV of a pass.
pub fn pass_digest(pass: &Pass) -> u64 {
    let mut bytes = Vec::new();
    for (id, csv) in &pass.csvs {
        bytes.extend_from_slice(id.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(csv.as_bytes());
        bytes.push(0);
    }
    digest(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_three_static_ids() {
        let ids = static_ids();
        assert_eq!(ids.len(), 23);
        assert_eq!(ids.first(), Some(&"fig2"));
        assert_eq!(ids.last(), Some(&"extinfer"));
    }
}
