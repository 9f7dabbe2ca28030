//! The replay engine driver: advances the dynamics clock epoch by
//! epoch and serves the query stream between epochs.
//!
//! The driver owns the interleaving contract: a window covering
//! `[w·window, (w+1)·window)` is served against the catchment as of
//! the window's *start*, so every epoch scheduled at or before that
//! instant applies first (the [`dynamics::EpochStepper`] is stepped
//! until its next event lies strictly beyond the window start). Site
//! overload accrued by an epoch step — the `overload_user_ms` the
//! load controller fights — is attributed to the most recent served
//! window, giving the per-window CSVs the same ledger totals a plain
//! `DynamicsEngine::run` would report.

use crate::schedule::{QuerySchedule, ReplayConfig};
use dynamics::{DynamicsEngine, EpochStepper, Scenario, ServingCohort, Timeline, UserColumns};
use obs::MetricSheet;

/// Per-window serving statistics, in window order.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Window start, simulated ms.
    pub t_ms: f64,
    /// Queries generated (DNS + CDN).
    pub generated: u64,
    /// Queries from DNS-classed (resolver-amortized) users.
    pub dns_queries: u64,
    /// Queries from CDN-classed (per-connection) users.
    pub cdn_queries: u64,
    /// Queries served by an announced site at the current RTT.
    pub served: u64,
    /// Queries from unserved users (their cohort had no reachable
    /// site when the window started).
    pub degraded: u64,
    /// Median served RTT, ms (0 when nothing was served).
    pub p50_ms: f64,
    /// 95th-percentile served RTT, ms.
    pub p95_ms: f64,
    /// 99th-percentile served RTT, ms.
    pub p99_ms: f64,
    /// Weighted user·ms of site overload accrued by epochs attributed
    /// to this window.
    pub overload_user_ms: f64,
}

/// Everything a replay run produces: the per-window serving stats,
/// the scenario's ordinary [`Timeline`], and stream totals satisfying
/// `served + degraded = generated` by construction.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// One entry per serving window, in time order.
    pub windows: Vec<WindowStats>,
    /// The epoch timeline the same scenario would produce under
    /// [`DynamicsEngine::run`].
    pub timeline: Timeline,
    /// Total queries generated across all windows.
    pub generated: u64,
    /// Total queries served.
    pub served: u64,
    /// Total queries degraded.
    pub degraded: u64,
}

/// Replays `cfg.horizon_ms` of query traffic through `scenario` on
/// `eng`, returning per-window statistics plus the scenario timeline.
///
/// Emits `replay.queries.{generated,dns,cdn,served,degraded}` counters
/// and the `replay.rtt_ms` histogram through per-shard
/// [`MetricSheet`]s merged in shard index order, so `metrics.json` is
/// byte-identical at any thread count.
pub fn replay(
    eng: &mut DynamicsEngine<'_>,
    scenario: &Scenario,
    cfg: &ReplayConfig,
) -> ReplayOutcome {
    let span = obs::span!("replay.scenario", name = scenario.name.as_str());
    let schedule = QuerySchedule::new(eng.population(), cfg);
    let n_windows = (cfg.horizon_ms / cfg.window_ms).ceil() as u64;
    let mut stepper = EpochStepper::new(eng, scenario);
    let mut windows: Vec<WindowStats> = Vec::with_capacity(n_windows as usize);
    let mut w = 0u64;
    loop {
        // Serve every window that closes before the next epoch fires;
        // an epoch landing exactly on a window boundary applies first.
        let boundary = stepper.next_time().map(|t| t.as_ms()).unwrap_or(f64::INFINITY);
        while w < n_windows && (w as f64) * cfg.window_ms < boundary {
            windows.push(serve_window(eng, &schedule, cfg, w));
            w += 1;
        }
        let before = eng.load_ledger().overload_user_ms;
        if !stepper.step(eng) {
            break;
        }
        let accrued = eng.load_ledger().overload_user_ms - before;
        if accrued > 0.0 {
            if let Some(last) = windows.last_mut() {
                last.overload_user_ms += accrued;
            }
        }
    }
    // Scenario exhausted; serve any horizon left beyond its last event.
    while w < n_windows {
        windows.push(serve_window(eng, &schedule, cfg, w));
        w += 1;
    }
    let timeline = stepper.finish(eng);
    let generated = windows.iter().map(|s| s.generated).sum();
    let served = windows.iter().map(|s| s.served).sum();
    let degraded = windows.iter().map(|s| s.degraded).sum();
    span.add_items(generated);
    ReplayOutcome { windows, timeline, generated, served, degraded }
}

/// Serves one window against the engine's current catchment: cohort
/// shards fan out over `par::ordered_map`, each drawing its members'
/// query counts from the live columns and paying the cohort's current
/// RTT, with per-shard sheets merged in shard order.
fn serve_window(
    eng: &mut DynamicsEngine<'_>,
    schedule: &QuerySchedule,
    cfg: &ReplayConfig,
    window: u64,
) -> WindowStats {
    // Snapshot the O(cohorts) serving state first: the per-user query
    // column is all `columns` returns, and it holds a mutable borrow
    // of the engine (to fold pending demand multipliers) for the rest
    // of the window.
    let cohorts = eng.serving_cohorts();
    let cols: &UserColumns = eng.columns();
    let per = cohorts.len().div_ceil(par::threads().max(1)).max(1);
    let shards: Vec<&[ServingCohort]> = cohorts.chunks(per).collect();
    let sharded = par::ordered_map(&shards, |_, shard| {
        let mut sheet = MetricSheet::new();
        let mut points: Vec<(f64, u64)> = Vec::new();
        let (mut dns_q, mut cdn_q, mut served, mut degraded) = (0u64, 0u64, 0u64, 0u64);
        for c in *shard {
            let qpd = &cols.queries_per_day[c.start as usize..c.end as usize];
            let (dns, cdn) = schedule.window_counts(window, c.start, qpd);
            let total = dns + cdn;
            if total == 0 {
                continue;
            }
            dns_q += dns;
            cdn_q += cdn;
            if c.site.is_some() {
                served += total;
                sheet.record_n("replay.rtt_ms", c.latency_ms, total);
                points.push((c.latency_ms, total));
            } else {
                degraded += total;
            }
        }
        sheet.counter_add("replay.queries.generated", dns_q + cdn_q);
        sheet.counter_add("replay.queries.dns", dns_q);
        sheet.counter_add("replay.queries.cdn", cdn_q);
        sheet.counter_add("replay.queries.served", served);
        sheet.counter_add("replay.queries.degraded", degraded);
        (sheet, points, dns_q, cdn_q, served, degraded)
    });
    let mut sheet = MetricSheet::new();
    let mut points: Vec<(f64, u64)> = Vec::new();
    let (mut dns_q, mut cdn_q, mut served, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    for (shard_sheet, shard_points, d, c, s, g) in sharded {
        sheet.merge(shard_sheet);
        points.extend(shard_points);
        dns_q += d;
        cdn_q += c;
        served += s;
        degraded += g;
    }
    sheet.flush();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    WindowStats {
        t_ms: window as f64 * cfg.window_ms,
        generated: dns_q + cdn_q,
        dns_queries: dns_q,
        cdn_queries: cdn_q,
        served,
        degraded,
        p50_ms: weighted_percentile(&points, served, 0.50),
        p95_ms: weighted_percentile(&points, served, 0.95),
        p99_ms: weighted_percentile(&points, served, 0.99),
        overload_user_ms: 0.0,
    }
}

/// The `q`-quantile of a latency distribution given as sorted
/// `(latency, count)` points totalling `total` observations; 0 when
/// empty.
fn weighted_percentile(sorted: &[(f64, u64)], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for &(v, n) in sorted {
        cum += n;
        if cum >= target {
            return v;
        }
    }
    sorted.last().map_or(0.0, |p| p.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_percentile_walks_cumulative_counts() {
        let pts = [(10.0, 50), (20.0, 40), (100.0, 10)];
        assert_eq!(weighted_percentile(&pts, 100, 0.50), 10.0);
        assert_eq!(weighted_percentile(&pts, 100, 0.95), 100.0);
        assert_eq!(weighted_percentile(&pts, 100, 0.90), 20.0);
        assert_eq!(weighted_percentile(&[], 0, 0.5), 0.0);
    }
}
