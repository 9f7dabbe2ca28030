//! Metric names, output checks, host facts and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; README.md gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Span names the traced run records, each reported as
/// `trace.self_s.<name>`.
pub const SPANS: [&str; 16] = [
    "core.world_build",
    "topology.generate",
    "workload.ditl_generate",
    "cdn.campaigns",
    "bench.paper_pass",
    "core.exp",
    "dynamics.new_expanded",
    "bench.engine_pass",
    "dynamics.step",
    "chaos.run_storm",
    "chaos.oracle_step",
    "chaos.check_epoch",
    "chaos.compare_oracle",
    "bench.replay_pass",
    "replay.replay",
    "replay.window_counts",
];

/// Per-layer metrics with fixed names: `(name, unit)`. The traced run
/// also reports `core.exp.<id>_s` per static id, `dynamics.epoch_ms.
/// <kind>` per epoch kind and `trace.self_s.<span>` per [`SPANS`]
/// entry; [`per_layer_names`] lists them all.
pub const PER_LAYER_FIXED: [(&str, &str); 19] = [
    ("topology.generate_s", "s"),
    ("workload.ditl_s", "s"),
    ("cdn.campaigns_s", "s"),
    ("dns.resolver_hit_frac", "frac"),
    ("topology.route_cache_hit_frac", "frac"),
    ("topology.origin_computations.paper", "count"),
    ("topology.origin_computations.storm", "count"),
    ("dynamics.engine_build_s", "s"),
    ("dynamics.reuse_frac", "frac"),
    ("dynamics.slice_users", "count"),
    ("loadmgmt.controller_rounds", "count"),
    ("chaos.oracle_s", "s"),
    ("chaos.invariants_s", "s"),
    ("chaos.compare_s", "s"),
    ("chaos.oracle_checks", "count"),
    ("chaos.verify_overhead_frac", "frac"),
    ("replay.serve_s", "s"),
    ("replay.engine_s", "s"),
    ("replay.window_counts_ns_per_user", "ns"),
];

/// Per-layer metrics that close the traced run: `dynamics.columns_ms`
/// and the tracing overhead of the workload's own pass.
pub const PER_LAYER_TAIL: [(&str, &str); 3] = [
    ("dynamics.columns_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric `(name, unit)`, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for id in crate::paper::static_ids() {
        out.push((format!("core.exp.{id}_s"), "s"));
    }
    for k in crate::storm::Kind::ALL {
        out.push((format!("dynamics.epoch_ms.{}", k.name()), "ms"));
    }
    for s in SPANS {
        out.push((format!("trace.self_s.{s}"), "s"));
    }
    out.extend(PER_LAYER_TAIL.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// FNV-1a, 64-bit: a stable digest for comparing outputs across
/// passes and runs.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Output checks attempted and failed, with the failures' messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One message per failure.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one check; `msg` renders only on failure.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.messages.push(msg());
        }
    }
}

/// Metric values by name, with units.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// A finite number as JSON, at full precision; non-finite becomes
/// `null` (a metric that could not be measured).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Peak resident set (`VmHWM`), MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `rustc --version` line of the toolchain on `PATH`, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit when it is a git work tree, else `unknown`.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names in `BENCHMARK.json` at the repository root.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_names_equal_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut c = Checks::default();
        c.check(true, String::new);
        let mut m = Metrics::default();
        m.set("pass_s", 1.25, "s");
        assert_eq!(
            result_line(&c, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
