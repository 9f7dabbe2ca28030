#![warn(missing_docs)]

//! Shared setup for the benchmark harness.
//!
//! Every bench is a plain `fn main()` over a pre-built world; building
//! the world and its engines happens here, outside the timed region,
//! at a scale chosen so a bench run is meaningful but quick. Timing is
//! [`min_secs`] and nothing else.

use anycast_core::experiments::dynamics_exp::{busiest_letter, dyn_users};
use anycast_core::{World, WorldConfig};
use dynamics::{expand_counts, DynamicsEngine, RecomputeMode};
use std::sync::Arc;

/// Scale of the bench world.
pub const BENCH_SCALE: f64 = 0.2;

/// Builds the standard bench world (deterministic).
pub fn bench_world() -> World {
    World::build(&WorldConfig {
        scale: BENCH_SCALE,
        atlas_probes: 150,
        log_samples: 7,
        client_samples: 5,
        ..WorldConfig::paper(2021)
    })
}

/// Builds a bench world with a specific CDN peering probability
/// (ablation benches sweep this).
pub fn bench_world_with_peering(peering: f64) -> World {
    World::build(&WorldConfig {
        scale: BENCH_SCALE,
        atlas_probes: 150,
        log_samples: 7,
        client_samples: 5,
        cdn_eyeball_peering: peering,
        ..WorldConfig::paper(2021)
    })
}

/// An engine over the busiest root letter with one user per weighted
/// location, the construction the `dynflap`-style experiments use.
pub fn letter_engine(world: &World, mode: RecomputeMode) -> DynamicsEngine<'_> {
    DynamicsEngine::new(
        &world.internet.graph,
        Arc::clone(&busiest_letter(world).deployment),
        world.model,
        dyn_users(world),
        mode,
    )
}

/// An incremental engine over the busiest root letter with the world's
/// weighted locations expanded to `population` users (seed 2021), the
/// same construction the `dynscale`/`dynload` experiments use.
pub fn expanded_engine(world: &World, population: usize) -> DynamicsEngine<'_> {
    let base = dyn_users(world);
    let counts = expand_counts(
        &base.iter().map(|u| u.weight).collect::<Vec<_>>(),
        population,
        2021,
    );
    DynamicsEngine::new_expanded(
        &world.internet.graph,
        Arc::clone(&busiest_letter(world).deployment),
        world.model,
        &base,
        &counts,
        2021,
        RecomputeMode::Incremental,
    )
}

/// The host facts every recorded section carries, as JSON members:
/// `"cores"` is `available_parallelism` and `"threads"` the `par`
/// worker count in effect when called.
pub fn host_fields() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("\"cores\": {cores}, \"threads\": {}", par::threads())
}

/// Runs `f` `runs` times and returns the fastest run's wall-clock
/// seconds with the last run's output. The minimum of repeated runs
/// estimates intrinsic cost; anything above it is scheduler
/// interference, which a mean would fold in. Panics if `runs` is 0.
pub fn min_secs<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(runs > 0, "min_secs needs at least one run");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        last = Some(std::hint::black_box(f()));
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, last.expect("runs > 0"))
}

/// Records one bench's summary under a named top-level section of
/// `results/dynamics_bench.json`, preserving the sections other
/// benches wrote: `{"dynamics_incremental": {...}, "dynamics_swap":
/// {...}}`. Sections are kept sorted by name so the file is
/// byte-stable regardless of which bench ran last. `body` must be one
/// JSON object (the repo vendors no JSON writer, so benches hand-roll
/// it like the repro driver's `timings.json`).
pub fn record_bench_section(name: &str, body: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/dynamics_bench.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, upsert_section(&existing, name, body))
        .expect("write dynamics_bench.json");
}

/// Pure core of [`record_bench_section`]: replaces or inserts section
/// `name` in the sectioned JSON document `existing` and returns the
/// re-rendered document. A document that is not in the sectioned
/// format (e.g. the legacy flat summary) is discarded rather than
/// half-merged.
pub fn upsert_section(existing: &str, name: &str, body: &str) -> String {
    let mut sections = parse_sections(existing);
    sections.retain(|(k, _)| k != name);
    sections.push((name.to_string(), body.trim().to_string()));
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (k, v)) in sections.iter().enumerate() {
        out.push_str("  \"");
        out.push_str(k);
        out.push_str("\": ");
        out.push_str(v);
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Splits a `{"key": {...}, ...}` document into its top-level
/// `(key, object)` pairs with a string-aware brace scanner. Returns no
/// sections when any top-level value is not an object (the document is
/// not sectioned) or when the input is not one object.
fn parse_sections(s: &str) -> Vec<(String, String)> {
    let s = s.trim();
    let Some(inner) = s.strip_prefix('{').and_then(|r| r.strip_suffix('}')) else {
        return Vec::new();
    };
    let bytes = inner.as_bytes();
    let mut sections = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Key: the next string literal.
        let Some(ks) = inner[i..].find('"').map(|p| i + p + 1) else { break };
        let Some(ke) = inner[ks..].find('"').map(|p| ks + p) else { return Vec::new() };
        let key = &inner[ks..ke];
        // Value: must start with '{' right after the colon.
        let Some(vs) = inner[ke + 1..].find(':').map(|p| ke + 2 + p) else { return Vec::new() };
        let mut j = vs;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'{' {
            return Vec::new(); // scalar at top level: not sectioned
        }
        // Balanced-brace scan, skipping braces inside string literals.
        let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
        let mut end = None;
        for (off, &b) in bytes[j..].iter().enumerate() {
            if in_str {
                match b {
                    _ if escaped => escaped = false,
                    b'\\' => escaped = true,
                    b'"' => in_str = false,
                    _ => {}
                }
            } else {
                match b {
                    b'"' => in_str = true,
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(j + off + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let Some(end) = end else { return Vec::new() };
        sections.push((key.to_string(), inner[j..end].to_string()));
        i = end;
    }
    sections
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_secs_keeps_the_fastest_run_and_the_last_output() {
        let mut calls = 0u32;
        let (secs, last) = min_secs(4, || {
            calls += 1;
            // Only the first run sleeps, so the minimum must undercut it.
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            calls
        });
        assert_eq!((calls, last), (4, 4));
        assert!((0.0..0.03).contains(&secs), "min {secs} must skip the slow run");
    }

    #[test]
    fn upsert_into_empty_creates_one_section() {
        let doc = upsert_section("", "swap", r#"{"a": 1}"#);
        assert_eq!(doc, "{\n  \"swap\": {\"a\": 1}\n}\n");
    }

    #[test]
    fn upsert_preserves_other_sections_and_sorts() {
        let doc = upsert_section("", "swap", r#"{"a": 1}"#);
        let doc = upsert_section(&doc, "incremental", r#"{"b": 2}"#);
        assert_eq!(
            doc,
            "{\n  \"incremental\": {\"b\": 2},\n  \"swap\": {\"a\": 1}\n}\n"
        );
        // Replacing a section keeps the other intact.
        let doc = upsert_section(&doc, "swap", r#"{"a": 3}"#);
        assert!(doc.contains(r#""swap": {"a": 3}"#));
        assert!(doc.contains(r#""incremental": {"b": 2}"#));
    }

    #[test]
    fn upsert_survives_nested_objects_and_braces_in_strings() {
        let body = r#"{"inner": {"x": 1}, "note": "a { brace \" quote"}"#;
        let doc = upsert_section("", "a", body);
        let doc = upsert_section(&doc, "b", r#"{"y": 2}"#);
        assert!(doc.contains(body), "nested section must round-trip: {doc}");
    }

    #[test]
    fn legacy_flat_document_is_discarded_not_merged() {
        let legacy = r#"{"scenario": "site-flap x2", "events": 4, "incremental": {"s": 1}}"#;
        let doc = upsert_section(legacy, "swap", r#"{"a": 1}"#);
        assert_eq!(doc, "{\n  \"swap\": {\"a\": 1}\n}\n");
    }
}
