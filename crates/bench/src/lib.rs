#![warn(missing_docs)]

//! Shared setup for the benchmark harness.
//!
//! Every bench is a plain `fn main()` over a pre-built world; building
//! the world and its engines happens here, outside the timed region,
//! at a scale chosen so a bench run is meaningful but quick. Timing is
//! [`min_secs`] and nothing else.

use anycast_context::obs::json::{Json, Object};
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

/// Appends the host facts every recorded section carries to
/// `section`: `"cores"` is `available_parallelism` and `"threads"` the
/// `par` worker count in effect when called.
pub fn host_fields(section: Object) -> Object {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    section.field("cores", cores).field("threads", par::threads())
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
/// byte-stable regardless of which bench ran last.
pub fn record_bench_section(name: &str, body: &Json) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/dynamics_bench.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, upsert_section(&existing, name, &body.0))
        .expect("write dynamics_bench.json");
}

/// Pure core of [`record_bench_section`]: replaces or inserts section
/// `name` in `existing` and returns the re-rendered document. Each
/// `  "name": {...}` line is one section, as the JSON writer laid it
/// out; panics if `body` spans more than one line.
pub fn upsert_section(existing: &str, name: &str, body: &str) -> String {
    assert!(!body.contains('\n'), "section {name:?} must be one line of JSON");
    let mut sections: Vec<(&str, &str)> = existing
        .lines()
        .filter_map(|line| line.strip_prefix("  \"")?.split_once("\": "))
        .filter(|(key, _)| *key != name)
        .collect();
    sections.push((name, body.trim()));
    sections.sort_by_key(|(key, _)| *key);
    let doc = sections.iter().fold(Object::default(), |doc, (key, value)| {
        doc.field(key, Json(value.trim_end_matches(',').to_string()))
    });
    doc.block().into_document()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_context::obs::{json, object};

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
    fn upserting_each_committed_section_gives_the_committed_file_back() {
        let committed = include_str!("../../../results/dynamics_bench.json");
        let sections: Vec<(&str, &str)> = committed
            .lines()
            .filter_map(|line| line.strip_prefix("  \"")?.split_once("\": "))
            .collect();
        assert_eq!(sections.len(), 5, "one line per recording bench");
        for (name, body) in sections {
            let body = body.strip_suffix(',').unwrap_or(body);
            assert_eq!(upsert_section(committed, name, body), committed, "section {name}");
        }
    }

    #[test]
    #[should_panic(expected = "must be one line")]
    fn multi_line_section_is_rejected() {
        upsert_section("", "a", "{\n  \"b\": 1\n}");
    }

    /// Each bench's section shape, rendered by the writer from fixed
    /// inputs, against the string its former `format!` body produced
    /// for the same inputs.
    #[test]
    fn sections_keep_the_former_keys_order_and_precision() {
        let host = |section: Object| section.field("cores", 2u64).field("threads", 2u64);
        let events = 4usize;
        let side = |secs: f64, (recomputed, reused): (u64, u64)| {
            object! {
                "secs_per_run": json::fixed(secs, 4),
                "ms_per_event": json::fixed(secs * 1000.0 / events.max(1) as f64, 3),
                "assign_recomputed": recomputed, "assign_reused": reused,
            }
        };
        let (inc_secs, full_secs) = (0.00149, 0.00661);
        let ab: Json = host(object! { "scenario": "site-flap x2" })
            .field("events", events)
            .field("incremental", side(inc_secs, (200, 1828)))
            .field("full", side(full_secs, (2028, 0)))
            .field("speedup", json::fixed(full_secs / inc_secs, 2))
            .into();
        assert_eq!(
            ab.0,
            "{\"scenario\": \"site-flap x2\", \"cores\": 2, \"threads\": 2, \"events\": 4, \
             \"incremental\": {\"secs_per_run\": 0.0015, \"ms_per_event\": 0.372, \
             \"assign_recomputed\": 200, \"assign_reused\": 1828}, \"full\": {\"secs_per_run\": \
             0.0066, \"ms_per_event\": 1.653, \"assign_recomputed\": 2028, \"assign_reused\": 0}, \
             \"speedup\": 4.44}"
        );

        let per_epoch = [0.2936, 0.26512, 0.31294];
        let ledgers = [
            (10_000u64, 24_858u64, 40_000u64),
            (100_000, 249_652, 400_000),
            (1_000_000, 2_497_570, 4_000_000),
        ];
        let runs = per_epoch.iter().zip(ledgers).map(|(&ms_per_epoch, (pop, slice, scan))| {
            object! {
                "population": pop, "cohorts": 507usize, "events": 4usize,
                "ms_per_epoch": json::fixed(ms_per_epoch, 3),
                "slice_users": slice, "scan_equivalent_users": scan,
            }
        });
        let scale: Json = host(object! { "scenario": "site-flap x2" })
            .field("runs", json::array(runs))
            .field("ratio_1m_vs_100k", json::fixed(per_epoch[2] / per_epoch[1], 3))
            .into();
        assert_eq!(
            scale.0,
            "{\"scenario\": \"site-flap x2\", \"cores\": 2, \"threads\": 2, \"runs\": [\
             {\"population\": 10000, \"cohorts\": 507, \"events\": 4, \"ms_per_epoch\": 0.294, \
             \"slice_users\": 24858, \"scan_equivalent_users\": 40000}, {\"population\": 100000, \
             \"cohorts\": 507, \"events\": 4, \"ms_per_epoch\": 0.265, \"slice_users\": 249652, \
             \"scan_equivalent_users\": 400000}, {\"population\": 1000000, \"cohorts\": 507, \
             \"events\": 4, \"ms_per_epoch\": 0.313, \"slice_users\": 2497570, \
             \"scan_equivalent_users\": 4000000}], \"ratio_1m_vs_100k\": 1.180}"
        );

        let per_epoch = [0.2456, 0.2471, 0.3139];
        let (rounds, shed_users) = (3u64, 4_681_293.708_12);
        let pops = [10_000u64, 100_000, 1_000_000];
        let runs = per_epoch.iter().zip(pops).map(|(&ms_per_epoch, pop)| {
            object! {
                "population": pop, "cohorts": 507usize, "events": 10usize,
                "ms_per_epoch": json::fixed(ms_per_epoch, 3),
                "controller_rounds": rounds, "shed_users": json::fixed(shed_users, 3),
            }
        });
        let load: Json = host(object! { "scenario": "flash-crowd x2 + distributed controller" })
            .field("runs", json::array(runs))
            .field("ratio_1m_vs_100k", json::fixed(per_epoch[2] / per_epoch[1], 3))
            .into();
        assert_eq!(
            load.0,
            "{\"scenario\": \"flash-crowd x2 + distributed controller\", \"cores\": 2, \
             \"threads\": 2, \"runs\": [{\"population\": 10000, \"cohorts\": 507, \"events\": 10, \
             \"ms_per_epoch\": 0.246, \"controller_rounds\": 3, \"shed_users\": 4681293.708}, \
             {\"population\": 100000, \"cohorts\": 507, \"events\": 10, \"ms_per_epoch\": 0.247, \
             \"controller_rounds\": 3, \"shed_users\": 4681293.708}, {\"population\": 1000000, \
             \"cohorts\": 507, \"events\": 10, \"ms_per_epoch\": 0.314, \"controller_rounds\": 3, \
             \"shed_users\": 4681293.708}], \"ratio_1m_vs_100k\": 1.270}"
        );

        let (secs, generated, windows) = (0.032_061_2, 48_495_825u64, 15usize);
        let section = object! { "scenario": "hottest-site flap", "population": 200_000usize };
        let replay: Json = section
            .field("cores", 2u64)
            .field("threads", 1u64)
            .field("windows", windows)
            .field("queries_per_run", generated)
            .field("min_secs", json::fixed(secs, 6))
            .field("queries_per_sec", json::fixed(generated as f64 / secs, 0))
            .field("user_windows_per_sec", json::fixed((200_000 * windows) as f64 / secs, 0))
            .field("floor_queries_per_sec", json::fixed(10_000_000.0, 0))
            .into();
        assert_eq!(
            replay.0,
            "{\"scenario\": \"hottest-site flap\", \"population\": 200000, \"cores\": 2, \
             \"threads\": 1, \"windows\": 15, \"queries_per_run\": 48495825, \
             \"min_secs\": 0.032061, \
             \"queries_per_sec\": 1512601681, \"user_windows_per_sec\": 93571045, \
             \"floor_queries_per_sec\": 10000000}"
        );
    }

    #[test]
    fn legacy_flat_document_is_discarded_not_merged() {
        let legacy = r#"{"scenario": "site-flap x2", "events": 4, "incremental": {"s": 1}}"#;
        let doc = upsert_section(legacy, "swap", r#"{"a": 1}"#);
        assert_eq!(doc, "{\n  \"swap\": {\"a\": 1}\n}\n");
    }
}
