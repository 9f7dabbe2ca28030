//! Reproduction driver: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--seed N] [--scale F] [--population N] [--year 2018|2020] [--threads N] [--verbose] [--out DIR] [ids…|all]
//! ```
//!
//! Experiments run concurrently on the deterministic parallel layer
//! (`par`); output is buffered and emitted in id order, so the text and
//! CSV artifacts are byte-identical at any `--threads` value. Each
//! artifact prints to stdout and, with `--out`, is also written as CSV
//! for plotting, alongside two JSON records:
//!
//! * `timings.json` — wall-clock per experiment (the one output that
//!   legitimately varies run to run), and
//! * `metrics.json` — the `obs` sink: counters, histograms, and span
//!   item counts, byte-identical for a fixed seed at any `--threads`.
//!
//! Progress reporting goes through `obs` spans: `--verbose` streams the
//! span tree to stderr as stages finish and prints the aggregated tree
//! at the end; the default run is silent apart from the artifacts.

use anycast_core::experiments::{run, ALL_IDS, DESCRIPTIONS};
use anycast_core::{Artifact, World, WorldConfig};
use std::io::Write;

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut seed = 2021u64;
    let mut scale = 0.5f64;
    let mut year = 2018u16;
    let mut threads = 0usize; // 0 = available parallelism
    let mut population: Option<usize> = None;
    let mut out_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"))
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a float in (0,1]"))
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a non-negative integer"))
            }
            "--population" => {
                population = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        // User ids are u32, so the population must fit in one.
                        .filter(|p| (1..=u32::MAX as usize).contains(p))
                        .unwrap_or_else(|| die("--population needs an integer in 1..=4294967295")),
                )
            }
            "--out" => {
                out_dir = Some(args.next().unwrap_or_else(|| die("--out needs a directory")))
            }
            "--year" => {
                year = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|y| *y == 2018 || *y == 2020)
                    .unwrap_or_else(|| die("--year must be 2018 or 2020"))
            }
            "--verbose" | "-v" => obs::set_verbose(true),
            "--list" => {
                // Group the catalogue by experiment family, preserving
                // registry order within each group.
                let family = |id: &str| {
                    if id.starts_with("dyn") {
                        "dynamics & replay"
                    } else if id.starts_with("ext") {
                        "extensions"
                    } else {
                        "core paper artifacts"
                    }
                };
                let width = 2 + DESCRIPTIONS.iter().map(|(id, _)| id.len()).max().unwrap_or(0);
                let mut current = "";
                for (id, desc) in DESCRIPTIONS {
                    let f = family(id);
                    if f != current {
                        if !current.is_empty() {
                            println!();
                        }
                        println!("{f}:");
                        current = f;
                    }
                    println!("  {id:<width$}{desc}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "repro [--seed N] [--scale F] [--population N] [--year 2018|2020] [--threads N] [--verbose] [--list] [--out DIR] [ids…|all]"
                );
                println!("ids: {}", ALL_IDS.join(" "));
                println!("run `repro --list` for one-line descriptions");
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !ALL_IDS.contains(&id.as_str()) {
            let hint = closest_id(id)
                .map(|c| format!(" (did you mean {c:?}?)"))
                .unwrap_or_default();
            die(&format!(
                "unknown experiment {id:?}{hint}; run `repro --list` to see every id"
            ));
        }
    }
    par::set_threads(threads);

    let config = WorldConfig { seed, scale, year, dyn_population: population, ..WorldConfig::paper(seed) };
    // World::build opens the `world` span (and its stage children) on
    // this thread; it closes before the experiments fan out below, so no
    // span is open across the parallel region — the recorded span paths
    // are therefore identical at any thread count.
    let world = World::build(&config);

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    // Run the registry concurrently; results come back in id order, so
    // the streamed output below is identical to a sequential run. Each
    // experiment opens its own `exp{id=…}` span inside the worker.
    let t_run = std::time::Instant::now();
    let results: Vec<(Vec<Artifact>, f64)> = par::ordered_map(&ids, |_, id| {
        let t = std::time::Instant::now();
        let artifacts = run(id, &world);
        (artifacts, t.elapsed().as_secs_f64())
    });
    let run_secs = t_run.elapsed().as_secs_f64();

    let emit_span = obs::span!("repro.emit");
    let mut timings: Vec<(String, f64, u64)> = Vec::new();
    for (id, (artifacts, secs)) in ids.iter().zip(&results) {
        for artifact in artifacts {
            println!("{}", artifact.render_text());
            if let Some(dir) = &out_dir {
                let path = format!("{dir}/{}.csv", artifact.id());
                let csv = artifact.render_csv();
                // Data rows only (header excluded): the metrics
                // integration test cross-checks this counter against the
                // written files.
                obs::counter_add(
                    "repro.csv_rows",
                    (csv.lines().count() as u64).saturating_sub(1),
                );
                let mut f = std::fs::File::create(&path).expect("create CSV");
                f.write_all(csv.as_bytes()).expect("write CSV");
            }
        }
        let items: u64 = artifacts.iter().map(Artifact::item_count).sum();
        emit_span.add_items(items);
        timings.push((id.clone(), *secs, items));
    }
    drop(emit_span);

    if let Some(dir) = &out_dir {
        let path = format!("{dir}/timings.json");
        std::fs::write(&path, render_timings(&timings, par::threads(), run_secs))
            .expect("write timings.json");
        let metrics_path = format!("{dir}/metrics.json");
        std::fs::write(&metrics_path, obs::render_metrics_json())
            .expect("write metrics.json");
        if obs::verbose() {
            eprintln!("[obs] timings → {path}");
            eprintln!("[obs] metrics → {metrics_path}");
        }
    }
    if obs::verbose() {
        eprint!("{}", obs::render_tree());
        eprintln!(
            "[obs] all experiments done in {run_secs:.1}s (threads={})",
            par::threads()
        );
    }
}

/// Hand-rendered JSON (the build is offline; no serde_json available).
fn render_timings(timings: &[(String, f64, u64)], threads: usize, total_secs: f64) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"total_secs\": {total_secs:.3},\n"));
    s.push_str("  \"experiments\": [\n");
    for (i, (id, secs, items)) in timings.iter().enumerate() {
        let rate = if *secs > 0.0 { *items as f64 / secs } else { 0.0 };
        s.push_str(&format!(
            "    {{\"id\": \"{id}\", \"secs\": {secs:.3}, \"items\": {items}, \"items_per_sec\": {rate:.1}}}{}\n",
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The known id nearest to `input` by edit distance, if any comes
/// within two edits (typo range). Ties go to registry order.
fn closest_id(input: &str) -> Option<&'static str> {
    ALL_IDS
        .iter()
        .map(|id| (edit_distance(input, id), *id))
        .filter(|(d, _)| *d <= 2)
        .min_by_key(|(d, _)| *d)
        .map(|(_, id)| id)
}

/// Plain Levenshtein distance (the inputs are short ids).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
