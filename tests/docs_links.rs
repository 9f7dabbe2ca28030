//! Docs integrity: every relative markdown link in the repo's
//! documentation resolves to a real file. Docs rot silently — a moved
//! handbook or a renamed design doc breaks readers long before anyone
//! notices — so CI runs this as its docs-integrity step.

use std::path::{Path, PathBuf};

/// The documentation set under the link contract: the top-level docs
/// plus everything in `docs/`.
fn doc_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable docs entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    files.extend(docs);
    files
}

/// Extracts the `](target)` part of every inline markdown link in
/// `text`, skipping images' byte offset handling by just matching the
/// closing-paren delimiter (no doc in this repo nests parens in URLs).
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("](") {
        rest = &rest[at + 2..];
        if let Some(end) = rest.find(')') {
            out.push(rest[..end].trim().to_string());
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    out
}

#[test]
fn every_relative_doc_link_resolves() {
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let dir = file.parent().expect("doc has a parent dir");
        for target in link_targets(&text) {
            // External links and pure in-page anchors are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
                || target.is_empty()
            {
                continue;
            }
            // A relative target may carry a fragment: strip it; the
            // file part is what must exist on disk.
            let path_part = target.split('#').next().expect("split yields one part");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                broken.push(format!("{} -> {target}", file.display()));
            }
        }
    }
    assert!(checked > 0, "no relative links found — the extractor is broken");
    assert!(broken.is_empty(), "broken relative doc links:\n  {}", broken.join("\n  "));
}

/// The handbook set is part of the repo's contract: auto-discovery
/// over `docs/` keeps links honest only for pages that exist, so pin
/// the pages other docs and CI steps rely on by name.
#[test]
fn required_handbook_pages_exist_and_are_scanned() {
    let files = doc_files();
    for page in ["PIPELINE.md", "DYNAMICS.md", "REPLAY.md", "BENCHMARKS.md", "TESTING.md"] {
        assert!(
            files.iter().any(|p| p.file_name().is_some_and(|f| f == page)),
            "docs/{page} is missing from the scanned documentation set"
        );
    }
}

/// The `## <number>. ` section of a markdown document.
fn doc_section<'a>(doc: &'a str, number: &str) -> &'a str {
    doc.split("\n## ")
        .find(|s| s.strip_prefix(number).is_some_and(|r| r.starts_with(". ")))
        .unwrap_or_else(|| panic!("no §{number}"))
}

/// The cells of the column headed `header` in the first markdown table
/// of `section`, one per data row.
fn table_column<'a>(section: &'a str, header: &str) -> Vec<&'a str> {
    let cells =
        |l: &'a str| -> Vec<&'a str> { l.trim().trim_matches('|').split('|').map(str::trim).collect() };
    let mut rows = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'));
    let head = cells(rows.next().expect("section has a table"));
    let col = head
        .iter()
        .position(|h| h.eq_ignore_ascii_case(header))
        .unwrap_or_else(|| panic!("table has no {header} column"));
    rows.skip(1).map(|l| cells(l)[col]).collect()
}

/// docs/BENCHMARKS.md §3 documents one row per recorded bench section,
/// so its table must name exactly the sections `results/dynamics_bench.json`
/// holds: a documented section that never landed (or a recorded one the
/// page forgot) fails here instead of going missing silently. The bench
/// columns of that table and of DESIGN.md §4 must name real bench
/// targets (a `[[bench]]` in `crates/bench/Cargo.toml` with its file
/// under `benches/`) or `—`, so a deleted bench cannot leave a stale row.
#[test]
fn documented_bench_sections_match_recorded_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/BENCHMARKS.md")).expect("read BENCHMARKS.md");
    let table = doc_section(&doc, "3");
    let mut documented: Vec<&str> =
        table_column(table, "section").into_iter().map(|c| c.trim_matches('`')).collect();
    documented.sort_unstable();
    // `record_bench_section` writes one `  "<section>": {...}` line per
    // section, sorted by name.
    let json = std::fs::read_to_string(root.join("results/dynamics_bench.json"))
        .expect("read dynamics_bench.json");
    let recorded: Vec<&str> = json
        .lines()
        .filter_map(|l| l.strip_prefix("  \""))
        .filter_map(|l| l.split('"').next())
        .collect();
    assert!(!recorded.is_empty(), "no sections parsed from dynamics_bench.json");
    assert_eq!(documented, recorded, "BENCHMARKS.md §3 vs results/dynamics_bench.json");

    let bench_dir = root.join("crates/bench");
    let manifest = std::fs::read_to_string(bench_dir.join("Cargo.toml")).expect("read bench Cargo.toml");
    let targets: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|b| b.lines().find_map(|l| l.strip_prefix("name = \"")))
        .filter_map(|l| l.strip_suffix('"'))
        .collect();
    assert!(!targets.is_empty(), "no [[bench]] targets parsed");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let mut stale = Vec::new();
    for (page, cells) in [
        ("DESIGN.md §4", table_column(doc_section(&design, "4"), "bench")),
        ("docs/BENCHMARKS.md §3", table_column(table, "bench")),
    ] {
        assert!(!cells.is_empty(), "{page}: no bench column rows");
        for cell in cells {
            let name = cell.trim_matches('`');
            let real = targets.contains(&name)
                && bench_dir.join("benches").join(format!("{name}.rs")).exists();
            if cell != "—" && !(cell.starts_with('`') && cell.ends_with('`') && real) {
                stale.push(format!("{page}: {cell}"));
            }
        }
    }
    assert!(stale.is_empty(), "bench cells that are not bench targets:\n  {}", stale.join("\n  "));
}
