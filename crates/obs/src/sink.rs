//! The two output sinks: a human-readable span tree (verbose stderr)
//! and the deterministic `metrics.json` document.

use crate::json::{array, block_array, num, Object};
use crate::metrics::{lock_counters, lock_hists, lock_spans, SpanStats};
use crate::object;
use std::collections::BTreeMap;

/// Renders the closed-span tree with wall-clock totals — the
/// `--verbose` summary. Children indent under their parent and sort
/// lexically by path, so the layout is stable; the printed durations
/// are wall-clock and therefore vary run to run (that is why this sink
/// is for humans and [`render_metrics_json`] omits time entirely).
pub fn render_tree() -> String {
    let spans = lock_spans();
    let mut out = String::new();
    render_subtree(&spans, "", 0, &mut out);
    out
}

fn render_subtree(
    spans: &BTreeMap<String, SpanStats>,
    parent: &str,
    depth: usize,
    out: &mut String,
) {
    // Direct children of `parent`: paths extending it by exactly one
    // `/`-separated component.
    for (path, stats) in spans.iter() {
        let rest = match parent {
            "" => path.as_str(),
            _ => match path.strip_prefix(parent).and_then(|r| r.strip_prefix('/')) {
                Some(rest) => rest,
                None => continue,
            },
        };
        if rest.is_empty() || rest.contains('/') {
            continue;
        }
        out.push_str(&"  ".repeat(depth));
        out.push_str(rest);
        out.push_str(&format!(" — {:.3}s", stats.nanos as f64 / 1e9));
        if stats.count > 1 {
            out.push_str(&format!(" ({}×)", stats.count));
        }
        if stats.items > 0 {
            out.push_str(&format!(", {} items", stats.items));
        }
        out.push('\n');
        render_subtree(spans, path, depth + 1, out);
    }
}

/// Renders every counter, histogram, and span as one JSON document —
/// the machine sink written to `results/metrics.json` by `repro`.
///
/// The output is **deterministic**: keys sort lexically (`BTreeMap`
/// iteration), every statistic is an order-independent aggregate, and
/// wall-clock durations are excluded (they live in `timings.json` and
/// the verbose tree). For one seed the document is byte-identical at
/// any `--threads` value — enforced by integration test.
pub fn render_metrics_json() -> String {
    let counters = lock_counters().iter().fold(Object::default(), |o, (name, n)| o.field(name, *n));
    let histograms = lock_hists().iter().fold(Object::default(), |o, (name, h)| {
        // An empty histogram has no extrema, and the overflow bucket's
        // bound is +inf: JSON has neither, so both render as null.
        let (min, max) = (h.min().unwrap_or(f64::NAN), h.max().unwrap_or(f64::NAN));
        let buckets = h.nonzero_buckets().into_iter().map(|(le, n)| array([num(le), n.into()]));
        let hist = object! {
            "count": h.count(), "min": num(min), "max": num(max), "buckets": array(buckets),
        };
        o.field(name, hist)
    });
    let spans: Vec<Object> = lock_spans()
        .iter()
        .map(|(path, s)| object! { "path": path.as_str(), "count": s.count, "items": s.items })
        .collect();
    let doc = object! { "counters": counters.block(), "histograms": histograms.block() };
    doc.field("spans", block_array(spans)).block().into_document()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_contains_recorded_state() {
        crate::counter_add("sinktest.counter", 4);
        crate::record("sinktest.hist", 3.0);
        {
            let outer = crate::span!("sinktest.outer");
            outer.add_items(2);
            let _inner = crate::span!("sinktest.inner");
        }
        let json = render_metrics_json();
        assert!(json.contains("\"sinktest.counter\": 4"));
        assert!(json.contains("\"sinktest.hist\": {\"count\": 1"));
        assert!(json.contains("\"sinktest.outer\""));
        assert!(json.contains("\"sinktest.outer/sinktest.inner\""));
        assert!(!json.contains("nanos"), "wall-clock must not leak into metrics.json");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn tree_indents_children_under_parents() {
        {
            let _a = crate::span!("treetest.root");
            let _b = crate::span!("treetest.child");
        }
        let tree = render_tree();
        let root_line = tree.lines().find(|l| l.contains("treetest.root")).unwrap();
        let child_line = tree.lines().find(|l| l.contains("treetest.child")).unwrap();
        assert!(!root_line.starts_with(' '));
        assert!(child_line.starts_with("  "));
    }
}
