//! The benchmark's own span recorder.
//!
//! Spans are opened only in benchmark code, around calls into one
//! layer's public functions; nothing inside the program is traced.
//! Each span keeps its name, start, end and parent, all in memory, and
//! the whole list is written out when the run ends. Recording is off
//! unless [`enable`] was called, and a disabled [`span`] costs one
//! relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `dynamics.step`.
    pub name: &'static str,
    /// Index of the enclosing span in the record list, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (the benchmark is one caller on
/// one thread; `par` workers inside the program are not traced).
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Pauses (`false`) or resumes (`true`) recording after [`enable`],
/// keeping the spans recorded so far.
pub fn set_recording(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("enabled recorder");
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let idx = rec.spans.len();
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                if rec.open.last() == Some(&idx) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Every span recorded so far, in opening order.
pub fn spans() -> Vec<Span> {
    REC.with(|r| {
        r.borrow()
            .as_ref()
            .map(|rec| rec.spans.clone())
            .unwrap_or_default()
    })
}

/// Self time per span name, seconds: each span's duration minus the
/// time its direct children cover, summed over spans of that name.
/// Children of one span never overlap (one thread, properly nested),
/// so the covered time is the sum of their durations.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

/// The span list as JSON lines: `{"id", "name", "parent", "start_ns",
/// "end_ns"}` per span.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            sp.name, sp.start_ns, sp.end_ns
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "a",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "b",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "c",
                parent: Some(1),
                start_ns: 15,
                end_ns: 25,
            },
            Span {
                name: "b",
                parent: Some(0),
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let own = self_seconds(&spans);
        assert!((own["a"] - 60e-9).abs() < 1e-15);
        assert!((own["b"] - 30e-9).abs() < 1e-15);
        assert!((own["c"] - 10e-9).abs() < 1e-15);
    }
}
