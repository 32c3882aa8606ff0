//! The benchmark's own spans, recorded around its calls into the
//! program's public API in traced runs, kept in memory and written as a
//! Chrome trace-event file when the run ends.

use std::path::Path;

use fides_telemetry::trace::{now_ns, to_chrome_json};
use fides_telemetry::Span;

/// Node tags of the benchmark's spans start here, above the program's
/// server and client tags.
const BENCH_TAG_BASE: u64 = 0xB000;

/// The root span of one committed transaction; its children are the
/// client phases that must tile it.
pub const TXN_ROOT: &str = "bench.txn";

/// An in-memory span log owned by one benchmark thread.
pub struct SpanLog {
    tag: u64,
    counter: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for benchmark thread `thread` (distinct tags keep span
    /// ids unique across threads).
    pub fn new(thread: u64) -> SpanLog {
        SpanLog {
            tag: BENCH_TAG_BASE + thread,
            counter: 0,
            spans: Vec::new(),
        }
    }

    fn next_id(&mut self) -> u64 {
        self.counter += 1;
        self.tag << 48 | self.counter
    }

    /// Records one span and returns its id. `trace` groups the spans
    /// of one operation; `parent` is 0 for a root.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let span_id = self.next_id();
        self.spans.push(Span {
            trace_id: trace,
            span_id,
            parent,
            name,
            node: self.tag,
            start_ns,
            end_ns,
            aux: 0,
        });
        span_id
    }

    /// Records a root span named `root` over `[bounds[0], bounds[n]]`
    /// with one child per consecutive pair of bounds, and returns the
    /// trace id used.
    pub fn record_tiled(&mut self, root: &'static str, phases: &[&'static str], bounds: &[u64]) {
        debug_assert_eq!(phases.len() + 1, bounds.len());
        let trace = self.tag << 48 | (self.counter + 1);
        let root_id = self.record(root, trace, 0, bounds[0], bounds[phases.len()]);
        for (i, phase) in phases.iter().enumerate() {
            self.record(phase, trace, root_id, bounds[i], bounds[i + 1]);
        }
    }

    /// A span over `f`'s execution, returning `f`'s result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = f();
        let trace = self.tag << 48 | (self.counter + 1);
        self.record(name, trace, 0, start, now_ns());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The largest gap or overlap, in nanoseconds, between a `root` span
/// and its children laid end to end: 0 when every root is tiled
/// exactly by children that start at its start, follow each other
/// without gaps and end at its end. Returns the number of roots
/// checked with the error.
pub fn tiling_error_ns(spans: &[Span], root: &str) -> (usize, u64) {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = Default::default();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push(span);
    }
    let mut roots = 0;
    let mut worst = 0u64;
    for span in spans.iter().filter(|s| s.parent == 0 && s.name == root) {
        roots += 1;
        let mut kids = children.remove(&span.span_id).unwrap_or_default();
        kids.sort_by_key(|k| k.start_ns);
        let mut cursor = span.start_ns;
        for kid in kids {
            worst = worst.max(kid.start_ns.abs_diff(cursor));
            cursor = kid.end_ns;
        }
        worst = worst.max(cursor.abs_diff(span.end_ns));
    }
    (roots, worst)
}

/// Writes spans as a Chrome trace-event file.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_chrome_json(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_spans_have_zero_error() {
        let mut log = SpanLog::new(0);
        log.record_tiled(TXN_ROOT, &["a", "b", "c"], &[10, 15, 15, 40]);
        log.record_tiled(TXN_ROOT, &["a", "b"], &[100, 130, 180]);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 7);
        assert_eq!(tiling_error_ns(&spans, TXN_ROOT), (2, 0));
    }

    #[test]
    fn gaps_and_short_children_are_reported() {
        let mut log = SpanLog::new(1);
        let root = log.record(TXN_ROOT, 1, 0, 0, 100);
        log.record("a", 1, root, 0, 40);
        log.record("b", 1, root, 45, 90); // 5 ns gap, ends 10 ns early
        assert_eq!(tiling_error_ns(&log.into_spans(), TXN_ROOT), (1, 10));
    }
}
