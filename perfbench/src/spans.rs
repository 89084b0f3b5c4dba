//! In-memory span log for traced runs, and the attribution table built
//! from it.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, layer, start, end, parent span and the mix or
//! request it belongs to. Spans stay in memory until the run ends and are
//! then written out as JSON lines. A disabled log records nothing and
//! reads no clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::clock;

/// One finished span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id within the log (1-based; 0 is never used).
    pub id: u64,
    /// Parent span id, if this span ran inside another.
    pub parent: Option<u64>,
    /// What was called, e.g. `MixSim::run_into`.
    pub name: &'static str,
    /// Layer the call belongs to (a module name of the repository).
    pub layer: &'static str,
    /// Mix or request id the span belongs to (0 for none).
    pub key: u64,
    /// Start, in ns since the log's epoch.
    pub start_ns: u64,
    /// End, in ns since the log's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span: finish it with [`SpanLog::end`].
#[derive(Debug)]
#[must_use = "an open span records nothing until it is ended"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    layer: &'static str,
    key: u64,
    start: Option<Instant>,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> Option<u64> {
        self.start.map(|_| self.id)
    }
}

/// The span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Option<Instant>,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl SpanLog {
    /// A log that records when `enabled`, and otherwise does nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: enabled.then(clock::now),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Opens a span.
    pub fn start(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        key: u64,
    ) -> Open {
        let start = self.epoch.map(|_| clock::now());
        let id = if start.is_some() {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            layer,
            key,
            start,
        }
    }

    /// Closes a span and records it.
    pub fn end(&self, open: Open) {
        let (Some(epoch), Some(start)) = (self.epoch, open.start) else {
            return;
        };
        let end = clock::now();
        let ns = |t: Instant| u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
        self.push(SpanRec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            layer: open.layer,
            key: open.key,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Nanoseconds from the log's epoch to `t` (`None` when disabled).
    pub fn ns_at(&self, t: Instant) -> Option<u64> {
        self.epoch.map(|epoch| {
            u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Records a span measured elsewhere (a phase whose bounds the caller
    /// already holds).
    pub fn push(&self, rec: SpanRec) {
        if self.enabled() {
            self.spans
                .lock()
                .expect("span log lock is never poisoned")
                .push(rec);
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        key: u64,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        let open = self.start(name, layer, parent, key);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Every recorded span, ordered by start time then id.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self
            .spans
            .lock()
            .expect("span log lock is never poisoned")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.name, s.layer, s.key, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// One row of an attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrRow {
    /// Layer name, or `(remainder)`.
    pub layer: String,
    /// Self time summed over the layer's spans, in seconds.
    pub self_s: f64,
}

/// Layer self times set against the end-to-end time they should explain.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// End-to-end seconds to explain: wall time × worker threads, so
    /// parallel workers' self times add up to it.
    pub e2e_s: f64,
    /// One row per layer (sorted by name), then the remainder row.
    pub rows: Vec<AttrRow>,
}

impl Attribution {
    /// Builds the table from `spans`: a span's self time is its duration
    /// minus the durations of its direct children, and each layer's row
    /// sums its spans' self times. Spans whose layer is `root` only
    /// frame the run and are not attributed. The remainder row is
    /// whatever `e2e_s` the layers leave unexplained (idle workers,
    /// coordination, and time outside any span).
    pub fn build(spans: &[SpanRec], e2e_s: f64) -> Self {
        let mut child_s: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_s.entry(p).or_default() += s.secs();
            }
        }
        let mut by_layer: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
        for s in spans.iter().filter(|s| s.layer != "root") {
            let own = s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0);
            *by_layer.entry(s.layer).or_default() += own;
        }
        let mut rows: Vec<AttrRow> = by_layer
            .into_iter()
            .map(|(layer, self_s)| AttrRow {
                layer: layer.to_string(),
                self_s,
            })
            .collect();
        let explained: f64 = rows.iter().map(|r| r.self_s).sum();
        rows.push(AttrRow {
            layer: "(remainder)".into(),
            self_s: e2e_s - explained,
        });
        Self { e2e_s, rows }
    }

    /// Adds a row of `secs` that a layer probe estimates rather than a
    /// span measures, taking it out of the remainder.
    pub fn add_estimate(&mut self, layer: &str, secs: f64) {
        let at = self.rows.len() - 1;
        self.rows[at].self_s -= secs;
        self.rows.insert(
            at,
            AttrRow {
                layer: layer.to_string(),
                self_s: secs,
            },
        );
    }

    /// The remainder row's seconds.
    pub fn remainder_s(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| r.self_s)
    }

    /// Human-readable table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("attribution ({title}): end-to-end {:.4} s\n", self.e2e_s);
        out.push_str(&format!(
            "  {:<18} {:>12} {:>8}\n",
            "layer", "self_s", "share"
        ));
        for r in &self.rows {
            let share = if self.e2e_s > 0.0 {
                100.0 * r.self_s / self.e2e_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<18} {:>12.4} {:>7.2}%\n",
                r.layer, r.self_s, share
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "call",
            layer,
            key: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn layers_plus_remainder_sum_to_end_to_end() {
        let spans = vec![
            rec(1, None, "root", 0, 10_000_000_000),
            rec(2, Some(1), "cmpsim", 0, 4_000_000_000),
            rec(3, Some(2), "trace", 0, 1_000_000_000),
            rec(4, Some(1), "model", 5_000_000_000, 6_000_000_000),
        ];
        let mut table = Attribution::build(&spans, 10.0);
        let cmpsim = table
            .rows
            .iter()
            .find(|r| r.layer == "cmpsim")
            .expect("cmpsim row");
        assert!(
            (cmpsim.self_s - 3.0).abs() < 1e-9,
            "child time is not self time"
        );
        let total: f64 = table.rows.iter().map(|r| r.self_s).sum();
        assert!(
            (total - table.e2e_s).abs() < 1e-9,
            "rows sum to {total}, not {}",
            table.e2e_s
        );
        assert!((table.remainder_s() - 5.0).abs() < 1e-9);
        table.add_estimate("wire (probe)", 1.5);
        let total: f64 = table.rows.iter().map(|r| r.self_s).sum();
        assert!((total - table.e2e_s).abs() < 1e-9, "estimates keep the sum");
        assert!((table.remainder_s() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        let v = log.scope("f", "model", None, 7, |id| {
            assert_eq!(id, None);
            42
        });
        assert_eq!(v, 42);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn enabled_log_nests_children() {
        let log = SpanLog::new(true);
        log.scope("outer", "campaign", None, 1, |outer| {
            log.scope("inner", "model", outer, 1, |_| ());
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(log.to_jsonl().lines().count(), 2);
    }
}
