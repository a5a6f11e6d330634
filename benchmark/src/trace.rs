//! In-memory span recorder for the traced pass.
//!
//! A span is `(name, start, end, parent, id, calls)`: the benchmark's own
//! code opens one around every call into a layer's public function, spans
//! of one datagram (or event) share its `id`, and a span may cover `calls`
//! back-to-back invocations of a function too short to time singly.
//! Spans stay in memory until the pass ends; a layer's *self time* is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// Index of an interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NameId(u16);

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: NameId,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// The datagram / event / batch this span belongs to.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Invocations covered (≥ 1 for a closed span).
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameSummary {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameSummary {
    /// `(mean ns per call, calls)` of a *leaf* row: total duration minus
    /// one clock bracket per span, over the calls covered. `None` if the
    /// name never recorded a call.
    pub fn ns_per_call(&self, calibration_ns: u64) -> Option<(f64, u64)> {
        if self.calls == 0 {
            return None;
        }
        let net = self.total_ns.saturating_sub(self.spans * calibration_ns);
        Some((net as f64 / self.calls as f64, self.calls))
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Median duration of an empty span: the clock reads a span's own
    /// bracket adds to whatever it times.
    calibration_ns: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates (the
    /// caller stops recording at its own budget, see [`Tracer::len`]).
    pub fn new(capacity: usize) -> Tracer {
        let mut tracer = Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity.min(1 << 20)),
            stack: Vec::with_capacity(16),
            calibration_ns: 0,
        };
        tracer.calibrate();
        tracer
    }

    /// Times a few thousand empty spans and keeps their median duration.
    fn calibrate(&mut self) {
        let name = self.name("trace.calibration");
        let mut durations = Vec::with_capacity(4096);
        for i in 0..4096u64 {
            let span = self.enter(name, i);
            self.exit(span);
            durations.push(self.spans[span.0 as usize].duration_ns() as f64);
        }
        self.calibration_ns = stats::median(&durations).unwrap_or(0.0) as u64;
        self.spans.clear();
    }

    pub fn calibration_ns(&self) -> u64 {
        self.calibration_ns
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &'static str) -> NameId {
        let index = self.names.iter().position(|n| *n == name).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        NameId(u16::try_from(index).expect("a trace uses a handful of names"))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span under the innermost open one. The clock is read last,
    /// so bookkeeping stays outside the timed interval.
    #[inline]
    pub fn enter(&mut self, name: NameId, id: u64) -> SpanId {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(index);
        self.spans.push(Span { name, parent, id, start_ns: 0, end_ns: 0, calls: 1 });
        let start = self.now_ns();
        self.spans[index as usize].start_ns = start;
        SpanId(index)
    }

    /// Closes a span covering one call. The clock is read first.
    #[inline]
    pub fn exit(&mut self, span: SpanId) {
        self.exit_calls(span, 1);
    }

    /// Closes a span that covered `calls` invocations.
    #[inline]
    pub fn exit_calls(&mut self, span: SpanId, calls: u32) {
        let end = self.now_ns();
        let record = &mut self.spans[span.0 as usize];
        record.end_ns = end;
        record.calls = calls;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans must close innermost first");
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover (children of one parent never overlap — one thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Totals per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, NameSummary> {
        let self_ns = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(self.names[span.name.0 as usize]).or_default();
            entry.spans += 1;
            entry.calls += u64::from(span.calls);
            entry.total_ns += span.duration_ns();
            entry.self_ns += own;
        }
        out
    }

    /// Writes the whole trace as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, own)| {
                let parent = if s.parent == NO_PARENT { -1.0 } else { f64::from(s.parent) };
                Json::Arr(vec![
                    Json::Num(f64::from(s.name.0)),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(parent),
                    Json::Num(s.id as f64),
                    Json::Num(f64::from(s.calls)),
                    Json::Num(*own as f64),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, s)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("spans", Json::Num(s.spans as f64)),
                    ("calls", Json::Num(s.calls as f64)),
                    ("total_ns", Json::Num(s.total_ns as f64)),
                    ("self_ns", Json::Num(s.self_ns as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            ("time_unit", Json::str("ns since the trace epoch")),
            ("empty_span_ns", Json::Num(self.calibration_ns as f64)),
            ("names", Json::Arr(self.names.iter().map(|n| Json::str(*n)).collect())),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "id", "calls", "self_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("spans", Json::Arr(spans)),
            ("summary", Json::Arr(summary)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_line())
    }
}

/// See [`Tracer::self_times_ns`].
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let slot = &mut own[span.parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name: NameId(0), parent, id: 0, start_ns, end_ns, calls: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 ├ a 10..40 ├ b 50..90 │ └ c 60..70
        let spans = [span(NO_PARENT, 0, 100), span(0, 10, 40), span(0, 50, 90), span(2, 60, 70)];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn self_time_never_underflows_on_clock_jitter() {
        // A child that (through clock granularity) reads longer than its parent.
        let spans = [span(NO_PARENT, 0, 10), span(0, 0, 12)];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn tracer_nests_counts_and_summarises() {
        let mut t = Tracer::new(64);
        let outer = t.name("outer");
        let inner = t.name("inner");
        assert_eq!(t.name("outer"), outer, "names intern");
        let o = t.enter(outer, 7);
        for i in 0..3 {
            let s = t.enter(inner, 7);
            std::hint::black_box(i);
            t.exit_calls(s, 5);
        }
        t.exit(o);
        assert_eq!(t.len(), 4);
        assert!(t.spans()[1..].iter().all(|s| s.parent == 0 && s.id == 7 && s.calls == 5));
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        let summary = t.summary();
        assert_eq!(summary["inner"].spans, 3);
        assert_eq!(summary["inner"].calls, 15);
        assert_eq!(summary["outer"].spans, 1);
        let children: u64 = summary["inner"].total_ns;
        assert_eq!(summary["outer"].self_ns, summary["outer"].total_ns - children);
        assert!(summary["inner"].ns_per_call(t.calibration_ns()).is_some());
    }

    #[test]
    fn ns_per_call_subtracts_one_clock_bracket_per_span() {
        let s = NameSummary { spans: 10, calls: 40, total_ns: 1_000, self_ns: 1_000 };
        assert_eq!(s.ns_per_call(20), Some((20.0, 40)));
        assert_eq!(s.ns_per_call(1_000), Some((0.0, 40)));
        assert_eq!(NameSummary::default().ns_per_call(20), None);
    }

    #[test]
    fn trace_file_is_valid_json_with_one_row_per_span() {
        let mut t = Tracer::new(8);
        let name = t.name("x");
        for id in [1, 2] {
            let span = t.enter(name, id);
            t.exit(span);
        }
        let path =
            std::env::temp_dir().join(format!("gossip-trace-test-{}.json", std::process::id()));
        t.write_json(&path, "unit").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("columns").and_then(Json::as_arr).map(<[Json]>::len), Some(7));
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("unit"));
    }
}
