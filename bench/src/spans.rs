//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap the benchmark's calls into each layer (`choosing-metrics`
//! §4: in the change that defines the benchmark, spans are recorded from
//! the benchmark's own files). They are kept in memory and written once,
//! at exit, as Chrome trace-event JSON. A layer's *self time* is its
//! span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (one ingest round, one sampled query) share
    /// this identifier.
    pub request: u64,
    /// Recording thread lane.
    pub lane: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

/// A clonable handle to one lane's span buffer. Clones share the buffer
/// and the open-span stack, so a wrapper deep inside a call (the spill
/// sink inside `on_tick`) parents itself under the caller's open span.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
    epoch: Instant,
    lane: u32,
}

/// Closes its span on drop.
pub struct SpanGuard {
    rec: Recorder,
    index: usize,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch` (share one epoch across
    /// lanes so their spans line up in the trace file).
    pub fn new(epoch: Instant, lane: u32) -> Recorder {
        Recorder {
            inner: Arc::new(Mutex::new(Inner::default())),
            epoch,
            lane,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Spans are plain data: a panic while the lock was held cannot
        // leave them half-written in a way that matters to a report.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Open a span under the innermost open span of this lane.
    pub fn enter(&self, name: &'static str, request: u64) -> SpanGuard {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let index = inner.spans.len();
        let parent = inner.stack.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            lane: self.lane,
        });
        inner.stack.push(index);
        SpanGuard {
            rec: self.clone(),
            index,
        }
    }

    /// Take the recorded spans out of the buffer.
    pub fn take(&self) -> Vec<Span> {
        let mut inner = self.lock();
        inner.stack.clear();
        std::mem::take(&mut inner.spans)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        let mut inner = self.rec.lock();
        if let Some(span) = inner.spans.get_mut(self.index) {
            span.end_ns = end_ns;
        }
        if let Some(pos) = inner.stack.iter().rposition(|&i| i == self.index) {
            inner.stack.truncate(pos);
        }
    }
}

/// Append `lane`'s spans to `all`, re-basing parent indices.
pub fn append(all: &mut Vec<Span>, lane: Vec<Span>) {
    let base = all.len();
    all.extend(lane.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let from = s.start_ns.max(parent.start_ns);
            let to = s.end_ns.min(parent.end_ns);
            if from < to {
                children[p].push((from, to));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(from, to) in kids.iter() {
                let from = from.max(reach);
                if to > from {
                    covered += to - from;
                    reach = to;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sum count, duration and self time per span name (sorted by name).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Render spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
/// one complete (`"ph":"X"`) event per span, microsecond timestamps, the
/// span's own index, its parent and its request id in `args`.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 160 + 128);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{},\"self_us\":{:.3}}}}}",
            s.lane,
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.request,
            self_ns as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("round", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("tick", 20, 40, Some(1)),
            span("tick", 50, 70, Some(1)),
            span("push", 25, 35, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 10, 20, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["tick"],
            NameTotal {
                count: 2,
                total_ns: 40,
                self_ns: 30
            }
        );
        // Self times partition the root: nothing is counted twice.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 180, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("c", 50, 120, Some(0)),
            span("d", 190, 400, Some(0)),
        ];
        // Covered: [100,120) ∪ [110,150) ∪ [140,180) ∪ [190,200) = 90.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_by_call_order_and_clones_share_the_stack() {
        let rec = Recorder::new(Instant::now(), 3);
        {
            let _round = rec.enter("round", 7);
            let inner = rec.clone();
            {
                let _tick = inner.enter("tick", 7);
                let _push = rec.enter("push", 7);
            }
            let _tick2 = rec.enter("tick", 7);
        }
        let _next = rec.enter("round", 8);
        drop(_next);
        let spans = rec.take();
        let shape: Vec<(&str, Option<usize>)> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("round", None),
                ("tick", Some(0)),
                ("push", Some(1)),
                ("tick", Some(0)),
                ("round", None)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.lane == 3));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn append_rebases_parents_and_chrome_json_is_well_formed() {
        let mut all = vec![span("a", 0, 10, None)];
        append(
            &mut all,
            vec![span("b", 0, 10, None), span("c", 2, 4, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
        let json = chrome_json(&all, "bench");
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[3].get("args").and_then(|a| a.get("parent")),
            Some(&serde::Value::U64(1))
        );
    }
}
