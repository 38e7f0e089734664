//! Answers ⇄ frames: what each streamed answer looks like on the wire.
//!
//! Every streamed answer is a header frame announcing totals, bounded
//! chunk frames, and `ResultEnd`. Each answer type here owns both
//! directions — `to_frames` for the side that answers (the daemon and
//! the router call the same one, so a routed answer is frame-for-frame a
//! local one) and `from_frames` for the client — so the two cannot drift.
//! Both directions of all five answers run through one chunker
//! (`stream`) and one reassembler (`collect`), which is where the
//! header's announcement is enforced against what actually arrives.

use crate::client::ClientError;
use crate::wire::{
    Frame, WireSample, WireValue, ENTRIES_PER_FRAME, MAX_PROF_DUMP_LEN, MAX_RTT_REPORT_LEN,
    METRIC_SAMPLES_PER_FRAME, RTT_BYTES_PER_FRAME,
};
use pq_core::control::CoverageGap;
use pq_core::snapshot::FlowEstimates;
use pq_packet::FlowId;
use pq_rtt::RttReport;
use pq_telemetry::{HistogramSnapshot, MetricKey, MetricValue, RegistrySnapshot, TraceContext};

/// The protocol error for a frame that does not belong where it arrived.
pub(crate) fn unexpected(want: &str, got: &Frame) -> ClientError {
    ClientError::Protocol(format!("expected {want}, got {got:?}"))
}

/// One streamed answer: `header`, `entries` in chunks of `per_frame`,
/// `gaps` in chunks of [`ENTRIES_PER_FRAME`], then `ResultEnd`.
fn stream<T: Clone>(
    id: u64,
    header: Frame,
    entries: &[T],
    per_frame: usize,
    chunk: impl Fn(Vec<T>) -> Frame,
    gaps: &[CoverageGap],
) -> Vec<Frame> {
    let mut frames = vec![header];
    frames.extend(entries.chunks(per_frame).map(|c| chunk(c.to_vec())));
    frames.extend(gaps.chunks(ENTRIES_PER_FRAME).map(|c| Frame::ResultGaps {
        id,
        gaps: c.to_vec(),
    }));
    frames.push(Frame::ResultEnd { id });
    frames
}

/// Reassemble one streamed answer's chunks up to its `ResultEnd`: `pick`
/// unwraps the answer's own chunk kind (handing any other frame back),
/// gap chunks are common to all. Lengths are checked against the
/// header's announcement as chunks arrive, so a lying peer cannot force
/// unbounded buffering, and again at the end, so a short answer is never
/// mistaken for a complete one.
fn collect<T>(
    what: &str,
    want: u32,
    want_gaps: u32,
    mut next: impl FnMut() -> Result<Frame, ClientError>,
    pick: impl Fn(Frame) -> Result<Vec<T>, Frame>,
) -> Result<(Vec<T>, Vec<CoverageGap>), ClientError> {
    let (want, want_gaps) = (want as usize, want_gaps as usize);
    let mut entries: Vec<T> = Vec::with_capacity(want.min(1 << 16));
    let mut gaps: Vec<CoverageGap> = Vec::with_capacity(want_gaps.min(1 << 16));
    loop {
        match next()? {
            Frame::ResultEnd { .. } => break,
            Frame::ResultGaps { gaps: g, .. } => gaps.extend(g),
            other => entries
                .extend(pick(other).map_err(|f| unexpected(&format!("a chunk of {what}"), &f))?),
        }
        if entries.len() > want || gaps.len() > want_gaps {
            return Err(ClientError::Protocol(format!(
                "more {what} or gaps than the header announced"
            )));
        }
    }
    if entries.len() != want || gaps.len() != want_gaps {
        return Err(ClientError::Protocol(format!(
            "header announced {want} {what} / {want_gaps} gaps, got {} / {}",
            entries.len(),
            gaps.len()
        )));
    }
    Ok((entries, gaps))
}

/// A time-window answer — the remote mirror of the core's `QueryResult`,
/// plus the server's checkpoint count for the header line.
#[derive(Debug, Clone)]
pub struct RemoteResult {
    /// Per-flow estimated packet counts (bit-identical to local).
    pub estimates: FlowEstimates,
    /// Coverage gaps overlapping the queried interval.
    pub gaps: Vec<CoverageGap>,
    /// True when any gap overlapped the interval.
    pub degraded: bool,
    /// Checkpoints the server holds for the queried port.
    pub checkpoints: u64,
    /// The trace context echoed by the server — present iff the request
    /// carried one, so the caller can match the answer to its trace.
    pub trace: Option<TraceContext>,
}

impl RemoteResult {
    /// The answer's frame sequence under request `id`: the estimates in
    /// ranked order, as raw `f64` bits.
    pub fn to_frames(&self, id: u64) -> Vec<Frame> {
        let flows = self.estimates.ranked();
        let header = Frame::ResultHeader {
            id,
            degraded: self.degraded,
            checkpoints: self.checkpoints,
            flows: flows.len() as u32,
            gaps: self.gaps.len() as u32,
            trace: self.trace,
        };
        let chunk = |flows| Frame::ResultFlows { id, flows };
        stream(id, header, &flows, ENTRIES_PER_FRAME, chunk, &self.gaps)
    }

    pub(crate) fn from_frames(
        head: Frame,
        next: impl FnMut() -> Result<Frame, ClientError>,
    ) -> Result<RemoteResult, ClientError> {
        let Frame::ResultHeader {
            degraded,
            checkpoints,
            flows,
            gaps,
            trace,
            ..
        } = head
        else {
            return Err(unexpected("ResultHeader", &head));
        };
        let (flows, gaps) = collect("flows", flows, gaps, next, |f| match f {
            Frame::ResultFlows { flows, .. } => Ok(flows),
            other => Err(other),
        })?;
        let mut estimates = FlowEstimates::default();
        estimates.counts.extend(flows);
        Ok(RemoteResult {
            estimates,
            gaps,
            degraded,
            checkpoints,
            trace,
        })
    }
}

/// A queue-monitor answer.
#[derive(Debug, Clone)]
pub struct RemoteMonitor {
    /// When the answering snapshot was frozen.
    pub frozen_at: u64,
    /// Distance between the requested instant and the freeze.
    pub staleness: u64,
    /// True when the instant fell in a gap or the snapshot is stale.
    pub degraded: bool,
    /// Coverage gaps containing the requested instant.
    pub gaps: Vec<CoverageGap>,
    /// Original-culprit appearance counts, descending.
    pub counts: Vec<(FlowId, u64)>,
    /// The trace context echoed by the server (iff the request carried one).
    pub trace: Option<TraceContext>,
}

impl RemoteMonitor {
    /// The answer's frame sequence under request `id`.
    pub fn to_frames(&self, id: u64) -> Vec<Frame> {
        let header = Frame::MonitorHeader {
            id,
            degraded: self.degraded,
            frozen_at: self.frozen_at,
            staleness: self.staleness,
            counts: self.counts.len() as u32,
            gaps: self.gaps.len() as u32,
            trace: self.trace,
        };
        let chunk = |counts| Frame::MonitorCounts { id, counts };
        stream(
            id,
            header,
            &self.counts,
            ENTRIES_PER_FRAME,
            chunk,
            &self.gaps,
        )
    }

    pub(crate) fn from_frames(
        head: Frame,
        next: impl FnMut() -> Result<Frame, ClientError>,
    ) -> Result<RemoteMonitor, ClientError> {
        let Frame::MonitorHeader {
            degraded,
            frozen_at,
            staleness,
            counts,
            gaps,
            trace,
            ..
        } = head
        else {
            return Err(unexpected("MonitorHeader", &head));
        };
        let (counts, gaps) = collect("counts", counts, gaps, next, |f| match f {
            Frame::MonitorCounts { counts, .. } => Ok(counts),
            other => Err(other),
        })?;
        Ok(RemoteMonitor {
            frozen_at,
            staleness,
            degraded,
            gaps,
            counts,
            trace,
        })
    }
}

/// An RTT answer: the decoded canonical report plus the server's
/// degraded verdict (report-level degradation OR a `max_flows`
/// truncation the report itself cannot express).
#[derive(Debug, Clone)]
pub struct RemoteRtt {
    /// The decoded report (codec-validated canonical form).
    pub report: RttReport,
    /// Bounded-memory loss anywhere in the lineage, or flows dropped by
    /// the requested `max_flows` cap.
    pub degraded: bool,
    /// The trace context echoed by the server (iff the request carried one).
    pub trace: Option<TraceContext>,
}

impl RemoteRtt {
    /// The answer's frame sequence under request `id`: the report's
    /// canonical `pq-rtt` encoding as an opaque chunked blob.
    pub fn to_frames(&self, id: u64) -> Vec<Frame> {
        let bytes = self.report.encode();
        let header = Frame::RttHeader {
            id,
            degraded: self.degraded,
            total: bytes.len() as u32,
            trace: self.trace,
        };
        let chunk = |bytes| Frame::RttChunk { id, bytes };
        stream(id, header, &bytes, RTT_BYTES_PER_FRAME, chunk, &[])
    }

    /// All structural validation of the payload happens in the `pq-rtt`
    /// codec, so a hostile or truncated report surfaces as a protocol
    /// error, never a panic.
    pub(crate) fn from_frames(
        head: Frame,
        next: impl FnMut() -> Result<Frame, ClientError>,
    ) -> Result<RemoteRtt, ClientError> {
        let Frame::RttHeader {
            degraded,
            total,
            trace,
            ..
        } = head
        else {
            return Err(unexpected("RttHeader", &head));
        };
        let bytes = collect_blob(
            "rtt report bytes",
            total,
            MAX_RTT_REPORT_LEN,
            next,
            |f| match f {
                Frame::RttChunk { bytes, .. } => Ok(bytes),
                other => Err(other),
            },
        )?;
        let report = RttReport::decode(&bytes)
            .map_err(|e| ClientError::Protocol(format!("rtt report: {e}")))?;
        Ok(RemoteRtt {
            report,
            degraded,
            trace,
        })
    }
}

/// Reassemble an opaque blob of `total` announced bytes, refusing an
/// announcement over `cap` before anything is buffered.
fn collect_blob(
    what: &str,
    total: u32,
    cap: u32,
    next: impl FnMut() -> Result<Frame, ClientError>,
    pick: impl Fn(Frame) -> Result<Vec<u8>, Frame>,
) -> Result<Vec<u8>, ClientError> {
    if total > cap {
        return Err(ClientError::Protocol(format!(
            "{what}: announced length {total} exceeds cap {cap}"
        )));
    }
    Ok(collect(what, total, 0, next, pick)?.0)
}

/// The frame sequence of a profile-dump answer: the `pq-prof` canonical
/// encoding (`dump`) as an opaque chunked blob. The daemon answers with
/// its own capture, the router with the merge of its backends'.
pub fn profile_frames(id: u64, dump: &[u8]) -> Vec<Frame> {
    let header = Frame::ProfHeader {
        id,
        total: dump.len() as u32,
    };
    let chunk = |bytes| Frame::ProfChunk { id, bytes };
    stream(id, header, dump, RTT_BYTES_PER_FRAME, chunk, &[])
}

/// Reassemble a profile dump's raw encoded bytes (decoding is the
/// caller's: the routed-dump identity check compares the bytes).
pub(crate) fn profile_from_frames(
    head: Frame,
    next: impl FnMut() -> Result<Frame, ClientError>,
) -> Result<Vec<u8>, ClientError> {
    let Frame::ProfHeader { total, .. } = head else {
        return Err(unexpected("ProfHeader", &head));
    };
    collect_blob(
        "profile dump bytes",
        total,
        MAX_PROF_DUMP_LEN,
        next,
        |f| match f {
            Frame::ProfChunk { bytes, .. } => Ok(bytes),
            other => Err(other),
        },
    )
}

/// One metrics update: the answer to `MetricsGet`.
#[derive(Debug, Clone)]
pub struct MetricsUpdate {
    /// Update ordinal; always 0, since every answer is a full snapshot.
    pub seq: u64,
    /// Server clock (nanos since server start) when the update was cut.
    pub t_ns: u64,
    /// Always true: no further updates follow an answer.
    pub last: bool,
    /// Every series of the peer's registry, as absolute values.
    pub changed: RegistrySnapshot,
}

impl MetricsUpdate {
    /// The answer to `MetricsGet`: the whole of `snapshot`, cut at `t_ns`.
    pub fn snapshot(t_ns: u64, snapshot: RegistrySnapshot) -> MetricsUpdate {
        MetricsUpdate {
            seq: 0,
            t_ns,
            last: true,
            changed: snapshot,
        }
    }

    /// The update's frame sequence under request `id` (key order
    /// preserved; histograms carry only occupied buckets).
    pub fn to_frames(&self, id: u64) -> Vec<Frame> {
        let samples: Vec<WireSample> = self.changed.iter().map(to_sample).collect();
        let header = Frame::MetricsHeader {
            id,
            seq: self.seq,
            t_ns: self.t_ns,
            total: samples.len() as u32,
            last: self.last,
        };
        let chunk = |samples| Frame::MetricsChunk { id, samples };
        stream(id, header, &samples, METRIC_SAMPLES_PER_FRAME, chunk, &[])
    }

    /// Labels are re-canonicalized and duplicate keys last-write-win, so
    /// a hostile peer cannot construct a snapshot a local registry could
    /// not.
    pub(crate) fn from_frames(
        head: Frame,
        next: impl FnMut() -> Result<Frame, ClientError>,
    ) -> Result<MetricsUpdate, ClientError> {
        let Frame::MetricsHeader {
            seq,
            t_ns,
            total,
            last,
            ..
        } = head
        else {
            return Err(unexpected("MetricsHeader", &head));
        };
        let (samples, _) = collect("samples", total, 0, next, |f| match f {
            Frame::MetricsChunk { samples, .. } => Ok(samples),
            other => Err(other),
        })?;
        let mut changed = RegistrySnapshot::default();
        for sample in samples {
            let (key, value) = from_sample(sample).map_err(|e| ClientError::Protocol(e.into()))?;
            changed.insert(key, value);
        }
        Ok(MetricsUpdate {
            seq,
            t_ns,
            last,
            changed,
        })
    }
}

fn to_sample((key, value): (&MetricKey, &MetricValue)) -> WireSample {
    WireSample {
        name: key.name.clone(),
        labels: key.labels.clone(),
        value: match value {
            MetricValue::Counter(v) => WireValue::Counter(*v),
            MetricValue::Gauge(v) => WireValue::Gauge(*v),
            MetricValue::Histogram(h) => WireValue::Histogram {
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                buckets: h.occupied().collect(),
                exemplars: h.exemplars.clone(),
            },
        },
    }
}

/// A histogram's moments are taken as sent; `is_consistent` is
/// deliberately not asked: a live snapshot is a relaxed sweep that a
/// recorder in flight can legitimately tear, and monitors pull these under
/// load. A folded snapshot is safe to query because `quantile` is total.
fn from_sample(sample: WireSample) -> Result<(MetricKey, MetricValue), &'static str> {
    let labels: Vec<(&str, &str)> = sample
        .labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let key = MetricKey::new(&sample.name, &labels);
    let value = match sample.value {
        WireValue::Counter(v) => MetricValue::Counter(v),
        WireValue::Gauge(v) => MetricValue::Gauge(v),
        WireValue::Histogram {
            count,
            sum,
            min,
            max,
            buckets,
            mut exemplars,
        } => {
            let hist = pq_prof::HistSnapshot::from_occupied(count, sum, min, max, buckets)?;
            // Re-canonicalize: snapshot exemplars are bucket-sorted and
            // unique per bucket (last write wins), a hostile peer's
            // ordering notwithstanding.
            exemplars.sort_by_key(|e| e.bucket);
            exemplars.reverse();
            exemplars.dedup_by_key(|e| e.bucket);
            exemplars.reverse();
            MetricValue::Histogram(Box::new(HistogramSnapshot { hist, exemplars }))
        }
    };
    Ok((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_body, encode_body};

    /// Push `frames` through the codec and hand them out one at a time,
    /// the way a client reads them off a connection.
    fn replay(frames: Vec<Frame>) -> (Frame, impl FnMut() -> Result<Frame, ClientError>) {
        let mut wire = frames
            .into_iter()
            .map(|f| decode_body(&encode_body(&f)).expect("decode"))
            .collect::<Vec<_>>()
            .into_iter();
        let head = wire.next().expect("an answer starts with a header");
        (head, move || {
            wire.next()
                .ok_or_else(|| ClientError::Protocol("stream ended early".into()))
        })
    }

    fn gaps(n: u64) -> Vec<CoverageGap> {
        (0..n)
            .map(|i| CoverageGap {
                from: i * 10,
                to: i * 10 + 5,
            })
            .collect()
    }

    #[test]
    fn every_answer_survives_its_own_frames() {
        // Time windows: several flow chunks, several gap chunks, a NaN.
        let mut estimates = FlowEstimates::default();
        for i in 0..(ENTRIES_PER_FRAME as u32 * 2 + 3) {
            estimates.counts.insert(FlowId(i), f64::from(i) * 0.5);
        }
        let answer = RemoteResult {
            estimates,
            gaps: gaps(ENTRIES_PER_FRAME as u64 + 1),
            degraded: true,
            checkpoints: 40,
            trace: None,
        };
        let frames = answer.to_frames(7);
        assert_eq!(frames.len(), 1 + 3 + 2 + 1);
        assert!(frames.iter().all(|f| f.id() == 7));
        let (head, next) = replay(frames);
        let back = RemoteResult::from_frames(head, next).unwrap();
        assert_eq!(back.estimates.counts, answer.estimates.counts);
        assert_eq!(back.gaps, answer.gaps);
        assert_eq!((back.degraded, back.checkpoints), (true, 40));

        // Queue monitor.
        let answer = RemoteMonitor {
            frozen_at: 9,
            staleness: 3,
            degraded: false,
            gaps: gaps(2),
            counts: (0..700).map(|i| (FlowId(i), u64::from(i))).collect(),
            trace: None,
        };
        let (head, next) = replay(answer.to_frames(8));
        let back = RemoteMonitor::from_frames(head, next).unwrap();
        assert_eq!(back.counts, answer.counts);
        assert_eq!(back.gaps, answer.gaps);
        assert_eq!((back.frozen_at, back.staleness), (9, 3));

        // Blobs: a payload spanning several chunks reassembles exactly.
        let dump: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let frames = profile_frames(9, &dump);
        assert_eq!(frames.len(), 1 + 4 + 1);
        let (head, next) = replay(frames);
        assert_eq!(profile_from_frames(head, next).unwrap(), dump);
        let answer = RemoteRtt {
            report: RttReport::empty(3),
            degraded: true,
            trace: None,
        };
        let (head, next) = replay(answer.to_frames(10));
        let back = RemoteRtt::from_frames(head, next).unwrap();
        assert_eq!(back.report.encode(), answer.report.encode());
        assert!(back.degraded);
    }

    #[test]
    fn snapshot_survives_the_wire_bit_exactly() {
        use pq_telemetry::Registry;
        let reg = Registry::new();
        reg.counter("pq_serve_requests_total", &[("kind", "replay")])
            .add(9);
        reg.gauge("pq_serve_queue_depth", &[]).set(4);
        let h = reg.histogram("pq_serve_request_ns", &[]);
        h.record(0);
        h.record(1000);
        h.record_exemplar(u64::MAX, 0x0123_4567_89ab_cdef);
        for i in 0..METRIC_SAMPLES_PER_FRAME * 2 {
            reg.counter("pq_filler_total", &[("i", &i.to_string())])
                .inc();
        }
        let update = MetricsUpdate {
            seq: 0,
            t_ns: 42,
            last: true,
            changed: reg.snapshot(),
        };
        let (head, next) = replay(update.to_frames(5));
        let back = MetricsUpdate::from_frames(head, next).unwrap();
        assert_eq!(back.changed, update.changed);
        assert_eq!((back.seq, back.t_ns, back.last), (0, 42, true));
    }

    #[test]
    fn announcements_are_enforced() {
        let dump = vec![7u8; 100];
        let lying = |total: u32, drop_chunk: bool| {
            let mut frames = profile_frames(1, &dump);
            frames[0] = Frame::ProfHeader { id: 1, total };
            if drop_chunk {
                frames.remove(1);
            }
            let (head, next) = replay(frames);
            profile_from_frames(head, next)
        };
        assert_eq!(lying(100, false).unwrap(), dump);
        // More bytes than announced, fewer than announced, a missing chunk.
        assert!(matches!(lying(99, false), Err(ClientError::Protocol(_))));
        assert!(matches!(lying(101, false), Err(ClientError::Protocol(_))));
        assert!(matches!(lying(100, true), Err(ClientError::Protocol(_))));
        // A chunk of another answer's kind, and a stream with no end.
        let mut frames = profile_frames(1, &dump);
        frames[1] = Frame::RttChunk {
            id: 1,
            bytes: dump.clone(),
        };
        let (head, next) = replay(frames);
        assert!(matches!(
            profile_from_frames(head, next),
            Err(ClientError::Protocol(_))
        ));
        let mut frames = profile_frames(1, &dump);
        frames.pop();
        let (head, next) = replay(frames);
        assert!(profile_from_frames(head, next).is_err());
        // The wrong header for the answer asked for.
        let (head, next) = replay(profile_frames(1, &dump));
        assert!(matches!(
            RemoteRtt::from_frames(head, next),
            Err(ClientError::Protocol(_))
        ));
    }
}
