//! Window operators and the watermark state machine.
//!
//! Records are checkpoint events on the sim-time axis: `(t_ns, port,
//! depth)` where `depth` is the queue-monitor stack top at freeze
//! time. Because checkpoints from different ports (and, through the
//! router, different shards) interleave out of order, a window's
//! answer may only be emitted once a **watermark** proves it complete:
//!
//! - the watermark is `max(observed event time) - lateness`, and is
//!   monotone by construction (it only ever ratchets up);
//! - a window `[from, to)` closes exactly when `watermark >= to`;
//! - a record with `t < watermark` is *late*: it is counted and
//!   dropped, never folded into a window that may already have been
//!   emitted. With `lateness` at least the arrival skew, no record is
//!   late and window contents are arrival-order independent — the
//!   property tests shuffle arrivals to pin this down.
//!
//! Per-window state is one [`DepthAgg`] — a handful of u64s whose
//! `offer`/`merge` are commutative and associative, so shuffled
//! arrivals and shard-partial merges land on identical aggregates.
//! The open-window table itself is bounded: when a subscription would
//! hold more than `max_open` open windows, the oldest is **force
//! closed** early and flagged, keeping worst-case memory fixed while
//! surfacing the truncation instead of hiding it.

use crate::query::{Query, Stat, WindowKind};
use std::collections::BTreeMap;

/// One checkpoint event on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Sim time the checkpoint was frozen at.
    pub t_ns: u64,
    pub port: u16,
    /// Queue-monitor stack depth (entry levels) at freeze time.
    pub depth: u64,
}

/// A window's identity: `[from, to)` on one port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct WindowKey {
    pub port: u16,
    pub from: u64,
    pub to: u64,
}

/// Order-independent depth aggregate for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthAgg {
    pub max: u64,
    pub min: u64,
    /// Sum/count as integers — exact, so `avg` is deterministic no
    /// matter the fold order.
    pub sum: u64,
    pub count: u64,
    /// Latest record, tie-broken by depth so equal-time records from
    /// different arrival orders still agree.
    pub last_t: u64,
    pub last_depth: u64,
}

impl Default for DepthAgg {
    fn default() -> DepthAgg {
        DepthAgg {
            max: 0,
            min: u64::MAX,
            sum: 0,
            count: 0,
            last_t: 0,
            last_depth: 0,
        }
    }
}

impl DepthAgg {
    pub fn offer(&mut self, t_ns: u64, depth: u64) {
        self.max = self.max.max(depth);
        self.min = self.min.min(depth);
        self.sum = self.sum.saturating_add(depth);
        self.count += 1;
        if self.count == 1 || (t_ns, depth) > (self.last_t, self.last_depth) {
            self.last_t = t_ns;
            self.last_depth = depth;
        }
    }

    /// Fold another aggregate in (shard partials at the router).
    pub fn merge(&mut self, other: &DepthAgg) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
        if (other.last_t, other.last_depth) > (self.last_t, self.last_depth) {
            self.last_t = other.last_t;
            self.last_depth = other.last_depth;
        }
    }

    /// Evaluate one statistic; `min` on an empty aggregate is 0.
    /// Quantile stats are rejected at parse time for depth, so they
    /// evaluate as 0 here.
    pub fn stat(&self, stat: Stat) -> f64 {
        match stat {
            Stat::Max => self.max as f64,
            Stat::Min => {
                if self.count == 0 {
                    0.0
                } else {
                    self.min as f64
                }
            }
            Stat::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum as f64 / self.count as f64
                }
            }
            Stat::Last => self.last_depth as f64,
            Stat::Count => self.count as f64,
            Stat::P50 | Stat::P90 | Stat::P99 => 0.0,
        }
    }
}

/// Number of log-scale RTT buckets: the workspace histogram's scheme
/// minus its last bucket, which no RTT sample reaches, so a standing
/// `p99(rtt)` and a `pqsim rtt` report quantize identically (pq-stream
/// stays dependency-free, so the scheme is duplicated, not imported).
pub const RTT_BUCKETS: usize = 64;

/// Order-independent RTT aggregate for one window: exact scalar moments
/// plus a bounded log₂ histogram for quantiles. `offer`/`merge` are
/// commutative and associative like [`DepthAgg`]'s, so shuffled arrivals
/// and shard-partial merges agree bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttAgg {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Latest sample, tie-broken by value (see [`DepthAgg::last_t`]).
    pub last_t: u64,
    pub last_rtt: u64,
    /// `buckets[i]` counts samples `v` with `bucket_of(v) == i`.
    pub buckets: [u64; RTT_BUCKETS],
}

impl Default for RttAgg {
    fn default() -> RttAgg {
        RttAgg {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            last_t: 0,
            last_rtt: 0,
            buckets: [0; RTT_BUCKETS],
        }
    }
}

/// Log₂ bucket index of an RTT sample (same mapping as `pq-rtt`).
pub fn rtt_bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(RTT_BUCKETS - 1)
    }
}

impl RttAgg {
    pub fn offer(&mut self, t_ns: u64, rtt_ns: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(rtt_ns);
        self.min = self.min.min(rtt_ns);
        self.max = self.max.max(rtt_ns);
        self.buckets[rtt_bucket_of(rtt_ns)] += 1;
        if self.count == 1 || (t_ns, rtt_ns) > (self.last_t, self.last_rtt) {
            self.last_t = t_ns;
            self.last_rtt = rtt_ns;
        }
    }

    /// Fold another aggregate in (shard partials at the router).
    pub fn merge(&mut self, other: &RttAgg) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        if (other.last_t, other.last_rtt) > (self.last_t, self.last_rtt) {
            self.last_t = other.last_t;
            self.last_rtt = other.last_rtt;
        }
    }

    /// Quantile estimate by the workspace's one rule, `pq-prof`'s
    /// `HistSnapshot::quantile` (the open-ended last bucket pins to its
    /// lower bound), restated because pq-stream is dependency-free and
    /// fenced by a proptest in pq-serve. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if rank < self.count && n > 0 && seen.saturating_add(n) >= rank {
                let last = i == RTT_BUCKETS - 1;
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let width = if last { 0 } else { lo.saturating_sub(1) };
                let into = (rank - seen - 1) as f64;
                let frac = if n > 1 { into / (n - 1) as f64 } else { 0.0 };
                let est = (lo as f64 + frac * width as f64) as u64;
                return est.max(self.min).min(self.max);
            }
            seen = seen.saturating_add(n);
        }
        self.max
    }

    /// Evaluate one statistic; empty aggregates read as 0.
    pub fn stat(&self, stat: Stat) -> f64 {
        match stat {
            Stat::Max => self.max as f64,
            Stat::Min => {
                if self.count == 0 {
                    0.0
                } else {
                    self.min as f64
                }
            }
            Stat::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum as f64 / self.count as f64
                }
            }
            Stat::Last => self.last_rtt as f64,
            Stat::Count => self.count as f64,
            Stat::P50 => self.quantile(0.50) as f64,
            Stat::P90 => self.quantile(0.90) as f64,
            Stat::P99 => self.quantile(0.99) as f64,
        }
    }
}

/// A closed window, ready for emission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Closed {
    pub key: WindowKey,
    pub agg: DepthAgg,
    /// Passive RTT samples that landed in the window (empty unless the
    /// source feeds them).
    pub rtt: RttAgg,
    /// The query predicate held (or the query has none).
    pub fired: bool,
    /// Closed early by the open-window cap, not the watermark — the
    /// aggregate may be missing records that were still in flight.
    pub forced: bool,
}

/// Window starts containing `t` for the given shape, oldest first.
fn window_starts(t: u64, size: u64, kind: WindowKind) -> Vec<u64> {
    match kind {
        WindowKind::Tumbling => vec![t - t % size],
        WindowKind::Sliding { slide_ns } => {
            // Starts s with s <= t < s + size, aligned to the slide.
            let newest = t - t % slide_ns;
            let mut starts = Vec::new();
            let mut s = newest;
            loop {
                starts.push(s);
                match s.checked_sub(slide_ns) {
                    Some(prev) if prev.saturating_add(size) > t => s = prev,
                    _ => break,
                }
            }
            starts.reverse();
            starts
        }
    }
}

/// The full per-subscription engine: open windows, watermark, late and
/// forced-close accounting, predicate evaluation at close.
#[derive(Debug, Clone)]
pub struct Standing {
    pub query: Query,
    /// Open windows keyed `(to, from, port)` so the close scan walks
    /// them in emission order.
    open: BTreeMap<(u64, u64, u16), (DepthAgg, RttAgg)>,
    /// Cap on `open.len()`; exceeded entries are force-closed oldest
    /// first.
    max_open: usize,
    forced: Vec<Closed>,
    watermark: u64,
    sealed: bool,
    pub late_records: u64,
    pub forced_closes: u64,
    pub records: u64,
}

impl Standing {
    /// An engine for `query`, holding at most `max_open` open windows
    /// (clamped to at least 1).
    pub fn new(query: Query, max_open: usize) -> Standing {
        Standing {
            query,
            open: BTreeMap::new(),
            max_open: max_open.max(1),
            forced: Vec::new(),
            watermark: 0,
            sealed: false,
            late_records: 0,
            forced_closes: 0,
            records: 0,
        }
    }

    /// The current watermark: no record at or after it will be folded
    /// into a yet-to-close window once dropped as late.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Open windows currently held (bounded by the configured cap).
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Feed one record. Returns `false` if the record was late (dropped
    /// and counted); the watermark ratchets up either way.
    pub fn push(&mut self, r: Record) -> bool {
        self.feed(r.t_ns, r.port, r.depth, None)
    }

    /// Feed one passive RTT sample. Samples share the record stream's
    /// time axis and watermark: a late sample is dropped and counted
    /// exactly like a late checkpoint record.
    pub fn push_rtt(&mut self, t_ns: u64, port: u16, rtt_ns: u64) -> bool {
        self.feed(t_ns, port, 0, Some(rtt_ns))
    }

    fn feed(&mut self, t_ns: u64, port: u16, depth: u64, rtt: Option<u64>) -> bool {
        if !self.query.wants_port(port) {
            return true;
        }
        let on_time = t_ns >= self.watermark && !self.sealed;
        self.watermark = self
            .watermark
            .max(t_ns.saturating_sub(self.query.lateness_ns));
        if !on_time {
            self.late_records += 1;
            return false;
        }
        self.records += 1;
        for from in window_starts(t_ns, self.query.size_ns, self.query.kind) {
            let to = from.saturating_add(self.query.size_ns);
            let (depth_agg, rtt_agg) = self.open.entry((to, from, port)).or_default();
            match rtt {
                None => depth_agg.offer(t_ns, depth),
                Some(v) => rtt_agg.offer(t_ns, v),
            }
        }
        while self.open.len() > self.max_open {
            let (&key, _) = self.open.iter().next().expect("len > max_open >= 1");
            let (agg, rtt) = self.open.remove(&key).expect("key came from the map");
            let (to, from, port) = key;
            self.forced_closes += 1;
            self.forced.push(Closed {
                key: WindowKey { port, from, to },
                agg,
                rtt,
                fired: self.query.fires(&agg, &rtt),
                forced: true,
            });
        }
        true
    }

    /// End-of-stream: the source proved no further records exist, so
    /// every open window may close (a bounded source's final
    /// watermark, in Dataflow-model terms). Idempotent.
    pub fn seal(&mut self) {
        self.sealed = true;
        self.watermark = u64::MAX;
    }

    /// Close and return every window proven complete by the current
    /// watermark, plus any cap-forced closes, in deterministic
    /// `(to, from, port)` order.
    pub fn drain(&mut self) -> Vec<Closed> {
        let mut out = std::mem::take(&mut self.forced);
        while let Some((&key, _)) = self.open.iter().next() {
            let (to, from, port) = key;
            if to > self.watermark {
                break;
            }
            let (agg, rtt) = self.open.remove(&key).expect("key came from the map");
            out.push(Closed {
                key: WindowKey { port, from, to },
                agg,
                rtt,
                fired: self.query.fires(&agg, &rtt),
                forced: false,
            });
        }
        out.sort_by_key(|c| (c.key.to, c.key.from, c.key.port));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse;

    fn rec(t_ns: u64, port: u16, depth: u64) -> Record {
        Record { t_ns, port, depth }
    }

    #[test]
    fn tumbling_windows_close_on_watermark() {
        let q = parse("port 1 window tumbling 100").unwrap();
        let mut s = Standing::new(q, 64);
        assert!(s.push(rec(10, 1, 3)));
        assert!(s.push(rec(150, 1, 7)));
        // Watermark is 150; [0,100) is complete, [100,200) is not.
        let closed = s.drain();
        assert_eq!(closed.len(), 1);
        assert_eq!(
            closed[0].key,
            WindowKey {
                port: 1,
                from: 0,
                to: 100
            }
        );
        assert_eq!(closed[0].agg.max, 3);
        assert!(closed[0].fired && !closed[0].forced);
        assert_eq!(s.open_windows(), 1);
    }

    #[test]
    fn sliding_records_land_in_every_covering_window() {
        let q = parse("port 1 window sliding 100 slide 25").unwrap();
        let mut s = Standing::new(q, 64);
        s.push(rec(110, 1, 5));
        s.push(rec(500, 1, 1));
        let closed = s.drain();
        // t=110 covers starts 25, 50, 75, 100 (s <= 110 < s+100).
        let with_record: Vec<&Closed> = closed.iter().filter(|c| c.agg.count > 0).collect();
        assert_eq!(
            with_record
                .iter()
                .map(|c| (c.key.from, c.key.to))
                .collect::<Vec<_>>(),
            vec![(25, 125), (50, 150), (75, 175), (100, 200)]
        );
    }

    #[test]
    fn late_records_are_counted_and_dropped() {
        let q = parse("port 1 window tumbling 100").unwrap();
        let mut s = Standing::new(q, 64);
        s.push(rec(250, 1, 1));
        assert!(!s.push(rec(40, 1, 9)), "t=40 < watermark=250 is late");
        assert_eq!(s.late_records, 1);
        let closed = s.drain();
        // The late record must not appear in [0,100).
        assert!(closed.iter().all(|c| c.key.from != 0 || c.agg.count == 0));
    }

    #[test]
    fn lateness_holds_the_watermark_back() {
        let q = parse("port 1 window tumbling 100 lateness 300").unwrap();
        let mut s = Standing::new(q, 64);
        s.push(rec(250, 1, 1));
        assert_eq!(s.watermark(), 0);
        assert!(s.push(rec(40, 1, 9)), "within lateness: accepted");
        assert_eq!(s.late_records, 0);
    }

    #[test]
    fn open_window_cap_forces_oldest_closed() {
        let q = parse("port 1 window tumbling 10").unwrap();
        let mut s = Standing::new(q, 2);
        // Three distinct windows arriving at the same watermark-safe
        // times (out of order so nothing closes naturally first).
        s.push(rec(5, 1, 1));
        s.push(rec(15, 1, 2));
        s.push(rec(25, 1, 3));
        assert!(s.open_windows() <= 2);
        assert_eq!(s.forced_closes, 1);
        let closed = s.drain();
        let forced: Vec<&Closed> = closed.iter().filter(|c| c.forced).collect();
        assert_eq!(forced.len(), 1);
        assert_eq!(forced[0].key.from, 0);
    }

    #[test]
    fn seal_closes_everything() {
        let q = parse("port * window tumbling 100 where max(depth) > 5").unwrap();
        let mut s = Standing::new(q, 64);
        s.push(rec(10, 1, 3));
        s.push(rec(20, 2, 9));
        s.seal();
        let closed = s.drain();
        assert_eq!(closed.len(), 2);
        assert_eq!(s.open_windows(), 0);
        let fired: Vec<u16> = closed
            .iter()
            .filter(|c| c.fired)
            .map(|c| c.key.port)
            .collect();
        assert_eq!(fired, vec![2]);
        // Records after the seal are late by definition.
        assert!(!s.push(rec(500, 1, 1)));
        assert_eq!(s.late_records, 1);
    }

    #[test]
    fn rtt_samples_share_the_watermark_and_fire_predicates() {
        let q = parse("port 1 window tumbling 100 where p99(rtt) > 1000").unwrap();
        let mut s = Standing::new(q, 64);
        assert!(s.push_rtt(10, 1, 500));
        assert!(s.push_rtt(20, 1, 800));
        assert!(s.push_rtt(110, 1, 5_000));
        // RTT samples ratchet the watermark like records do.
        assert_eq!(s.watermark(), 110);
        assert!(!s.push_rtt(50, 1, 9_999), "behind the watermark: late");
        assert_eq!(s.late_records, 1);
        s.seal();
        let closed = s.drain();
        assert_eq!(closed.len(), 2);
        // [0,100): p99 quantizes to the 800 ns sample's octave — under
        // the 1 µs threshold. [100,200): the 5 µs sample trips it.
        assert!(!closed[0].fired);
        assert_eq!(closed[0].rtt.count, 2);
        assert!(closed[1].fired);
        assert_eq!(closed[1].rtt.max, 5_000);
        // Depth aggregates are untouched by RTT samples.
        assert_eq!(closed[0].agg.count, 0);
    }

    #[test]
    fn rtt_agg_merge_matches_sequential_fold() {
        let samples = [(10u64, 400u64), (20, 90_000), (30, 1_200), (30, 700)];
        let mut whole = RttAgg::default();
        let mut left = RttAgg::default();
        let mut right = RttAgg::default();
        for &(t, v) in &samples {
            whole.offer(t, v);
        }
        for &(t, v) in &samples[..2] {
            left.offer(t, v);
        }
        for &(t, v) in &samples[2..] {
            right.offer(t, v);
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(whole.stat(Stat::Count), 4.0);
        assert_eq!(whole.stat(Stat::Avg), 23_075.0);
        assert_eq!(whole.stat(Stat::Min), 400.0);
        assert_eq!(whole.stat(Stat::Max), 90_000.0);
        assert_eq!(
            whole.stat(Stat::Last),
            1_200.0,
            "equal-time tie breaks by value"
        );
        // Quantiles clamp to the observed extremes and land in the true
        // order statistic's bucket (the median sample, 700, sits alone in
        // [512, 1023]).
        assert_eq!(whole.quantile(1.0), 90_000);
        assert_eq!(whole.quantile(0.0), 400);
        assert_eq!(whole.quantile(0.5), 512);
        assert_eq!(RttAgg::default().quantile(0.99), 0);
    }

    #[test]
    fn depth_agg_merge_matches_sequential_fold() {
        let mut whole = DepthAgg::default();
        let mut left = DepthAgg::default();
        let mut right = DepthAgg::default();
        let recs = [(10u64, 4u64), (20, 9), (30, 2), (30, 7)];
        for &(t, d) in &recs {
            whole.offer(t, d);
        }
        for &(t, d) in &recs[..2] {
            left.offer(t, d);
        }
        for &(t, d) in &recs[2..] {
            right.offer(t, d);
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(whole.stat(Stat::Max), 9.0);
        assert_eq!(whole.stat(Stat::Avg), 5.5);
        assert_eq!(
            whole.stat(Stat::Last),
            7.0,
            "equal-time tie breaks by depth"
        );
    }
}
