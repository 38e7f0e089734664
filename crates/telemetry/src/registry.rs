//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration is the cold path and takes a mutex; the handles it returns
//! ([`Counter`], [`Gauge`], [`crate::Histogram`]) are `Arc`-backed atomics,
//! so the hot path — `inc`, `add`, `set_max`, `record` — is lock-free,
//! alloc-free, and safe from any thread. Instrumented components are
//! expected to resolve their handles once at install time and keep them.
//!
//! Snapshots ([`RegistrySnapshot`]) are plain data ordered by metric key.
//! [`RegistrySnapshot::merge`] is associative and commutative (counters
//! add, gauges take the max, histograms add bucket-wise), which is what
//! makes fleet-level rollups a simple fold over per-switch snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A metric identity: name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `pq_switch_enqueued_total`.
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key from a name and unsorted label pairs (labels are
    /// canonicalized by sorting, so construction order never matters).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A monotonically increasing counter handle. Cloning shares storage.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins (or high-watermark) gauge handle.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (high-watermark use).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// The registry. Clones share the same underlying metric set.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<MetricKey, Slot>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind — that
    /// is a programming error in the instrumentation, not a runtime state.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Slot::Counter(Counter::default()))
        {
            Slot::Counter(c) => c.clone(),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Get or create the gauge `name{labels}`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Slot::Gauge(Gauge::default()))
        {
            Slot::Gauge(g) => g.clone(),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Get or create the histogram `name{labels}`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Slot::Histogram(Histogram::new()))
        {
            Slot::Histogram(h) => h.clone(),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Number of registered metric series (distinct name+labels keys).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A plain-data copy of every metric's current value.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.inner.lock().unwrap();
        RegistrySnapshot {
            metrics: map
                .iter()
                .map(|(k, slot)| {
                    let value = match slot {
                        Slot::Counter(c) => MetricValue::Counter(c.get()),
                        Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                        Slot::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    (k.clone(), value)
                })
                .collect(),
        }
    }
}

/// The value half of a snapshot entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(u64),
    /// Full bucket state (boxed: a snapshot's bucket array dwarfs the
    /// scalar variants, and snapshots are cold-path data).
    Histogram(Box<HistogramSnapshot>),
}

/// A plain-data snapshot of a registry, ordered by metric key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    metrics: BTreeMap<MetricKey, MetricValue>,
}

impl RegistrySnapshot {
    /// Iterate `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.metrics.iter()
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &MetricKey) -> Option<&MetricValue> {
        self.metrics.get(key)
    }

    /// Insert (or overwrite) one series. Snapshots are plain data; this
    /// is how deserializers and delta producers build them.
    pub fn insert(&mut self, key: MetricKey, value: MetricValue) {
        self.metrics.insert(key, value);
    }

    /// Number of metric series in the snapshot.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The counter `name{labels}`, if present as a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `name{labels}`, if present as a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name{labels}`, if present as a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of a counter across every label combination (e.g. total
    /// enqueues over all ports).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(n) => Some(*n),
                _ => None,
            })
            .sum()
    }

    /// Fold another snapshot into this one.
    ///
    /// Counters add, gauges take the max (they are used as high
    /// watermarks), histograms add bucket-wise. All three operations are
    /// associative and commutative, so folding a fleet's snapshots in any
    /// order yields the same rollup — property-tested in
    /// `tests/telemetry.rs`.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (key, value) in &other.metrics {
            match self.metrics.get_mut(key) {
                None => {
                    self.metrics.insert(key.clone(), value.clone());
                }
                Some(mine) => match (mine, value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    // Kind mismatch across snapshots: keep ours. Snapshots
                    // from the same schema never hit this arm.
                    _ => {}
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_with_labels() {
        let reg = Registry::new();
        let a = reg.counter("hits_total", &[("port", "0")]);
        let b = reg.counter("hits_total", &[("port", "1")]);
        a.inc();
        a.add(2);
        b.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits_total", &[("port", "0")]), Some(3));
        assert_eq!(snap.counter("hits_total", &[("port", "1")]), Some(1));
        assert_eq!(snap.counter_sum("hits_total"), 4);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn handles_are_shared_not_reset() {
        let reg = Registry::new();
        reg.counter("c", &[]).inc();
        reg.counter("c", &[]).inc();
        assert_eq!(reg.snapshot().counter("c", &[]), Some(2));
    }

    #[test]
    fn gauge_set_max_is_a_watermark() {
        let reg = Registry::new();
        let g = reg.gauge("depth", &[]);
        g.set_max(5);
        g.set_max(3);
        assert_eq!(reg.snapshot().gauge("depth", &[]), Some(5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let r1 = Registry::new();
        r1.counter("c", &[]).add(10);
        r1.gauge("g", &[]).set(7);
        r1.histogram("h", &[]).record(100);
        let r2 = Registry::new();
        r2.counter("c", &[]).add(5);
        r2.gauge("g", &[]).set(9);
        r2.histogram("h", &[]).record(200);
        r2.counter("only2", &[]).inc();

        let mut m = r1.snapshot();
        m.merge(&r2.snapshot());
        assert_eq!(m.counter("c", &[]), Some(15));
        assert_eq!(m.gauge("g", &[]), Some(9));
        assert_eq!(m.histogram("h", &[]).unwrap().count, 2);
        assert_eq!(m.counter("only2", &[]), Some(1));
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter("c", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("c", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.len(), 1);
        assert_eq!(
            reg.snapshot().counter("c", &[("b", "2"), ("a", "1")]),
            Some(2)
        );
    }
}
