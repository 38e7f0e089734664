//! The shared LRU segment-decode cache.
//!
//! Decoding a `.pqa` segment is the expensive step of a replay query
//! (CRC check + varint/delta decode + register reconstruction); hot
//! intervals hit the same segments over and over. This cache keeps
//! decoded segments, keyed by `(archive id, segment offset, body CRC,
//! count)` — the CRC in the key means a rewritten archive can never serve
//! stale decodes — bounded by an approximate decoded-byte budget with
//! least-recently-used eviction.
//!
//! One cache is shared by every worker (behind a mutex: lookups are a
//! hash probe and an `Arc` bump, so the critical section is tiny next to
//! a decode). `DecodeBudget` enforcement is unchanged: misses decode
//! through [`StoreReader`](pq_store::StoreReader) with its per-segment
//! budget, and only clean decodes are inserted.
//!
//! Hits, misses, evictions, and resident bytes are exported as
//! `pq_serve_cache_*` (see [`pq_telemetry::names`]).

use pq_core::control::Checkpoint;
use pq_core::queue_monitor::Entry;
use pq_core::time_windows::Cell;
use pq_store::{SegmentCache, SegmentKey};
use pq_telemetry::{names, Counter, Gauge, Telemetry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What one decoded checkpoint costs the cache: an admission rule,
/// deliberately dense-equivalent, not its resident size. Every window is
/// counted in full and every monitor at its array length (register cells +
/// monitor entry arrays + fixed overhead), although a decoded checkpoint
/// holds only its occupied rows and shares unchanged windows and monitor
/// chunks with its predecessor; so the budget keeps admitting exactly the
/// segments it always has, and `pq_serve_cache_resident_bytes` overstates
/// what is resident.
fn checkpoint_cost(cp: &Checkpoint) -> u64 {
    let tw = cp.windows.config();
    let cells = u64::from(tw.t) * (tw.cells() as u64) * (std::mem::size_of::<Cell>() as u64);
    let monitors: u64 = cp
        .queue_monitors
        .iter()
        .map(|m| (m.len() * std::mem::size_of::<Entry>()) as u64)
        .sum();
    cells + monitors + 64
}

fn segment_cost(cps: &[Checkpoint]) -> u64 {
    cps.iter().map(checkpoint_cost).sum::<u64>() + 64
}

/// A cache key: which archive, which segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    archive: u64,
    segment: SegmentKey,
}

struct Slot {
    checkpoints: Arc<[Checkpoint]>,
    cost: u64,
    last_used: u64,
}

struct Instruments {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    resident_bytes: Gauge,
}

struct Inner {
    slots: HashMap<CacheKey, Slot>,
    resident: u64,
    tick: u64,
}

/// The byte-bounded, LRU, archive-aware decode cache. Cheaply cloneable;
/// all clones share storage.
#[derive(Clone)]
pub struct DecodeCache {
    inner: Arc<Mutex<Inner>>,
    instruments: Arc<Instruments>,
    capacity_bytes: u64,
}

impl DecodeCache {
    /// A cache holding at most ~`capacity_bytes` of decoded checkpoints.
    /// A capacity of 0 still constructs (every insert evicts immediately),
    /// but callers wanting "no cache" should simply not attach one.
    pub fn new(capacity_bytes: u64, plane: &Telemetry) -> DecodeCache {
        let reg = plane.registry();
        DecodeCache {
            inner: Arc::new(Mutex::new(Inner {
                slots: HashMap::new(),
                resident: 0,
                tick: 0,
            })),
            instruments: Arc::new(Instruments {
                hits: reg.counter(names::SERVE_CACHE_HIT, &[]),
                misses: reg.counter(names::SERVE_CACHE_MISS, &[]),
                evictions: reg.counter(names::SERVE_CACHE_EVICTIONS, &[]),
                resident_bytes: reg.gauge(names::SERVE_CACHE_BYTES, &[]),
            }),
            capacity_bytes,
        }
    }

    /// A [`SegmentCache`] view bound to one archive's id, for passing to
    /// [`StoreReader::query_cached`](pq_store::StoreReader::query_cached).
    pub fn for_archive(&self, archive: u64) -> ArchiveView {
        ArchiveView {
            cache: self.clone(),
            archive,
        }
    }

    /// (hits, misses, evictions) so far — a convenience for benches; the
    /// same numbers are in the telemetry registry.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            resident_bytes: inner.resident,
            segments: inner.slots.len(),
        }
    }

    fn get(&self, key: CacheKey) -> Option<Arc<[Checkpoint]>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.slots.get_mut(&key) {
            Some(slot) => {
                slot.last_used = tick;
                self.instruments.hits.inc();
                Some(Arc::clone(&slot.checkpoints))
            }
            None => {
                self.instruments.misses.inc();
                None
            }
        }
    }

    fn insert(&self, key: CacheKey, checkpoints: Arc<[Checkpoint]>) {
        let cost = segment_cost(&checkpoints);
        if cost > self.capacity_bytes {
            // Larger than the whole budget: caching it would just evict
            // everything else for a single-use resident.
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.slots.insert(
            key,
            Slot {
                checkpoints,
                cost,
                last_used: tick,
            },
        ) {
            inner.resident -= old.cost;
        }
        inner.resident += cost;
        // Evict least-recently-used slots until back under budget. Linear
        // scan: archives hold hundreds of segments, not millions, and
        // eviction only runs on insert.
        while inner.resident > self.capacity_bytes {
            let Some((&victim, _)) = inner
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_used)
            else {
                break;
            };
            let slot = inner.slots.remove(&victim).unwrap();
            inner.resident -= slot.cost;
            self.instruments.evictions.inc();
        }
        self.instruments.resident_bytes.set(inner.resident);
    }
}

/// Point-in-time cache occupancy.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    /// Approximate decoded bytes resident.
    pub resident_bytes: u64,
    /// Segments resident.
    pub segments: usize,
}

/// A [`DecodeCache`] scoped to one archive id; implements the store's
/// [`SegmentCache`] hook.
pub struct ArchiveView {
    cache: DecodeCache,
    archive: u64,
}

impl SegmentCache for ArchiveView {
    fn get(&mut self, key: SegmentKey) -> Option<Arc<[Checkpoint]>> {
        self.cache.get(CacheKey {
            archive: self.archive,
            segment: key,
        })
    }

    fn insert(&mut self, key: SegmentKey, checkpoints: Arc<[Checkpoint]>) {
        self.cache.insert(
            CacheKey {
                archive: self.archive,
                segment: key,
            },
            checkpoints,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_core::params::TimeWindowConfig;
    use pq_core::snapshot::TimeWindowSnapshot;
    use pq_core::time_windows::TimeWindowSet;

    fn cp(frozen_at: u64) -> Checkpoint {
        let set = TimeWindowSet::new(TimeWindowConfig::new(0, 1, 3, 2));
        Checkpoint {
            frozen_at,
            on_demand: false,
            trigger: None,
            windows: TimeWindowSnapshot::capture(&set),
            queue_monitors: Vec::new(),
        }
    }

    fn key(offset: u64) -> SegmentKey {
        SegmentKey {
            offset,
            body_crc: 0xabcd,
            count: 1,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let plane = Telemetry::new();
        let cache = DecodeCache::new(1 << 20, &plane);
        let mut view = cache.for_archive(1);
        assert!(view.get(key(9)).is_none());
        view.insert(key(9), vec![cp(5)].into());
        assert!(view.get(key(9)).is_some());
        let snap = plane.snapshot();
        assert_eq!(snap.counter(names::SERVE_CACHE_HIT, &[]), Some(1));
        assert_eq!(snap.counter(names::SERVE_CACHE_MISS, &[]), Some(1));
    }

    #[test]
    fn archives_do_not_alias() {
        let plane = Telemetry::new();
        let cache = DecodeCache::new(1 << 20, &plane);
        cache.for_archive(1).insert(key(9), vec![cp(5)].into());
        assert!(cache.for_archive(2).get(key(9)).is_none());
    }

    #[test]
    fn lru_evicts_oldest_under_pressure() {
        let plane = Telemetry::new();
        let one = segment_cost(&[cp(0)]);
        let cache = DecodeCache::new(one * 2 + one / 2, &plane);
        let mut view = cache.for_archive(1);
        view.insert(key(1), vec![cp(1)].into());
        view.insert(key(2), vec![cp(2)].into());
        assert!(view.get(key(1)).is_some()); // refresh 1: now 2 is LRU
        view.insert(key(3), vec![cp(3)].into());
        assert!(view.get(key(2)).is_none(), "LRU entry evicted");
        assert!(view.get(key(1)).is_some());
        assert!(view.get(key(3)).is_some());
        assert!(
            plane
                .snapshot()
                .counter(names::SERVE_CACHE_EVICTIONS, &[])
                .unwrap()
                >= 1
        );
    }
}
