//! Instrumented mutex facade with named lock statistics.
//!
//! [`PqMutex`] wraps `std::sync::Mutex` and publishes, per lock *name*
//! (not per instance — every `PqMutex::new("store_writer", ..)` shares
//! one stat, so fleet-wide aggregation is just name-keyed merging):
//!
//! * `wait` — log2 histogram of time from requesting the lock to
//!   holding it,
//! * `hold` — log2 histogram of time the lock was held,
//! * `acquisitions` / `contended` — how often, and how often someone
//!   else held it first (detected by a `try_lock` fast path),
//! * `poisoned` — acquisitions that recovered a poisoned mutex.
//!
//! Poisoning is *recovered*, never propagated: a panicked worker must
//! not wedge the freeze-and-read path, so `lock()` hands back the inner
//! data and reports the event through the guard's
//! [`was_poisoned`](PqGuard::was_poisoned) plus the `poisoned` counter,
//! letting callers degrade the way they already degrade on coverage
//! gaps. Recording is on by default ("always-on" lock observability at
//! lock-acquisition granularity, two clock reads per acquisition) and
//! can be switched off for overhead baselines.

use crate::hist::{Hist, HistSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Instant;

static LOCK_STATS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Toggle wait/hold recording (the counters for poisoning stay on —
/// correctness events are never suppressed).
pub fn set_lock_stats(on: bool) {
    LOCK_STATS_ENABLED.store(on, Ordering::Relaxed);
}

/// Is wait/hold recording enabled? One relaxed load.
#[inline]
pub fn lock_stats_enabled() -> bool {
    LOCK_STATS_ENABLED.load(Ordering::Relaxed)
}

/// Aggregate statistics for one lock name.
pub struct LockStat {
    pub name: &'static str,
    pub(crate) wait: Hist,
    pub(crate) hold: Hist,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    poisoned: AtomicU64,
}

impl LockStat {
    fn new(name: &'static str) -> LockStat {
        LockStat {
            name,
            wait: Hist::default(),
            hold: Hist::default(),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        }
    }
}

/// Interned lock stats, one per distinct name, leaked for `'static`.
static LOCKS: Mutex<Vec<&'static LockStat>> = Mutex::new(Vec::new());

fn lock_stat(name: &'static str) -> &'static LockStat {
    let mut reg = LOCKS.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(stat) = reg.iter().find(|s| s.name == name) {
        return stat;
    }
    let stat: &'static LockStat = Box::leak(Box::new(LockStat::new(name)));
    reg.push(stat);
    stat
}

/// Count one acquisition of lock `name`, as a [`PqMutex`] of that name
/// would: for tests that need exact samples in the global histograms.
#[doc(hidden)]
pub fn record_acquisition(name: &'static str, wait_ns: u64, hold_ns: u64) {
    let stat = lock_stat(name);
    stat.wait.record(wait_ns);
    stat.hold.record(hold_ns);
    stat.acquisitions.fetch_add(1, Ordering::Relaxed);
}

/// Plain-data view of one named lock's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSnapshot {
    pub name: String,
    pub acquisitions: u64,
    pub contended: u64,
    pub poisoned: u64,
    pub wait: HistSnapshot,
    pub hold: HistSnapshot,
}

/// Every named lock that has seen activity, sorted by name.
pub(crate) fn locks_snapshot() -> Vec<LockSnapshot> {
    let reg = LOCKS.lock().unwrap_or_else(|p| p.into_inner());
    let mut out: Vec<LockSnapshot> = reg
        .iter()
        .map(|s| LockSnapshot {
            name: s.name.to_string(),
            acquisitions: s.acquisitions.load(Ordering::Relaxed),
            contended: s.contended.load(Ordering::Relaxed),
            poisoned: s.poisoned.load(Ordering::Relaxed),
            wait: s.wait.snapshot(),
            hold: s.hold.snapshot(),
        })
        .filter(|s| s.acquisitions > 0 || s.contended > 0 || s.poisoned > 0)
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Zero every lock stat (benches and tests).
pub(crate) fn reset_locks() {
    let reg = LOCKS.lock().unwrap_or_else(|p| p.into_inner());
    for s in reg.iter() {
        s.acquisitions.store(0, Ordering::Relaxed);
        s.contended.store(0, Ordering::Relaxed);
        s.poisoned.store(0, Ordering::Relaxed);
        s.wait.reset();
        s.hold.reset();
    }
}

/// A named, instrumented mutex. API mirrors `std::sync::Mutex` except
/// that `lock()` cannot fail: poisoning is recovered and reported.
pub struct PqMutex<T> {
    stat: &'static LockStat,
    inner: Mutex<T>,
}

impl<T> PqMutex<T> {
    pub fn new(name: &'static str, value: T) -> PqMutex<T> {
        PqMutex {
            stat: lock_stat(name),
            inner: Mutex::new(value),
        }
    }

    pub fn name(&self) -> &'static str {
        self.stat.name
    }

    /// Acquire the lock, recording wait time and contention. A poisoned
    /// mutex is recovered: the guard carries the fact instead of an
    /// `Err`.
    pub fn lock(&self) -> PqGuard<'_, T> {
        let recording = lock_stats_enabled();
        let requested = recording.then(Instant::now);
        let (guard, poisoned) = match self.inner.try_lock() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(p)) => {
                self.stat.poisoned.fetch_add(1, Ordering::Relaxed);
                (p.into_inner(), true)
            }
            Err(TryLockError::WouldBlock) => {
                if recording {
                    self.stat.contended.fetch_add(1, Ordering::Relaxed);
                }
                match self.inner.lock() {
                    Ok(g) => (g, false),
                    Err(p) => {
                        self.stat.poisoned.fetch_add(1, Ordering::Relaxed);
                        (p.into_inner(), true)
                    }
                }
            }
        };
        if let Some(t0) = requested {
            self.stat.wait.record(t0.elapsed().as_nanos() as u64);
            self.stat.acquisitions.fetch_add(1, Ordering::Relaxed);
        }
        PqGuard {
            guard,
            stat: self.stat,
            acquired: recording.then(Instant::now),
            poisoned,
        }
    }

    /// Consume the mutex, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PqMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PqMutex")
            .field("name", &self.stat.name)
            .finish_non_exhaustive()
    }
}

/// Guard for a held [`PqMutex`]; records hold time on drop.
pub struct PqGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    stat: &'static LockStat,
    acquired: Option<Instant>,
    poisoned: bool,
}

impl<T> PqGuard<'_, T> {
    /// Did this acquisition recover a poisoned mutex? Callers surface
    /// this as a degradation (e.g. a control-plane `CoverageGap`).
    pub fn was_poisoned(&self) -> bool {
        self.poisoned
    }
}

impl<T> std::ops::Deref for PqGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for PqGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for PqGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t0) = self.acquired {
            self.stat.hold.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_wait_hold_and_contention() {
        let _g = crate::test_lock();
        crate::reset();
        let m = Arc::new(PqMutex::new("prof/test_lock", 0u64));
        {
            let mut g = m.lock();
            *g += 1;
            assert!(!g.was_poisoned());
        }
        // Force contention: hold in one thread, acquire in another.
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g += 1;
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(g);
        t.join().unwrap();
        let snap = locks_snapshot();
        let s = snap.iter().find(|s| s.name == "prof/test_lock").unwrap();
        assert_eq!(s.acquisitions, 3);
        assert!(s.contended >= 1);
        assert_eq!(s.poisoned, 0);
        assert_eq!(s.wait.count, 3);
        assert_eq!(s.hold.count, 3);
        assert!(s.hold.max >= 1_000_000, "held >= 1ms across the sleep");
        crate::reset();
    }

    #[test]
    fn poisoned_lock_recovers_and_reports() {
        let _g = crate::test_lock();
        crate::reset();
        let m = Arc::new(PqMutex::new("prof/test_poison", vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        let g = m.lock();
        assert!(g.was_poisoned(), "poisoning is reported, not propagated");
        assert_eq!(*g, vec![1, 2, 3], "data survives recovery");
        drop(g);
        let snap = locks_snapshot();
        let s = snap.iter().find(|s| s.name == "prof/test_poison").unwrap();
        assert_eq!(s.poisoned, 1);
        crate::reset();
    }

    #[test]
    fn disabled_stats_skip_histograms_but_not_poison_counts() {
        let _g = crate::test_lock();
        crate::reset();
        set_lock_stats(false);
        let m = PqMutex::new("prof/test_disabled_lock", ());
        drop(m.lock());
        set_lock_stats(true);
        assert!(!locks_snapshot()
            .iter()
            .any(|s| s.name == "prof/test_disabled_lock"));
    }
}
