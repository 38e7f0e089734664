//! Per-thread scope stacks with exact per-scope aggregation.
//!
//! A `prof::scope!("serve/worker_exec")` call site expands to a static
//! [`Site`] plus a [`ScopeGuard`]. When profiling is disabled the guard
//! costs one relaxed atomic load and a branch — the same "off = near
//! zero" contract as `SpanTracer`. When enabled, entering a scope:
//!
//! * pushes the scope's interned id onto the thread's lock-free stack
//!   (a seqlock-versioned fixed array the sampler can read from another
//!   thread without stopping it),
//! * swaps the thread-local "innermost scope" pointer (the parent whose
//!   `child_ns` the scope adds to), and
//! * starts a wall clock.
//!
//! Dropping the guard pops the stack and folds the elapsed time into the
//! scope's exact aggregate: `calls`, `total_ns`, and the parent's
//! `child_ns` (so `self = total - child` needs no tree walk). Aggregates
//! live in leaked `&'static` cells — scope names are compile-time
//! literals, so the set is bounded by the code, not the workload.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Deepest stack the sampler can observe; deeper nesting still times
/// correctly but the sampler sees a truncated stack.
pub const MAX_DEPTH: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Master switch for scope aggregation and stack maintenance.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is scope profiling currently enabled? One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Exact per-scope aggregate. Leaked on interning, so references are
/// `'static` and recording never touches the registry lock.
pub struct ScopeStat {
    pub name: &'static str,
    /// 1-based intern id (0 is the "no scope" sentinel in stack frames).
    pub id: u32,
    calls: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
}

impl ScopeStat {
    fn new(name: &'static str, id: u32) -> ScopeStat {
        ScopeStat {
            name,
            id,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            child_ns: AtomicU64::new(0),
        }
    }
}

/// Interned scopes, id = index + 1. Cold path only (first hit per site).
static SCOPES: Mutex<Vec<&'static ScopeStat>> = Mutex::new(Vec::new());

fn intern(name: &'static str) -> &'static ScopeStat {
    let mut reg = SCOPES.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(stat) = reg.iter().find(|s| s.name == name) {
        return stat;
    }
    let id = reg.len() as u32 + 1;
    let stat: &'static ScopeStat = Box::leak(Box::new(ScopeStat::new(name, id)));
    reg.push(stat);
    stat
}

/// Resolve an intern id back to its stat (sampler/capture path).
pub(crate) fn stat_by_id(id: u32) -> Option<&'static ScopeStat> {
    if id == 0 {
        return None;
    }
    let reg = SCOPES.lock().unwrap_or_else(|p| p.into_inner());
    reg.get(id as usize - 1).copied()
}

/// `(name, calls, total_ns, child_ns)` for every scope that has recorded
/// activity, sorted by name.
pub(crate) fn scopes_snapshot() -> Vec<(&'static str, u64, u64, u64)> {
    let reg = SCOPES.lock().unwrap_or_else(|p| p.into_inner());
    let mut out: Vec<_> = reg
        .iter()
        .map(|s| {
            (
                s.name,
                s.calls.load(Ordering::Relaxed),
                s.total_ns.load(Ordering::Relaxed),
                s.child_ns.load(Ordering::Relaxed),
            )
        })
        .filter(|&(_, calls, _, _)| calls > 0)
        .collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Zero every scope aggregate (benches and tests).
pub(crate) fn reset_scopes() {
    let reg = SCOPES.lock().unwrap_or_else(|p| p.into_inner());
    for s in reg.iter() {
        s.calls.store(0, Ordering::Relaxed);
        s.total_ns.store(0, Ordering::Relaxed);
        s.child_ns.store(0, Ordering::Relaxed);
    }
}

/// One `scope!` call site: the name plus a once-resolved pointer to the
/// interned stat, so the steady state never takes the registry lock.
pub struct Site {
    name: &'static str,
    stat: AtomicPtr<ScopeStat>,
}

impl Site {
    pub const fn new(name: &'static str) -> Site {
        Site {
            name,
            stat: AtomicPtr::new(ptr::null_mut()),
        }
    }

    #[inline]
    fn resolve(&self) -> &'static ScopeStat {
        let p = self.stat.load(Ordering::Acquire);
        if !p.is_null() {
            // Safety: the pointer was produced from a leaked &'static.
            unsafe { &*p }
        } else {
            self.resolve_slow()
        }
    }

    #[cold]
    fn resolve_slow(&self) -> &'static ScopeStat {
        let stat = intern(self.name);
        self.stat.store(
            stat as *const ScopeStat as *mut ScopeStat,
            Ordering::Release,
        );
        stat
    }
}

/// One thread's observable scope stack. The writer (the thread itself)
/// brackets mutations with seqlock increments; the sampler retries reads
/// that race a mutation. Every field is an atomic, so a racy read is at
/// worst semantically stale — never undefined — and the seq check plus
/// id validation filters those out.
pub struct ThreadStack {
    seq: AtomicU32,
    depth: AtomicU32,
    frames: [AtomicU32; MAX_DEPTH],
    alive: AtomicBool,
}

impl ThreadStack {
    fn new() -> ThreadStack {
        ThreadStack {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            alive: AtomicBool::new(true),
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Seqlock read of the stack's frame ids, innermost last. `None` if
    /// the stack is empty or a consistent read could not be obtained in
    /// a few tries.
    pub(crate) fn sample(&self) -> Option<Vec<u32>> {
        for _ in 0..4 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Acquire) as usize;
            if depth == 0 {
                return None;
            }
            let depth = depth.min(MAX_DEPTH);
            let mut frames = Vec::with_capacity(depth);
            for f in &self.frames[..depth] {
                frames.push(f.load(Ordering::Relaxed));
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 && frames.iter().all(|&id| id != 0) {
                return Some(frames);
            }
        }
        None
    }

    fn push(&self, id: u32) {
        self.seq.fetch_add(1, Ordering::AcqRel);
        let depth = self.depth.load(Ordering::Relaxed) as usize;
        if depth < MAX_DEPTH {
            self.frames[depth].store(id, Ordering::Relaxed);
        }
        self.depth.store(depth as u32 + 1, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    fn pop(&self) {
        self.seq.fetch_add(1, Ordering::AcqRel);
        let depth = self.depth.load(Ordering::Relaxed);
        self.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }
}

/// Every thread that ever entered a scope; dead threads keep their entry
/// until the sampler prunes it (the `alive` flag flips in TLS teardown).
static THREADS: Mutex<Vec<Arc<ThreadStack>>> = Mutex::new(Vec::new());

pub(crate) fn live_threads() -> Vec<Arc<ThreadStack>> {
    let mut reg = THREADS.lock().unwrap_or_else(|p| p.into_inner());
    reg.retain(|t| t.is_alive());
    reg.clone()
}

struct Tls {
    stack: Arc<ThreadStack>,
}

impl Drop for Tls {
    fn drop(&mut self) {
        self.stack.alive.store(false, Ordering::Release);
    }
}

fn register_thread() -> Tls {
    let stack = Arc::new(ThreadStack::new());
    THREADS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(Arc::clone(&stack));
    Tls { stack }
}

thread_local! {
    static TLS: Tls = register_thread();
    /// Innermost active scope, for parent `child_ns` accounting.
    /// Const-init, so reading it never runs a lazy TLS init.
    static CURRENT: Cell<*const ScopeStat> = const { Cell::new(ptr::null()) };
}

/// RAII guard produced by [`scope!`](crate::scope!). Inactive (a no-op)
/// when profiling was disabled at entry.
pub struct ScopeGuard {
    stat: Option<&'static ScopeStat>,
    prev: *const ScopeStat,
    pushed: bool,
    start: Instant,
}

impl ScopeGuard {
    #[inline]
    pub fn enter(site: &'static Site) -> ScopeGuard {
        if !enabled() {
            return ScopeGuard {
                stat: None,
                prev: ptr::null(),
                pushed: false,
                start: Instant::now(),
            };
        }
        Self::enter_slow(site)
    }

    fn enter_slow(site: &'static Site) -> ScopeGuard {
        let stat = site.resolve();
        let pushed = TLS.try_with(|t| t.stack.push(stat.id)).is_ok();
        let prev = CURRENT
            .try_with(|c| c.replace(stat as *const ScopeStat))
            .unwrap_or(ptr::null());
        ScopeGuard {
            stat: Some(stat),
            prev,
            pushed,
            start: Instant::now(),
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some(stat) = self.stat else { return };
        let elapsed = self.start.elapsed().as_nanos() as u64;
        stat.calls.fetch_add(1, Ordering::Relaxed);
        stat.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        if !self.prev.is_null() {
            // Safety: scope stats are leaked, so the parent pointer a
            // guard saved at entry can never dangle.
            unsafe { &*self.prev }
                .child_ns
                .fetch_add(elapsed, Ordering::Relaxed);
        }
        let _ = CURRENT.try_with(|c| c.set(self.prev));
        if self.pushed {
            let _ = TLS.try_with(|t| t.stack.pop());
        }
    }
}

/// Open a named profiling scope for the rest of the enclosing block.
///
/// ```
/// fn handle() {
///     pq_prof::scope!("serve/worker_exec");
///     // ... work attributed to serve/worker_exec ...
/// }
/// ```
#[macro_export]
macro_rules! scope {
    ($name:literal) => {
        let _pq_prof_scope_guard = {
            static PQ_PROF_SITE: $crate::scope::Site = $crate::scope::Site::new($name);
            $crate::scope::ScopeGuard::enter(&PQ_PROF_SITE)
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scope_records_nothing() {
        set_enabled(false);
        {
            crate::scope!("prof/test_disabled");
        }
        assert!(!scopes_snapshot()
            .iter()
            .any(|(name, ..)| *name == "prof/test_disabled"));
    }

    #[test]
    fn nested_scopes_attribute_child_time() {
        let _g = crate::test_lock();
        set_enabled(true);
        {
            crate::scope!("prof/test_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                crate::scope!("prof/test_inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let snap = scopes_snapshot();
        let outer = snap
            .iter()
            .find(|(name, ..)| *name == "prof/test_outer")
            .copied()
            .unwrap();
        let inner = snap
            .iter()
            .find(|(name, ..)| *name == "prof/test_inner")
            .copied()
            .unwrap();
        assert_eq!(outer.1, 1);
        assert_eq!(inner.1, 1);
        assert!(outer.2 >= inner.2, "outer total covers inner");
        assert!(outer.3 >= inner.2, "outer child_ns covers inner total");
        assert!(outer.2 >= outer.3, "total >= child");
        reset_scopes();
    }

    #[test]
    fn stack_sampling_sees_active_scope() {
        let _g = crate::test_lock();
        set_enabled(true);
        crate::scope!("prof/test_sampled");
        let stacks = live_threads();
        let me = std::thread::current().id();
        let _ = me;
        let sampled: Vec<_> = stacks.iter().filter_map(|t| t.sample()).collect();
        let hit = sampled.iter().any(|frames| {
            frames
                .iter()
                .filter_map(|&id| stat_by_id(id))
                .any(|s| s.name == "prof/test_sampled")
        });
        assert!(hit, "sampler should see the active scope");
        set_enabled(false);
        reset_scopes();
    }
}
