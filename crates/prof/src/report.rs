//! Plain-data profile reports: capture, canonical codec, and merging.
//!
//! A [`ProfileReport`] is the unit that travels the wire (`pqsim prof
//! --from`, the router's scatter-gather) and lands in files (folded
//! text, JSON). Three properties carry the whole design:
//!
//! * **Canonical form.** Scopes, locks, and collapsed stacks are sorted
//!   by name; histograms encode as sparse ascending `(bucket, count)`
//!   pairs. Equal reports therefore encode to equal bytes.
//! * **Associative, commutative merge.** Merging sums scope and stack
//!   counts and folds histograms element-wise, keyed by *name* — so the
//!   router's merge of N backend dumps is order-independent and byte-
//!   identical to a client merging the same dumps itself (the same bar
//!   `RttReport` holds).
//! * **Hostile-input-safe decode.** Every count is validated against
//!   the bytes actually present before anything allocates, names are
//!   length-capped UTF-8, histograms must be internally consistent, and
//!   canonical ordering is enforced — a decoded report re-encodes to
//!   the same bytes.

use crate::codec::{self, put_u16, put_u32, put_u64};
use crate::hist::{HistSnapshot, NUM_BUCKETS};
use crate::lock::LockSnapshot;
use crate::{lock, sampler, scope};

/// Decoded reports refuse more than this many scopes.
pub const MAX_WIRE_SCOPES: usize = 4_096;
/// Decoded reports refuse more than this many named locks.
pub const MAX_WIRE_LOCKS: usize = 256;
/// Decoded reports refuse more than this many collapsed stacks.
pub const MAX_WIRE_STACKS: usize = sampler::MAX_DISTINCT_STACKS;
/// Longest scope or lock name on the wire.
pub const MAX_NAME_LEN: usize = 128;
/// Upper bound on an encoded report (the serving tier enforces it
/// before buffering a remote dump).
pub const MAX_ENCODED_LEN: usize = 16 << 20;

const MAGIC: &[u8; 4] = b"PQPF";
const VERSION: u16 = 1;

/// Exact aggregate for one scope name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeEntry {
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
    pub child_ns: u64,
    /// Allocations attributed to the scope. No allocator hook counts
    /// them in this workspace, so a captured report carries 0; the
    /// field stays in PQPF so every dump keeps one layout.
    pub allocs: u64,
    /// Bytes of those allocations; 0 like `allocs`.
    pub alloc_bytes: u64,
}

impl ScopeEntry {
    /// Wall time spent in this scope excluding named child scopes.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// One collapsed stack (outermost frame first) and its sample count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackEntry {
    pub frames: Vec<String>,
    pub count: u64,
}

/// A complete, self-contained profile of one process (or a merge of
/// several).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileReport {
    pub samples_total: u64,
    pub samples_dropped: u64,
    /// Sorted by name.
    pub scopes: Vec<ScopeEntry>,
    /// Sorted by name.
    pub locks: Vec<LockSnapshot>,
    /// Sorted by frame path.
    pub stacks: Vec<StackEntry>,
}

impl ProfileReport {
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty() && self.locks.is_empty() && self.stacks.is_empty()
    }

    /// Snapshot the process-global profiler state into canonical form.
    pub fn capture() -> ProfileReport {
        let scopes = scope::scopes_snapshot()
            .into_iter()
            .map(|(name, calls, total_ns, child_ns)| ScopeEntry {
                name: name.to_string(),
                calls,
                total_ns,
                child_ns,
                allocs: 0,
                alloc_bytes: 0,
            })
            .collect();
        let stacks = sampler::stacks_snapshot()
            .into_iter()
            .map(|(frames, count)| StackEntry {
                frames: frames.into_iter().map(str::to_string).collect(),
                count,
            })
            .collect();
        ProfileReport {
            samples_total: sampler::samples_total(),
            samples_dropped: sampler::samples_dropped(),
            scopes,
            locks: lock::locks_snapshot(),
            stacks,
        }
    }

    /// Fold another report in. Name-keyed sums everywhere, so the fold
    /// is associative and commutative and the result stays canonical.
    pub fn merge(&mut self, other: &ProfileReport) {
        self.samples_total += other.samples_total;
        self.samples_dropped += other.samples_dropped;
        for s in &other.scopes {
            match self.scopes.binary_search_by(|e| e.name.cmp(&s.name)) {
                Ok(i) => {
                    let e = &mut self.scopes[i];
                    e.calls += s.calls;
                    e.total_ns += s.total_ns;
                    e.child_ns += s.child_ns;
                    e.allocs += s.allocs;
                    e.alloc_bytes += s.alloc_bytes;
                }
                Err(i) => self.scopes.insert(i, s.clone()),
            }
        }
        for l in &other.locks {
            match self.locks.binary_search_by(|e| e.name.cmp(&l.name)) {
                Ok(i) => {
                    let e = &mut self.locks[i];
                    e.acquisitions += l.acquisitions;
                    e.contended += l.contended;
                    e.poisoned += l.poisoned;
                    e.wait.merge(&l.wait);
                    e.hold.merge(&l.hold);
                }
                Err(i) => self.locks.insert(i, l.clone()),
            }
        }
        for s in &other.stacks {
            match self.stacks.binary_search_by(|e| e.frames.cmp(&s.frames)) {
                Ok(i) => self.stacks[i].count += s.count,
                Err(i) => self.stacks.insert(i, s.clone()),
            }
        }
    }

    /// Scopes by self time, largest first (ties break by name).
    pub fn top_self(&self, n: usize) -> Vec<&ScopeEntry> {
        let mut v: Vec<&ScopeEntry> = self.scopes.iter().collect();
        v.sort_by(|a, b| b.self_ns().cmp(&a.self_ns()).then(a.name.cmp(&b.name)));
        v.truncate(n);
        v
    }

    /// Flamegraph-ready collapsed-stack text: one `a;b;c count` line per
    /// stack, sorted — feed straight to `flamegraph.pl` / `inferno`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str(&s.frames.join(";"));
            out.push(' ');
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable top-N self-time table plus lock lines.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} scope(s), {} lock(s), {} stack sample(s) ({} dropped)\n",
            self.scopes.len(),
            self.locks.len(),
            self.samples_total,
            self.samples_dropped
        ));
        if !self.scopes.is_empty() {
            let total_self: u64 = self.scopes.iter().map(|s| s.self_ns()).sum();
            out.push_str(&format!(
                "{:<28} {:>12} {:>14} {:>14} {:>6}\n",
                "scope", "calls", "self", "total", "self%"
            ));
            for s in self.top_self(top) {
                let pct = if total_self == 0 {
                    0.0
                } else {
                    100.0 * s.self_ns() as f64 / total_self as f64
                };
                out.push_str(&format!(
                    "{:<28} {:>12} {:>14} {:>14} {:>5.1}%\n",
                    s.name,
                    s.calls,
                    fmt_ns(s.self_ns()),
                    fmt_ns(s.total_ns),
                    pct
                ));
                if s.allocs > 0 {
                    out.push_str(&format!(
                        "{:<28} {:>12} alloc(s), {} B\n",
                        "", s.allocs, s.alloc_bytes
                    ));
                }
            }
        }
        for l in &self.locks {
            out.push_str(&format!(
                "lock {:<22} {:>8} acq, {} contended, {} poisoned, wait p99 {}, hold p99 {}\n",
                l.name,
                l.acquisitions,
                l.contended,
                l.poisoned,
                fmt_ns(l.wait.p99()),
                fmt_ns(l.hold.p99())
            ));
        }
        out
    }

    /// One stable-ordered JSON document (hand-rolled: pq-prof has no
    /// dependencies). Equal reports produce equal text.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"samples_total\":{},\"samples_dropped\":{},\"scopes\":[",
            self.samples_total, self.samples_dropped
        ));
        for (i, s) in self.scopes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"calls\":{},\"self_ns\":{},\"total_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                json_str(&s.name),
                s.calls,
                s.self_ns(),
                s.total_ns,
                s.allocs,
                s.alloc_bytes
            ));
        }
        out.push_str("],\"locks\":[");
        for (i, l) in self.locks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"acquisitions\":{},\"contended\":{},\"poisoned\":{},\"wait_p50_ns\":{},\"wait_p99_ns\":{},\"hold_p50_ns\":{},\"hold_p99_ns\":{}}}",
                json_str(&l.name),
                l.acquisitions,
                l.contended,
                l.poisoned,
                l.wait.p50(),
                l.wait.p99(),
                l.hold.p50(),
                l.hold.p99()
            ));
        }
        out.push_str("],\"stacks\":[");
        for (i, s) in self.stacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"frames\":[");
            for (j, f) in s.frames.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(f));
            }
            out.push_str(&format!("],\"count\":{}}}", s.count));
        }
        out.push_str("]}");
        out
    }

    /// Canonical binary encoding (magic + version + sections).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(MAGIC);
        put_u16(&mut buf, VERSION);
        put_u64(&mut buf, self.samples_total);
        put_u64(&mut buf, self.samples_dropped);
        put_u32(&mut buf, self.scopes.len() as u32);
        for s in &self.scopes {
            put_name(&mut buf, &s.name);
            put_u64(&mut buf, s.calls);
            put_u64(&mut buf, s.total_ns);
            put_u64(&mut buf, s.child_ns);
            put_u64(&mut buf, s.allocs);
            put_u64(&mut buf, s.alloc_bytes);
        }
        put_u32(&mut buf, self.locks.len() as u32);
        for l in &self.locks {
            put_name(&mut buf, &l.name);
            put_u64(&mut buf, l.acquisitions);
            put_u64(&mut buf, l.contended);
            put_u64(&mut buf, l.poisoned);
            put_hist(&mut buf, &l.wait);
            put_hist(&mut buf, &l.hold);
        }
        put_u32(&mut buf, self.stacks.len() as u32);
        for s in &self.stacks {
            buf.push(s.frames.len() as u8);
            for f in &s.frames {
                put_name(&mut buf, f);
            }
            put_u64(&mut buf, s.count);
        }
        buf
    }

    /// Decode and fully validate an encoded report.
    pub fn decode(bytes: &[u8]) -> Result<ProfileReport, String> {
        if bytes.len() > MAX_ENCODED_LEN {
            return Err(format!("profile dump exceeds {MAX_ENCODED_LEN} bytes"));
        }
        let c = &mut &bytes[..];
        if codec::take(c, 4)? != MAGIC {
            return Err("bad profile magic".into());
        }
        let version = codec::u16(c)?;
        if version != VERSION {
            return Err(format!("unsupported profile version {version}"));
        }
        let samples_total = codec::u64(c)?;
        let samples_dropped = codec::u64(c)?;

        let n_scopes = count(c, MAX_WIRE_SCOPES, 2 + 1 + 5 * 8)?;
        let mut scopes = Vec::with_capacity(n_scopes);
        for _ in 0..n_scopes {
            scopes.push(ScopeEntry {
                name: name(c)?,
                calls: codec::u64(c)?,
                total_ns: codec::u64(c)?,
                child_ns: codec::u64(c)?,
                allocs: codec::u64(c)?,
                alloc_bytes: codec::u64(c)?,
            });
        }
        if !scopes.windows(2).all(|w| w[0].name < w[1].name) {
            return Err("scopes not in canonical order".into());
        }

        let n_locks = count(c, MAX_WIRE_LOCKS, 2 + 1 + 3 * 8 + 2 * 33)?;
        let mut locks = Vec::with_capacity(n_locks);
        for _ in 0..n_locks {
            locks.push(LockSnapshot {
                name: name(c)?,
                acquisitions: codec::u64(c)?,
                contended: codec::u64(c)?,
                poisoned: codec::u64(c)?,
                wait: hist(c)?,
                hold: hist(c)?,
            });
        }
        if !locks.windows(2).all(|w| w[0].name < w[1].name) {
            return Err("locks not in canonical order".into());
        }

        let n_stacks = count(c, MAX_WIRE_STACKS, 1 + (2 + 1) + 8)?;
        let mut stacks = Vec::with_capacity(n_stacks);
        for _ in 0..n_stacks {
            let depth = codec::u8(c)? as usize;
            if depth == 0 || depth > scope::MAX_DEPTH {
                return Err(format!("stack depth {depth} out of range"));
            }
            let mut frames = Vec::with_capacity(depth);
            for _ in 0..depth {
                frames.push(name(c)?);
            }
            let count = codec::u64(c)?;
            if count == 0 {
                return Err("zero-count stack entry".into());
            }
            stacks.push(StackEntry { frames, count });
        }
        if !stacks.windows(2).all(|w| w[0].frames < w[1].frames) {
            return Err("stacks not in canonical order".into());
        }
        if !c.is_empty() {
            return Err("trailing bytes after profile report".into());
        }
        Ok(ProfileReport {
            samples_total,
            samples_dropped,
            scopes,
            locks,
            stacks,
        })
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Append `s` to `out` as the inside of a JSON string — the workspace's
/// one escaper: quote, backslash and the short `\n`/`\r`/`\t` escapes,
/// `\u00XX` for the remaining control characters.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    escape_into(&mut out, s);
    out.push('"');
    out
}

fn put_name(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(!s.is_empty() && s.len() <= MAX_NAME_LEN);
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn put_hist(buf: &mut Vec<u8>, h: &HistSnapshot) {
    for v in [h.count, h.sum, h.min, h.max] {
        put_u64(buf, v);
    }
    buf.push(h.occupied().count() as u8);
    for (i, n) in h.occupied() {
        buf.push(i);
        put_u64(buf, n);
    }
}

/// A section's `u32` element count, admitted by the shared guard.
fn count(c: &mut &[u8], cap: usize, min_elem: usize) -> Result<usize, String> {
    let n = codec::u32(c)? as usize;
    Ok(codec::count(c, n, cap, min_elem)?)
}

fn name(c: &mut &[u8]) -> Result<String, String> {
    let len = codec::u16(c)? as usize;
    if len == 0 || len > MAX_NAME_LEN {
        return Err(format!("name length {len} out of range"));
    }
    std::str::from_utf8(codec::take(c, len)?)
        .map(str::to_string)
        .map_err(|_| "name is not UTF-8".into())
}

fn hist(c: &mut &[u8]) -> Result<HistSnapshot, String> {
    let (count, sum) = (codec::u64(c)?, codec::u64(c)?);
    let (min, max) = (codec::u64(c)?, codec::u64(c)?);
    let n = usize::from(codec::u8(c)?);
    let n = codec::count(c, n, NUM_BUCKETS, 9)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((codec::u8(c)?, codec::u64(c)?));
    }
    let h = HistSnapshot::from_occupied(count, sum, min, max, pairs)?;
    if !h.is_consistent() {
        return Err("inconsistent histogram".into());
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let mut wait = HistSnapshot::default();
        wait.buckets[0] = 1;
        wait.buckets[5] = 2;
        wait.count = 3;
        wait.sum = 50;
        wait.min = 0;
        wait.max = 30;
        ProfileReport {
            samples_total: 10,
            samples_dropped: 1,
            scopes: vec![
                ScopeEntry {
                    name: "a/one".into(),
                    calls: 3,
                    total_ns: 300,
                    child_ns: 100,
                    allocs: 2,
                    alloc_bytes: 64,
                },
                ScopeEntry {
                    name: "b/two".into(),
                    calls: 1,
                    total_ns: 100,
                    child_ns: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                },
            ],
            locks: vec![LockSnapshot {
                name: "freeze".into(),
                acquisitions: 3,
                contended: 1,
                poisoned: 0,
                wait: wait.clone(),
                hold: wait,
            }],
            stacks: vec![
                StackEntry {
                    frames: vec!["a/one".into()],
                    count: 4,
                },
                StackEntry {
                    frames: vec!["a/one".into(), "b/two".into()],
                    count: 6,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = sample_report();
        let bytes = r.encode();
        let back = ProfileReport::decode(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode(), bytes, "decode/encode is idempotent");
    }

    #[test]
    fn decode_rejects_hostile_bytes() {
        let r = sample_report();
        let bytes = r.encode();
        assert!(ProfileReport::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(ProfileReport::decode(b"nope").is_err());
        let mut huge = bytes.clone();
        // Claim 4 billion scopes with no bytes behind them (the scope
        // count sits after magic + version + two u64 sample counters).
        huge[22..26].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ProfileReport::decode(&huge).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ProfileReport::decode(&trailing).is_err());
    }

    #[test]
    fn merge_is_name_keyed_and_canonical() {
        let a = sample_report();
        let mut b = ProfileReport::default();
        b.scopes.push(ScopeEntry {
            name: "a/one".into(),
            calls: 1,
            total_ns: 50,
            child_ns: 10,
            allocs: 0,
            alloc_bytes: 0,
        });
        b.stacks.push(StackEntry {
            frames: vec!["a/one".into()],
            count: 1,
        });

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab.encode(), ba.encode(), "merged bytes identical");
        assert_eq!(ab.scopes[0].calls, 4);
        assert_eq!(ab.stacks[0].count, 5);
    }

    #[test]
    fn folded_and_render_shapes() {
        let r = sample_report();
        let folded = r.folded();
        assert!(folded.contains("a/one;b/two 6\n"));
        assert!(folded.contains("a/one 4\n"));
        let table = r.render(10);
        assert!(table.contains("a/one"));
        assert!(table.contains("lock freeze"));
        let json = r.to_json();
        assert!(json.contains("\"samples_total\":10"));
        assert!(json.contains("\"wait_p99_ns\""));
    }

    #[test]
    fn capture_reflects_live_state() {
        let _g = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            crate::scope!("prof/report_capture");
            crate::sampler::sample_once();
        }
        crate::set_enabled(false);
        let r = ProfileReport::capture();
        assert!(r.scopes.iter().any(|s| s.name == "prof/report_capture"));
        assert!(r
            .stacks
            .iter()
            .any(|s| s.frames.last().map(String::as_str) == Some("prof/report_capture")));
        assert!(r.samples_total >= 1);
        let bytes = r.encode();
        assert_eq!(ProfileReport::decode(&bytes).unwrap(), r);
        crate::reset();
    }
}
