//! Rendezvous sharding: which backends own a `(port, epoch)` shard.
//!
//! The router partitions the query space along two axes: the egress
//! port a query names, and — when `epoch_ns > 0` — coarse time epochs
//! of the queried interval. Each `(port, epoch)` key is assigned to
//! `replication` backends by highest-random-weight (rendezvous)
//! hashing: every backend's score for a key is a deterministic hash of
//! its *name* mixed with the key, and the top-R scorers own the shard.
//! Rendezvous hashing needs no coordination and has minimal disruption:
//! removing one backend reassigns only the shards it owned.
//!
//! Scores hash the backend **name**, not its address, so a backend can
//! restart on a new port (or move hosts) without reshuffling ownership.

use pq_telemetry::trace::splitmix64;

/// One backend a router can route to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSpec {
    /// Stable identity: the shard scores hash this, so renaming a
    /// backend reassigns its shards while readdressing it does not.
    pub name: String,
    /// `host:port` the backend's `pq-serve` daemon listens on.
    pub addr: String,
}

/// Hard cap on how many epoch slices one query may fan out to. An
/// interval spanning more epochs than this is routed coarsely as a
/// single slice keyed by its first epoch — bounded fan-out beats
/// precise placement for pathological interval widths.
pub const MAX_EPOCHS_PER_QUERY: usize = 64;

/// One per-epoch slice of a queried interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSlice {
    /// The shard key's time component.
    pub epoch: u64,
    /// Slice start (inclusive, nanoseconds).
    pub from: u64,
    /// Slice end (inclusive, nanoseconds).
    pub to: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A backend's rendezvous score for the `(port, epoch)` shard key.
pub fn shard_score(backend_name: &str, port: u16, epoch: u64) -> u64 {
    let key = splitmix64(u64::from(port) ^ epoch.rotate_left(17));
    splitmix64(fnv1a(backend_name.as_bytes()) ^ key)
}

/// Backend indices ranked by descending rendezvous score for
/// `(port, epoch)`. The first `replication` entries are the shard's
/// owners; the rest are the deterministic spill-over order. Ties (only
/// possible with duplicate names) break by index for determinism.
pub fn rendezvous_rank(backends: &[BackendSpec], port: u16, epoch: u64) -> Vec<usize> {
    let mut ranked: Vec<(u64, usize)> = backends
        .iter()
        .enumerate()
        .map(|(i, b)| (shard_score(&b.name, port, epoch), i))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// The epoch containing instant `t`. `epoch_ns == 0` means time is not
/// sharded: everything is epoch 0.
pub fn epoch_of(t: u64, epoch_ns: u64) -> u64 {
    t.checked_div(epoch_ns).unwrap_or(0)
}

/// Split `[from, to]` into per-epoch slices.
///
/// With `epoch_ns == 0` (the default) the interval is returned as a
/// single epoch-0 slice, **unmodified** — not even endpoint
/// normalization — so a single-owner sub-query is byte-for-byte the
/// query a client would have sent to a lone backend (bit-identical
/// answers, including error-frame gap summaries). Slicing only happens
/// when time sharding is on.
pub fn epochs(from: u64, to: u64, epoch_ns: u64) -> Vec<EpochSlice> {
    if epoch_ns == 0 {
        return vec![EpochSlice { epoch: 0, from, to }];
    }
    let (lo, hi) = if from <= to { (from, to) } else { (to, from) };
    let first = lo / epoch_ns;
    let last = hi / epoch_ns;
    if last - first >= MAX_EPOCHS_PER_QUERY as u64 {
        return vec![EpochSlice {
            epoch: first,
            from: lo,
            to: hi,
        }];
    }
    (first..=last)
        .map(|epoch| EpochSlice {
            epoch,
            from: (epoch * epoch_ns).max(lo),
            to: (epoch + 1)
                .saturating_mul(epoch_ns)
                .saturating_sub(1)
                .min(hi),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<BackendSpec> {
        (0..n)
            .map(|i| BackendSpec {
                name: format!("shard-{i}"),
                addr: format!("127.0.0.1:{}", 9000 + i),
            })
            .collect()
    }

    #[test]
    fn ranking_is_a_permutation_and_deterministic() {
        let backends = fleet(5);
        for port in [0u16, 3, 80, 443, 65535] {
            for epoch in [0u64, 1, 7, u64::MAX] {
                let a = rendezvous_rank(&backends, port, epoch);
                let b = rendezvous_rank(&backends, port, epoch);
                assert_eq!(a, b);
                let mut sorted = a.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..5).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_shards() {
        let full = fleet(4);
        let reduced = fleet(3); // shard-3 removed
        for port in 0..64u16 {
            let owner_full = rendezvous_rank(&full, port, 0)[0];
            let owner_reduced = rendezvous_rank(&reduced, port, 0)[0];
            if owner_full != 3 {
                assert_eq!(
                    owner_full, owner_reduced,
                    "port {port}: losing shard-3 must not move other shards"
                );
            }
        }
    }

    #[test]
    fn scores_follow_names_not_addresses() {
        let a = rendezvous_rank(&fleet(3), 42, 9);
        let mut moved = fleet(3);
        for b in &mut moved {
            b.addr = format!("10.0.0.1:{}", b.addr.rsplit(':').next().unwrap());
        }
        assert_eq!(a, rendezvous_rank(&moved, 42, 9));
    }

    #[test]
    fn placement_spreads_across_backends() {
        let backends = fleet(4);
        let mut owned = [0usize; 4];
        for port in 0..256u16 {
            owned[rendezvous_rank(&backends, port, 0)[0]] += 1;
        }
        for (i, &n) in owned.iter().enumerate() {
            assert!(n > 0, "backend {i} owns no ports out of 256");
        }
    }

    #[test]
    fn zero_epoch_ns_passes_the_interval_through_untouched() {
        // Including a reversed interval: normalization is the backend's
        // job when it is the sole slice.
        assert_eq!(
            epochs(900, 100, 0),
            vec![EpochSlice {
                epoch: 0,
                from: 900,
                to: 100
            }]
        );
    }

    #[test]
    fn slices_partition_the_interval_exactly() {
        let slices = epochs(150, 999, 250);
        assert_eq!(slices.len(), 4);
        assert_eq!(
            slices[0],
            EpochSlice {
                epoch: 0,
                from: 150,
                to: 249
            }
        );
        assert_eq!(
            slices[3],
            EpochSlice {
                epoch: 3,
                from: 750,
                to: 999
            }
        );
        for w in slices.windows(2) {
            assert_eq!(w[0].to + 1, w[1].from, "slices must tile with no gap");
        }
    }

    #[test]
    fn pathological_width_falls_back_to_one_coarse_slice() {
        let slices = epochs(0, u64::MAX, 1);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].from, 0);
        assert_eq!(slices[0].to, u64::MAX);
    }
}
