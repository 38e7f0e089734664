//! Deterministic control-plane fault injection.
//!
//! The paper's correctness leans on a liveness assumption: the analysis
//! program freezes and reads every register set "at least once per t_set"
//! (§6.2), or the ring buffers wrap and history is silently lost. Real
//! Tofino control planes do not offer that guarantee for free — register
//! reads cross PCIe/gRPC with real latency, transient failures, and
//! whole-process stalls (GC pauses, competing table writes). This module
//! models those faults so the rest of the control plane
//! ([`crate::control`]) can be exercised — and hardened — against them.
//!
//! Everything is deterministic given the seed: the same [`FaultConfig`]
//! replayed against the same event sequence injects the same faults, so
//! failing runs shrink to reproducible test cases.

use pq_packet::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Read-latency distribution for one freeze-and-read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Reads complete in zero simulated time — the idealized behavior the
    /// rest of the codebase was originally written against.
    #[default]
    Zero,
    /// Every read takes exactly this many nanoseconds.
    Fixed(Nanos),
    /// Uniform in `[min, max]` nanoseconds.
    Uniform(Nanos, Nanos),
}

impl LatencyModel {
    fn sample(&self, rng: &mut SmallRng) -> Nanos {
        match *self {
            LatencyModel::Zero => 0,
            LatencyModel::Fixed(ns) => ns,
            LatencyModel::Uniform(min, max) => {
                if max <= min {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
        }
    }
}

/// Periodic control-plane stalls: during `[k·period, k·period + duration)`
/// the analysis program cannot issue reads at all (modeling GC pauses,
/// gRPC backpressure, or competing control-plane work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallWindows {
    /// Stall recurrence period.
    pub period: Nanos,
    /// Stall length at the start of each period. Must be `< period` to
    /// leave any room to poll.
    pub duration: Nanos,
}

impl StallWindows {
    /// Is the control plane stalled at `now`?
    pub fn covers(&self, now: Nanos) -> bool {
        self.period > 0 && now % self.period < self.duration
    }
}

/// The fault profile applied to one port's reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Probability that a freeze-and-read attempt fails outright
    /// (transient gRPC/PCIe error).
    #[serde(default)]
    pub read_failure_prob: f64,
    /// How long a successful read occupies the spare register copy.
    #[serde(default)]
    pub read_latency: LatencyModel,
    /// Probability that a completed read's checkpoint is lost before it
    /// reaches the snapshot store (analysis-program crash/restart).
    #[serde(default)]
    pub drop_checkpoint_prob: f64,
    /// Recurring windows during which no read can even be issued.
    #[serde(default)]
    pub stall: Option<StallWindows>,
}

impl FaultProfile {
    /// No faults at all.
    pub fn none() -> FaultProfile {
        FaultProfile {
            read_failure_prob: 0.0,
            read_latency: LatencyModel::Zero,
            drop_checkpoint_prob: 0.0,
            stall: None,
        }
    }

    /// Only read failures, at probability `p`.
    pub fn read_failures(p: f64) -> FaultProfile {
        FaultProfile {
            read_failure_prob: p,
            ..FaultProfile::none()
        }
    }

    /// True when this profile can never perturb a read.
    pub fn is_benign(&self) -> bool {
        self.read_failure_prob <= 0.0
            && self.drop_checkpoint_prob <= 0.0
            && matches!(self.read_latency, LatencyModel::Zero)
            && self.stall.is_none()
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::none()
    }
}

/// Serializable configuration for a [`FaultInjector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Profile applied to every port without an override.
    #[serde(default)]
    pub base: FaultProfile,
    /// Per-port overrides, replacing `base` entirely for that port.
    #[serde(default)]
    pub per_port: Vec<(u16, FaultProfile)>,
}

impl FaultConfig {
    /// A benign (fault-free) configuration with the given seed.
    pub fn new(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            base: FaultProfile::none(),
            per_port: Vec::new(),
        }
    }

    /// Set the default profile for all ports.
    pub fn with_base(mut self, profile: FaultProfile) -> FaultConfig {
        self.base = profile;
        self
    }

    /// Override the profile for one port.
    pub fn with_port(mut self, port: u16, profile: FaultProfile) -> FaultConfig {
        self.per_port.retain(|(p, _)| *p != port);
        self.per_port.push((port, profile));
        self
    }
}

/// Retry policy for failed freeze-and-reads: capped exponential backoff
/// with multiplicative jitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base_backoff: Nanos,
    /// Ceiling on the (pre-jitter) delay.
    pub max_backoff: Nanos,
    /// Jitter fraction in `[0, 1)`: each delay is scaled uniformly within
    /// `[1 − jitter, 1 + jitter]` to decorrelate retry storms.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base_backoff: 5_000,  // 5 µs
            max_backoff: 320_000, // 320 µs — a few t_set at paper scales
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// The capped exponential delay for 0-based retry `attempt`, before
    /// jitter: `min(base · 2^attempt, max)`.
    pub fn raw_backoff(&self, attempt: u32) -> Nanos {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
            .max(1)
    }

    /// Has `attempt` reached the backoff ceiling?
    pub fn at_ceiling(&self, attempt: u32) -> bool {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_backoff.saturating_mul(factor) >= self.max_backoff
    }
}

/// Deterministic seeded fault injector, one per analysis program.
///
/// All randomness comes from a private xoshiro stream seeded by
/// [`FaultConfig::seed`]; injected fault sequences depend only on the
/// seed and the order of queries against the injector.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SmallRng,
}

impl FaultInjector {
    /// Build an injector from its configuration.
    pub fn new(config: FaultConfig) -> FaultInjector {
        let rng = SmallRng::seed_from_u64(config.seed);
        FaultInjector { config, rng }
    }

    /// The configuration this injector was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The effective profile for `port`.
    pub fn profile(&self, port: u16) -> &FaultProfile {
        self.config
            .per_port
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, prof)| prof)
            .unwrap_or(&self.config.base)
    }

    /// Is the control plane stalled for `port` at `now`?
    pub fn stalled(&self, port: u16, now: Nanos) -> bool {
        self.profile(port).stall.is_some_and(|s| s.covers(now))
    }

    /// Draw: does this read attempt fail?
    pub fn read_fails(&mut self, port: u16) -> bool {
        let p = self.profile(port).read_failure_prob.clamp(0.0, 1.0);
        p > 0.0 && self.rng.gen_bool(p)
    }

    /// Draw: how long does this read occupy the spare copy?
    pub fn read_latency(&mut self, port: u16) -> Nanos {
        let model = self.profile(port).read_latency;
        model.sample(&mut self.rng)
    }

    /// Draw: is this completed read's checkpoint lost before storage?
    pub fn drop_checkpoint(&mut self, port: u16) -> bool {
        let p = self.profile(port).drop_checkpoint_prob.clamp(0.0, 1.0);
        p > 0.0 && self.rng.gen_bool(p)
    }

    /// The jittered backoff delay for 0-based retry `attempt`.
    pub fn backoff(&mut self, policy: &RetryPolicy, attempt: u32) -> Nanos {
        let raw = policy.raw_backoff(attempt) as f64;
        let jitter = policy.jitter.clamp(0.0, 0.99);
        let scale = 1.0 - jitter + self.rng.gen::<f64>() * 2.0 * jitter;
        ((raw * scale) as Nanos).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let policy = RetryPolicy {
            base_backoff: 100,
            max_backoff: 1_000,
            jitter: 0.0,
        };
        assert_eq!(policy.raw_backoff(0), 100);
        assert_eq!(policy.raw_backoff(1), 200);
        assert_eq!(policy.raw_backoff(2), 400);
        assert_eq!(policy.raw_backoff(3), 800);
        assert_eq!(policy.raw_backoff(4), 1_000, "capped");
        assert_eq!(policy.raw_backoff(63), 1_000);
        assert_eq!(policy.raw_backoff(64), 1_000, "shift overflow saturates");
        assert!(!policy.at_ceiling(3));
        assert!(policy.at_ceiling(4));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let policy = RetryPolicy {
            base_backoff: 10_000,
            max_backoff: 10_000,
            jitter: 0.25,
        };
        let mut inj = FaultInjector::new(FaultConfig::new(11));
        for attempt in 0..200 {
            let d = inj.backoff(&policy, attempt % 6);
            assert!((7_500..=12_500).contains(&d), "delay {d} outside ±25%");
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let config = FaultConfig::new(42).with_base(FaultProfile {
            read_failure_prob: 0.5,
            read_latency: LatencyModel::Uniform(100, 900),
            drop_checkpoint_prob: 0.2,
            stall: None,
        });
        let mut a = FaultInjector::new(config.clone());
        let mut b = FaultInjector::new(config);
        for _ in 0..256 {
            assert_eq!(a.read_fails(0), b.read_fails(0));
            assert_eq!(a.read_latency(0), b.read_latency(0));
            assert_eq!(a.drop_checkpoint(0), b.drop_checkpoint(0));
        }
    }

    #[test]
    fn per_port_override_wins() {
        let config = FaultConfig::new(1)
            .with_base(FaultProfile::read_failures(1.0))
            .with_port(7, FaultProfile::none());
        let mut inj = FaultInjector::new(config);
        for _ in 0..32 {
            assert!(inj.read_fails(0), "base profile always fails");
            assert!(!inj.read_fails(7), "override never fails");
        }
    }

    #[test]
    fn stall_windows_cover_their_prefix() {
        let s = StallWindows {
            period: 1_000,
            duration: 250,
        };
        assert!(s.covers(0));
        assert!(s.covers(249));
        assert!(!s.covers(250));
        assert!(!s.covers(999));
        assert!(s.covers(1_100));
    }

    #[test]
    fn benign_profiles_are_detected() {
        assert!(FaultProfile::none().is_benign());
        assert!(!FaultProfile::read_failures(0.1).is_benign());
        let latency_only = FaultProfile {
            read_latency: LatencyModel::Fixed(10),
            ..FaultProfile::none()
        };
        assert!(!latency_only.is_benign());
    }

    #[test]
    fn config_roundtrips_through_json() {
        let config = FaultConfig::new(9)
            .with_base(FaultProfile {
                read_failure_prob: 0.25,
                read_latency: LatencyModel::Uniform(1_000, 5_000),
                drop_checkpoint_prob: 0.05,
                stall: Some(StallWindows {
                    period: 1_000_000,
                    duration: 50_000,
                }),
            })
            .with_port(3, FaultProfile::read_failures(0.9));
        let json = serde_json::to_string(&config).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
