//! Error bounds for coefficient-recovered counts — extending §4.3.
//!
//! The paper's Theorem 2 gives only the *expectation* of a compressed
//! window's observation ("The proportional property only provides an
//! expected value without any error bounds", §4.3). Under the same i.i.d.
//! model, however, the observation is binomial: each of a flow's `n`
//! original packets independently survives into window `w` with probability
//! `coefficient[w]`. That yields closed-form variance for the recovered
//! estimate `X/c`:
//!
//! ```text
//!   X ~ Binomial(n, c)        E[X/c] = n
//!   Var[X/c] = n (1 − c) / c
//! ```
//!
//! from which relative standard error and distribution-free (Chebyshev)
//! confidence intervals follow. The estimator-facing consequence matches
//! the paper's empirical findings: deep windows (small `c`) and small flows
//! (small `n`) carry large relative error, which is why Figure 12's deep-
//! window accuracy decays and why small query intervals landing in deep
//! windows hurt (Figure 11).

use crate::coefficient::Coefficients;
use serde::Serialize;

/// Uncertainty summary for one recovered count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecoveryBound {
    /// The recovered (expected-original) count `X / c`.
    pub estimate: f64,
    /// Standard deviation of the recovered count.
    pub std_dev: f64,
    /// Relative standard error `σ / estimate` (∞ for a zero estimate).
    pub relative_error: f64,
    /// Distribution-free 95% interval half-width (Chebyshev, k = √20).
    pub chebyshev95_half_width: f64,
}

/// Bound the recovery of an observation of `observed` packets in window
/// `w`.
///
/// Treating the (unknown) original count as the recovered estimate itself
/// (the plug-in approach), the binomial survival model gives the variance
/// directly.
pub fn recovery_bound(coeffs: &Coefficients, w: u8, observed: f64) -> RecoveryBound {
    let c = coeffs.coefficient[usize::from(w)];
    let estimate = observed / c;
    // Var[X/c] with n ≈ estimate: n(1-c)/c.
    let variance = (estimate * (1.0 - c) / c).max(0.0);
    let std_dev = variance.sqrt();
    RecoveryBound {
        estimate,
        std_dev,
        relative_error: if estimate > 0.0 {
            std_dev / estimate
        } else {
            f64::INFINITY
        },
        chebyshev95_half_width: 20f64.sqrt() * std_dev,
    }
}

/// The smallest original flow size whose window-`w` recovery achieves a
/// relative standard error of at most `target` — the "how big must a flow
/// be to trust deep windows" question behind Figure 12's Top-K behaviour.
///
/// From `σ/n = sqrt((1−c)/(n c))`, solving for `n`:
/// `n ≥ (1 − c) / (c · target²)`.
pub fn min_trustworthy_flow(coeffs: &Coefficients, w: u8, target: f64) -> f64 {
    assert!(target > 0.0);
    let c = coeffs.coefficient[usize::from(w)];
    ((1.0 - c) / (c * target * target)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TimeWindowConfig;

    fn uw_coeffs() -> Coefficients {
        Coefficients::compute(&TimeWindowConfig::UW, 110)
    }

    #[test]
    fn window0_is_exact() {
        let coeffs = uw_coeffs();
        let bound = recovery_bound(&coeffs, 0, 100.0);
        assert_eq!(bound.estimate, 100.0);
        assert_eq!(bound.std_dev, 0.0);
        assert_eq!(bound.relative_error, 0.0);
    }

    #[test]
    fn relative_error_grows_with_window_depth() {
        let coeffs = uw_coeffs();
        let mut prev = 0.0;
        for w in 0..4u8 {
            // Same *observed* mass in each window (so deeper estimates are
            // larger but noisier).
            let bound = recovery_bound(&coeffs, w, 50.0);
            assert!(
                bound.relative_error >= prev,
                "w{w}: {} < {prev}",
                bound.relative_error
            );
            prev = bound.relative_error;
        }
    }

    #[test]
    fn bigger_flows_have_smaller_relative_error() {
        let coeffs = uw_coeffs();
        let small = recovery_bound(&coeffs, 3, 5.0);
        let big = recovery_bound(&coeffs, 3, 500.0);
        assert!(big.relative_error < small.relative_error);
        // √n scaling: 100× the observation → 10× smaller relative error.
        let ratio = small.relative_error / big.relative_error;
        assert!((9.0..11.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zero_observation_is_infinite_relative_error() {
        let coeffs = uw_coeffs();
        let bound = recovery_bound(&coeffs, 2, 0.0);
        assert_eq!(bound.estimate, 0.0);
        assert!(bound.relative_error.is_infinite());
    }

    #[test]
    fn min_trustworthy_flow_matches_inverse() {
        let coeffs = uw_coeffs();
        for w in 1..4u8 {
            let n = min_trustworthy_flow(&coeffs, w, 0.25);
            // A flow of exactly that size should land at ~25% relative
            // error: check by plugging the implied observation back in.
            let c = coeffs.coefficient[usize::from(w)];
            let bound = recovery_bound(&coeffs, w, n * c);
            assert!(
                (bound.relative_error - 0.25).abs() < 0.01,
                "w{w}: {}",
                bound.relative_error
            );
        }
    }

    #[test]
    fn monte_carlo_variance_matches_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Simulate the binomial survival process and compare the measured
        // variance of the recovered estimate with the closed form.
        let c = 0.2f64;
        let n = 400u64;
        let mut rng = SmallRng::seed_from_u64(9);
        let trials = 4_000;
        let mut recovered = Vec::with_capacity(trials);
        for _ in 0..trials {
            let survivors = (0..n).filter(|_| rng.gen::<f64>() < c).count() as f64;
            recovered.push(survivors / c);
        }
        let mean = recovered.iter().sum::<f64>() / trials as f64;
        let var = recovered
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / trials as f64;
        let model_var = n as f64 * (1.0 - c) / c;
        assert!((mean - n as f64).abs() < 5.0, "mean {mean}");
        assert!(
            (var - model_var).abs() / model_var < 0.1,
            "var {var} vs model {model_var}"
        );
    }
}
