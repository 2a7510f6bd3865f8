//! Parameters of the three theorems and the bounds they promise.
//!
//! Every quantity the paper states — the exponential rate `β`, the phase
//! budget `λ`, the diameter bound `2k − 2`, the color bound, the round
//! bound, and the failure probability — is computed here from `(k, c, n)`
//! so experiments can print *paper bound vs. measured* side by side.

use crate::DecompError;

/// Parameters of the basic algorithm (Theorem 1).
///
/// For a graph on `n` vertices and parameters `1 ≤ k ≤ ln n`, `c > 3`, the
/// algorithm computes with probability `≥ 1 − 3/c` a strong
/// `(2k − 2, (cn)^{1/k}·ln(cn))` network decomposition in
/// `k·(cn)^{1/k}·ln(cn)` rounds.
///
/// # Example
///
/// ```
/// use netdecomp_core::params::DecompositionParams;
///
/// let p = DecompositionParams::new(3, 4.0)?;
/// assert_eq!(p.diameter_bound(), 4); // 2k - 2
/// let n = 1000;
/// assert!(p.beta(n) > 0.0);
/// assert!(p.phase_budget(n) >= 1);
/// # Ok::<(), netdecomp_core::DecompError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompositionParams {
    k: usize,
    c: f64,
}

impl DecompositionParams {
    /// Creates parameters, validating the theorem's constraints.
    ///
    /// # Errors
    ///
    /// [`DecompError::InvalidParameter`] if `k == 0` or `c ≤ 3` (Theorem 1
    /// requires `c > 3`) or `c` is not finite.
    pub fn new(k: usize, c: f64) -> Result<Self, DecompError> {
        if k == 0 {
            return Err(DecompError::InvalidParameter {
                name: "k",
                reason: "must be at least 1".into(),
            });
        }
        if !c.is_finite() || c <= 3.0 {
            return Err(DecompError::InvalidParameter {
                name: "c",
                reason: format!("must be a finite value > 3, got {c}"),
            });
        }
        Ok(DecompositionParams { k, c })
    }

    /// The headline configuration for an `n`-vertex graph: `k = ⌈ln n⌉`,
    /// `c = 4`, yielding a strong `(O(log n), O(log n))` decomposition in
    /// `O(log² n)` rounds.
    #[must_use]
    pub fn for_graph_size(n: usize) -> Self {
        let k = ((n.max(2) as f64).ln().ceil() as usize).max(1);
        DecompositionParams { k, c: 4.0 }
    }

    /// The radius parameter `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The confidence parameter `c`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The exponential rate `β = ln(cn)/k`.
    #[must_use]
    pub fn beta(&self, n: usize) -> f64 {
        (self.c * n.max(1) as f64).ln() / self.k as f64
    }

    /// The phase budget `λ = ⌈(cn)^{1/k}·ln(cn)⌉`; also the color bound of
    /// Theorem 1 (one color per phase).
    #[must_use]
    pub fn phase_budget(&self, n: usize) -> usize {
        let cn = self.c * n.max(1) as f64;
        (cn.powf(1.0 / self.k as f64) * cn.ln()).ceil() as usize
    }

    /// The strong-diameter bound `2k − 2` of Theorem 1.
    #[must_use]
    pub fn diameter_bound(&self) -> usize {
        2 * self.k - 2
    }

    /// The color bound `(cn)^{1/k}·ln(cn)` of Theorem 1 (same as the phase
    /// budget).
    #[must_use]
    pub fn color_bound(&self, n: usize) -> usize {
        self.phase_budget(n)
    }

    /// The round bound `k·(cn)^{1/k}·ln(cn)` of Theorem 1.
    #[must_use]
    pub fn round_bound(&self, n: usize) -> usize {
        self.k * self.phase_budget(n)
    }

    /// The failure probability bound `3/c` of Theorem 1.
    #[must_use]
    pub fn failure_probability(&self) -> f64 {
        3.0 / self.c
    }

    /// The broadcast radius cap per phase: `k` communication rounds, so no
    /// broadcast travels farther than `k` hops (Lemma 1 makes larger radii a
    /// low-probability event, which the implementation truncates and logs).
    #[must_use]
    pub fn radius_cap(&self) -> usize {
        self.k
    }
}

/// Parameters of the staged algorithm (Theorem 2): strong
/// `(2k − 2, 4k(cn)^{1/k})` in `O(k²(cn)^{1/k})` rounds with probability
/// `≥ 1 − 5/c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagedParams {
    k: usize,
    c: f64,
}

impl StagedParams {
    /// Creates parameters, validating Theorem 2's constraints (`c > 5`).
    ///
    /// # Errors
    ///
    /// [`DecompError::InvalidParameter`] if `k == 0` or `c ≤ 5` or not
    /// finite.
    pub fn new(k: usize, c: f64) -> Result<Self, DecompError> {
        if k == 0 {
            return Err(DecompError::InvalidParameter {
                name: "k",
                reason: "must be at least 1".into(),
            });
        }
        if !c.is_finite() || c <= 5.0 {
            return Err(DecompError::InvalidParameter {
                name: "c",
                reason: format!("must be a finite value > 5, got {c}"),
            });
        }
        Ok(StagedParams { k, c })
    }

    /// Headline configuration: `k = ⌈ln n⌉`, `c = 6`.
    #[must_use]
    pub fn for_graph_size(n: usize) -> Self {
        let k = ((n.max(2) as f64).ln().ceil() as usize).max(1);
        StagedParams { k, c: 6.0 }
    }

    /// The radius parameter `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The confidence parameter `c`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Number of stages: `⌈ln n⌉ + 1` (stages `i = 0..=ln n`).
    #[must_use]
    pub fn stage_count(&self, n: usize) -> usize {
        (n.max(2) as f64).ln().ceil() as usize + 1
    }

    /// The exponential rate of stage `i`: `β_i = ln(cn/eⁱ)/k`, clamped to a
    /// small positive floor once `eⁱ` approaches `cn` (late stages).
    #[must_use]
    pub fn stage_beta(&self, n: usize, stage: usize) -> f64 {
        let cn = self.c * n.max(1) as f64;
        let raw = (cn.ln() - stage as f64) / self.k as f64;
        raw.max(1e-9)
    }

    /// Phases in stage `i`: `s_i = ⌈2(cn/eⁱ)^{1/k}⌉` (at least 1).
    #[must_use]
    pub fn stage_phases(&self, n: usize, stage: usize) -> usize {
        let cn = self.c * n.max(1) as f64;
        let ratio = cn / (stage as f64).exp();
        ((2.0 * ratio.max(1.0).powf(1.0 / self.k as f64)).ceil() as usize).max(1)
    }

    /// The color bound `4k(cn)^{1/k}` of Theorem 2.
    #[must_use]
    pub fn color_bound(&self, n: usize) -> usize {
        let cn = self.c * n.max(1) as f64;
        (4.0 * self.k as f64 * cn.powf(1.0 / self.k as f64)).ceil() as usize
    }

    /// The strong-diameter bound `2k − 2`.
    #[must_use]
    pub fn diameter_bound(&self) -> usize {
        2 * self.k - 2
    }

    /// The round bound: `k` rounds per phase over all stages, i.e.
    /// `k · Σᵢ s_i = O(k²(cn)^{1/k})`.
    #[must_use]
    pub fn round_bound(&self, n: usize) -> usize {
        let total_phases: usize = (0..self.stage_count(n))
            .map(|i| self.stage_phases(n, i))
            .sum();
        self.k * total_phases
    }

    /// The failure probability bound `5/c` of Theorem 2.
    #[must_use]
    pub fn failure_probability(&self) -> f64 {
        5.0 / self.c
    }

    /// Broadcast radius cap (identical to Theorem 1's: `k`).
    #[must_use]
    pub fn radius_cap(&self) -> usize {
        self.k
    }
}

/// Parameters of the high-radius regime (Theorem 3): strong
/// `(2(cn)^{1/λ}·ln(cn), λ)` in `λ(cn)^{1/λ}·ln(cn)` rounds with
/// probability `≥ 1 − 3/c`.
///
/// This is the inverse tradeoff: pick the number of colors `λ` first; the
/// radius becomes `k = (cn)^{1/λ}·ln(cn)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighRadiusParams {
    lambda: usize,
    c: f64,
}

impl HighRadiusParams {
    /// Creates parameters.
    ///
    /// # Errors
    ///
    /// [`DecompError::InvalidParameter`] if `lambda == 0` or `c ≤ 3` or not
    /// finite.
    pub fn new(lambda: usize, c: f64) -> Result<Self, DecompError> {
        if lambda == 0 {
            return Err(DecompError::InvalidParameter {
                name: "lambda",
                reason: "must be at least 1".into(),
            });
        }
        if !c.is_finite() || c <= 3.0 {
            return Err(DecompError::InvalidParameter {
                name: "c",
                reason: format!("must be a finite value > 3, got {c}"),
            });
        }
        Ok(HighRadiusParams { lambda, c })
    }

    /// The color budget `λ`.
    #[must_use]
    pub fn lambda(&self) -> usize {
        self.lambda
    }

    /// The confidence parameter `c`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The induced radius parameter `k = (cn)^{1/λ}·ln(cn)` (real-valued).
    #[must_use]
    pub fn radius_parameter(&self, n: usize) -> f64 {
        let cn = self.c * n.max(1) as f64;
        cn.powf(1.0 / self.lambda as f64) * cn.ln()
    }

    /// The exponential rate `β = ln(cn)/k`.
    #[must_use]
    pub fn beta(&self, n: usize) -> f64 {
        let cn = self.c * n.max(1) as f64;
        cn.ln() / self.radius_parameter(n)
    }

    /// Phase budget = color bound = `λ`.
    #[must_use]
    pub fn phase_budget(&self) -> usize {
        self.lambda
    }

    /// The strong-diameter bound `2(cn)^{1/λ}·ln(cn)` (rounded up).
    #[must_use]
    pub fn diameter_bound(&self, n: usize) -> usize {
        (2.0 * self.radius_parameter(n)).ceil() as usize
    }

    /// The round bound `λ·(cn)^{1/λ}·ln(cn)`.
    #[must_use]
    pub fn round_bound(&self, n: usize) -> usize {
        (self.lambda as f64 * self.radius_parameter(n)).ceil() as usize
    }

    /// Broadcast radius cap per phase: `⌈k⌉` hops.
    #[must_use]
    pub fn radius_cap(&self, n: usize) -> usize {
        self.radius_parameter(n).ceil() as usize
    }

    /// The failure probability bound `3/c`.
    #[must_use]
    pub fn failure_probability(&self) -> f64 {
        3.0 / self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_params_validate() {
        assert!(DecompositionParams::new(0, 4.0).is_err());
        assert!(DecompositionParams::new(3, 3.0).is_err());
        assert!(DecompositionParams::new(3, f64::NAN).is_err());
        assert!(DecompositionParams::new(3, 3.01).is_ok());
    }

    #[test]
    fn theorem1_bounds_formulae() {
        let p = DecompositionParams::new(2, 4.0).unwrap();
        let n = 100;
        // beta = ln(400)/2
        assert!((p.beta(n) - (400.0f64).ln() / 2.0).abs() < 1e-12);
        // lambda = ceil(sqrt(400) * ln 400) = ceil(20 * 5.99...) = 120
        assert_eq!(p.phase_budget(n), 120);
        assert_eq!(p.diameter_bound(), 2);
        assert_eq!(p.round_bound(n), 240);
        assert!((p.failure_probability() - 0.75).abs() < 1e-12);
        assert_eq!(p.radius_cap(), 2);
    }

    #[test]
    fn for_graph_size_uses_log_n() {
        let p = DecompositionParams::for_graph_size(1024);
        assert_eq!(p.k(), 7); // ln 1024 = 6.93...
        assert_eq!(p.c(), 4.0);
        // k=1 edge case for tiny graphs
        let tiny = DecompositionParams::for_graph_size(2);
        assert!(tiny.k() >= 1);
    }

    #[test]
    fn staged_params_validate_and_bound() {
        assert!(StagedParams::new(3, 5.0).is_err());
        let p = StagedParams::new(3, 6.0).unwrap();
        let n = 1000;
        assert_eq!(p.diameter_bound(), 4);
        assert!(p.stage_count(n) >= 7);
        // Stage betas decrease.
        assert!(p.stage_beta(n, 0) > p.stage_beta(n, 3));
        // Stage phases decrease.
        assert!(p.stage_phases(n, 0) >= p.stage_phases(n, 5));
        // Total phases within ~ color bound + stage count slack.
        let total: usize = (0..p.stage_count(n)).map(|i| p.stage_phases(n, i)).sum();
        assert!(total <= p.color_bound(n) + p.stage_count(n));
        assert!((p.failure_probability() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn staged_beta_is_positive_even_in_late_stages() {
        let p = StagedParams::new(2, 6.0).unwrap();
        for i in 0..40 {
            assert!(p.stage_beta(10, i) > 0.0);
        }
    }

    #[test]
    fn high_radius_inverse_tradeoff() {
        let p = HighRadiusParams::new(3, 4.0).unwrap();
        let n = 1000;
        // k = (4000)^{1/3} * ln(4000)
        let cn: f64 = 4000.0;
        let expect = cn.powf(1.0 / 3.0) * cn.ln();
        assert!((p.radius_parameter(n) - expect).abs() < 1e-9);
        assert_eq!(p.phase_budget(), 3);
        assert_eq!(p.diameter_bound(n), (2.0 * expect).ceil() as usize);
        assert!(p.beta(n) > 0.0);
        assert!(HighRadiusParams::new(0, 4.0).is_err());
        assert!(HighRadiusParams::new(2, 2.0).is_err());
    }
}
