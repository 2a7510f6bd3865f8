//! Exponentially distributed random shifts — the randomness of the paper.
//!
//! Every phase `t`, every alive vertex `v` samples `r_v ~ EXP(β)` with
//! density `β·e^{−βx}` and broadcasts it to its `⌊r_v⌋`-neighborhood. The
//! whole algorithm's behaviour is a deterministic function of these shifts,
//! so this module also provides [`ShiftSource`]: a *pure* map
//! `(seed, phase, vertex) → shift` that the centralized and distributed
//! implementations share, making them bit-for-bit comparable.
//!
//! [`top_two_within_margin`] exposes the order-statistics experiment of
//! Lemma 5 (\[MPX13]): for arbitrary shifts `d_j`, the top two values of
//! `δ_j − d_j` are within 1 of each other with probability at most
//! `1 − e^{−β}`.

use rand::Rng;

use netdecomp_graph::VertexId;

use crate::DecompError;

/// The exponential distribution `EXP(β)` with density `β·e^{−βx}` on
/// `x ≥ 0`, sampled by inversion.
///
/// # Example
///
/// ```
/// use netdecomp_core::shift::Exponential;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let exp = Exponential::new(0.5)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// # Ok::<(), netdecomp_core::DecompError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    beta: f64,
}

/// The largest rate [`Exponential::new`] refuses: `53·ln 2 / 2^53`.
///
/// The largest uniform value drawn is `1 − 2^−53`, so the largest sample
/// is `53·ln 2/β`, and the carve takes shifts below 2^53 only. Every rate
/// above this bound keeps that sample below 2^53.
pub const MIN_BETA: f64 = 53.0 * std::f64::consts::LN_2 / 9_007_199_254_740_992.0;

impl Exponential {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// [`DecompError::InvalidParameter`] named `beta` unless `β` is finite
    /// and above [`MIN_BETA`] (a smaller rate could draw a shift of 2^53
    /// or more).
    pub fn new(beta: f64) -> Result<Self, DecompError> {
        if !beta.is_finite() || beta <= 0.0 {
            return Err(DecompError::InvalidParameter {
                name: "beta",
                reason: format!("rate must be finite and positive, got {beta}"),
            });
        }
        if beta <= MIN_BETA {
            return Err(DecompError::InvalidParameter {
                name: "beta",
                reason: format!(
                    "rate {beta} must exceed 53·ln 2/2^53 = {MIN_BETA}, or a shift could reach 2^53"
                ),
            });
        }
        Ok(Exponential { beta })
    }

    /// The rate `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Draws one sample by inverse-CDF: `−ln(1 − U)/β`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() / self.beta
    }

    /// Converts a uniform value in `[0, 1)` into an `EXP(β)` sample.
    /// Deterministic companion of [`Exponential::sample`].
    #[must_use]
    pub fn from_uniform(&self, u: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&u));
        -(1.0 - u).ln() / self.beta
    }
}

/// SplitMix64 finalizer (same constants as `netdecomp_sim::stream_rng`'s
/// mixer, duplicated here to keep the shift path allocation-free and fast).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-(phase, vertex) exponential shifts under a root seed.
///
/// Both the centralized simulation and the true distributed protocol draw
/// their randomness from a `ShiftSource` with the same seed, which is what
/// makes their outputs comparable bit-for-bit (tested in the workspace
/// integration suite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftSource {
    seed: u64,
    exp: Exponential,
}

impl ShiftSource {
    /// Creates a source with rate `β` under `seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`Exponential::new`] validation.
    pub fn new(seed: u64, beta: f64) -> Result<Self, DecompError> {
        Ok(ShiftSource {
            seed,
            exp: Exponential::new(beta)?,
        })
    }

    /// The rate `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.exp.beta()
    }

    /// Replaces the rate, keeping the seed (used by the staged algorithm
    /// when β changes between stages).
    ///
    /// # Errors
    ///
    /// Propagates [`Exponential::new`] validation.
    pub fn with_beta(&self, beta: f64) -> Result<Self, DecompError> {
        ShiftSource::new(self.seed, beta)
    }

    /// The shift `r_v^{(t)}` of vertex `v` at phase `t`.
    ///
    /// Pure: equal arguments always yield equal results.
    #[must_use]
    pub fn shift(&self, phase: u64, v: VertexId) -> f64 {
        self.exp.from_uniform(uniform(self.seed, phase, v))
    }
}

/// A deterministic uniform value in `[0, 1)` for the stream
/// `(seed, phase, vertex)` — the raw randomness underlying [`ShiftSource`],
/// exposed for algorithms that need non-exponential radii (e.g. the
/// truncated-geometric radii of Linial–Saks in `netdecomp-baselines`).
#[must_use]
pub fn uniform(seed: u64, phase: u64, v: VertexId) -> f64 {
    let mixed = splitmix64(
        splitmix64(seed ^ 0xD6E8_FEB8_6659_FD93).wrapping_add(splitmix64(phase))
            ^ splitmix64((v as u64).wrapping_add(0x2545_F491_4F6C_DD1D)),
    );
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Checks Lemma 5's event on one sample: given shifts `d_j` and fresh
/// exponential values `δ_j ~ EXP(β)`, is the largest value of `δ_j − d_j`
/// within 1 (additively) of the second largest?
///
/// Lemma 5 (\[MPX13], as sharpened by the paper) bounds the probability of
/// this event by `1 − e^{−β}`. With `q = 1` the event never holds (the
/// second largest is taken as `−∞`).
pub fn top_two_within_margin<R: Rng + ?Sized>(
    shifts: &[f64],
    beta: f64,
    rng: &mut R,
) -> Result<bool, DecompError> {
    let exp = Exponential::new(beta)?;
    let mut best = f64::NEG_INFINITY;
    let mut second = f64::NEG_INFINITY;
    for &d in shifts {
        let val = exp.sample(rng) - d;
        if val > best {
            second = best;
            best = val;
        } else if val > second {
            second = val;
        }
    }
    Ok(best.is_finite() && second.is_finite() && best - second <= 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_rejects_bad_rates() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
        assert!(Exponential::new(1.5).is_ok());
    }

    /// The smallest accepted rate keeps the largest draw below 2^53, the
    /// carve's shift bound; the refused bound itself would reach it.
    #[test]
    fn rates_at_or_below_the_bound_are_refused() {
        let largest_uniform = ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64;
        let limit = (1u64 << 53) as f64;
        for beta in [MIN_BETA, MIN_BETA.next_down(), 1e-18] {
            assert!(
                matches!(
                    Exponential::new(beta),
                    Err(DecompError::InvalidParameter { name: "beta", .. })
                ),
                "{beta}"
            );
            assert!(-(1.0 - largest_uniform).ln() / beta >= limit, "{beta}");
        }
        let smallest = Exponential::new(MIN_BETA.next_up()).expect("just above the bound");
        assert!(smallest.from_uniform(largest_uniform) < limit);
        let source = ShiftSource::new(7, MIN_BETA.next_up()).expect("just above the bound");
        assert!((0..1_000).all(|v| source.shift(0, v) < limit));
    }

    #[test]
    fn exponential_mean_matches_one_over_beta() {
        let beta = 0.8;
        let exp = Exponential::new(beta).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 200_000;
        let sum: f64 = (0..trials).map(|_| exp.sample(&mut rng)).sum();
        let mean = sum / trials as f64;
        assert!(
            (mean - 1.0 / beta).abs() < 0.02,
            "mean {mean} far from {}",
            1.0 / beta
        );
    }

    #[test]
    fn exponential_cdf_at_known_points() {
        // P(X <= t) = 1 - e^{-beta t}.
        let beta = 1.3;
        let exp = Exponential::new(beta).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 100_000;
        for t in [0.25, 1.0, 2.5] {
            let hits =
                (0..trials).filter(|_| exp.sample(&mut rng) <= t).count() as f64 / trials as f64;
            let want = 1.0 - (-beta * t).exp();
            assert!(
                (hits - want).abs() < 0.01,
                "cdf at {t}: got {hits}, want {want}"
            );
        }
    }

    #[test]
    fn samples_are_nonnegative() {
        let exp = Exponential::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(exp.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn from_uniform_is_monotone() {
        let exp = Exponential::new(1.0).unwrap();
        assert!(exp.from_uniform(0.1) < exp.from_uniform(0.5));
        assert!(exp.from_uniform(0.5) < exp.from_uniform(0.99));
        assert_eq!(exp.from_uniform(0.0), 0.0);
    }

    #[test]
    fn shift_source_is_pure_and_varied() {
        let s = ShiftSource::new(7, 0.5).unwrap();
        assert_eq!(s.shift(3, 10), s.shift(3, 10));
        assert_ne!(s.shift(3, 10), s.shift(4, 10));
        assert_ne!(s.shift(3, 10), s.shift(3, 11));
        let other = ShiftSource::new(8, 0.5).unwrap();
        assert_ne!(s.shift(3, 10), other.shift(3, 10));
    }

    #[test]
    fn shift_source_beta_swap_keeps_seed() {
        let a = ShiftSource::new(7, 0.5).unwrap();
        let b = a.with_beta(0.25).unwrap();
        assert_eq!(b.beta(), 0.25);
        // Same underlying uniform: the shift doubles when beta halves.
        let ra = a.shift(0, 0);
        let rb = b.shift(0, 0);
        assert!((rb - 2.0 * ra).abs() < 1e-12);
    }

    #[test]
    fn shift_distribution_matches_exponential() {
        // Kolmogorov-style spot check of the deterministic stream.
        let beta = 1.0;
        let s = ShiftSource::new(123, beta).unwrap();
        let n = 50_000;
        let mut below_ln2 = 0usize;
        for v in 0..n {
            if s.shift(0, v) <= std::f64::consts::LN_2 {
                below_ln2 += 1;
            }
        }
        // P(X <= ln 2) = 1/2 for EXP(1).
        let frac = below_ln2 as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "median check failed: {frac}");
    }

    #[test]
    fn lemma5_bound_holds_empirically() {
        let beta: f64 = 0.4;
        let mut rng = StdRng::seed_from_u64(17);
        let shifts: Vec<f64> = (0..30).map(|i| (i as f64) * 0.3).collect();
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|_| top_two_within_margin(&shifts, beta, &mut rng).unwrap())
            .count() as f64
            / trials as f64;
        let bound = 1.0 - (-beta).exp();
        // Allow 3 sigma of sampling noise above the bound.
        let sigma = (bound * (1.0 - bound) / trials as f64).sqrt();
        assert!(
            hits <= bound + 3.0 * sigma,
            "Lemma 5 violated: {hits} > {bound}"
        );
    }

    #[test]
    fn uniform_stream_is_pure_and_in_range() {
        for v in 0..1000 {
            let u = uniform(3, 1, v);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, uniform(3, 1, v));
        }
        assert_ne!(uniform(3, 1, 5), uniform(3, 2, 5));
        assert_ne!(uniform(3, 1, 5), uniform(4, 1, 5));
    }

    #[test]
    fn lemma5_single_element_never_within_margin() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!top_two_within_margin(&[0.0], 0.5, &mut rng).unwrap());
        assert!(!top_two_within_margin(&[], 0.5, &mut rng).unwrap());
    }
}
