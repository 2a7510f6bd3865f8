//! Minimal vendored stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the property-testing surface it uses: the [`Strategy`] trait with
//! `prop_map` / `prop_flat_map`, range and tuple strategies,
//! [`collection::vec`] / [`collection::hash_set`], the [`proptest!`] macro
//! (with optional `#![proptest_config(..)]` header), and the
//! `prop_assert*` macros.
//!
//! Differences from the real crate: cases are generated from a fixed
//! deterministic seed (reproducible by construction) and failing inputs are
//! **not shrunk** — the failing case's assertion message is the diagnostic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving strategies (SplitMix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator for one test case.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "TestRng::below(0)");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and draws from
    /// the produced strategy.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        let mid = self.inner.generate(rng);
        (self.f)(mid).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategies {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $ty
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                start + rng.below((end - start) as u64 + 1) as $ty
            }
        }
    )*};
}

int_strategies!(usize, u64, u32, u16, u8);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    /// Strategy for `Vec`s with a size drawn from `size` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `HashSet`s; duplicates shrink the set below the drawn
    /// size, matching the real crate's "up to" semantics closely enough.
    pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy { element, size }
    }

    /// See [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Runs a property body over `config.cases` generated cases.
///
/// Used by the [`proptest!`] macro; not part of the public API surface of
/// the real crate, but harmless to expose.
pub fn run_cases<F: FnMut(&mut TestRng)>(config: &ProptestConfig, name: &str, mut body: F) {
    // Stable per-test stream: hash the test name so adding a test does not
    // reshuffle every other test's cases.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed ^= u64::from(b);
        seed = seed.wrapping_mul(0x100_0000_01b3);
    }
    for case in 0..config.cases {
        let mut rng = TestRng::new(seed ^ (u64::from(case) << 32));
        body(&mut rng);
    }
}

/// Defines property tests: an optional `#![proptest_config(..)]` header
/// followed by `#[test] fn name(pat in strategy, ..) { body }` items
/// (doc comments and extra attributes on the items are preserved).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)
     $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(&config, stringify!($name), |rng| {
                    $(let $pat = $crate::Strategy::generate(&$strat, rng);)+
                    $body
                });
            }
        )*
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// The glob-importable surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = super::TestRng::new(1);
        for _ in 0..100 {
            let v = Strategy::generate(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let (a, b) = Strategy::generate(&(0usize..5, 1usize..=2), &mut rng);
            assert!(a < 5 && (1..=2).contains(&b));
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let strat = (2usize..6).prop_flat_map(|n| (0..n).prop_map(move |i| (n, i)));
        let mut rng = super::TestRng::new(9);
        for _ in 0..100 {
            let (n, i) = Strategy::generate(&strat, &mut rng);
            assert!(i < n);
        }
    }

    #[test]
    fn collections_respect_size() {
        let mut rng = super::TestRng::new(4);
        let v = Strategy::generate(&collection::vec(0usize..10, 2..5), &mut rng);
        assert!((2..5).contains(&v.len()));
        let s = Strategy::generate(&collection::hash_set(0usize..100, 0..20), &mut rng);
        assert!(s.len() < 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_with_config_runs(x in 0usize..10, y in 0usize..10) {
            prop_assert!(x < 10 && y < 10);
        }
    }

    proptest! {
        #[test]
        fn macro_default_config_runs(x in 1usize..=3) {
            prop_assert_ne!(x, 0);
            prop_assert_eq!(x.min(3), x);
        }
    }
}
