//! Experiment harness regenerating every quantitative statement of the
//! paper.
//!
//! The paper is a theory extended abstract — its "evaluation" is its
//! theorems and lemmas. Each experiment module measures one of them and
//! prints *paper bound vs. measured value* as an aligned table:
//!
//! | id  | statement |
//! |-----|-----------|
//! | e1  | Theorem 1 (basic algorithm: diameter / colors / rounds / success) |
//! | e2  | Theorem 2 (staged algorithm: improved color bound) |
//! | e3  | Theorem 3 (high-radius regime) |
//! | e4  | headline vs. Linial–Saks: strong vs. weak diameter |
//! | e5  | CONGEST message accounting: top-two pruning vs. full flood |
//! | e6  | Lemma 5: shifted-exponential order statistics |
//! | e7  | Claim 6 / Corollary 7: per-phase survival |
//! | e8  | Claim 8: staged survival per stage |
//! | e9  | Lemma 1: truncation events `E_v` |
//! | e10 | MPX13 padded-partition substrate |
//! | e11 | §1.1 applications: MIS / coloring / matching in `O(D·χ)` |
//! | e12 | the (diameter, colors) tradeoff frontier |
//! | e13 | ablation: why the join margin is exactly 1 (Lemma 4, Claim 3) |
//! | e14 | the headline scaling: `O(log n)` diameter and colors in `O(log² n)` rounds |
//!
//! Run them all: `cargo run -p netdecomp-bench --release --bin tables -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod runner;
pub mod stats;
pub mod table;
pub mod workloads;

/// Effort level of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// Small sizes / few trials — seconds per experiment, used in CI and by
    /// default.
    #[default]
    Quick,
    /// The full sweep: larger sizes and more trials (`--full`).
    Full,
}

impl Effort {
    /// Scales a trial count.
    #[must_use]
    pub fn trials(&self, quick: usize, full: usize) -> usize {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }

    /// Picks a size list.
    #[must_use]
    pub fn sizes<'a>(&self, quick: &'a [usize], full: &'a [usize]) -> &'a [usize] {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_selects() {
        assert_eq!(Effort::Quick.trials(2, 20), 2);
        assert_eq!(Effort::Full.trials(2, 20), 20);
        assert_eq!(Effort::Quick.sizes(&[1], &[2]), &[1]);
        assert_eq!(Effort::Full.sizes(&[1], &[2]), &[2]);
    }
}
