//! Triangular norms and co-norms used to combine membership degrees.
//!
//! The paper's FLC uses the classic Mamdani configuration — `min` for AND
//! and implication, `max` for aggregation — but the engine exposes the
//! standard alternatives so the ablation benches can compare them.

use serde::{Deserialize, Serialize};

/// T-norm: fuzzy conjunction (`AND`) over `[0, 1] x [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TNorm {
    /// Gödel / Mamdani minimum: `min(a, b)`. The paper's choice.
    #[default]
    Minimum,
    /// Algebraic product: `a * b`.
    Product,
    /// Łukasiewicz: `max(0, a + b - 1)`.
    Lukasiewicz,
    /// Drastic product: `min` when one operand is 1, else 0.
    Drastic,
}

impl TNorm {
    /// Applies the norm to two membership degrees.
    ///
    /// Inputs are clamped to `[0, 1]` first so the algebra below cannot
    /// escape the unit interval.
    #[must_use]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        let a = a.clamp(0.0, 1.0);
        let b = b.clamp(0.0, 1.0);
        match self {
            TNorm::Minimum => a.min(b),
            TNorm::Product => a * b,
            TNorm::Lukasiewicz => (a + b - 1.0).max(0.0),
            TNorm::Drastic => {
                if a == 1.0 {
                    b
                } else if b == 1.0 {
                    a
                } else {
                    0.0
                }
            }
        }
    }

    /// Folds the norm across an iterator of degrees; the empty fold is the
    /// norm's identity element `1`.
    #[must_use]
    pub fn fold(self, degrees: impl IntoIterator<Item = f64>) -> f64 {
        degrees.into_iter().fold(1.0, |acc, d| self.apply(acc, d))
    }
}

/// S-norm (t-co-norm): fuzzy disjunction (`OR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SNorm {
    /// Gödel maximum: `max(a, b)`. The paper's choice.
    #[default]
    Maximum,
    /// Probabilistic sum: `a + b - a*b`.
    ProbabilisticSum,
    /// Bounded sum: `min(1, a + b)`.
    BoundedSum,
    /// Drastic sum: `max` when one operand is 0, else 1.
    Drastic,
}

impl SNorm {
    /// Applies the co-norm to two membership degrees (inputs clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        let a = a.clamp(0.0, 1.0);
        let b = b.clamp(0.0, 1.0);
        match self {
            SNorm::Maximum => a.max(b),
            SNorm::ProbabilisticSum => a + b - a * b,
            SNorm::BoundedSum => (a + b).min(1.0),
            SNorm::Drastic => {
                if a == 0.0 {
                    b
                } else if b == 0.0 {
                    a
                } else {
                    1.0
                }
            }
        }
    }

    /// Folds the co-norm across an iterator of degrees; the empty fold is
    /// the co-norm's identity element `0`.
    #[must_use]
    pub fn fold(self, degrees: impl IntoIterator<Item = f64>) -> f64 {
        degrees.into_iter().fold(0.0, |acc, d| self.apply(acc, d))
    }
}

/// Implication operator: shapes a consequent membership by the rule's firing
/// strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Implication {
    /// Mamdani clipping: `min(strength, mu)`. The paper's choice.
    #[default]
    Minimum,
    /// Larsen scaling: `strength * mu`.
    Product,
}

impl Implication {
    /// Applies the implication of firing `strength` to membership `mu`.
    #[must_use]
    pub fn apply(self, strength: f64, mu: f64) -> f64 {
        let strength = strength.clamp(0.0, 1.0);
        let mu = mu.clamp(0.0, 1.0);
        match self {
            Implication::Minimum => strength.min(mu),
            Implication::Product => strength * mu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASES: &[(f64, f64)] =
        &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.5, 0.5), (0.9, 0.2)];

    #[test]
    fn tnorm_axioms_hold() {
        for norm in [TNorm::Minimum, TNorm::Product, TNorm::Lukasiewicz, TNorm::Drastic] {
            for &(a, b) in CASES {
                let ab = norm.apply(a, b);
                // Commutativity.
                assert_eq!(ab, norm.apply(b, a), "{norm:?} commutativity");
                // Identity element 1.
                assert!((norm.apply(a, 1.0) - a).abs() < 1e-12, "{norm:?} identity");
                // Bounded by min.
                assert!(ab <= a.min(b) + 1e-12, "{norm:?} bounded by min");
                // Range.
                assert!((0.0..=1.0).contains(&ab), "{norm:?} range");
            }
        }
    }

    #[test]
    fn snorm_axioms_hold() {
        for norm in [SNorm::Maximum, SNorm::ProbabilisticSum, SNorm::BoundedSum, SNorm::Drastic] {
            for &(a, b) in CASES {
                let ab = norm.apply(a, b);
                assert_eq!(ab, norm.apply(b, a), "{norm:?} commutativity");
                assert!((norm.apply(a, 0.0) - a).abs() < 1e-12, "{norm:?} identity");
                assert!(ab >= a.max(b) - 1e-12, "{norm:?} bounded by max");
                assert!((0.0..=1.0).contains(&ab), "{norm:?} range");
            }
        }
    }

    #[test]
    fn minimum_and_product_values() {
        assert_eq!(TNorm::Minimum.apply(0.3, 0.7), 0.3);
        assert!((TNorm::Product.apply(0.3, 0.7) - 0.21).abs() < 1e-12);
        assert_eq!(SNorm::Maximum.apply(0.3, 0.7), 0.7);
        assert!((SNorm::ProbabilisticSum.apply(0.3, 0.7) - 0.79).abs() < 1e-12);
    }

    #[test]
    fn lukasiewicz_saturates_at_zero() {
        assert_eq!(TNorm::Lukasiewicz.apply(0.2, 0.3), 0.0);
        assert!((TNorm::Lukasiewicz.apply(0.8, 0.7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn folds_use_identities() {
        assert_eq!(TNorm::Minimum.fold(std::iter::empty()), 1.0);
        assert_eq!(SNorm::Maximum.fold(std::iter::empty()), 0.0);
        assert_eq!(TNorm::Minimum.fold([0.9, 0.4, 0.6]), 0.4);
        assert_eq!(SNorm::Maximum.fold([0.1, 0.4, 0.2]), 0.4);
    }

    #[test]
    fn implication_clips_or_scales() {
        assert_eq!(Implication::Minimum.apply(0.4, 0.9), 0.4);
        assert_eq!(Implication::Minimum.apply(0.9, 0.4), 0.4);
        assert!((Implication::Product.apply(0.5, 0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_membership_leaves_every_aggregation_unchanged() {
        // The engine skips consequent samples whose membership is zero;
        // that is exact only because of this identity.
        let values = [0.0, 1e-300, 0.1, 0.3, 0.5, 0.7, 0.999_999, 1.0];
        for agg in [SNorm::Maximum, SNorm::ProbabilisticSum, SNorm::BoundedSum, SNorm::Drastic] {
            for imp in [Implication::Minimum, Implication::Product] {
                for &v in &values {
                    for &s in &values {
                        let merged = agg.apply(v, imp.apply(s, 0.0));
                        assert_eq!(merged.to_bits(), v.to_bits(), "{agg:?} {imp:?} v={v} s={s}");
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        assert_eq!(TNorm::Minimum.apply(-0.5, 2.0), 0.0);
        assert_eq!(SNorm::Maximum.apply(-0.5, 2.0), 1.0);
        assert_eq!(Implication::Product.apply(2.0, 2.0), 1.0);
    }

    #[test]
    fn defaults_match_the_paper() {
        assert_eq!(TNorm::default(), TNorm::Minimum);
        assert_eq!(SNorm::default(), SNorm::Maximum);
        assert_eq!(Implication::default(), Implication::Minimum);
    }
}
