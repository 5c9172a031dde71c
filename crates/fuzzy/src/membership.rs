//! Membership functions.
//!
//! The paper (Fig. 3) uses two families suitable for real-time operation:
//!
//! * triangular `f(x; x0, a0, a1)` — center `x0`, left width `a0`, right
//!   width `a1`;
//! * trapezoidal `g(x; x0, x1, a0, a1)` — flat top between `x0` and `x1`,
//!   ramps of width `a0` (left) and `a1` (right).
//!
//! [`MembershipFunction::triangular`] and
//! [`MembershipFunction::trapezoidal`] implement those formulas exactly.
//! For completeness as a general-purpose engine this module also provides
//! gaussian, generalized-bell, sigmoid, Z-, S- and singleton shapes.

use serde::{Deserialize, Serialize};

use crate::error::{FuzzyError, Result};

/// A parametric membership function mapping a crisp value to a degree in
/// `[0, 1]`.
///
/// Values are evaluated with [`MembershipFunction::evaluate`]; results are
/// always clamped to `[0, 1]` and are `0.0` outside the support.
///
/// # Examples
///
/// ```
/// use facs_fuzzy::MembershipFunction;
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// // The paper's "Middle speed" term: triangle centered at 30 km/h.
/// let middle = MembershipFunction::triangular(30.0, 15.0, 30.0)?;
/// assert_eq!(middle.evaluate(30.0), 1.0);
/// assert_eq!(middle.evaluate(22.5), 0.5);
/// assert_eq!(middle.evaluate(90.0), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MembershipFunction {
    /// Triangle with peak at `center`, rising over `left_width` and falling
    /// over `right_width`. A zero width makes that side a vertical edge.
    Triangular {
        /// Location of the peak (`x0` in the paper).
        center: f64,
        /// Width of the rising ramp (`a0`).
        left_width: f64,
        /// Width of the falling ramp (`a1`).
        right_width: f64,
    },
    /// Trapezoid flat between `left_top` and `right_top` with ramp widths
    /// `left_width` / `right_width`. A zero width makes that side vertical.
    Trapezoidal {
        /// Left edge of the flat top (`x0`).
        left_top: f64,
        /// Right edge of the flat top (`x1`).
        right_top: f64,
        /// Width of the rising ramp (`a0`).
        left_width: f64,
        /// Width of the falling ramp (`a1`).
        right_width: f64,
    },
    /// Gaussian bell `exp(-(x-mean)^2 / (2 sigma^2))`.
    Gaussian {
        /// Location of the peak.
        mean: f64,
        /// Standard deviation (must be positive).
        sigma: f64,
    },
    /// Generalized bell `1 / (1 + |(x-center)/width|^(2 slope))`.
    Bell {
        /// Location of the peak.
        center: f64,
        /// Half-width at membership 0.5 (must be positive).
        width: f64,
        /// Steepness of the flanks (must be positive).
        slope: f64,
    },
    /// Logistic sigmoid `1 / (1 + exp(-slope (x - inflection)))`.
    /// Positive `slope` rises to the right, negative falls.
    Sigmoid {
        /// Value where membership crosses 0.5.
        inflection: f64,
        /// Steepness; sign selects direction.
        slope: f64,
    },
    /// Smooth descending spline: 1 before `start`, 0 after `end`.
    ZShape {
        /// Last value with membership 1.
        start: f64,
        /// First value with membership 0.
        end: f64,
    },
    /// Smooth ascending spline: 0 before `start`, 1 after `end`.
    SShape {
        /// Last value with membership 0.
        start: f64,
        /// First value with membership 1.
        end: f64,
    },
    /// Crisp spike: membership 1 exactly at `value`, 0 elsewhere.
    Singleton {
        /// The sole supported value.
        value: f64,
    },
}

impl MembershipFunction {
    /// Builds the paper's triangular function `f(x; x0, a0, a1)`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if any parameter is
    /// non-finite, a width is negative, or both widths are zero.
    pub fn triangular(center: f64, left_width: f64, right_width: f64) -> Result<Self> {
        ensure_finite(&[center, left_width, right_width])?;
        if left_width < 0.0 || right_width < 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "triangular widths must be non-negative (got a0={left_width}, a1={right_width})"
                ),
            });
        }
        if left_width == 0.0 && right_width == 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: "triangular function needs at least one positive width; \
                         use a singleton for a crisp spike"
                    .into(),
            });
        }
        Ok(Self::Triangular { center, left_width, right_width })
    }

    /// Builds the paper's trapezoidal function `g(x; x0, x1, a0, a1)`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if any parameter is
    /// non-finite, the top edges are out of order, or a width is negative.
    pub fn trapezoidal(
        left_top: f64,
        right_top: f64,
        left_width: f64,
        right_width: f64,
    ) -> Result<Self> {
        ensure_finite(&[left_top, right_top, left_width, right_width])?;
        if right_top < left_top {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "trapezoid top edges out of order (x0={left_top} > x1={right_top})"
                ),
            });
        }
        if left_width < 0.0 || right_width < 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "trapezoid widths must be non-negative (got a0={left_width}, a1={right_width})"
                ),
            });
        }
        Ok(Self::Trapezoidal { left_top, right_top, left_width, right_width })
    }

    /// Builds a gaussian membership function.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if `sigma <= 0` or any
    /// parameter is non-finite.
    pub fn gaussian(mean: f64, sigma: f64) -> Result<Self> {
        ensure_finite(&[mean, sigma])?;
        if sigma <= 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!("gaussian sigma must be positive (got {sigma})"),
            });
        }
        Ok(Self::Gaussian { mean, sigma })
    }

    /// Builds a generalized-bell membership function.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if `width <= 0`,
    /// `slope <= 0`, or any parameter is non-finite.
    pub fn bell(center: f64, width: f64, slope: f64) -> Result<Self> {
        ensure_finite(&[center, width, slope])?;
        if width <= 0.0 || slope <= 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!("bell width and slope must be positive (got {width}, {slope})"),
            });
        }
        Ok(Self::Bell { center, width, slope })
    }

    /// Builds a sigmoid membership function.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if `slope == 0` or any
    /// parameter is non-finite.
    pub fn sigmoid(inflection: f64, slope: f64) -> Result<Self> {
        ensure_finite(&[inflection, slope])?;
        if slope == 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: "sigmoid slope must be non-zero".into(),
            });
        }
        Ok(Self::Sigmoid { inflection, slope })
    }

    /// Builds a descending Z-shaped spline.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if `end <= start` or any
    /// parameter is non-finite.
    pub fn z_shape(start: f64, end: f64) -> Result<Self> {
        ensure_finite(&[start, end])?;
        if end <= start {
            return Err(FuzzyError::InvalidMembership {
                reason: format!("z-shape needs start < end (got {start}, {end})"),
            });
        }
        Ok(Self::ZShape { start, end })
    }

    /// Builds an ascending S-shaped spline.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if `end <= start` or any
    /// parameter is non-finite.
    pub fn s_shape(start: f64, end: f64) -> Result<Self> {
        ensure_finite(&[start, end])?;
        if end <= start {
            return Err(FuzzyError::InvalidMembership {
                reason: format!("s-shape needs start < end (got {start}, {end})"),
            });
        }
        Ok(Self::SShape { start, end })
    }

    /// Builds a crisp singleton at `value`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if `value` is non-finite.
    pub fn singleton(value: f64) -> Result<Self> {
        ensure_finite(&[value])?;
        Ok(Self::Singleton { value })
    }

    /// Evaluates the membership degree of `x`.
    ///
    /// The result is always in `[0, 1]`; non-finite `x` yields `0.0` so a
    /// corrupted sensor reading degrades to "no membership" instead of
    /// poisoning downstream arithmetic.
    #[must_use]
    pub fn evaluate(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return 0.0;
        }
        let mu = match *self {
            Self::Triangular { center, left_width, right_width } => {
                triangle(x, center, left_width, right_width)
            }
            Self::Trapezoidal { left_top, right_top, left_width, right_width } => {
                trapezoid(x, left_top, right_top, left_width, right_width)
            }
            Self::Gaussian { mean, sigma } => {
                let d = (x - mean) / sigma;
                (-0.5 * d * d).exp()
            }
            Self::Bell { center, width, slope } => {
                let d = ((x - center) / width).abs();
                1.0 / (1.0 + d.powf(2.0 * slope))
            }
            Self::Sigmoid { inflection, slope } => 1.0 / (1.0 + (-slope * (x - inflection)).exp()),
            Self::ZShape { start, end } => 1.0 - s_spline(x, start, end),
            Self::SShape { start, end } => s_spline(x, start, end),
            Self::Singleton { value } => {
                if x == value {
                    1.0
                } else {
                    0.0
                }
            }
        };
        mu.clamp(0.0, 1.0)
    }

    /// Returns the closed interval outside of which membership is (for the
    /// asymptotic shapes: effectively) zero.
    ///
    /// For gaussian/bell/sigmoid, the support is truncated where membership
    /// falls below `1e-6`, which is sufficient for the sampled integration
    /// the defuzzifiers perform. Shapes that saturate at 1 (Z, S and the
    /// sigmoid's plateau side) are unbounded on that side.
    #[must_use]
    pub fn support(&self) -> (f64, f64) {
        match *self {
            Self::Triangular { center, left_width, right_width } => {
                (center - left_width, center + right_width)
            }
            Self::Trapezoidal { left_top, right_top, left_width, right_width } => {
                (left_top - left_width, right_top + right_width)
            }
            Self::Gaussian { mean, sigma } => {
                // exp(-0.5 d^2) < 1e-6  <=>  |d| > ~5.26
                (mean - 5.26 * sigma, mean + 5.26 * sigma)
            }
            Self::Bell { center, width, slope } => {
                // 1/(1+d^(2 slope)) < 1e-6  <=>  d > 1e6^(1/(2 slope))
                let reach = width * 1e6_f64.powf(1.0 / (2.0 * slope));
                (center - reach, center + reach)
            }
            Self::Sigmoid { inflection, slope } => {
                // Membership crosses 1e-6 about 13.8/|slope| from the
                // inflection on the vanishing side; the saturated side is
                // unbounded, so callers should clip to the variable
                // universe.
                let reach = 13.8 / slope.abs();
                if slope > 0.0 {
                    (inflection - reach, f64::INFINITY)
                } else {
                    (f64::NEG_INFINITY, inflection + reach)
                }
            }
            Self::ZShape { start, end } => (f64::NEG_INFINITY, end.max(start)),
            Self::SShape { start, end } => (start.min(end), f64::INFINITY),
            Self::Singleton { value } => (value, value),
        }
    }

    /// The closed interval outside of which membership is exactly `0.0`,
    /// or `None` for the asymptotic shapes (gaussian, bell, sigmoid), whose
    /// [`support`](Self::support) is a truncation.
    pub(crate) fn exact_support(&self) -> Option<(f64, f64)> {
        match *self {
            Self::Gaussian { .. } | Self::Bell { .. } | Self::Sigmoid { .. } => None,
            _ => Some(self.support()),
        }
    }

    /// Returns the *representative value* of the shape — the center of its
    /// maximum-membership region. Used by the weighted-average defuzzifier.
    #[must_use]
    pub fn representative(&self) -> f64 {
        match *self {
            Self::Triangular { center, .. } => center,
            Self::Trapezoidal { left_top, right_top, .. } => 0.5 * (left_top + right_top),
            Self::Gaussian { mean, .. } => mean,
            Self::Bell { center, .. } => center,
            Self::Sigmoid { inflection, slope } => {
                // The saturated plateau is unbounded; the inflection shifted
                // by one slope-width is a pragmatic stand-in.
                inflection + slope.signum() * (1.0 / slope.abs())
            }
            Self::ZShape { start, .. } => start,
            Self::SShape { end, .. } => end,
            Self::Singleton { value } => value,
        }
    }

    /// Returns `true` if the shape attains membership 1 somewhere
    /// (all shapes in this crate except [`MembershipFunction::Sigmoid`],
    /// [`MembershipFunction::Bell`] asymptotics are normal).
    #[must_use]
    pub fn is_normal(&self) -> bool {
        match *self {
            Self::Sigmoid { .. } => false,
            Self::Bell { .. } => true,
            _ => true,
        }
    }
}

/// The paper's `f(x; x0, a0, a1)` with zero-width sides treated as vertical
/// edges (membership jumps straight to 1 at the center).
fn triangle(x: f64, center: f64, left_width: f64, right_width: f64) -> f64 {
    if x == center {
        return 1.0;
    }
    if x < center {
        if left_width == 0.0 {
            return 0.0;
        }
        let mu = (x - center) / left_width + 1.0;
        mu.max(0.0)
    } else {
        if right_width == 0.0 {
            return 0.0;
        }
        let mu = (center - x) / right_width + 1.0;
        mu.max(0.0)
    }
}

/// The paper's `g(x; x0, x1, a0, a1)` with zero-width sides treated as
/// vertical edges.
fn trapezoid(x: f64, left_top: f64, right_top: f64, left_width: f64, right_width: f64) -> f64 {
    if x >= left_top && x <= right_top {
        return 1.0;
    }
    if x < left_top {
        if left_width == 0.0 {
            return 0.0;
        }
        let mu = (x - left_top) / left_width + 1.0;
        mu.max(0.0)
    } else {
        if right_width == 0.0 {
            return 0.0;
        }
        let mu = (right_top - x) / right_width + 1.0;
        mu.max(0.0)
    }
}

/// Smooth ascending spline used by the S and Z shapes (MATLAB `smf`).
fn s_spline(x: f64, start: f64, end: f64) -> f64 {
    if x <= start {
        return 0.0;
    }
    if x >= end {
        return 1.0;
    }
    let mid = 0.5 * (start + end);
    if x <= mid {
        let t = (x - start) / (end - start);
        2.0 * t * t
    } else {
        let t = (end - x) / (end - start);
        1.0 - 2.0 * t * t
    }
}

fn ensure_finite(values: &[f64]) -> Result<()> {
    for &v in values {
        if !v.is_finite() {
            return Err(FuzzyError::InvalidMembership {
                reason: format!("parameter {v} is not finite"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn triangular_matches_paper_formula() {
        // f(x; x0=30, a0=15, a1=30): rises on (15, 30], falls on (30, 60].
        let mf = MembershipFunction::triangular(30.0, 15.0, 30.0).unwrap();
        assert_eq!(mf.evaluate(30.0), 1.0);
        assert!((mf.evaluate(22.5) - 0.5).abs() < EPS);
        assert!((mf.evaluate(45.0) - 0.5).abs() < EPS);
        assert_eq!(mf.evaluate(15.0), 0.0);
        assert_eq!(mf.evaluate(60.0), 0.0);
        assert_eq!(mf.evaluate(14.9), 0.0);
        assert_eq!(mf.evaluate(60.1), 0.0);
    }

    #[test]
    fn triangular_asymmetric_slopes() {
        let mf = MembershipFunction::triangular(0.0, 1.0, 4.0).unwrap();
        assert!((mf.evaluate(-0.5) - 0.5).abs() < EPS);
        assert!((mf.evaluate(2.0) - 0.5).abs() < EPS);
    }

    #[test]
    fn triangular_zero_left_width_is_vertical_edge() {
        // Paper's "Near" distance term sits at the universe edge 0 km.
        let mf = MembershipFunction::triangular(0.0, 0.0, 10.0).unwrap();
        assert_eq!(mf.evaluate(0.0), 1.0);
        assert_eq!(mf.evaluate(-0.001), 0.0);
        assert!((mf.evaluate(5.0) - 0.5).abs() < EPS);
        assert_eq!(mf.evaluate(10.0), 0.0);
    }

    #[test]
    fn triangular_rejects_two_zero_widths() {
        let err = MembershipFunction::triangular(1.0, 0.0, 0.0).unwrap_err();
        assert!(matches!(err, FuzzyError::InvalidMembership { .. }));
    }

    #[test]
    fn triangular_rejects_negative_width() {
        assert!(MembershipFunction::triangular(1.0, -1.0, 1.0).is_err());
        assert!(MembershipFunction::triangular(1.0, 1.0, -1.0).is_err());
    }

    #[test]
    fn triangular_rejects_non_finite() {
        assert!(MembershipFunction::triangular(f64::NAN, 1.0, 1.0).is_err());
        assert!(MembershipFunction::triangular(0.0, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn trapezoidal_matches_paper_formula() {
        // g(x; x0=0, x1=15, a0=0, a1=15): the paper's "Slow" speed term.
        let mf = MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0).unwrap();
        assert_eq!(mf.evaluate(0.0), 1.0);
        assert_eq!(mf.evaluate(10.0), 1.0);
        assert_eq!(mf.evaluate(15.0), 1.0);
        assert!((mf.evaluate(22.5) - 0.5).abs() < EPS);
        assert_eq!(mf.evaluate(30.0), 0.0);
    }

    #[test]
    fn trapezoidal_flat_top_is_inclusive() {
        let mf = MembershipFunction::trapezoidal(-1.0, 1.0, 1.0, 1.0).unwrap();
        assert_eq!(mf.evaluate(-1.0), 1.0);
        assert_eq!(mf.evaluate(1.0), 1.0);
        assert!((mf.evaluate(-1.5) - 0.5).abs() < EPS);
        assert!((mf.evaluate(1.5) - 0.5).abs() < EPS);
    }

    #[test]
    fn trapezoidal_rejects_inverted_top() {
        assert!(MembershipFunction::trapezoidal(2.0, 1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn degenerate_trapezoid_equals_triangle() {
        let tri = MembershipFunction::triangular(5.0, 2.0, 3.0).unwrap();
        let trap = MembershipFunction::trapezoidal(5.0, 5.0, 2.0, 3.0).unwrap();
        for i in 0..=100 {
            let x = 2.0 + i as f64 * 0.07;
            assert!((tri.evaluate(x) - trap.evaluate(x)).abs() < EPS, "x={x}");
        }
    }

    #[test]
    fn gaussian_peak_and_symmetry() {
        let mf = MembershipFunction::gaussian(2.0, 0.5).unwrap();
        assert_eq!(mf.evaluate(2.0), 1.0);
        assert!((mf.evaluate(1.5) - mf.evaluate(2.5)).abs() < EPS);
        assert!((mf.evaluate(2.5) - (-0.5f64).exp()).abs() < EPS);
    }

    #[test]
    fn gaussian_rejects_bad_sigma() {
        assert!(MembershipFunction::gaussian(0.0, 0.0).is_err());
        assert!(MembershipFunction::gaussian(0.0, -1.0).is_err());
    }

    #[test]
    fn bell_half_width_point() {
        let mf = MembershipFunction::bell(0.0, 2.0, 3.0).unwrap();
        assert_eq!(mf.evaluate(0.0), 1.0);
        assert!((mf.evaluate(2.0) - 0.5).abs() < EPS);
        assert!((mf.evaluate(-2.0) - 0.5).abs() < EPS);
    }

    #[test]
    fn sigmoid_direction_follows_slope_sign() {
        let rising = MembershipFunction::sigmoid(0.0, 2.0).unwrap();
        assert!(rising.evaluate(5.0) > 0.99);
        assert!(rising.evaluate(-5.0) < 0.01);
        let falling = MembershipFunction::sigmoid(0.0, -2.0).unwrap();
        assert!(falling.evaluate(5.0) < 0.01);
        assert!(falling.evaluate(-5.0) > 0.99);
    }

    #[test]
    fn z_and_s_shapes_are_complements() {
        let z = MembershipFunction::z_shape(1.0, 3.0).unwrap();
        let s = MembershipFunction::s_shape(1.0, 3.0).unwrap();
        for i in 0..=40 {
            let x = i as f64 * 0.1;
            assert!((z.evaluate(x) + s.evaluate(x) - 1.0).abs() < EPS, "x={x}");
        }
        assert_eq!(z.evaluate(0.0), 1.0);
        assert_eq!(z.evaluate(4.0), 0.0);
        assert_eq!(s.evaluate(0.0), 0.0);
        assert_eq!(s.evaluate(4.0), 1.0);
    }

    #[test]
    fn singleton_is_a_spike() {
        let mf = MembershipFunction::singleton(7.0).unwrap();
        assert_eq!(mf.evaluate(7.0), 1.0);
        assert_eq!(mf.evaluate(6.999), 0.0);
    }

    #[test]
    fn non_finite_inputs_evaluate_to_zero() {
        let mf = MembershipFunction::triangular(0.0, 1.0, 1.0).unwrap();
        assert_eq!(mf.evaluate(f64::NAN), 0.0);
        assert_eq!(mf.evaluate(f64::INFINITY), 0.0);
        assert_eq!(mf.evaluate(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn support_bounds_contain_positive_membership() {
        let shapes = [
            MembershipFunction::triangular(3.0, 1.0, 2.0).unwrap(),
            MembershipFunction::trapezoidal(1.0, 2.0, 0.5, 0.5).unwrap(),
            MembershipFunction::gaussian(0.0, 1.0).unwrap(),
            MembershipFunction::bell(0.0, 1.0, 2.0).unwrap(),
            MembershipFunction::sigmoid(1.0, 2.0).unwrap(),
            MembershipFunction::sigmoid(1.0, -2.0).unwrap(),
            MembershipFunction::z_shape(1.0, 3.0).unwrap(),
            MembershipFunction::s_shape(1.0, 3.0).unwrap(),
            MembershipFunction::singleton(7.0).unwrap(),
        ];
        for mf in shapes {
            let (lo, hi) = mf.support();
            assert!(lo <= hi, "{mf:?}");
            assert!(mf.evaluate(lo - 1.0) < 1e-5, "{mf:?}");
            assert!(mf.evaluate(hi + 1.0) < 1e-5, "{mf:?}");
            assert!(mf.evaluate(0.5 * (lo.max(-1e9) + hi.min(1e9))) > 0.0, "{mf:?}");
            // A side that reaches membership ~1 is unbounded; a finite
            // side has (near-)zero membership just past it.
            for (bound, probe) in [(lo, -1e9), (hi, 1e9)] {
                if mf.evaluate(probe) > 0.5 {
                    assert!(bound.is_infinite(), "{mf:?} saturates toward {probe}");
                } else {
                    assert!(bound.is_finite(), "{mf:?} vanishes toward {probe}");
                }
            }
        }
    }

    #[test]
    fn representative_matches_peak_region() {
        assert_eq!(MembershipFunction::triangular(4.0, 1.0, 1.0).unwrap().representative(), 4.0);
        assert_eq!(
            MembershipFunction::trapezoidal(2.0, 6.0, 1.0, 1.0).unwrap().representative(),
            4.0
        );
        assert_eq!(MembershipFunction::gaussian(1.5, 1.0).unwrap().representative(), 1.5);
        assert_eq!(MembershipFunction::singleton(9.0).unwrap().representative(), 9.0);
    }

    #[test]
    fn serde_round_trip() {
        let mf = MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0).unwrap();
        let json = serde_json_like(&mf);
        assert!(json.contains("Trapezoidal"));
    }

    /// serde_json is not an allowed dependency; the Debug representation is
    /// enough to confirm the Serialize derive compiles and fields are named.
    fn serde_json_like(mf: &MembershipFunction) -> String {
        format!("{mf:?}")
    }
}
