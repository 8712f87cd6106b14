//! Rotation-angle helpers.
//!
//! Quantum-Fourier-transform style circuits use controlled phase rotations by
//! dyadic fractions of `2*pi`; representing these angles exactly (as a dyadic
//! fraction) rather than as a pre-computed `f64` keeps gate matrices
//! reproducible and lets the circuit printer emit readable angles.

use std::f64::consts::PI;
use std::fmt;

/// An angle in radians, stored exactly when it is a dyadic multiple of `pi`.
///
/// # Examples
///
/// ```
/// use mathkit::Angle;
///
/// let quarter_turn = Angle::pi_over(2);
/// assert!((quarter_turn.radians() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Angle {
    /// `numerator * pi / 2^k` — exact representation used by QFT-style gates.
    DyadicPi {
        /// The numerator multiplying `pi`.
        numerator: i64,
        /// The power-of-two denominator exponent.
        power: u32,
    },
    /// An arbitrary angle in radians.
    Radians(f64),
}

impl Angle {
    /// An angle of zero radians.
    pub const ZERO: Angle = Angle::DyadicPi {
        numerator: 0,
        power: 0,
    };

    /// Creates the angle `pi / 2^(k-1)`, i.e. the controlled-rotation angle
    /// `R_k` used by the Quantum Fourier Transform (`k = 1` is `pi`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn qft_rotation(k: u32) -> Self {
        assert!(k >= 1, "QFT rotation index starts at 1");
        Angle::DyadicPi {
            numerator: 1,
            power: k - 1,
        }
    }

    /// Creates the angle `pi / d` for a power-of-two-friendly divisor.
    ///
    /// For divisors that are not powers of two the angle falls back to the
    /// floating-point representation.
    #[must_use]
    pub fn pi_over(d: u32) -> Self {
        if d.is_power_of_two() {
            Angle::DyadicPi {
                numerator: 1,
                power: d.trailing_zeros(),
            }
        } else {
            Angle::Radians(PI / f64::from(d))
        }
    }

    /// Creates an angle directly from radians.
    #[must_use]
    pub fn radians_value(theta: f64) -> Self {
        Angle::Radians(theta)
    }

    /// The angle in radians.
    #[must_use]
    pub fn radians(&self) -> f64 {
        match *self {
            Angle::DyadicPi { numerator, power } => {
                numerator as f64 * PI / (1u64 << power.min(62)) as f64
            }
            Angle::Radians(theta) => theta,
        }
    }

    /// The negated angle.
    #[must_use]
    pub fn negated(&self) -> Self {
        match *self {
            Angle::DyadicPi { numerator, power } => Angle::DyadicPi {
                numerator: -numerator,
                power,
            },
            Angle::Radians(theta) => Angle::Radians(-theta),
        }
    }
}

impl Default for Angle {
    fn default() -> Self {
        Angle::ZERO
    }
}

impl From<f64> for Angle {
    fn from(theta: f64) -> Self {
        Angle::Radians(theta)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Angle::DyadicPi { numerator: 0, .. } => write!(f, "0"),
            Angle::DyadicPi {
                numerator,
                power: 0,
            } => write!(f, "{numerator}*pi"),
            Angle::DyadicPi { numerator, power } => {
                write!(f, "{numerator}*pi/{}", 1u64 << power)
            }
            Angle::Radians(theta) => write!(f, "{theta}"),
        }
    }
}

/// Returns the phase angle `2*pi * 0.b_1 b_2 ... b_m` encoded by the binary
/// fraction given as a slice of bits (most significant first).
///
/// This is the phase accumulated on a QFT counting register and is used by
/// tests to validate the QFT circuit generator.
///
/// # Examples
///
/// ```
/// // 0.1 in binary is one half, so the angle is pi.
/// let theta = mathkit::binary_angle(&[true]);
/// assert!((theta - std::f64::consts::PI).abs() < 1e-15);
/// ```
#[must_use]
pub fn binary_angle(bits: &[bool]) -> f64 {
    let mut frac = 0.0;
    let mut scale = 0.5;
    for &b in bits {
        if b {
            frac += scale;
        }
        scale *= 0.5;
    }
    2.0 * PI * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qft_rotation_angles() {
        assert!((Angle::qft_rotation(1).radians() - PI).abs() < 1e-15);
        assert!((Angle::qft_rotation(2).radians() - PI / 2.0).abs() < 1e-15);
        assert!((Angle::qft_rotation(3).radians() - PI / 4.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "starts at 1")]
    fn qft_rotation_zero_panics() {
        let _ = Angle::qft_rotation(0);
    }

    #[test]
    fn pi_over_power_of_two_is_exact() {
        match Angle::pi_over(8) {
            Angle::DyadicPi { numerator, power } => {
                assert_eq!(numerator, 1);
                assert_eq!(power, 3);
            }
            Angle::Radians(_) => panic!("expected exact representation"),
        }
        assert!((Angle::pi_over(3).radians() - PI / 3.0).abs() < 1e-15);
    }

    #[test]
    fn negation_and_default() {
        assert_eq!(Angle::default().radians(), 0.0);
        assert!((Angle::pi_over(2).negated().radians() + PI / 2.0).abs() < 1e-15);
        assert_eq!(Angle::Radians(1.5).negated(), Angle::Radians(-1.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Angle::ZERO.to_string(), "0");
        assert_eq!(Angle::qft_rotation(1).to_string(), "1*pi");
        assert_eq!(Angle::qft_rotation(3).to_string(), "1*pi/4");
        assert_eq!(Angle::Radians(0.5).to_string(), "0.5");
    }

    #[test]
    fn binary_angle_examples() {
        assert_eq!(binary_angle(&[]), 0.0);
        assert!((binary_angle(&[true]) - PI).abs() < 1e-15);
        assert!((binary_angle(&[false, true]) - PI / 2.0).abs() < 1e-15);
        assert!((binary_angle(&[true, true]) - 3.0 * PI / 2.0).abs() < 1e-15);
    }

    #[test]
    fn from_f64_conversion() {
        let a: Angle = 0.25.into();
        assert_eq!(a.radians(), 0.25);
    }
}
