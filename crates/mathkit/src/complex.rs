//! A minimal `f64` complex number type.
//!
//! The simulator only needs a handful of operations (addition,
//! multiplication, conjugation, squared magnitude), so a small local type is
//! preferable to pulling in an external numeric crate.  The type is `Copy`
//! and `#[repr(C)]` so it can be stored densely in state vectors.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use mathkit::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, -Complex::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    ///
    /// # Examples
    ///
    /// ```
    /// let z = mathkit::Complex::new(3.0, -4.0);
    /// assert_eq!(z.norm(), 5.0);
    /// ```
    #[inline]
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    #[must_use]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mathkit::Complex;
    /// let z = Complex::from_polar(1.0, std::f64::consts::PI);
    /// assert!((z - Complex::new(-1.0, 0.0)).norm() < 1e-15);
    /// ```
    #[inline]
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Returns `e^{i theta}`, a unit-magnitude phase factor.
    #[inline]
    #[must_use]
    pub fn phase(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// The squared magnitude `|z|^2 = re^2 + im^2`.
    ///
    /// This is the quantity that quantum measurement probabilities are made
    /// of, so it has a dedicated, division-free accessor.
    #[inline]
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `|z|`.
    #[inline]
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The argument (angle) of the complex number in radians, in `(-pi, pi]`.
    #[inline]
    #[must_use]
    pub fn arg(&self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The complex conjugate `re - i*im`.
    #[inline]
    #[must_use]
    pub fn conj(&self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// The multiplicative inverse `1/z`.
    ///
    /// Returns [`Complex::ZERO`] when `self` is exactly zero rather than
    /// producing NaNs; callers in the simulator never divide by an exact
    /// zero, but benchmark-generated circuits should not be able to poison
    /// the numeric state.
    #[inline]
    #[must_use]
    pub fn recip(&self) -> Self {
        let d = self.norm_sqr();
        if d == 0.0 {
            return Self::ZERO;
        }
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Multiplies by a real scalar.
    #[inline]
    #[must_use]
    pub fn scale(&self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` if both parts are exactly zero.
    #[inline]
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }

    /// Returns `true` if either part is NaN.
    #[inline]
    #[must_use]
    pub fn is_nan(&self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Returns `true` if `self` and `other` agree within `tol` componentwise.
    #[inline]
    #[must_use]
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// The square root of the complex number (principal branch).
    #[must_use]
    pub fn sqrt(&self) -> Self {
        let r = self.norm();
        let theta = self.arg();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im == 0.0 {
            write!(f, "{}", self.re)
        } else if self.re == 0.0 {
            write!(f, "{}i", self.im)
        } else if self.im < 0.0 {
            write!(f, "{}{}i", self.re, self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl From<(f64, f64)> for Complex {
    fn from((re, im): (f64, f64)) -> Self {
        Self::new(re, im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, Add::add)
    }
}

impl Product for Complex {
    fn product<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ONE, Mul::mul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn constructors_and_accessors() {
        let z = Complex::new(1.5, -2.5);
        assert_eq!(z.re, 1.5);
        assert_eq!(z.im, -2.5);
        assert_eq!(Complex::from_real(3.0), Complex::new(3.0, 0.0));
        assert_eq!(Complex::from(2.0), Complex::new(2.0, 0.0));
        assert_eq!(Complex::from((1.0, 2.0)), Complex::new(1.0, 2.0));
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 0.25);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a - a, Complex::ZERO);
        assert!((a * b - b * a).norm() < EPS);
        assert!(((a + b) - (b + a)).norm() < EPS);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, -Complex::ONE);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(0.3, -0.7);
        let b = Complex::new(1.1, 0.9);
        let c = a * b;
        assert!((c / b - a).norm() < EPS);
        assert!((b * b.recip() - Complex::ONE).norm() < EPS);
    }

    #[test]
    fn recip_of_zero_is_zero() {
        assert_eq!(Complex::ZERO.recip(), Complex::ZERO);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.norm() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn phase_has_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            assert!((Complex::phase(theta).norm() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex::new(0.6, 0.8);
        assert!((z * z.conj() - Complex::from_real(z.norm_sqr())).norm() < EPS);
        assert_eq!(z.conj().conj(), z);
    }

    #[test]
    fn sqrt_squares_back() {
        let z = Complex::new(-1.0, 0.5);
        let s = z.sqrt();
        assert!((s * s - z).norm() < 1e-10);
    }

    #[test]
    fn norm_sqr_matches_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Complex::new(1.0, 0.0).to_string(), "1");
        assert_eq!(Complex::new(0.0, -1.0).to_string(), "-1i");
        assert_eq!(Complex::new(1.0, 1.0).to_string(), "1+1i");
        assert_eq!(Complex::new(1.0, -1.0).to_string(), "1-1i");
    }

    #[test]
    fn sum_and_product_impls() {
        let v = [Complex::ONE, Complex::I, Complex::new(2.0, 0.0)];
        let s: Complex = v.iter().copied().sum();
        assert_eq!(s, Complex::new(3.0, 1.0));
        let p: Complex = v.iter().copied().product();
        assert_eq!(p, Complex::new(0.0, 2.0));
    }

    #[test]
    fn approx_helpers() {
        let a = Complex::new(1.0, 1.0);
        let b = Complex::new(1.0 + 1e-14, 1.0 - 1e-14);
        assert!(a.approx_eq(&b, 1e-12));
        assert!(!a.approx_eq(&b, 1e-16));
    }

    #[test]
    fn scalar_multiplication() {
        let z = Complex::new(1.0, -2.0);
        assert_eq!(z * 2.0, Complex::new(2.0, -4.0));
        assert_eq!(2.0 * z, Complex::new(2.0, -4.0));
        assert_eq!(z / 2.0, Complex::new(0.5, -1.0));
    }

    #[test]
    fn nan_and_finite_checks() {
        assert!(Complex::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex::ONE.is_nan());
        assert!(Complex::ONE.is_finite());
        assert!(!Complex::new(f64::INFINITY, 0.0).is_finite());
    }
}
