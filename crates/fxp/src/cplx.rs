//! Floating-point complex baseband samples: the I/Q pairs that cross the
//! paper's hardware/software boundary (§1, §3), used by the mapper, the
//! FFT and every channel model.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number over `f64`.
///
/// The arithmetic ops are `#[inline]`: they are the innermost operations
/// of every FFT butterfly in `wilis-phy`, and must stay inlinable across
/// the crate boundary even in builds without LTO.
///
/// # Example
///
/// ```
/// use wilis_fxp::Cplx;
///
/// let a = Cplx::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!((a * a.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real (in-phase) part.
    pub re: f64,
    /// Imaginary (quadrature) part.
    pub im: f64,
}

impl Cplx {
    /// Complex zero.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// Complex one.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Cplx = Cplx { re: 0.0, im: 1.0 };

    /// Builds a complex number from rectangular parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^(i theta)`: the unit phasor at angle `theta` radians.
    #[inline]
    pub fn from_polar(magnitude: f64, theta: f64) -> Self {
        Self {
            re: magnitude * theta.cos(),
            im: magnitude * theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Cplx {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Cplx {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Cplx {
    type Output = Cplx;
    /// Complex division.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when dividing by zero (produces non-finite
    /// parts in release, as IEEE arithmetic does).
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sq();
        debug_assert!(d > 0.0, "complex division by zero");
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Sum for Cplx {
    fn sum<I: Iterator<Item = Cplx>>(iter: I) -> Self {
        iter.fold(Cplx::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Cplx {
    #[inline]
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

impl fmt::Display for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Cplx::new(1.5, -2.0);
        assert_eq!(a + Cplx::ZERO, a);
        assert_eq!(a * Cplx::ONE, a);
        assert_eq!(a - a, Cplx::ZERO);
        assert_eq!(-(-a), a);
        assert_eq!(a * Cplx::I, Cplx::new(2.0, 1.5));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Cplx::new(3.0, -1.0);
        let b = Cplx::new(0.5, 2.0);
        let q = (a * b) / b;
        assert!((q - a).norm() < 1e-12);
    }

    #[test]
    fn polar_roundtrip() {
        let a = Cplx::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((a.norm() - 2.0).abs() < 1e-12);
        assert!((a.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Cplx = (0..4).map(|k| Cplx::new(k as f64, 1.0)).sum();
        assert_eq!(total, Cplx::new(6.0, 4.0));
    }

    #[test]
    fn conj_mul_is_norm_sq() {
        let a = Cplx::new(-2.5, 4.0);
        let p = a * a.conj();
        assert!((p.re - a.norm_sq()).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
    }

    #[test]
    fn from_real_and_scale() {
        let a: Cplx = 3.0.into();
        assert_eq!(a, Cplx::new(3.0, 0.0));
        assert_eq!(a.scale(2.0), Cplx::new(6.0, 0.0));
    }
}
