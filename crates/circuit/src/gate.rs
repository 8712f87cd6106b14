//! The single-qubit gate alphabet.

use mathkit::{Angle, Complex, SQRT1_2};
use std::fmt;

/// A single-qubit gate with an exact 2×2 unitary matrix.
///
/// The alphabet covers everything the benchmark generators need: the
/// Pauli gates, Hadamard, the phase-gate family (`S`, `T`, arbitrary
/// [`Phase`](OneQubitGate::Phase)), square roots of `X`/`Y` (used by the
/// supremacy circuits), and the rotation gates `Rx`, `Ry`, `Rz`.
///
/// # Examples
///
/// ```
/// use circuit::OneQubitGate;
///
/// let h = OneQubitGate::H.matrix();
/// // H is its own inverse: H*H = I.
/// let m00 = h[0][0] * h[0][0] + h[0][1] * h[1][0];
/// assert!((m00.re - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OneQubitGate {
    /// The identity gate.
    I,
    /// The Pauli-X (NOT) gate.
    X,
    /// The Pauli-Y gate.
    Y,
    /// The Pauli-Z gate.
    Z,
    /// The Hadamard gate.
    H,
    /// The S gate (`sqrt(Z)`).
    S,
    /// The inverse S gate.
    Sdg,
    /// The T gate (`Z^(1/4)`).
    T,
    /// The inverse T gate.
    Tdg,
    /// The square root of X (`sqrt(X)`), used by supremacy circuits.
    SqrtX,
    /// The inverse square root of X.
    SqrtXdg,
    /// The square root of Y (`sqrt(Y)`), used by supremacy circuits.
    SqrtY,
    /// The inverse square root of Y.
    SqrtYdg,
    /// A phase gate `diag(1, e^{i theta})`.
    Phase(Angle),
    /// A rotation about the X axis by the given angle.
    Rx(Angle),
    /// A rotation about the Y axis by the given angle.
    Ry(Angle),
    /// A rotation about the Z axis by the given angle.
    Rz(Angle),
    /// The generic single-qubit gate `U(theta, phi, lambda)` of OpenQASM.
    U {
        /// Polar rotation angle.
        theta: Angle,
        /// Phase applied to the |1> component of the input.
        phi: Angle,
        /// Phase applied to the |1> component of the output.
        lambda: Angle,
    },
}

/// A 2×2 complex matrix in row-major order: `m[row][column]`.
pub type Matrix2 = [[Complex; 2]; 2];

impl OneQubitGate {
    /// The 2×2 unitary matrix of the gate.
    #[must_use]
    pub fn matrix(&self) -> Matrix2 {
        let zero = Complex::ZERO;
        let one = Complex::ONE;
        let i = Complex::I;
        let h = Complex::from_real(SQRT1_2);
        match *self {
            OneQubitGate::I => [[one, zero], [zero, one]],
            OneQubitGate::X => [[zero, one], [one, zero]],
            OneQubitGate::Y => [[zero, -i], [i, zero]],
            OneQubitGate::Z => [[one, zero], [zero, -one]],
            OneQubitGate::H => [[h, h], [h, -h]],
            OneQubitGate::S => [[one, zero], [zero, i]],
            OneQubitGate::Sdg => [[one, zero], [zero, -i]],
            OneQubitGate::T => [
                [one, zero],
                [zero, Complex::phase(std::f64::consts::FRAC_PI_4)],
            ],
            OneQubitGate::Tdg => [
                [one, zero],
                [zero, Complex::phase(-std::f64::consts::FRAC_PI_4)],
            ],
            OneQubitGate::SqrtX => {
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(0.5, -0.5);
                [[p, m], [m, p]]
            }
            OneQubitGate::SqrtXdg => {
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(0.5, -0.5);
                [[m, p], [p, m]]
            }
            OneQubitGate::SqrtY => {
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(-0.5, -0.5);
                [[p, m], [-m, p]]
            }
            OneQubitGate::SqrtYdg => {
                let p = Complex::new(0.5, -0.5);
                let m = Complex::new(0.5, -0.5);
                [[p, m], [-m, p]]
            }
            OneQubitGate::Phase(theta) => [[one, zero], [zero, Complex::phase(theta.radians())]],
            OneQubitGate::Rx(theta) => {
                let half = theta.radians() / 2.0;
                let c = Complex::from_real(half.cos());
                let s = Complex::new(0.0, -half.sin());
                [[c, s], [s, c]]
            }
            OneQubitGate::Ry(theta) => {
                let half = theta.radians() / 2.0;
                let c = Complex::from_real(half.cos());
                let s = Complex::from_real(half.sin());
                [[c, -s], [s, c]]
            }
            OneQubitGate::Rz(theta) => {
                let half = theta.radians() / 2.0;
                [[Complex::phase(-half), zero], [zero, Complex::phase(half)]]
            }
            OneQubitGate::U { theta, phi, lambda } => {
                let t = theta.radians() / 2.0;
                let (c, s) = (t.cos(), t.sin());
                let phi = phi.radians();
                let lambda = lambda.radians();
                [
                    [Complex::from_real(c), -Complex::phase(lambda) * s],
                    [Complex::phase(phi) * s, Complex::phase(phi + lambda) * c],
                ]
            }
        }
    }

    /// The adjoint (inverse) gate.
    #[must_use]
    pub fn adjoint(&self) -> OneQubitGate {
        match *self {
            OneQubitGate::S => OneQubitGate::Sdg,
            OneQubitGate::Sdg => OneQubitGate::S,
            OneQubitGate::T => OneQubitGate::Tdg,
            OneQubitGate::Tdg => OneQubitGate::T,
            OneQubitGate::SqrtX => OneQubitGate::SqrtXdg,
            OneQubitGate::SqrtXdg => OneQubitGate::SqrtX,
            OneQubitGate::SqrtY => OneQubitGate::SqrtYdg,
            OneQubitGate::SqrtYdg => OneQubitGate::SqrtY,
            OneQubitGate::Phase(a) => OneQubitGate::Phase(a.negated()),
            OneQubitGate::Rx(a) => OneQubitGate::Rx(a.negated()),
            OneQubitGate::Ry(a) => OneQubitGate::Ry(a.negated()),
            OneQubitGate::Rz(a) => OneQubitGate::Rz(a.negated()),
            OneQubitGate::U { theta, phi, lambda } => OneQubitGate::U {
                theta: theta.negated(),
                phi: lambda.negated(),
                lambda: phi.negated(),
            },
            g @ (OneQubitGate::I
            | OneQubitGate::X
            | OneQubitGate::Y
            | OneQubitGate::Z
            | OneQubitGate::H) => g,
        }
    }

    /// Returns `true` if the gate matrix is diagonal, which lets simulators
    /// skip work (diagonal gates never change the branching structure of a
    /// decision diagram).
    #[must_use]
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            OneQubitGate::I
                | OneQubitGate::Z
                | OneQubitGate::S
                | OneQubitGate::Sdg
                | OneQubitGate::T
                | OneQubitGate::Tdg
                | OneQubitGate::Phase(_)
                | OneQubitGate::Rz(_)
        )
    }

    /// The lowercase OpenQASM-style mnemonic of the gate.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            OneQubitGate::I => "id",
            OneQubitGate::X => "x",
            OneQubitGate::Y => "y",
            OneQubitGate::Z => "z",
            OneQubitGate::H => "h",
            OneQubitGate::S => "s",
            OneQubitGate::Sdg => "sdg",
            OneQubitGate::T => "t",
            OneQubitGate::Tdg => "tdg",
            OneQubitGate::SqrtX => "sx",
            OneQubitGate::SqrtXdg => "sxdg",
            OneQubitGate::SqrtY => "sy",
            OneQubitGate::SqrtYdg => "sydg",
            OneQubitGate::Phase(_) => "p",
            OneQubitGate::Rx(_) => "rx",
            OneQubitGate::Ry(_) => "ry",
            OneQubitGate::Rz(_) => "rz",
            OneQubitGate::U { .. } => "u",
        }
    }
}

impl fmt::Display for OneQubitGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OneQubitGate::Phase(a)
            | OneQubitGate::Rx(a)
            | OneQubitGate::Ry(a)
            | OneQubitGate::Rz(a) => {
                write!(f, "{}({})", self.name(), a)
            }
            OneQubitGate::U { theta, phi, lambda } => {
                write!(f, "u({theta},{phi},{lambda})")
            }
            _ => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::Angle;

    const EPS: f64 = 1e-12;

    fn mat_mul(a: &Matrix2, b: &Matrix2) -> Matrix2 {
        let mut out = [[Complex::ZERO; 2]; 2];
        for r in 0..2 {
            for c in 0..2 {
                out[r][c] = a[r][0] * b[0][c] + a[r][1] * b[1][c];
            }
        }
        out
    }

    fn adjoint_mat(a: &Matrix2) -> Matrix2 {
        [
            [a[0][0].conj(), a[1][0].conj()],
            [a[0][1].conj(), a[1][1].conj()],
        ]
    }

    fn assert_identity(m: &Matrix2) {
        assert!((m[0][0] - Complex::ONE).norm() < EPS, "m00 = {}", m[0][0]);
        assert!((m[1][1] - Complex::ONE).norm() < EPS, "m11 = {}", m[1][1]);
        assert!(m[0][1].norm() < EPS, "m01 = {}", m[0][1]);
        assert!(m[1][0].norm() < EPS, "m10 = {}", m[1][0]);
    }

    fn all_gates() -> Vec<OneQubitGate> {
        vec![
            OneQubitGate::I,
            OneQubitGate::X,
            OneQubitGate::Y,
            OneQubitGate::Z,
            OneQubitGate::H,
            OneQubitGate::S,
            OneQubitGate::Sdg,
            OneQubitGate::T,
            OneQubitGate::Tdg,
            OneQubitGate::SqrtX,
            OneQubitGate::SqrtXdg,
            OneQubitGate::SqrtY,
            OneQubitGate::SqrtYdg,
            OneQubitGate::Phase(Angle::pi_over(8)),
            OneQubitGate::Rx(Angle::Radians(0.37)),
            OneQubitGate::Ry(Angle::Radians(1.2)),
            OneQubitGate::Rz(Angle::Radians(-0.9)),
            OneQubitGate::U {
                theta: Angle::Radians(0.4),
                phi: Angle::Radians(0.8),
                lambda: Angle::Radians(-1.3),
            },
        ]
    }

    #[test]
    fn every_gate_is_unitary() {
        for g in all_gates() {
            let m = g.matrix();
            let prod = mat_mul(&adjoint_mat(&m), &m);
            assert_identity(&prod);
        }
    }

    #[test]
    fn adjoint_inverts_every_gate() {
        for g in all_gates() {
            let prod = mat_mul(&g.adjoint().matrix(), &g.matrix());
            assert_identity(&prod);
        }
    }

    #[test]
    fn sqrt_gates_square_to_paulis() {
        let sx2 = mat_mul(&OneQubitGate::SqrtX.matrix(), &OneQubitGate::SqrtX.matrix());
        let x = OneQubitGate::X.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((sx2[r][c] - x[r][c]).norm() < EPS);
            }
        }
        let sy2 = mat_mul(&OneQubitGate::SqrtY.matrix(), &OneQubitGate::SqrtY.matrix());
        let y = OneQubitGate::Y.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((sy2[r][c] - y[r][c]).norm() < EPS);
            }
        }
    }

    #[test]
    fn s_is_z_to_the_half_and_t_is_z_to_the_quarter() {
        let s2 = mat_mul(&OneQubitGate::S.matrix(), &OneQubitGate::S.matrix());
        let z = OneQubitGate::Z.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((s2[r][c] - z[r][c]).norm() < EPS);
            }
        }
        let t2 = mat_mul(&OneQubitGate::T.matrix(), &OneQubitGate::T.matrix());
        let s = OneQubitGate::S.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((t2[r][c] - s[r][c]).norm() < EPS);
            }
        }
    }

    #[test]
    fn phase_gate_matches_rz_up_to_global_phase() {
        let theta = 0.77;
        let p = OneQubitGate::Phase(Angle::Radians(theta)).matrix();
        let rz = OneQubitGate::Rz(Angle::Radians(theta)).matrix();
        // p = e^{i theta/2} rz
        let global = Complex::phase(theta / 2.0);
        for r in 0..2 {
            for c in 0..2 {
                assert!((p[r][c] - global * rz[r][c]).norm() < EPS);
            }
        }
    }

    #[test]
    fn u_gate_special_cases() {
        // U(0, 0, lambda) is a phase gate.
        let lambda = 0.3;
        let u = OneQubitGate::U {
            theta: Angle::ZERO,
            phi: Angle::ZERO,
            lambda: Angle::Radians(lambda),
        }
        .matrix();
        let p = OneQubitGate::Phase(Angle::Radians(lambda)).matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((u[r][c] - p[r][c]).norm() < EPS);
            }
        }
        // U(pi/2, 0, pi) is Hadamard.
        let u = OneQubitGate::U {
            theta: Angle::pi_over(2),
            phi: Angle::ZERO,
            lambda: Angle::DyadicPi {
                numerator: 1,
                power: 0,
            },
        }
        .matrix();
        let h = OneQubitGate::H.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((u[r][c] - h[r][c]).norm() < EPS);
            }
        }
    }

    #[test]
    fn diagonal_classification() {
        assert!(OneQubitGate::Z.is_diagonal());
        assert!(OneQubitGate::T.is_diagonal());
        assert!(OneQubitGate::Rz(Angle::Radians(0.1)).is_diagonal());
        assert!(!OneQubitGate::X.is_diagonal());
        assert!(!OneQubitGate::H.is_diagonal());
    }

    #[test]
    fn names_and_display() {
        assert_eq!(OneQubitGate::H.name(), "h");
        assert_eq!(OneQubitGate::H.to_string(), "h");
        assert_eq!(
            OneQubitGate::Phase(Angle::pi_over(4)).to_string(),
            "p(1*pi/4)"
        );
        assert_eq!(OneQubitGate::SqrtX.name(), "sx");
    }
}
