//! Numeric substrate for the weak-simulation reproduction.
//!
//! This crate provides the low-level numeric machinery shared by the
//! decision-diagram engine ([`dd`](https://docs.rs/dd)) and the dense
//! statevector engine:
//!
//! * [`Complex`] — a small, `Copy`, `f64`-based complex number type with the
//!   operations needed by quantum-circuit simulation (no external numeric
//!   dependency).
//! * [`CTable`] — a canonical *complex value table* that interns complex
//!   numbers under a numerical tolerance, following the implementation
//!   strategy of Zulehner, Hillmich and Wille (ICCAD 2019, reference \[24\]
//!   of the paper).  Interning is what allows structurally equal
//!   decision-diagram nodes to be detected by hashing even in the presence of
//!   floating-point round-off.
//! * [`KahanSum`] — compensated summation used when accumulating probability
//!   mass over exponentially many amplitudes (prefix sums) so that the total
//!   stays close to 1 even for billions of additions.
//! * [`FxHasher`]/[`FxHashMap`] — a tiny, fast, deterministic hash function
//!   (in the spirit of the Firefox/rustc `FxHash`) so the hot unique-table and
//!   compute-table lookups do not pay SipHash costs and no external hashing
//!   crate is required.
//! * [`SnapshotReader`] — the bounds-checked little-endian reader every
//!   snapshot decoder shares.
//!
//! # Examples
//!
//! ```
//! use mathkit::Complex;
//!
//! let h = Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
//! let one = h * h + h * h;
//! assert!((one - Complex::ONE).norm() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod angle;
mod complex;
mod ctable;
mod hash;
mod kahan;
mod snapshot;
mod tolerance;

pub use angle::{binary_angle, Angle};
pub use complex::Complex;
pub use ctable::{CTable, CTableStats, ValueId};
pub use hash::{
    hash_f64, hash_finish, hash_mix, hash_u64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher,
    HASH_AVALANCHE,
};
pub use kahan::{compensated_sum, KahanSum};
pub use snapshot::SnapshotReader;
pub use tolerance::{approx_eq, approx_eq_with, Tolerance, DEFAULT_TOLERANCE};

/// The square root of one half, `1/sqrt(2)`, the most common amplitude
/// magnitude in quantum computing (produced by the Hadamard gate).
pub const SQRT1_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
