//! Gottesman–Knill stabilizer-tableau simulation of Clifford circuits.
//!
//! By the Gottesman–Knill theorem, circuits built from the Clifford gate set
//! are classically simulable in polynomial time: an `n`-qubit stabilizer
//! state is represented not by `2^n` amplitudes but by the `n` Pauli
//! generators of its stabilizer group, and every Clifford gate updates those
//! generators in `O(n)` bit operations.  This crate implements the CHP-style
//! tableau of Aaronson and Gottesman (*"Improved simulation of stabilizer
//! circuits"*): `2n` generator rows — `n` destabilizers plus `n` stabilizers
//! — stored as bit-packed X/Z matrices with a sign bit per row, so a
//! thousand-qubit Clifford circuit fits in a few hundred kilobytes and runs
//! in microseconds.
//!
//! # The Clifford gate set
//!
//! [`lower`] is the workspace's one Clifford test: it decides from each
//! gate's matrix, and the `weaksim` router sends a circuit to the tableau
//! only when every operation lowers.  [`lower`] (and so
//! [`apply_operation`]) accepts:
//!
//! * every single-qubit gate in the Clifford group: `I`, `X`, `Y`, `Z`,
//!   `H`, `S`, `Sdg`, `SqrtX`, `SqrtXdg`, `SqrtY`, `SqrtYdg`, and every
//!   parametric `Phase`/`Rx`/`Ry`/`Rz`/`U` whose matrix equals a Clifford
//!   up to global phase, entry by entry within
//!   [`mathkit::DEFAULT_TOLERANCE`]: rotations by multiples of `pi/2`, and
//!   also off-grid angles that cancel, like `u(0, pi/4, pi/4) = S`.  Each
//!   is resolved by matrix matching against the 24 single-qubit Clifford
//!   classes: a Pauli class to the Pauli itself, so `rz(pi)` runs as `Z`,
//!   any other to a product of the tableau's `H`/`S` primitives, so
//!   `rz(pi/2)` runs as `S`, both up to global phase;
//! * singly-controlled Paulis up to a power-of-`i` phase: `CX`, `CY`, `CZ`
//!   and phase-equivalents like controlled-`Rz(pi)` (the `i^k` factor
//!   becomes an `S^k` on the control);
//! * uncontrolled `SWAP`;
//! * computational-basis [`Measure`](circuit::Operation::Measure) and
//!   [`Reset`](circuit::Operation::Reset), plus classically-
//!   [`Conditioned`](circuit::Operation::Conditioned) forms of all of the
//!   above, resolved against the shot's classical record.
//!
//! Anything else — `T`, rotations off the `pi/2` grid (a near-Clifford
//! like `rz(pi/2 + 1e-9)` included: it is never rounded onto `S`),
//! multi-controlled gates, permutations, amplitude damping — fails with
//! [`TableauError::NotClifford`]; callers (the `weaksim` router) fall back
//! to a dense backend.
//!
//! # Measurement semantics
//!
//! Measuring qubit `q` follows the CHP rules ([`Tableau::measure`]):
//!
//! * if some stabilizer generator anticommutes with `Z_q` (its X-bit at `q`
//!   is set — equivalently, the symplectic rank test finds `Z_q` outside
//!   the stabilizer span), the outcome is **random**: a fair bit is drawn,
//!   the anticommuting generator is replaced by `±Z_q`, and every other
//!   anticommuting row is multiplied by the replaced generator;
//! * otherwise the outcome is **deterministic**: `±Z_q` lies in the
//!   stabilizer group, and its sign — reconstructed in the scratch row from
//!   the destabilizer decomposition — is the outcome, with no state change.
//!
//! [`Tableau::reset`] is measure-then-flip, and Pauli noise channels
//! (bit/phase flip, depolarizing) are realized as **frame flips**
//! ([`Tableau::apply_pauli`]; on the trajectory path,
//! [`SignProgram::apply_pauli`]): a sampled `X`/`Y`/`Z` only toggles `O(n)`
//! row signs, so noisy stabilizer trajectories stay polynomial.
//!
//! # Sampling
//!
//! Terminal full-register sampling goes through
//! [`Tableau::measurement_sampler`]: the support of a stabilizer state in
//! the computational basis is an affine subspace `c XOR span(B)` over which
//! the outcome distribution is *uniform*, so the sampler finds one
//! reference outcome `c` and a basis `B` of the X-row space of the
//! stabilizer generators once, by one Gaussian elimination of the
//! generators over GF(2) on a clone, after which every shot is `|B|` coin
//! flips and word-XORs — independent of circuit depth.  `c` is the support
//! element that is 0 at every pivot of `B`: the lexicographically smallest
//! one, read from qubit 0.
//!
//! # Sign programs
//!
//! Many shots of one Clifford trajectory need not step a tableau each.
//! Every update rule above changes the X/Z bits as a function of the X/Z
//! bits alone: gates permute and XOR columns, a random-outcome collapse
//! picks its pivot from the X bits and multiplies rows together (the row
//! *product* does not depend on the signs), and the collapsed row becomes
//! `±Z_q` whichever sign is drawn.  Paulis, deterministic outcomes and the
//! drawn bit touch only signs.  So as long as the *sequence* of operations
//! is the same on every shot, so is the structure, and each step acts on
//! the signs as a fixed XOR — affine over GF(2):
//!
//! * a unitary segment XORs one mask (the sign flips its gates produce),
//!   and a Pauli — a noise branch, or a gate conditioned on the record —
//!   XORs the mask of rows that anticommute with it;
//! * a random collapse on stabilizer `p`: every other row that absorbs row
//!   `p` flips by `p`'s sign plus a constant from the Pauli product, and
//!   `p`'s sign becomes the drawn bit; a deterministic outcome is the
//!   parity of the signs of the stabilizers in `Z_q`'s decomposition, plus
//!   a constant; a reset adds the `X` flip mask on outcome 1;
//! * the terminal read-out keeps the final structure's
//!   [`MeasurementSampler`] basis, and its reference element — found by
//!   multiplying stabilizer rows together, so itself affine in the signs —
//!   becomes one parity mask per qubit.
//!
//! [`SignCompiler`] walks the steps once on a structure-only tableau
//! (signs cleared after each step, so each step's sign change is read off
//! directly) and emits a [`SignProgram`]; a shot is then a copy of the
//! base signs and a few word XORs per step, and given the same outcomes it
//! is bit-identical to stepping a full tableau.  Only the `n` stabilizer
//! signs are tracked: destabilizer signs are never read by a measurement,
//! a collapse or the read-out.
//!
//! What cannot be compiled is whatever makes the structure depend on the
//! shot: a classically-conditioned gate that is not a Pauli (it changes
//! the X/Z bits only on shots whose record satisfies the guard), and a
//! conditioned measurement or reset (likewise).
//! [`Lowered::fixes_structure`] is that test; the compiler fails with
//! [`TableauError::NotSignCompilable`], and the `weaksim` router declines
//! such circuits up front.  Every use of the tableau — the router's dry
//! run, static preparation, [`apply_operation`] and the compiler — goes
//! through the same [`lower`] pass.
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, Qubit};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // A 500-qubit GHZ state: far beyond dense simulation, instant here.
//! let mut ghz = Circuit::new(500);
//! ghz.h(Qubit(0));
//! for q in 1..500 {
//!     ghz.cx(Qubit(q - 1), Qubit(q));
//! }
//! let mut rng = SmallRng::seed_from_u64(7);
//! let (tab, _record) = tableau::simulate(&ghz, &mut rng)?;
//! let sampler = tab.measurement_sampler();
//! let shot = sampler.sample_words(&mut rng);
//! // All 500 bits agree: the outcome is all-zeros or all-ones.
//! let all_zeros = shot.iter().all(|&w| w == 0);
//! let all_ones = shot[..7].iter().all(|&w| w == u64::MAX) && shot[7] == (1u64 << 52) - 1;
//! assert!(all_zeros || all_ones);
//! # Ok::<(), tableau::TableauError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod apply;
mod program;
mod sample;
mod state;

pub use apply::{apply_circuit, apply_operation, lower, simulate, Lowered, TableauError};
pub use program::{SignCompiler, SignProgram};
pub use sample::MeasurementSampler;
pub use state::{Gate, Pauli, Tableau};
