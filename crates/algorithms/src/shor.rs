//! Shor order-finding circuits (`shor_N_a` benchmarks).
//!
//! The paper's `shor_33_2`, `shor_221_4`, … benchmarks are the
//! order-finding circuits at the heart of Shor's factoring algorithm.  The
//! substitution documented in `DESIGN.md` applies: the controlled modular
//! multiplications are expressed as controlled basis-state
//! [`Permutation`]s of the work register rather than
//! as adder networks.  This keeps the generator self-contained while
//! exercising exactly the same simulation and sampling code paths, and it
//! reproduces the qubit counts of Table I (`3 * ceil(log2(N))`).

use circuit::{Circuit, Permutation, Qubit};

/// Parameters of a generated Shor order-finding circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShorSpec {
    /// The number to factor.
    pub modulus: u64,
    /// The coprime base whose multiplicative order is estimated.
    pub base: u64,
    /// Bits of the work register (`ceil(log2(modulus))`).
    pub work_bits: u16,
    /// Bits of the counting register (`2 * work_bits`).
    pub counting_bits: u16,
    /// The multiplicative order of `base` modulo `modulus` (computed
    /// classically for validation).
    pub order: u64,
}

impl ShorSpec {
    /// Total number of qubits of the circuit.
    #[must_use]
    pub fn total_qubits(&self) -> u16 {
        self.work_bits + self.counting_bits
    }
}

/// Builds the order-finding circuit for factoring `modulus` with the coprime
/// `base` (the `shor_<modulus>_<base>` benchmarks of the paper).
///
/// Layout: the work register occupies qubits `0..n`, the counting register
/// qubits `n..3n` where `n = ceil(log2(modulus))`.  The circuit is
///
/// 1. `X` on work qubit 0 (work register starts in `|1>`),
/// 2. `H` on every counting qubit,
/// 3. for counting qubit `k`: a controlled multiplication by
///    `base^(2^k) mod modulus` on the work register,
/// 4. the inverse QFT on the counting register.
///
/// # Panics
///
/// Panics if `modulus < 3`, `base < 2`, or `base` shares a factor with
/// `modulus` (in which case factoring is classical and order finding is
/// undefined).
///
/// # Examples
///
/// ```
/// let (c, spec) = algorithms::shor(15, 2);
/// assert_eq!(spec.work_bits, 4);
/// assert_eq!(c.num_qubits(), 12);
/// assert_eq!(spec.order, 4); // 2^4 = 16 = 1 mod 15
/// ```
#[must_use]
pub fn shor(modulus: u64, base: u64) -> (Circuit, ShorSpec) {
    assert!(modulus >= 3, "modulus must be at least 3");
    assert!(base >= 2, "base must be at least 2");
    assert_eq!(
        gcd(modulus, base),
        1,
        "base {base} must be coprime to modulus {modulus}"
    );

    let work_bits = u16::try_from(64 - (modulus - 1).leading_zeros()).expect("small");
    let counting_bits = 2 * work_bits;
    let spec = ShorSpec {
        modulus,
        base,
        work_bits,
        counting_bits,
        order: multiplicative_order(base, modulus),
    };

    let n = work_bits;
    let total = spec.total_qubits();
    let work: Vec<Qubit> = (0..n).map(Qubit).collect();
    let counting: Vec<Qubit> = (n..total).map(Qubit).collect();

    let mut c = Circuit::with_name(total, format!("shor_{modulus}_{base}"));

    // Work register starts in |1>.
    c.x(work[0]);
    // Counting register in uniform superposition.
    for &q in &counting {
        c.h(q);
    }
    // Controlled modular multiplications by base^(2^k).
    let mut factor = base % modulus;
    for &control in &counting {
        let perm = modular_multiplication(&work, factor, modulus);
        c.controlled_permute(vec![control], perm);
        factor = (factor * factor) % modulus;
    }
    // Inverse QFT on the counting register (phase estimation readout).
    append_inverse_qft(&mut c, &counting);

    (c, spec)
}

/// Builds the permutation `|v> -> |v * factor mod modulus>` on the work
/// register (identity on values `>= modulus`).
fn modular_multiplication(work: &[Qubit], factor: u64, modulus: u64) -> Permutation {
    let size = 1u64 << work.len();
    let mapping: Vec<u64> = (0..size)
        .map(|v| {
            if v < modulus {
                (v * factor) % modulus
            } else {
                v
            }
        })
        .collect();
    Permutation::new(work.to_vec(), mapping)
        .expect("modular multiplication by a coprime is a bijection")
}

/// Appends the inverse QFT on the counting register, including the
/// qubit-reversal swaps, so the phase estimate can be read directly from the
/// register value (register\[0\] is the least significant bit).
///
/// The gate sequence is the adjoint of [`crate::qft`](fn@crate::qft) remapped onto the
/// counting qubits, which keeps the two generators consistent by
/// construction.
fn append_inverse_qft(c: &mut Circuit, register: &[Qubit]) {
    let m = u16::try_from(register.len()).expect("counting register fits in u16");
    let inverse = crate::qft(m, true).adjoint();
    for op in inverse.operations() {
        match op {
            circuit::Operation::Unitary {
                gate,
                target,
                controls,
            } => {
                let mapped: Vec<Qubit> = controls.iter().map(|q| register[q.index()]).collect();
                c.controlled_gate(*gate, mapped, register[target.index()]);
            }
            circuit::Operation::Swap { a, b, controls } => {
                debug_assert!(controls.is_empty());
                c.swap(register[a.index()], register[b.index()]);
            }
            other => unreachable!("the QFT contains no {other}"),
        }
    }
}

/// Greatest common divisor.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The multiplicative order of `base` modulo `modulus`.
fn multiplicative_order(base: u64, modulus: u64) -> u64 {
    let mut value = base % modulus;
    let mut order = 1;
    while value != 1 {
        value = (value * base) % modulus;
        order += 1;
        assert!(order <= modulus, "order computation diverged");
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_counts_match_table_1() {
        // shor_33_2 and shor_55_2 use 18 qubits; shor_69_4 uses 21;
        // shor_221_4 and shor_247_4 use 24.
        assert_eq!(shor(33, 2).0.num_qubits(), 18);
        assert_eq!(shor(55, 2).0.num_qubits(), 18);
        assert_eq!(shor(69, 4).0.num_qubits(), 21);
        assert_eq!(shor(221, 4).0.num_qubits(), 24);
        assert_eq!(shor(247, 4).0.num_qubits(), 24);
    }

    #[test]
    fn circuits_validate() {
        let (c, spec) = shor(15, 7);
        assert!(c.validate().is_ok());
        assert_eq!(spec.counting_bits, 8);
        assert_eq!(spec.total_qubits(), 12);
        assert_eq!(c.name(), "shor_15_7");
    }

    #[test]
    fn orders_are_correct() {
        assert_eq!(shor(15, 2).1.order, 4);
        assert_eq!(shor(15, 7).1.order, 4);
        assert_eq!(shor(21, 2).1.order, 6);
        assert_eq!(shor(33, 2).1.order, 10);
    }

    #[test]
    fn modular_multiplication_is_a_bijection() {
        let work: Vec<Qubit> = (0..4).map(Qubit).collect();
        let perm = modular_multiplication(&work, 7, 15);
        let mut seen = [false; 16];
        for v in 0..16 {
            let m = perm.apply(v);
            assert!(!seen[m as usize]);
            seen[m as usize] = true;
        }
        // Values at or above the modulus stay put.
        assert_eq!(perm.apply(15), 15);
        assert_eq!(perm.apply(1), 7);
        assert_eq!(perm.apply(2), 14);
    }

    #[test]
    #[should_panic(expected = "coprime")]
    fn non_coprime_base_panics() {
        let _ = shor(15, 5);
    }

    #[test]
    fn gcd_and_order_helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(multiplicative_order(2, 7), 3);
        assert_eq!(multiplicative_order(3, 7), 6);
    }

    #[test]
    fn gate_structure_counts() {
        let (c, spec) = shor(15, 2);
        let stats = c.stats();
        // One controlled permutation per counting qubit.
        assert_eq!(stats.counts["permute"], usize::from(spec.counting_bits));
        // One initial X plus Hadamards on counting qubits and the inverse QFT.
        assert_eq!(stats.counts["x"], 1);
        assert_eq!(stats.counts["h"], 2 * usize::from(spec.counting_bits));
    }
}
