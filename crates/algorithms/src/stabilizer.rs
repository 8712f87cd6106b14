//! Stabilizer-code syndrome-extraction cycles — fully-Clifford dynamic
//! circuits that scale to thousands of qubits.

use circuit::{Circuit, Qubit};

/// Builds `rounds` syndrome-extraction cycles of the distance-`n`
/// repetition code: the canonical fully-Clifford *dynamic* benchmark for
/// the stabilizer-tableau engine.
///
/// The register holds `n` data qubits (`0..n`) in a GHZ chain — the logical
/// `|+>` of the bit-flip repetition code, stabilized by every neighbouring
/// `Z_i Z_{i+1}` parity — and `n - 1` syndrome ancillas (`n..2n-1`), one
/// per parity.  Each round extracts every parity onto its ancilla with two
/// CNOTs and recycles the ancilla with a `reset` (the extraction is
/// deterministic in the noiseless code space, so discarding the outcome
/// loses nothing, and the classical record stays narrow at any distance).
/// A trailing block then measures the first `min(n, 64)` data qubits —
/// the cap keeps the record inside the simulators' 64-bit registers — so a
/// noiseless run reports only the all-zeros and all-ones records, each with
/// probability one half.
///
/// The circuit contains resets, hence is dynamic
/// ([`Circuit::is_dynamic`]), yet every operation is Clifford: it runs on
/// a stabilizer tableau in polynomial time at sizes far beyond any dense
/// backend.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// let c = algorithms::stabilizer_cycle(5, 2);
/// assert_eq!(c.num_qubits(), 9); // 5 data + 4 ancillas
/// assert!(c.is_dynamic());
/// ```
#[must_use]
pub fn stabilizer_cycle(n: u16, rounds: u16) -> Circuit {
    assert!(n > 0, "the repetition code needs at least one data qubit");
    let ancillas = n - 1;
    let mut c = Circuit::with_name(n + ancillas, format!("stabilizer_cycle_{n}x{rounds}"));
    // Logical |+>: a GHZ chain over the data qubits.
    c.h(Qubit(0));
    for i in 1..n {
        c.cx(Qubit(i - 1), Qubit(i));
    }
    for _ in 0..rounds {
        for a in 0..ancillas {
            let ancilla = Qubit(n + a);
            c.cx(Qubit(a), ancilla);
            c.cx(Qubit(a + 1), ancilla);
            c.reset(ancilla);
        }
    }
    for q in 0..n.min(64) {
        c.measure(Qubit(q), q);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_structure_scales_linearly() {
        let c = stabilizer_cycle(7, 3);
        assert_eq!(c.num_qubits(), 13);
        assert_eq!(c.num_clbits(), 7);
        // GHZ prep + 3 rounds of (2 CX + reset) per parity + 7 measures.
        assert_eq!(c.len(), 7 + 3 * 3 * 6 + 7);
        assert!(c.validate().is_ok());
        assert!(c.is_dynamic());
        assert_eq!(c.name(), "stabilizer_cycle_7x3");
    }

    #[test]
    fn readout_is_capped_at_the_record_width() {
        let c = stabilizer_cycle(100, 1);
        assert_eq!(c.num_clbits(), 64);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn single_qubit_code_has_no_ancillas() {
        let c = stabilizer_cycle(1, 5);
        assert_eq!(c.num_qubits(), 1);
        // Just the H and the readout: no parities to extract.
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one data qubit")]
    fn zero_data_qubits_panic() {
        let _ = stabilizer_cycle(0, 1);
    }
}
