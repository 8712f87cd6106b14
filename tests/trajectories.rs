//! End-to-end tests of dynamic-circuit (trajectory) simulation: QASM-level
//! teleportation, measure-and-reset qubit reuse, classically-controlled
//! feed-forward (`if (c==k)`, iterative phase estimation), stochastic noise
//! channels validated against analytic density-matrix distributions,
//! cross-backend agreement and thread-count-invariant determinism.

use circuit::{qasm, Circuit, NoiseChannel, NoiseModel, Qubit};
use weaksim::{
    simulate_noisy_trajectories, simulate_noisy_trajectories_with_threads,
    simulate_trajectories_with_threads, stats, ArtifactCache, Backend, CacheOutcome, ServiceBroker,
    ServiceConfig, WeakSimulator,
};

/// Quantum teleportation with mid-circuit measurement, expressed in the
/// OpenQASM 2.0 subset.  Qubit 0 carries `ry(1.2)|0>`; after the two
/// mid-circuit measurements the corrections are applied as CX/CZ from the
/// *collapsed* qubits (equivalent to classically controlled X/Z), and the
/// teleported state is read out of qubit 2 into `c[2]`.
const TELEPORTATION_QASM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
ry(1.2) q[0];
h q[1];
cx q[1],q[2];
cx q[0],q[1];
h q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
cx q[1],q[2];
cz q[0],q[2];
measure q[2] -> c[2];
"#;

/// `P(c2 = 1)` for the teleported state `ry(1.2)|0>`: `sin^2(0.6)`.
fn teleported_one_probability() -> f64 {
    (0.6f64).sin().powi(2)
}

#[test]
fn teleportation_qasm_parses_as_a_dynamic_circuit() {
    let circuit = qasm::parse(TELEPORTATION_QASM).expect("teleportation QASM parses");
    assert_eq!(circuit.num_qubits(), 3);
    assert_eq!(circuit.num_clbits(), 3);
    assert!(circuit.is_dynamic());
    assert_eq!(circuit.len(), 10);
    assert!(circuit.validate().is_ok());
    // The QASM text is the same workload the bench and example use, so the
    // three surfaces cannot silently drift apart.
    assert_eq!(
        circuit.operations(),
        algorithms::teleportation(1.2).operations()
    );
}

#[test]
fn teleportation_distributions_match_on_both_backends() {
    let circuit = qasm::parse(TELEPORTATION_QASM).unwrap();
    let shots = 40_000u64;
    let p_one = teleported_one_probability();

    let mut histograms = Vec::new();
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = WeakSimulator::new(backend)
            .run(&circuit, shots, 77)
            .unwrap();
        assert_eq!(outcome.histogram.shots(), shots);
        assert_eq!(outcome.histogram.num_qubits(), 3);

        // The teleported qubit's marginal must match the prepared state,
        // independent of the (uniform) correction bits c0/c1.
        let observed_one: u64 = outcome
            .histogram
            .counts()
            .iter()
            .filter(|(&record, _)| record & 0b100 != 0)
            .map(|(_, &count)| count)
            .sum();
        let freq = observed_one as f64 / shots as f64;
        assert!(
            (freq - p_one).abs() < 0.01,
            "{backend}: teleported P(1) = {freq}, expected {p_one}"
        );

        // Each (c0, c1) correction pattern occurs a quarter of the time.
        for pattern in 0..4u64 {
            let count: u64 = outcome
                .histogram
                .counts()
                .iter()
                .filter(|(&record, _)| record & 0b11 == pattern)
                .map(|(_, &count)| count)
                .sum();
            let freq = count as f64 / shots as f64;
            assert!(
                (freq - 0.25).abs() < 0.02,
                "{backend}: correction pattern {pattern:02b} frequency {freq}"
            );
        }
        histograms.push(outcome.histogram);
    }

    // The full 3-bit record distributions of the two backends agree.
    for record in 0..8u64 {
        let dd = histograms[0].frequency(record);
        let sv = histograms[1].frequency(record);
        assert!(
            (dd - sv).abs() < 0.015,
            "record {record:03b}: DD {dd} vs SV {sv}"
        );
    }
}

#[test]
fn measure_and_reset_reuses_a_qubit_for_independent_coins() {
    // One physical qubit produces three independent fair coins through
    // measure-reset-reuse — the workload that motivates qubit reuse.
    let mut circuit = Circuit::with_name(1, "coin_reuse_3");
    for c in 0..3u16 {
        if c > 0 {
            circuit.reset(Qubit(0));
        }
        circuit.h(Qubit(0)).measure(Qubit(0), c);
    }
    assert!(circuit.is_dynamic());

    let shots = 32_000u64;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = WeakSimulator::new(backend).run(&circuit, shots, 3).unwrap();
        assert_eq!(outcome.histogram.distinct_outcomes(), 8);
        for record in 0..8u64 {
            let freq = outcome.histogram.frequency(record);
            assert!(
                (freq - 0.125).abs() < 0.01,
                "{backend}: record {record:03b} frequency {freq}"
            );
        }
    }
}

#[test]
fn trajectories_are_deterministic_across_thread_counts() {
    let circuit = qasm::parse(TELEPORTATION_QASM).unwrap();
    // Enough shots for several 1024-shot chunks so every thread count
    // exercises real work distribution.
    let shots = 5 * 1024 + 311;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let reference =
            simulate_trajectories_with_threads(backend, &circuit, shots, 2020, 1).unwrap();
        for threads in [2, 8] {
            let run = simulate_trajectories_with_threads(backend, &circuit, shots, 2020, threads)
                .unwrap();
            assert_eq!(
                reference.histogram, run.histogram,
                "{backend}: {threads} threads changed the classical records"
            );
        }
    }
}

#[test]
fn dynamic_circuits_roundtrip_through_qasm() {
    let circuit = qasm::parse(TELEPORTATION_QASM).unwrap();
    let written = qasm::to_qasm(&circuit).unwrap();
    let reparsed = qasm::parse(&written).unwrap();
    assert_eq!(reparsed.operations(), circuit.operations());
    assert_eq!(reparsed.num_clbits(), circuit.num_clbits());

    // The reparsed circuit simulates identically (same seed, same records).
    let a = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, 2048, 5)
        .unwrap();
    let b = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&reparsed, 2048, 5)
        .unwrap();
    assert_eq!(a.histogram, b.histogram);
}

#[test]
fn iterative_phase_estimation_recovers_the_phase_from_qasm() {
    // 3-bit IPE of phase 2*pi*5/8, driven from the QASM text (with
    // `if (c==k)` feed-forward) rather than the generated circuit, so the
    // whole parser -> trajectory-engine pipeline is under test.  For an
    // exact 3-bit phase the read-out is deterministic: c = 5 every shot.
    let m = 5u64;
    let phase = 2.0 * std::f64::consts::PI * m as f64 / 8.0;
    let generated = algorithms::ipe(3, phase);
    let text = qasm::to_qasm(&generated).expect("ipe exports to QASM");
    assert!(text.contains("if (c=="));
    let circuit = qasm::parse(&text).expect("ipe QASM parses");
    assert_eq!(circuit.operations(), generated.operations());
    assert!(circuit.is_dynamic());

    let shots = 20_000u64;
    let mut histograms = Vec::new();
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = WeakSimulator::new(backend)
            .run(&circuit, shots, 41)
            .unwrap();
        assert_eq!(
            outcome.histogram.count(m),
            shots,
            "{backend}: exact phases must be recovered deterministically"
        );
        histograms.push(outcome.histogram);
    }
    assert_eq!(histograms[0], histograms[1]);

    // A phase *between* the 3-bit grid points spreads the distribution; the
    // two backends must still agree on it.
    let rough = qasm::parse(&qasm::to_qasm(&algorithms::ipe(3, 1.0)).unwrap()).unwrap();
    let dd = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&rough, shots, 42)
        .unwrap();
    let sv = WeakSimulator::new(Backend::StateVector)
        .run(&rough, shots, 42)
        .unwrap();
    for record in 0..8u64 {
        let (a, b) = (
            dd.histogram.frequency(record),
            sv.histogram.frequency(record),
        );
        assert!((a - b).abs() < 0.02, "record {record}: DD {a} vs SV {b}");
    }
    // The most likely estimate is the closest grid point:
    // 1.0 / (2*pi) * 8 = 1.27..., so c = 1.
    let top = dd
        .histogram
        .counts()
        .iter()
        .max_by_key(|(_, &count)| count)
        .map(|(&record, _)| record);
    assert_eq!(top, Some(1));
}

#[test]
fn conditioned_circuit_matches_the_analytic_distribution() {
    // h q0; measure q0 -> c0; if (c==1) h q1; measure q1 -> c1.
    // Analytically: P(00) = 1/2, P(01) = P(11) = 1/4, P(10) = 0.
    let src = "qreg q[2]; creg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif (c==1) h q[1];\nmeasure q[1] -> c[1];";
    let circuit = qasm::parse(src).unwrap();
    assert!(circuit.is_dynamic());
    let expected = |record: u64| match record {
        0b00 => 0.5,
        0b01 | 0b11 => 0.25,
        _ => 0.0,
    };
    let shots = 30_000u64;
    let mut histograms = Vec::new();
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = WeakSimulator::new(backend)
            .run(&circuit, shots, 97)
            .unwrap();
        // Chi-square goodness of fit against the analytic distribution: the
        // samples must be statistically indistinguishable from the ideal
        // feed-forward device.
        let result = stats::chi_square_test(&outcome.histogram, expected);
        assert!(
            result.is_consistent(0.001),
            "{backend}: chi-square p-value {} too small",
            result.p_value
        );
        histograms.push(outcome.histogram);
    }
    // And the two backends agree with each other.
    for record in 0..4u64 {
        let (a, b) = (
            histograms[0].frequency(record),
            histograms[1].frequency(record),
        );
        assert!((a - b).abs() < 0.015, "record {record:02b}: {a} vs {b}");
    }
}

#[test]
fn conditioned_trajectories_are_thread_count_invariant() {
    let circuit = algorithms::ipe(3, 1.0);
    let shots = 4 * 1024 + 99;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let reference =
            simulate_trajectories_with_threads(backend, &circuit, shots, 1234, 1).unwrap();
        for threads in [2, 8] {
            let run = simulate_trajectories_with_threads(backend, &circuit, shots, 1234, threads)
                .unwrap();
            assert_eq!(
                reference.histogram, run.histogram,
                "{backend}: {threads} threads changed the feed-forward records"
            );
        }
    }
}

/// The trajectory histograms of a noisy 2-qubit circuit must be
/// statistically indistinguishable from the analytically computed
/// density-matrix distribution: a depolarizing channel of strength `p` on
/// one qubit of a Bell pair gives
/// `P(00) = P(11) = (1 - p/2)/2` and `P(01) = P(10) = p/4`
/// (the `I`/`Z` branches keep the correlation, `X`/`Y` break it).
#[test]
fn depolarized_bell_pair_matches_the_analytic_distribution() {
    let p = 0.3f64;
    let mut bell = Circuit::with_name(2, "noisy_bell");
    bell.h(Qubit(0))
        .cx(Qubit(0), Qubit(1))
        .measure(Qubit(0), 0)
        .measure(Qubit(1), 1);
    // Qubit 1 is touched by exactly one gate (the CX), so the qubit-specific
    // channel inserts exactly one depolarizing site — the case the analytic
    // distribution above describes.
    let model = NoiseModel::new().with_qubit_noise(Qubit(1), NoiseChannel::depolarizing(p));
    let expected = move |record: u64| match record {
        0b00 | 0b11 => (1.0 - p / 2.0) / 2.0,
        0b01 | 0b10 => p / 4.0,
        _ => 0.0,
    };
    let shots = 40_000u64;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = simulate_noisy_trajectories(backend, &bell, &model, shots, 101).unwrap();
        let result = stats::chi_square_test(&outcome.histogram, expected);
        assert!(
            result.is_consistent(0.001),
            "{backend}: chi-square p-value {} too small (statistic {})",
            result.p_value,
            result.statistic
        );
    }
}

/// Amplitude damping on the excited state `|1>`: the qubit decays with
/// probability exactly `gamma`, and the damped Bell pair keeps its
/// correlation in the no-decay branch —
/// `P(00) = 1/2`, `P(01) = gamma/2`, `P(11) = (1-gamma)/2`, `P(10) = 0`.
#[test]
fn amplitude_damped_states_match_the_analytic_distributions() {
    let gamma = 0.35f64;
    let model = NoiseModel::new().with_gate_noise(NoiseChannel::amplitude_damping(gamma));
    let shots = 40_000u64;

    // Damped excited state: x q0 (one noise site), measure.
    let mut excited = Circuit::with_name(1, "damped_excited");
    excited.x(Qubit(0)).measure(Qubit(0), 0);
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = simulate_noisy_trajectories(backend, &excited, &model, shots, 103).unwrap();
        let result = stats::chi_square_test(&outcome.histogram, |record| match record {
            0 => gamma,
            1 => 1.0 - gamma,
            _ => 0.0,
        });
        assert!(
            result.is_consistent(0.001),
            "{backend}: excited-state chi-square p-value {} too small",
            result.p_value
        );
    }

    // Damped Bell pair: one amplitude-damping site on qubit 1 after the CX.
    let mut bell = Circuit::with_name(2, "damped_bell");
    bell.h(Qubit(0))
        .cx(Qubit(0), Qubit(1))
        .measure(Qubit(0), 0)
        .measure(Qubit(1), 1);
    let site = NoiseModel::new().with_qubit_noise(Qubit(1), NoiseChannel::amplitude_damping(gamma));
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = simulate_noisy_trajectories(backend, &bell, &site, shots, 107).unwrap();
        assert_eq!(
            outcome.histogram.count(0b10),
            0,
            "{backend}: damping can only move |11> to |01>"
        );
        let result = stats::chi_square_test(&outcome.histogram, move |record| match record {
            0b00 => 0.5,
            0b01 => gamma / 2.0,
            0b11 => (1.0 - gamma) / 2.0,
            _ => 0.0,
        });
        assert!(
            result.is_consistent(0.001),
            "{backend}: damped-Bell chi-square p-value {} too small",
            result.p_value
        );
    }
}

/// Read-out error composes with gate noise: `|1>` under amplitude damping
/// `gamma` followed by a bit-flip read-out of probability `q` records `0`
/// with probability `gamma (1-q) + (1-gamma) q`.
#[test]
fn readout_error_composes_with_gate_noise() {
    let (gamma, q) = (0.3f64, 0.1f64);
    let model = NoiseModel::new()
        .with_gate_noise(NoiseChannel::amplitude_damping(gamma))
        .with_measurement_noise(NoiseChannel::bit_flip(q));
    let mut c = Circuit::with_name(1, "damped_flipped_readout");
    c.x(Qubit(0)).measure(Qubit(0), 0);
    let p_zero = gamma * (1.0 - q) + (1.0 - gamma) * q;
    let shots = 40_000u64;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = simulate_noisy_trajectories(backend, &c, &model, shots, 109).unwrap();
        let result = stats::chi_square_test(&outcome.histogram, move |record| match record {
            0 => p_zero,
            1 => 1.0 - p_zero,
            _ => 0.0,
        });
        assert!(
            result.is_consistent(0.001),
            "{backend}: chi-square p-value {} too small",
            result.p_value
        );
    }
}

/// A noise model whose channels all have strength zero inserts no noise
/// sites, so the run is bit-identical to the noiseless trajectory run with
/// the same seed — not merely statistically equivalent.
#[test]
fn zero_strength_noise_is_bit_identical_to_the_noiseless_run() {
    let circuit = algorithms::teleportation(1.2);
    let silent = algorithms::hardware_noise(0.0);
    assert!(!silent.has_noise());
    let shots = 4 * 1024 + 33;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        for threads in [1, 4] {
            let ideal =
                simulate_trajectories_with_threads(backend, &circuit, shots, 555, threads).unwrap();
            let noisy = simulate_noisy_trajectories_with_threads(
                backend, &circuit, &silent, shots, 555, threads,
            )
            .unwrap();
            assert_eq!(
                ideal.histogram, noisy.histogram,
                "{backend}/{threads} threads: p = 0 noise changed the records"
            );
        }
    }
}

/// Fully depolarizing (`p = 1`) noise on a qubit replaces it by the
/// maximally mixed state: the measured marginal is uniform no matter what
/// the circuit prepared.
#[test]
fn fully_depolarizing_noise_yields_the_uniform_marginal() {
    let model = NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(1.0));
    let mut c = Circuit::with_name(1, "depolarized_excited");
    c.x(Qubit(0)).measure(Qubit(0), 0);
    let shots = 40_000u64;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = simulate_noisy_trajectories(backend, &c, &model, shots, 113).unwrap();
        let result = stats::chi_square_test(
            &outcome.histogram,
            |record| {
                if record < 2 {
                    0.5
                } else {
                    0.0
                }
            },
        );
        assert!(
            result.is_consistent(0.001),
            "{backend}: marginal not uniform, chi-square p-value {}",
            result.p_value
        );
    }
}

/// Noisy histograms are bit-identical across worker counts (tested at two
/// multi-worker counts against the single-worker reference) and differ
/// between seeds.
#[test]
fn noisy_records_are_thread_count_invariant() {
    let circuit = algorithms::teleportation(1.2);
    let model = algorithms::hardware_noise(0.05);
    let shots = 3 * 1024 + 17;
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let reference =
            simulate_noisy_trajectories_with_threads(backend, &circuit, &model, shots, 77, 1)
                .unwrap();
        for threads in [2, 8] {
            let run = simulate_noisy_trajectories_with_threads(
                backend, &circuit, &model, shots, 77, threads,
            )
            .unwrap();
            assert_eq!(
                reference.histogram, run.histogram,
                "{backend}: {threads} threads changed the noisy records"
            );
        }
        let other =
            simulate_noisy_trajectories_with_threads(backend, &circuit, &model, shots, 78, 1)
                .unwrap();
        assert_ne!(
            reference.histogram, other.histogram,
            "{backend}: different seeds must give different noisy records"
        );
    }
}

/// The decision-diagram and statevector runners draw every decision from
/// the same uniform variates through identical probability arithmetic, so
/// for a circuit whose branch probabilities are exactly representable the
/// classical records agree bit for bit.
#[test]
fn backends_agree_exactly_on_noisy_records() {
    let mut c = Circuit::with_name(2, "dyadic_noisy");
    c.h(Qubit(0))
        .cx(Qubit(0), Qubit(1))
        .measure(Qubit(0), 0)
        .measure(Qubit(1), 1);
    let model = NoiseModel::new()
        .with_gate_noise(NoiseChannel::depolarizing(0.5))
        .with_qubit_noise(Qubit(1), NoiseChannel::amplitude_damping(0.5))
        .with_measurement_noise(NoiseChannel::bit_flip(0.25));
    let shots = 4 * 1024 + 7;
    let dd =
        simulate_noisy_trajectories(Backend::DecisionDiagram, &c, &model, shots, 2024).unwrap();
    let sv = simulate_noisy_trajectories(Backend::StateVector, &c, &model, shots, 2024).unwrap();
    assert_eq!(
        dd.histogram, sv.histogram,
        "DD and SV noisy records must be identical for the same seed"
    );
}

/// A broker that serves static requests from its cache: its outcomes
/// report `cache == Some(Miss)` on a static request's first serve and
/// `None` for a trajectory request, which bypasses the cache.
fn broker() -> ServiceBroker {
    ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default())
}

/// `WeakSimulator::with_noise` routes every circuit — static ones included —
/// through the trajectory engine, while a zero-strength model keeps the
/// static fast path.
#[test]
fn weak_simulator_routes_noisy_circuits_through_trajectories() {
    let circuit = algorithms::ghz(3);
    let noisy = broker()
        .serve(
            &WeakSimulator::new(Backend::DecisionDiagram)
                .with_noise(algorithms::hardware_noise(0.02)),
            &circuit,
            2_000,
            5,
        )
        .unwrap();
    assert_eq!(
        noisy.cache, None,
        "noisy runs take the trajectory path, with no artifact to cache"
    );
    assert_eq!(noisy.histogram.num_qubits(), 3);
    // Noise makes the forbidden middle outcomes appear.
    let broken: u64 = (1..7).map(|r| noisy.histogram.count(r)).sum();
    assert!(
        broken > 0,
        "2% depolarizing noise must break some GHZ shots"
    );

    let silent = broker()
        .serve(
            &WeakSimulator::new(Backend::DecisionDiagram)
                .with_noise(algorithms::hardware_noise(0.0)),
            &circuit,
            2_000,
            5,
        )
        .unwrap();
    assert_eq!(
        silent.cache,
        Some(CacheOutcome::Miss),
        "a zero-strength model keeps the static fast path"
    );
    let ideal = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, 2_000, 5)
        .unwrap();
    assert_eq!(silent.histogram, ideal.histogram);

    // Malformed models surface as InvalidNoise.
    let bad = WeakSimulator::new(Backend::DecisionDiagram)
        .with_noise(NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(7.0)))
        .run(&circuit, 10, 0);
    assert!(matches!(bad, Err(weaksim::RunError::InvalidNoise(_))));
}

/// The error-rate sweep workload: noisy iterative phase estimation recovers
/// an exact 3-bit phase deterministically at `p = 0` and degrades
/// monotonically as the error rate grows.
#[test]
fn noisy_ipe_error_rate_sweep_degrades_the_recovery_probability() {
    let m = 5u64;
    let phase = 2.0 * std::f64::consts::PI * m as f64 / 8.0;
    let (circuit, sweep) = algorithms::ipe_noise_sweep(3, phase, 2, 0.1);
    let shots = 6_000u64;
    let mut recoveries = Vec::new();
    for (p, model) in &sweep {
        let outcome =
            simulate_noisy_trajectories(Backend::DecisionDiagram, &circuit, model, shots, 606)
                .unwrap();
        recoveries.push((*p, outcome.histogram.frequency(m)));
    }
    assert_eq!(
        recoveries[0].1, 1.0,
        "the ideal device recovers the exact phase deterministically"
    );
    for window in recoveries.windows(2) {
        assert!(
            window[1].1 < window[0].1,
            "recovery must degrade with the error rate: {recoveries:?}"
        );
    }
    assert!(
        recoveries[1].1 > 0.5,
        "5% noise must not destroy the estimate outright: {recoveries:?}"
    );
}

/// `if (c==k) measure/reset` runs end-to-end from QASM text: parser →
/// trajectory engine on both backends, plus a write/parse round trip.
#[test]
fn conditioned_measure_and_reset_run_from_qasm_text() {
    // h q0; measure -> c0; reset; x (q0 is |1>); if (c==1) reset q0;
    // measure -> c1.  c0 = 0 leaves q0 excited (record 10); c0 = 1 resets it
    // (record 01).  Records 00 and 11 are impossible.
    let src = "\
OPENQASM 2.0;
include \"qelib1.inc\";
qreg q[1];
creg c[2];
h q[0];
measure q[0] -> c[0];
reset q[0];
x q[0];
if (c==1) reset q[0];
measure q[0] -> c[1];
";
    let circuit = qasm::parse(src).expect("conditioned-reset QASM parses");
    assert!(circuit.is_dynamic());
    let written = qasm::to_qasm(&circuit).unwrap();
    assert!(written.contains("if (c==1) reset q[0];"));
    assert_eq!(
        qasm::parse(&written).unwrap().operations(),
        circuit.operations()
    );

    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = WeakSimulator::new(backend)
            .run(&circuit, 8_000, 909)
            .unwrap();
        assert_eq!(outcome.histogram.count(0b00), 0, "{backend}");
        assert_eq!(outcome.histogram.count(0b11), 0, "{backend}");
        let f = outcome.histogram.frequency(0b01);
        assert!((f - 0.5).abs() < 0.03, "{backend}: P(01) = {f}");
    }

    // Conditioned measurement: only the c0 = 1 half reads out q1.
    let src = "\
qreg q[2];
creg c[2];
h q[0];
measure q[0] -> c[0];
x q[1];
if (c==1) measure q[1] -> c[1];
";
    let circuit = qasm::parse(src).expect("conditioned-measure QASM parses");
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let outcome = WeakSimulator::new(backend)
            .run(&circuit, 8_000, 911)
            .unwrap();
        assert_eq!(outcome.histogram.count(0b01), 0, "{backend}");
        assert_eq!(outcome.histogram.count(0b10), 0, "{backend}");
        let f = outcome.histogram.frequency(0b11);
        assert!((f - 0.5).abs() < 0.03, "{backend}: P(11) = {f}");
    }
}

#[test]
fn static_circuits_still_keep_their_strong_state() {
    // A static circuit with a terminal measurement block keeps the fast
    // path: it builds a cacheable artifact, the strong state of its unitary
    // part stays available, and the histogram holds classical records.
    let mut bell = Circuit::new(2);
    bell.h(Qubit(0)).cx(Qubit(0), Qubit(1));
    let mut circuit = bell.clone();
    circuit.measure_all();
    assert!(!circuit.is_dynamic());
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let outcome = broker().serve(&sim, &circuit, 1000, 1).unwrap();
    assert_eq!(outcome.cache, Some(CacheOutcome::Miss));
    let exact = sim.strong(&bell).unwrap();
    assert!((exact.probability(0b11) - 0.5).abs() < 1e-12);
    assert!(outcome
        .histogram
        .counts()
        .keys()
        .all(|&record| record == 0 || record == 0b11));
}
