//! Validates the paper's central claim: the weak-simulation output is
//! statistically indistinguishable from the exact output distribution of an
//! error-free quantum computer, for both samplers.

use dd::{CompiledSampler, DdPackage};
use weaksim::stats::{chi_square_test, total_variation_distance};
use weaksim::{Backend, ShotHistogram, WeakSimulator};

const SHOTS: u64 = 100_000;
const SIGNIFICANCE: f64 = 1e-4;

fn assert_statistically_indistinguishable(circuit: &circuit::Circuit, seed: u64) {
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let mut sim = WeakSimulator::new(backend);
        let outcome = sim.run(circuit, SHOTS, seed).expect("simulation succeeds");
        let exact = sim.strong(circuit).expect("strong simulation succeeds");
        let chi = chi_square_test(&outcome.histogram, |i| exact.probability(i));
        assert!(
            chi.is_consistent(SIGNIFICANCE),
            "{} sampling of {} rejected: chi2 = {:.2}, dof = {}, p = {:.6}",
            backend,
            circuit.name(),
            chi.statistic,
            chi.degrees_of_freedom,
            chi.p_value
        );
        let tvd = total_variation_distance(&outcome.histogram, |i| exact.probability(i));
        // The expected TVD of a faithful sampler grows with the support size:
        // roughly sqrt(2K / (pi * shots)) for K outcomes. Allow 1.5x that.
        let support = 1u64 << circuit.num_qubits();
        let expected_noise = (2.0 * support as f64 / (std::f64::consts::PI * SHOTS as f64)).sqrt();
        let threshold = (1.5 * expected_noise).max(0.01);
        assert!(
            tvd < threshold,
            "{} sampling of {}: TVD {tvd} exceeds {threshold}",
            backend,
            circuit.name()
        );
        // No impossible outcome may ever be produced (error-free sampling).
        for &index in outcome.histogram.counts().keys() {
            assert!(
                exact.probability(index) > 0.0,
                "{} produced impossible outcome {index:b}",
                backend
            );
        }
    }
}

#[test]
fn running_example_sampling_is_faithful() {
    assert_statistically_indistinguishable(&algorithms::running_example(), 1);
}

#[test]
fn ghz_sampling_is_faithful() {
    assert_statistically_indistinguishable(&algorithms::ghz(8), 2);
}

#[test]
fn w_state_sampling_is_faithful() {
    assert_statistically_indistinguishable(&algorithms::w_state(6), 3);
}

#[test]
fn qft_sampling_is_faithful() {
    assert_statistically_indistinguishable(&algorithms::qft(6, true), 4);
}

#[test]
fn supremacy_sampling_is_faithful() {
    let (circuit, _) = algorithms::supremacy(3, 3, 6, 7);
    assert_statistically_indistinguishable(&circuit, 5);
}

#[test]
fn jellium_sampling_is_faithful() {
    let (circuit, _) = algorithms::jellium(2, 1);
    assert_statistically_indistinguishable(&circuit, 6);
}

#[test]
fn random_circuit_sampling_is_faithful() {
    let circuit = algorithms::random_circuit(6, 5, 17);
    assert_statistically_indistinguishable(&circuit, 7);
}

#[test]
fn grover_amplifies_the_marked_element() {
    // After the optimal number of iterations the marked element dominates
    // the search-register distribution.
    let (circuit, spec) = algorithms::grover_with_iterations(8, 4, 12);
    let outcome = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, 20_000, 11)
        .unwrap();
    let mask = (1u64 << spec.search_qubits) - 1;
    let mut counts = std::collections::HashMap::new();
    for (&bits, &count) in outcome.histogram.counts() {
        *counts.entry(bits & mask).or_insert(0u64) += count;
    }
    let marked_count = counts.get(&spec.marked).copied().unwrap_or(0);
    assert!(
        marked_count as f64 / 20_000.0 > 0.9,
        "marked element frequency {} too low",
        marked_count as f64 / 20_000.0
    );
}

#[test]
fn shor_counting_register_peaks_at_multiples_of_the_inverse_order() {
    // For modulus 15 the order of any valid base is 4 (or 2), so the
    // counting register (8 bits) concentrates on multiples of 256/4 = 64.
    let (circuit, spec) = algorithms::shor(15, 7);
    let outcome = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, 50_000, 13)
        .unwrap();
    assert_eq!(spec.order, 4);
    let step = (1u64 << spec.counting_bits) / spec.order;
    let mut on_peak = 0u64;
    let mut total = 0u64;
    for (&bits, &count) in outcome.histogram.counts() {
        let counting_value = bits >> spec.work_bits;
        total += count;
        if counting_value % step == 0 {
            on_peak += count;
        }
    }
    let fraction = on_peak as f64 / total as f64;
    assert!(
        fraction > 0.99,
        "only {fraction} of the shots landed on phase-estimation peaks"
    );
}

/// The production [`CompiledSampler`] draws from the exact distribution:
/// chi-square-consistent with the state probabilities on GHZ, QFT and
/// supremacy states.  (The three-way comparison against the retired
/// interpreted samplers lives in the bench crate's `comparison_samplers`
/// integration test, behind the `comparison-samplers` feature.)
#[test]
fn compiled_sampler_draws_the_exact_distribution() {
    let circuits = [
        algorithms::ghz(8),
        algorithms::qft(6, true),
        algorithms::supremacy(3, 3, 6, 7).0,
    ];
    for circuit in &circuits {
        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, circuit).expect("valid circuit");
        let n = circuit.num_qubits();

        let compiled = CompiledSampler::new(&package, &state).expect("compiles");
        let compiled_hist = ShotHistogram::from_samples(
            n,
            compiled
                .sample_many_parallel(42, SHOTS as usize)
                .into_iter(),
        );

        let chi = chi_square_test(&compiled_hist, |i| state.probability(&package, i));
        assert!(
            chi.is_consistent(SIGNIFICANCE),
            "CompiledSampler on {} rejected: chi2 = {:.2}, dof = {}, p = {:.6}",
            circuit.name(),
            chi.statistic,
            chi.degrees_of_freedom,
            chi.p_value
        );
    }
}

/// The parallel batch sampler is seed-deterministic independent of the
/// worker-thread count — the contract that makes `WeakSimulator` runs
/// reproducible on any machine.
#[test]
fn parallel_sampling_is_deterministic_across_thread_counts() {
    let (circuit, _) = algorithms::supremacy(3, 3, 6, 7);
    let mut package = DdPackage::new();
    let state = dd::simulate(&mut package, &circuit).expect("valid circuit");
    let compiled = CompiledSampler::new(&package, &state).expect("compiles");

    let shots = 3 * dd::PARALLEL_CHUNK_SHOTS + 511; // not a chunk multiple
    let reference = compiled.sample_many_parallel_with_threads(2020, shots, 1);
    for threads in [2, 8] {
        assert_eq!(
            reference,
            compiled.sample_many_parallel_with_threads(2020, shots, threads),
            "thread count {threads} changed the sampled values"
        );
    }
    // And the high-level simulator path (which uses however many threads the
    // machine has) reproduces the same histogram run-to-run.
    let mut sim = WeakSimulator::new(Backend::DecisionDiagram);
    let a = sim.run(&circuit, 10_000, 2020).unwrap();
    let b = sim.run(&circuit, 10_000, 2020).unwrap();
    assert_eq!(a.histogram, b.histogram);
}

#[test]
fn dd_and_vector_histograms_agree_with_each_other() {
    // Beyond agreeing with the exact distribution, the two samplers agree
    // with one another within statistical noise.
    let circuit = algorithms::random_circuit(5, 4, 23);
    let dd = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, SHOTS, 31)
        .unwrap();
    let sv = WeakSimulator::new(Backend::StateVector)
        .run(&circuit, SHOTS, 32)
        .unwrap();
    for index in 0..(1u64 << circuit.num_qubits()) {
        let fd = dd.histogram.frequency(index);
        let fv = sv.histogram.frequency(index);
        assert!(
            (fd - fv).abs() < 0.02,
            "index {index}: DD frequency {fd}, vector frequency {fv}"
        );
    }
}
