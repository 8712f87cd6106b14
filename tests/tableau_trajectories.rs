//! Differential test of the tableau trajectory runner: on seeded random
//! dynamic Clifford circuits, noiseless and under Pauli noise, the routed
//! histogram must equal — bit for bit, at one and two workers — the one a
//! reference loop produces by applying the same drawn decisions to a full
//! `Tableau` per shot.
//!
//! The reference replays the trajectory loop's randomness protocol: shots
//! in chunks of `PARALLEL_CHUNK_SHOTS`, chunk `i` drawing from
//! `chunk_stream_seed(seed, i)`, one uniform draw per firing event
//! (`r < P(1)` for measurements and resets, cumulative branch thresholds
//! for noise sites, none for an event whose guard is unsatisfied), and a
//! terminal `MeasurementSampler` draw for circuits without measurements.

use circuit::{Circuit, NoiseChannel, NoiseModel, OneQubitGate, Operation, Qubit};
use dd::{chunk_stream_seed, PARALLEL_CHUNK_SHOTS};
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
use tableau::{Pauli, Tableau};
use weaksim::{Backend, EngineKind, ShotHistogram, WeakSimulator};

const CIRCUITS: u64 = 200;

/// How a generated circuit reports its record.
#[derive(Clone, Copy)]
enum Flavor {
    /// Mid-circuit measurements plus a trailing block measuring every
    /// qubit.
    TrailingMeasures,
    /// Mid-circuit measurements only.
    MidCircuitOnly,
    /// No measurement at all: the record is a terminal read-out of every
    /// qubit.
    FinalReadout,
}

/// A random dynamic Clifford circuit over H/S/Sdg/X/Y/Z/CX/CZ/SWAP,
/// resets, conditioned Paulis and (unless `FinalReadout`) mid-circuit
/// measurements.
fn random_circuit(case: u64, flavor: Flavor) -> Circuit {
    let mut rng = StdRng::seed_from_u64(0x7ab1_e000_u64 ^ case);
    let n = rng.gen_range(2..=7u16);
    let clbits = rng.gen_range(1..=3u16);
    let mut c = Circuit::with_name(n, format!("random_dynamic_clifford_{case}"));
    let qubit = |rng: &mut StdRng| Qubit(rng.gen_range(0..n));
    let pauli = |rng: &mut StdRng| match rng.gen_range(0..3) {
        0 => OneQubitGate::X,
        1 => OneQubitGate::Y,
        _ => OneQubitGate::Z,
    };
    // Entangling gates dominate so that collapses hit generators sharing
    // X bits, where the row products carry signs of their own.
    for _ in 0..rng.gen_range(8..=48usize) {
        let q = qubit(&mut rng);
        match rng.gen_range(0..20) {
            0 | 1 => c.h(q),
            2 => c.s(q),
            3 => c.gate(OneQubitGate::Sdg, q),
            4 => c.x(q),
            5 => c.y(q),
            6 => c.z(q),
            7..=14 if n >= 2 => {
                let mut other = qubit(&mut rng);
                while other == q {
                    other = qubit(&mut rng);
                }
                match rng.gen_range(0..3) {
                    0 => c.cx(q, other),
                    1 => c.cz(q, other),
                    _ => c.swap(q, other),
                }
            }
            15 | 16 if !matches!(flavor, Flavor::FinalReadout) => {
                c.measure(q, rng.gen_range(0..clbits))
            }
            17 => c.reset(q),
            18 | 19 => {
                let value = rng.gen_range(0..1u64 << clbits);
                let gate = pauli(&mut rng);
                c.conditioned_gate(value, gate, q)
            }
            _ => c.s(q),
        };
    }
    if !c.is_dynamic() {
        c.reset(qubit(&mut rng));
    }
    if matches!(flavor, Flavor::TrailingMeasures) {
        for q in 0..n {
            c.measure(Qubit(q), q);
        }
    }
    c
}

/// A source whose every draw is one decided bit: `Tableau::measure` with
/// it collapses a random outcome onto that bit and returns a fixed
/// outcome as it is.
struct Decided(bool);

impl rand::RngCore for Decided {
    fn next_u64(&mut self) -> u64 {
        u64::from(self.0)
    }
}

/// `P(qubit = 1)` of a stabilizer state: fixed or a fair coin.
fn p_one(tab: &mut Tableau, qubit: usize) -> f64 {
    match tab.deterministic_outcome(qubit) {
        Some(outcome) => f64::from(u8::from(outcome)),
        None => 0.5,
    }
}

/// One noise site: draws the channel's branch against its cumulative
/// thresholds and applies the branch's Pauli.
fn noise_site(tab: &mut Tableau, qubit: usize, channel: NoiseChannel, rng: &mut SmallRng) {
    let p = channel
        .branch_probabilities()
        .expect("Pauli channels have fixed branch probabilities");
    let thresholds = [p[1], p[1] + p[2], p[1] + p[2] + p[3]];
    let r = rng.gen::<f64>();
    let branch = (1..=3u8)
        .find(|&b| r < thresholds[usize::from(b) - 1])
        .unwrap_or(0);
    if let Some(gate) = channel.branch_gate(branch) {
        tab.apply_pauli(qubit, Pauli::from_gate(&gate).expect("a Pauli branch"));
    }
}

/// One reference shot on a full tableau.
fn reference_shot(circuit: &Circuit, noise: &NoiseModel, rng: &mut SmallRng) -> u64 {
    let mut tab = Tableau::zero_state(usize::from(circuit.num_qubits()));
    let mut record = 0u64;
    for op in circuit.operations() {
        let (condition, inner) = match op {
            Operation::Conditioned { condition, op } => (Some(*condition), op.as_ref()),
            other => (None, other),
        };
        let fires = |record: u64| condition.is_none_or(|c| c.is_satisfied_by(record));
        match inner {
            Operation::Measure { qubit, cbit } => {
                let q = qubit.index();
                for channel in noise.channels_before_measurement(*qubit) {
                    if fires(record) {
                        noise_site(&mut tab, q, channel, rng);
                    }
                }
                if fires(record) {
                    let decision = rng.gen::<f64>() < p_one(&mut tab, q);
                    let outcome = tab.measure(q, &mut Decided(decision));
                    assert_eq!(outcome, decision, "a fixed outcome has P(1) in {{0, 1}}");
                    record = (record & !(1 << cbit)) | u64::from(outcome) << cbit;
                }
            }
            Operation::Reset { qubit } => {
                let q = qubit.index();
                if fires(record) {
                    let decision = rng.gen::<f64>() < p_one(&mut tab, q);
                    if tab.measure(q, &mut Decided(decision)) {
                        tab.x(q);
                    }
                }
            }
            gate => {
                if fires(record) {
                    let mut unused = 0;
                    tableau::apply_operation(&mut tab, gate, 0, &mut unused, rng)
                        .expect("Clifford gate");
                }
                for qubit in gate.support() {
                    for channel in noise.channels_after_gate(qubit) {
                        if fires(record) {
                            noise_site(&mut tab, qubit.index(), channel, rng);
                        }
                    }
                }
            }
        }
    }
    if circuit.has_measurements() {
        record
    } else {
        tab.measurement_sampler().sample_u64(rng)
    }
}

/// The reference histogram: `shots` reference shots in seeded chunks.
fn reference_histogram(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    seed: u64,
) -> ShotHistogram {
    let width = if circuit.has_measurements() {
        circuit.num_clbits()
    } else {
        circuit.num_qubits()
    };
    let mut histogram = ShotHistogram::new(width);
    let chunk = PARALLEL_CHUNK_SHOTS as u64;
    for index in 0..shots.div_ceil(chunk) {
        let mut rng = SmallRng::seed_from_u64(chunk_stream_seed(seed, index));
        for _ in 0..chunk.min(shots - index * chunk) {
            histogram.record(reference_shot(circuit, noise, &mut rng));
        }
    }
    histogram
}

#[test]
fn routed_tableau_trajectories_match_a_full_tableau_per_shot() {
    let flavors = [
        Flavor::TrailingMeasures,
        Flavor::MidCircuitOnly,
        Flavor::FinalReadout,
    ];
    let noises = [
        NoiseModel::new(),
        algorithms::hardware_noise(0.01),
        algorithms::hardware_noise(0.2),
    ];
    for case in 0..CIRCUITS {
        let circuit = random_circuit(case, flavors[(case % 3) as usize]);
        // Every eighth case spans two chunks, so two workers split it.
        let shots = if case % 8 == 0 {
            PARALLEL_CHUNK_SHOTS as u64 + 77
        } else {
            100
        };
        for noise in &noises {
            let reference = reference_histogram(&circuit, noise, shots, case);
            for threads in [1, 2] {
                let routed = WeakSimulator::new(Backend::DecisionDiagram)
                    .with_clifford_router()
                    .with_noise(noise.clone())
                    .with_threads(threads)
                    .run(&circuit, shots, case)
                    .unwrap();
                let engines: Vec<_> = routed.route.segments.iter().map(|s| s.engine).collect();
                assert_eq!(engines, [EngineKind::Tableau], "case {case}: {circuit:?}");
                assert_eq!(
                    routed.histogram, reference,
                    "case {case}, noise {noise}, {threads} worker(s): {circuit:?}"
                );
            }
        }
    }
}
