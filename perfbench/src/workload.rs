//! The four workloads and their seeded request generator.
//!
//! A workload is a fixed catalogue of circuits (instance seeds of the
//! random families are constants, so runs with different workload seeds do
//! the same amount of work) expanded into one *round*: a list of requests
//! in a fixed order.  The workload seed draws every request's sampling seed
//! and jitters `warm_mix` shot counts inside their strata.  The program
//! only ever sees the generated requests: QASM text, or a built circuit for
//! the families whose multi-controlled gates and permutations have no
//! OpenQASM 2.0 form (Grover, Shor).

use circuit::{Circuit, NoiseModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use weaksim::{Backend, WeakSimulator};

/// Worker threads for trajectory requests.
pub const TRAJECTORY_WORKERS: usize = 2;
/// Shots of every cold request, the size of a typical device job.
pub const COLD_SHOTS: u64 = 4_000;
/// Requests per `warm_mix` round.
pub const WARM_ROUND: usize = 240;
/// Smallest and largest `warm_mix` shot count (log-uniform in between).
pub const WARM_SHOTS: (u64, u64) = (1_000, 1_000_000);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// About 100 distinct static requests, each a cache miss.
    ColdMix,
    /// Three large supremacy instances, each a cache miss.
    ColdLarge,
    /// Zipf-skewed hits on a pool restored from a snapshot.
    WarmMix,
    /// Dynamic and noisy requests through the cache bypass.
    TrajectoryMix,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMix,
        Workload::ColdLarge,
        Workload::WarmMix,
        Workload::TrajectoryMix,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold_mix",
            Workload::ColdLarge => "cold_large",
            Workload::WarmMix => "warm_mix",
            Workload::TrajectoryMix => "trajectory_mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Concurrent closed-loop clients.
    #[must_use]
    pub fn clients(self) -> usize {
        match self {
            Workload::WarmMix => 2,
            _ => 1,
        }
    }

    /// Whether every round starts from an empty cache (the cold workloads).
    #[must_use]
    pub fn cold(self) -> bool {
        matches!(self, Workload::ColdMix | Workload::ColdLarge)
    }

    /// Fewest requests a run serves.
    #[must_use]
    pub fn min_requests(self) -> usize {
        match self {
            Workload::WarmMix => 2 * WARM_ROUND,
            _ => 1,
        }
    }
}

/// What the program receives for one request.
#[derive(Debug, Clone)]
pub enum Payload {
    /// OpenQASM 2.0 text, parsed on every request.
    Qasm(String),
    /// A built circuit (no QASM form exists).
    Built(Circuit),
}

/// How the traced run checks a request's histogram against the ideal
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fit {
    /// Chi-square against exact probabilities from a dense state vector of
    /// the circuit (static circuits of at most [`MAX_FIT_QUBITS`] qubits).
    Exact,
    /// Chi-square against two equally likely outcomes.
    TwoPoint(u64, u64),
    /// Two-sample chi-square against the state-vector backend's
    /// trajectories of the same request.
    CrossBackend,
    /// Too wide for an exact distribution; only shot counts are checked.
    None,
}

/// Widest circuit whose histogram is fitted against exact probabilities.
pub const MAX_FIT_QUBITS: u16 = 20;

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in the round.
    pub id: usize,
    /// Catalogue entry this request instantiates.
    pub name: String,
    /// What the program is handed.
    pub payload: Payload,
    /// Simulator configuration of the request.
    pub sim: WeakSimulator,
    /// Shots asked for.
    pub shots: u64,
    /// Sampling seed.
    pub seed: u64,
    /// `WeakSimulator::request_fingerprint` of the parsed circuit.
    pub fingerprint: [u64; 2],
    /// Histogram check of the traced run.
    pub fit: Fit,
    /// Whether the broker serves the request through its cache bypass
    /// (noisy or dynamic circuits).
    pub bypass: bool,
}

impl Request {
    /// The circuit of the request: parses QASM text, borrows a built one.
    ///
    /// # Errors
    ///
    /// Returns the parser's message for malformed QASM.
    pub fn circuit(&self) -> Result<Cow<'_, Circuit>, String> {
        match &self.payload {
            Payload::Qasm(text) => circuit::qasm::parse(text)
                .map(Cow::Owned)
                .map_err(|e| e.to_string()),
            Payload::Built(circuit) => Ok(Cow::Borrowed(circuit)),
        }
    }

    /// Short backend label for the request list.
    #[must_use]
    pub fn backend_label(&self) -> &'static str {
        let noisy = self.sim.noise().is_some_and(NoiseModel::has_noise);
        match (self.sim.backend(), noisy) {
            (Backend::DecisionDiagram, false) => "dd",
            (Backend::DecisionDiagram, true) => "dd+noise",
            (Backend::StateVector, false) => "sv",
            (Backend::StateVector, true) => "sv+noise",
        }
    }
}

/// A catalogue entry before expansion into requests.
struct Template {
    name: String,
    circuit: Circuit,
    sim: WeakSimulator,
    /// Requests per round.
    count: usize,
    /// Shot count, or `None` for the stratified log-uniform warm counts.
    shots: Option<u64>,
    fit: Fit,
}

/// The simulator every request runs on: the Clifford router on, two
/// trajectory workers, and the request's noise model.
fn simulator(backend: Backend, noise: Option<NoiseModel>) -> WeakSimulator {
    let sim = WeakSimulator::new(backend)
        .with_clifford_router()
        .with_threads(TRAJECTORY_WORKERS);
    match noise {
        Some(model) => sim.with_noise(model),
        None => sim,
    }
}

fn static_template(name: String, circuit: Circuit, backend: Backend, count: usize) -> Template {
    let fit = if circuit.num_qubits() <= MAX_FIT_QUBITS {
        Fit::Exact
    } else {
        Fit::None
    };
    Template {
        name,
        circuit,
        sim: simulator(backend, None),
        count,
        shots: Some(COLD_SHOTS),
        fit,
    }
}

fn supremacy(rows: u16, cols: u16, depth: u16, seed: u64) -> (String, Circuit) {
    let (circuit, _) = algorithms::supremacy(rows, cols, depth, seed);
    (format!("supremacy_{rows}x{cols}_{depth}_s{seed}"), circuit)
}

/// The `cold_mix` catalogue: Table I families at sizes that build in about
/// 0.01–0.8 s.  Instances whose build is far outside that range on a 2-core
/// box (e.g. `supremacy_4x5_7` seed 2 at ~2 s) are left out.
fn cold_mix_catalogue() -> Vec<Template> {
    let dd = Backend::DecisionDiagram;
    let mut out = Vec::new();
    let mut add = |(name, circuit): (String, Circuit)| {
        out.push(static_template(name, circuit, dd, 1));
    };
    for seed in 0..16 {
        add(supremacy(4, 4, 8, seed));
    }
    for depth in [9, 10] {
        for seed in [0, 3] {
            add(supremacy(4, 4, depth, seed));
        }
    }
    for seed in [0, 1, 3, 5] {
        add(supremacy(4, 5, 6, seed));
    }
    for seed in [0, 1, 3] {
        add(supremacy(4, 5, 7, seed));
    }
    for n in 16..=48 {
        add((format!("qft_{n}"), algorithms::qft(n, true)));
    }
    for (modulus, base) in [(33, 2), (33, 5), (55, 2)] {
        let (circuit, _) = algorithms::shor(modulus, base);
        add((format!("shor_{modulus}_{base}"), circuit));
    }
    // Grover-13 seeds 2, 8 and 9 grow to ~11k nodes and take ~40 s.
    for (n, seeds) in [
        (12, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9][..]),
        (13, &[0, 1, 3, 4, 5, 6, 7]),
    ] {
        for &seed in seeds {
            add((format!("grover_{n}_s{seed}"), algorithms::grover(n, seed)));
        }
    }
    for seed in 0..4 {
        add((
            format!("random_12_10_s{seed}"),
            algorithms::random_circuit(12, 10, seed),
        ));
    }
    for n in (250..=1000).step_by(50) {
        add((format!("ghz_{n}"), algorithms::ghz(n)));
    }
    out
}

/// The `cold_large` catalogue: three `supremacy_4x5_8` instances of
/// 344k–458k nodes.
fn cold_large_catalogue() -> Vec<Template> {
    [9, 5, 2020]
        .into_iter()
        .map(|seed| {
            let (name, circuit) = supremacy(4, 5, 8, seed);
            static_template(name, circuit, Backend::DecisionDiagram, 1)
        })
        .collect()
}

/// The `warm_mix` pool in Zipf rank order, with per-round request counts
/// proportional to `1 / rank`.
fn warm_mix_catalogue() -> Vec<Template> {
    let dd = Backend::DecisionDiagram;
    let sv = Backend::StateVector;
    let (sup_4x4, sup_4x4_circuit) = supremacy(4, 4, 10, 1);
    let (sup_4x5, sup_4x5_circuit) = supremacy(4, 5, 8, 10);
    let (shor, _) = algorithms::shor(55, 2);
    let pool = vec![
        (sup_4x4.clone(), sup_4x4_circuit.clone(), dd),
        ("ghz_1000".to_owned(), algorithms::ghz(1000), dd),
        ("qft_48".to_owned(), algorithms::qft(48, true), dd),
        ("qft_20".to_owned(), algorithms::qft(20, true), sv),
        ("shor_55_2".to_owned(), shor, dd),
        (sup_4x4, sup_4x4_circuit, sv),
        (sup_4x5, sup_4x5_circuit, dd),
    ];
    let counts = zipf_counts(pool.len(), WARM_ROUND);
    pool.into_iter()
        .zip(counts)
        .map(|((name, circuit, backend), count)| {
            let mut template = static_template(name, circuit, backend, count);
            template.shots = None;
            template
        })
        .collect()
}

/// The `trajectory_mix` catalogue: dynamic and noisy requests, four of each
/// per round.  Shot counts put the five kinds at distinct latencies (about
/// 20, 40, 65, 100 and 140 ms on a 2-core box) with IPE in the middle, so
/// the median request is an IPE request and not a boundary between kinds.
fn trajectory_mix_catalogue() -> Vec<Template> {
    let dd = Backend::DecisionDiagram;
    let noisy = |p: f64| Some(algorithms::hardware_noise(p));
    let (supremacy_name, supremacy_circuit) = supremacy(3, 3, 10, 1);
    let cycle = algorithms::stabilizer_cycle(9, 3);
    let entries = [
        (
            "teleportation_p0.01",
            algorithms::teleportation(1.2),
            noisy(0.01),
            100_000,
            Fit::CrossBackend,
        ),
        (
            "ipe_5_p0.01",
            algorithms::ipe(5, 2.0 * std::f64::consts::PI * 11.0 / 32.0),
            noisy(0.01),
            80_000,
            Fit::CrossBackend,
        ),
        (
            "supremacy_3x3_10_p0.002",
            supremacy_circuit,
            noisy(0.002),
            600,
            Fit::CrossBackend,
        ),
        (
            "stabilizer_cycle_9x3",
            cycle.clone(),
            None,
            1_500,
            Fit::TwoPoint(0, (1 << 9) - 1),
        ),
        (
            "stabilizer_cycle_9x3_p0.01",
            cycle,
            noisy(0.01),
            2_500,
            Fit::CrossBackend,
        ),
    ];
    debug_assert!(supremacy_name.starts_with("supremacy_3x3_10"));
    entries
        .into_iter()
        .map(|(name, circuit, noise, shots, fit)| Template {
            name: name.to_owned(),
            circuit,
            sim: simulator(dd, noise),
            count: 4,
            shots: Some(shots),
            fit,
        })
        .collect()
}

/// Request counts for `ranks` Zipf (`s = 1`) ranks summing to `total`.
fn zipf_counts(ranks: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| ((w / sum) * total as f64).floor() as usize)
        .collect();
    let mut missing = total - counts.iter().sum::<usize>();
    for count in &mut counts {
        if missing == 0 {
            break;
        }
        *count += 1;
        missing -= 1;
    }
    counts
}

/// `count` log-uniform shot counts over [`WARM_SHOTS`], one per stratum of
/// equal log width, jittered inside its stratum by `rng`.  The strata are
/// dealt in a fixed order that depends only on `salt`, so every seed asks
/// for similar shot counts at every position of the round.
fn stratified_shots(count: usize, salt: u64, rng: &mut SmallRng) -> Vec<u64> {
    let (lo, hi) = WARM_SHOTS;
    let span = (hi as f64 / lo as f64).ln();
    let mut strata: Vec<usize> = (0..count).collect();
    let mut order = SmallRng::seed_from_u64(salt);
    for i in (1..count).rev() {
        strata.swap(i, order.gen_range(0..=i));
    }
    strata
        .into_iter()
        .map(|j| {
            let u: f64 = rng.gen();
            let x = (j as f64 + u) / count as f64;
            ((lo as f64 * (span * x).exp()).round() as u64).clamp(lo, hi)
        })
        .collect()
}

/// Generates one round of `workload` for `seed`.
///
/// # Panics
///
/// Panics if a catalogue circuit fails its own QASM round trip, which is a
/// bug in the catalogue.
#[must_use]
pub fn generate(workload: Workload, seed: u64) -> Vec<Request> {
    let templates = match workload {
        Workload::ColdMix => cold_mix_catalogue(),
        Workload::ColdLarge => cold_large_catalogue(),
        Workload::WarmMix => warm_mix_catalogue(),
        Workload::TrajectoryMix => trajectory_mix_catalogue(),
    };
    let tag = workload
        .name()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let mut rng = SmallRng::seed_from_u64(seed ^ tag);

    // The round's order is fixed: the `j`-th of a template's `n` requests
    // sits at position `(j + 1/2) / n`, which spreads every template evenly
    // over the round, and templates at one position follow a fixed
    // pseudo-random order, which interleaves the families of `cold_mix`.
    // Seed-dependent orders would make the allocator's peak, and so
    // `peak_rss_mb`, differ from seed to seed; grouped families would time
    // all requests of a family within the same second of a machine whose
    // speed drifts, which makes the median jump.
    let mut slots: Vec<(f64, usize, u64)> = Vec::new();
    for (index, template) in templates.iter().enumerate() {
        let shots = match template.shots {
            Some(shots) => vec![shots; template.count],
            None => stratified_shots(template.count, index as u64, &mut rng),
        };
        let n = shots.len() as f64;
        slots.extend(
            shots
                .into_iter()
                .enumerate()
                .map(|(j, s)| ((j as f64 + 0.5) / n, index, s)),
        );
    }
    slots.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| crate::serve::mix(a.1 as u64).cmp(&crate::serve::mix(b.1 as u64)))
    });

    // Each template is written to QASM (or kept built) and fingerprinted once.
    let payloads: Vec<(Payload, [u64; 2])> = templates
        .iter()
        .map(|template| {
            let payload = match circuit::qasm::to_qasm(&template.circuit) {
                Ok(text) => Payload::Qasm(text),
                Err(_) => Payload::Built(template.circuit.clone()),
            };
            let parsed = match &payload {
                Payload::Qasm(text) => {
                    circuit::qasm::parse(text).expect("catalogue QASM parses back")
                }
                Payload::Built(circuit) => circuit.clone(),
            };
            (payload, template.sim.request_fingerprint(&parsed))
        })
        .collect();

    slots
        .into_iter()
        .enumerate()
        .map(|(id, (_, index, shots))| {
            let template = &templates[index];
            let (payload, fingerprint) = &payloads[index];
            let noisy = template.sim.noise().is_some_and(NoiseModel::has_noise);
            Request {
                id,
                name: template.name.clone(),
                payload: payload.clone(),
                sim: template.sim.clone(),
                shots,
                seed: rng.gen(),
                fingerprint: *fingerprint,
                fit: template.fit,
                bypass: noisy || template.circuit.is_dynamic(),
            }
        })
        .collect()
}
