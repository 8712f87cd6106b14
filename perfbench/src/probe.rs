//! Per-layer probes of the traced run: exact-distribution fits, the
//! per-gate decision-diagram construction profile, sampler and artifact
//! measurements, and the trajectory entry points.  Every probe calls the
//! layer's public functions from outside and records a span around each
//! call.

use crate::serve::Served;
use crate::trace::{timed, Tracer};
use crate::workload::{Fit, Request};
use circuit::Circuit;
use dd::{CompiledSampler, DdPackage, DdStats, StateDd};
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use statevector::PrefixSampler;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use weaksim::{Backend, PreparedSampler, ServiceBroker, ShotHistogram};

/// Shots drawn by every sampler probe.
pub const PROBE_SHOTS: usize = 20_000;
/// A fit whose chi-square p-value falls below this fails its request.
pub const SIGNIFICANCE: f64 = 1e-6;
/// `dd::apply_circuit`'s garbage-collection threshold, mirrored by the
/// per-gate profile so it builds exactly what the served request built.
const GC_NODE_THRESHOLD: usize = 250_000;

/// Exact distributions and fit results of a traced round.
#[derive(Debug, Default)]
pub struct Fits {
    /// Exact probabilities per request fingerprint, when precomputed.
    exact: Mutex<HashMap<[u64; 2], Arc<Vec<f64>>>>,
    /// Every fit's p-value.
    pub p_values: Mutex<Vec<f64>>,
}

impl Fits {
    /// Computes the exact distribution of every distinct request that is
    /// fitted against one, ahead of the round.
    ///
    /// # Errors
    ///
    /// Returns the first parse or simulation error.
    pub fn prepare(&self, requests: &[Request], tracer: &Tracer) -> Result<(), String> {
        for request in requests.iter().filter(|r| r.fit == Fit::Exact) {
            let known = self
                .exact
                .lock()
                .expect("no thread panics while holding the fits")
                .contains_key(&request.fingerprint);
            if !known {
                let circuit = request.circuit()?;
                let probabilities = self.dense_oracle(request, &circuit, tracer, None)?;
                self.exact
                    .lock()
                    .expect("no thread panics while holding the fits")
                    .insert(request.fingerprint, Arc::new(probabilities));
            }
        }
        Ok(())
    }

    /// Strong-simulates `circuit` on the dense backend, builds its prefix
    /// sums, draws a probe batch from them, and returns the exact
    /// probabilities.
    fn dense_oracle(
        &self,
        request: &Request,
        circuit: &Circuit,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Result<Vec<f64>, String> {
        let id = Some(request.id);
        let (state, _) = timed(Some(tracer), "sv.construct", parent, id, || {
            statevector::simulate(circuit)
        });
        let state = state.map_err(|e| format!("dense oracle: {e}"))?;
        let (prefix, _) = timed(Some(tracer), "sv.prefix_build", parent, id, || {
            PrefixSampler::new(&state)
        });
        timed(Some(tracer), "sv.draw", parent, id, || {
            let mut rng = StdRng::seed_from_u64(request.seed);
            black_box(prefix.sample_many(&mut rng, PROBE_SHOTS));
        });
        Ok(state.probabilities())
    }

    fn record(&self, p: f64) -> Option<String> {
        self.p_values
            .lock()
            .expect("no thread panics while holding the fits")
            .push(p);
        (p < SIGNIFICANCE).then(|| format!("fit rejected: chi-square p = {p:e}"))
    }

    /// The post-request hook of a traced round: fits the histogram against
    /// its exact distribution and says whether to keep it for a fit against
    /// another backend later.
    pub fn check(
        &self,
        request: &Request,
        circuit: &Circuit,
        histogram: &ShotHistogram,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> (Option<String>, bool) {
        match request.fit {
            Fit::Exact => {
                let known = self
                    .exact
                    .lock()
                    .expect("no thread panics while holding the fits")
                    .get(&request.fingerprint)
                    .cloned();
                let probabilities = match known {
                    Some(p) => p,
                    None => match self.dense_oracle(request, circuit, tracer, parent) {
                        Ok(p) => Arc::new(p),
                        Err(e) => return (Some(e), false),
                    },
                };
                let p = weaksim::stats::chi_square_test(histogram, |o| {
                    usize::try_from(o)
                        .ok()
                        .and_then(|o| probabilities.get(o))
                        .copied()
                        .unwrap_or(0.0)
                })
                .p_value;
                (self.record(p), false)
            }
            Fit::TwoPoint(a, b) => {
                let p = weaksim::stats::chi_square_test(histogram, |o| {
                    if o == a || o == b {
                        0.5
                    } else {
                        0.0
                    }
                })
                .p_value;
                (self.record(p), false)
            }
            Fit::CrossBackend => (None, true),
            Fit::None => (None, false),
        }
    }

    /// Fits two histograms of the same distribution against each other.
    pub fn two_sample(&self, a: &ShotHistogram, b: &ShotHistogram) -> Option<String> {
        self.record(two_sample_p(a, b))
    }
}

/// p-value of the two-sample chi-square test that `a` and `b` were drawn
/// from one distribution; bins with fewer than 10 shots in both samples
/// together are pooled.
#[must_use]
pub fn two_sample_p(a: &ShotHistogram, b: &ShotHistogram) -> f64 {
    let (na, nb) = (a.shots() as f64, b.shots() as f64);
    let mut outcomes: Vec<u64> = a
        .counts()
        .keys()
        .chain(b.counts().keys())
        .copied()
        .collect();
    outcomes.sort_unstable();
    outcomes.dedup();
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let mut pool = (0.0, 0.0);
    for o in outcomes {
        let bin = (a.count(o) as f64, b.count(o) as f64);
        if bin.0 + bin.1 < 10.0 {
            pool.0 += bin.0;
            pool.1 += bin.1;
        } else {
            bins.push(bin);
        }
    }
    if pool.0 + pool.1 > 0.0 {
        bins.push(pool);
    }
    let (ka, kb) = ((nb / na).sqrt(), (na / nb).sqrt());
    let statistic: f64 = bins
        .iter()
        .map(|&(x, y)| (ka * x - kb * y).powi(2) / (x + y))
        .sum();
    let dof = bins.len().saturating_sub(1).max(1) as f64;
    weaksim::stats::chi_square_survival(statistic, dof)
}

/// One gate of the construction profile.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// Request the circuit belongs to.
    pub request: usize,
    /// Operation index.
    pub op: usize,
    /// The operation as written by the circuit crate.
    pub gate: String,
    /// Seconds in `dd::apply_operation`.
    pub seconds: f64,
    /// Nodes of the state after the gate.
    pub live_nodes: usize,
}

/// Construction profile of one circuit.
#[derive(Debug, Clone, Default)]
pub struct Construction {
    /// Seconds in `dd::apply_operation` plus garbage collection.
    pub seconds: f64,
    /// Seconds in the ten most expensive gates.
    pub top10_seconds: f64,
    /// Final state size.
    pub final_nodes: usize,
    /// Largest state size after any gate.
    pub peak_nodes: usize,
    /// Package counters after construction.
    pub stats: DdStats,
    /// Seconds in `CompiledSampler::new`.
    pub compile_seconds: f64,
    /// Compiled arena bytes.
    pub arena_bytes: usize,
}

/// Builds `circuit` gate by gate with `dd::apply_operation`, as
/// `dd::simulate` does, and compiles the sampler of the result.
///
/// # Errors
///
/// Returns the package's error message.
pub fn construct(
    request: &Request,
    circuit: &Circuit,
    tracer: &Tracer,
    gates: &mut Vec<GateLine>,
) -> Result<Construction, String> {
    let id = Some(request.id);
    let span = tracer.reserve();
    let start = Instant::now();
    let mut package = DdPackage::new();
    let mut state =
        StateDd::zero_state(&mut package, circuit.num_qubits()).map_err(|e| e.to_string())?;
    let mut out = Construction::default();
    let mut times = Vec::with_capacity(circuit.len());
    for (op_index, op) in circuit.iter().enumerate() {
        let (next, elapsed) = timed(Some(tracer), "dd.apply_operation", Some(span), id, || {
            dd::apply_operation(&mut package, state, op)
        });
        state = next.map_err(|e| e.to_string())?;
        let live = state.node_count(&package);
        let mut seconds = elapsed.as_secs_f64();
        if package.allocated_vector_nodes() > GC_NODE_THRESHOLD
            && package.allocated_vector_nodes() > 4 * live
        {
            let (roots, gc) = timed(Some(tracer), "dd.gc", Some(span), id, || {
                package.collect_garbage(&[state.root()])
            });
            state = StateDd::from_root(roots[0], state.num_qubits());
            seconds += gc.as_secs_f64();
        }
        times.push(seconds);
        out.peak_nodes = out.peak_nodes.max(live);
        gates.push(GateLine {
            request: request.id,
            op: op_index,
            gate: op.to_string(),
            seconds,
            live_nodes: live,
        });
    }
    tracer.record(span, "dd.construct", None, id, start, Instant::now());
    out.seconds = times.iter().sum();
    times.sort_by(|a, b| b.total_cmp(a));
    out.top10_seconds = times.iter().take(10).sum();
    out.final_nodes = state.node_count(&package);
    out.stats = package.stats();
    let (sampler, compile) = timed(Some(tracer), "sampler.compile", None, id, || {
        CompiledSampler::new(&package, &state)
    });
    let sampler = sampler.map_err(|e| e.to_string())?;
    out.compile_seconds = compile.as_secs_f64();
    out.arena_bytes = sampler.arena_bytes();
    Ok(out)
}

/// Writes the construction profile as one JSON line per gate.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_gates(path: &Path, requests: &[Request], gates: &[GateLine]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for g in gates {
        writeln!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"op\":{},\"gate\":\"{}\",\"seconds\":{},\"live_nodes\":{}}}",
            g.request,
            requests[g.request].name,
            g.op,
            g.gate.replace('\\', "\\\\").replace('"', "\\\""),
            g.seconds,
            g.live_nodes
        )?;
    }
    out.flush()
}

/// Draws [`PROBE_SHOTS`] from every distinct artifact the requests use:
/// compiled decision-diagram arenas on one and on two threads, and tableau
/// samplers.  Uses `cache().get`, so run it on a broker whose counters are
/// no longer reported.
pub fn draw_probes(requests: &[Request], broker: &ServiceBroker, tracer: &Tracer) {
    let mut seen = std::collections::HashSet::new();
    for request in requests.iter().filter(|r| !r.bypass) {
        if !seen.insert(request.fingerprint) {
            continue;
        }
        let Some(artifact) = broker.cache().get(request.fingerprint) else {
            continue;
        };
        let id = Some(request.id);
        match artifact.sampler() {
            PreparedSampler::DecisionDiagram(sampler) => {
                timed(Some(tracer), "sampler.draw_1t", None, id, || {
                    let mut rng = SmallRng::seed_from_u64(request.seed);
                    black_box(sampler.sample_many(&mut rng, PROBE_SHOTS));
                });
                timed(Some(tracer), "sampler.draw_2t", None, id, || {
                    black_box(sampler.sample_many_parallel_with_threads(
                        request.seed,
                        PROBE_SHOTS,
                        2,
                    ));
                });
            }
            PreparedSampler::Tableau(sampler) => {
                timed(Some(tracer), "tableau.draw", None, id, || {
                    let mut rng = SmallRng::seed_from_u64(request.seed);
                    let mut acc = 0u64;
                    for _ in 0..PROBE_SHOTS {
                        acc ^= sampler.sample_u64(&mut rng);
                    }
                    black_box(acc);
                });
            }
            PreparedSampler::StateVector(_) => {}
        }
    }
}

/// Results of the trajectory entry-point probes.
#[derive(Debug, Clone, Default)]
pub struct Trajectories {
    /// Seconds at one worker.
    pub one_worker_s: f64,
    /// Seconds at two workers.
    pub two_workers_s: f64,
    /// Package counters of the two-worker runs.
    pub stats: DdStats,
    /// Largest representation of the two-worker runs.
    pub peak_representation: u128,
    /// Failed checks.
    pub errors: Vec<String>,
}

/// Runs each distinct trajectory request through the public trajectory
/// entry points at one and two workers (their histograms must agree
/// bit for bit), and fits the served histogram of requests checked against
/// the state-vector backend.
pub fn trajectory_probes(
    requests: &[Request],
    served: &[Served],
    fits: &Fits,
    tracer: &Tracer,
) -> Trajectories {
    let mut out = Trajectories::default();
    let mut seen = std::collections::HashSet::new();
    for request in requests.iter().filter(|r| r.bypass) {
        if !seen.insert(request.name.clone()) {
            continue;
        }
        let circuit = match request.circuit() {
            Ok(c) => c,
            Err(e) => {
                out.errors.push(e);
                continue;
            }
        };
        let noise = request.sim.noise().filter(|m| m.has_noise());
        let run = |backend: Backend, threads: usize, shots: u64, seed: u64| match noise {
            Some(model) => weaksim::simulate_noisy_trajectories_with_threads(
                backend, &circuit, model, shots, seed, threads,
            ),
            None => {
                weaksim::simulate_trajectories_with_threads(backend, &circuit, shots, seed, threads)
            }
        };
        let id = Some(request.id);
        let (one, t1) = timed(Some(tracer), "trajectory.run_1w", None, id, || {
            run(Backend::DecisionDiagram, 1, request.shots, request.seed)
        });
        let (two, t2) = timed(Some(tracer), "trajectory.run_2w", None, id, || {
            run(Backend::DecisionDiagram, 2, request.shots, request.seed)
        });
        let (one, two) = match (one, two) {
            (Ok(one), Ok(two)) => (one, two),
            (Err(e), _) | (_, Err(e)) => {
                out.errors.push(format!("{}: {e}", request.name));
                continue;
            }
        };
        if one.histogram != two.histogram {
            out.errors.push(format!(
                "{}: 1- and 2-worker histograms differ",
                request.name
            ));
        }
        out.one_worker_s += t1.as_secs_f64();
        out.two_workers_s += t2.as_secs_f64();
        if let Some(stats) = two.dd_stats {
            out.stats.merge(&stats);
        }
        out.peak_representation = out.peak_representation.max(two.representation_size);

        if request.fit == Fit::CrossBackend {
            let kept = served
                .iter()
                .find(|s| requests[s.id].name == request.name)
                .and_then(|s| s.histogram.as_ref());
            // Dense trajectories cost 2^n per gate and shot: wide circuits
            // get a small reference sample.
            let reference_shots = if circuit.num_qubits() <= 12 {
                request.shots.min(20_000)
            } else {
                200
            };
            let (reference, _) = timed(Some(tracer), "trajectory.sv_reference", None, id, || {
                run(
                    Backend::StateVector,
                    2,
                    reference_shots,
                    request.seed ^ 0x5eed,
                )
            });
            match (kept, reference) {
                (Some(kept), Ok(reference)) => {
                    if let Some(e) = fits.two_sample(kept, &reference.histogram) {
                        out.errors.push(format!("{}: {e}", request.name));
                    }
                }
                (None, _) => out
                    .errors
                    .push(format!("{}: served histogram missing", request.name)),
                (_, Err(e)) => out.errors.push(format!("{}: {e}", request.name)),
            }
        }
    }
    out
}
