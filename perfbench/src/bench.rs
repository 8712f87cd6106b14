//! One benchmark run: set-up, timed rounds, checks and metrics, untraced
//! (end-to-end metrics) or traced (per-layer metrics).
//!
//! An untraced run sets up several times (`setup_s` is the median), then
//! serves whole rounds until `--seconds` have passed; cold rounds start on
//! a fresh broker.  Latency is measured per request, throughput over the
//! summed round wall time.
//!
//! A traced run serves one untraced round, the same round traced (spans
//! around parse, fingerprint, serve and the checks, plus chi-square fits
//! after each request), then probes the layers.  Its per-layer metrics:
//!
//! | metric | definition |
//! |---|---|
//! | `circuit.*_s` | summed parse / fingerprint spans of the traced round |
//! | `router.*_requests` | traced requests per `RunOutcome::route` class |
//! | `dd.*` | per-gate `dd::apply_operation` build of every distinct circuit the round built on the DD engine: summed seconds (GC included), summed `DdStats` counters, summed final sizes, largest size after any gate, share of time in each build's ten slowest gates |
//! | `sampler.*` | `CompiledSampler::new` on those builds; draws from the served artifacts after a snapshot round trip, per shot |
//! | `sv.*` | the dense oracle of every fitted circuit: `statevector::simulate`, `PrefixSampler::new`, draws per shot |
//! | `tableau.draw_ns_per_shot` | draws from tableau artifacts, per shot |
//! | `tableau.dynamic_shots_per_s` | shots per serve second of dynamic requests routed to the tableau |
//! | `artifact.*` | summed `SimArtifact::sample` time and distinct outcomes of the round; one snapshot write and load of the round's cache |
//! | `cache.*`, `service.*` | counter deltas over the traced round; overhead is serve time minus the outcome's strong, precompute and sampling time |
//! | `trajectory.*` | the trajectory entry points per distinct request at one and two workers |
//! | `trace.overhead_ratio` | summed traced request latency over the untraced round's (which runs first, in a fresh process) |
//! | `check.*` | fits run and their smallest p-value |
//!
//! A layer a workload does not exercise reports 0.

use crate::probe::{self, Fits, GateLine, PROBE_SHOTS};
use crate::report::{median, percentile, ratio, Metric};
use crate::serve::{run_round, Round, RouteClass, Served};
use crate::sys;
use crate::trace::{timed, Tracer};
use crate::workload::{generate, Request, Workload};
use dd::DdStats;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use weaksim::{ArtifactCache, Backend, CacheOutcome, ServiceBroker, ServiceConfig};

/// Set-ups before and after the timed rounds; `setup_s` is their median.
/// Spreading them over the run samples the machine's speed, which drifts
/// over seconds on a shared host, at several points.
const SETUPS: (usize, usize) = (5, 4);
/// Set-ups of `warm_mix`, whose set-up builds the whole artifact pool
/// (seconds each): one before the rounds and one after the served pool is
/// dropped, so two pools never coexist.
const WARM_SETUPS: (usize, usize) = (1, 1);

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Seconds to keep serving rounds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where snapshots, spans and the gate profile go.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed or failed a check.
    pub failed: usize,
    /// Run-level check failures (spot check, cache decisions, digests).
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// A broker configured like `weaksim-cli`'s default.
#[must_use]
pub fn new_broker() -> ServiceBroker {
    ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default())
}

/// The generated requests plus, for `warm_mix`, the restored pool.
pub struct Prepared {
    /// One round.
    pub requests: Vec<Request>,
    /// The broker the rounds are served by when it outlives a round.
    pub pool: Option<ServiceBroker>,
}

/// Builds every distinct artifact of `requests` on a scratch broker, writes
/// a snapshot to `path`, and restores it into a fresh broker.
///
/// # Errors
///
/// Fails when a build fails or the snapshot does not restore every entry.
pub fn restore_pool(requests: &[Request], path: &Path) -> Result<ServiceBroker, String> {
    let scratch = new_broker();
    let mut seen = HashSet::new();
    for request in requests.iter().filter(|r| !r.bypass) {
        if seen.insert(request.fingerprint) {
            let circuit = request.circuit()?;
            scratch
                .serve(&request.sim, &circuit, 1, 0)
                .map_err(|e| format!("pool build of {}: {e}", request.name))?;
        }
    }
    let written = scratch
        .write_snapshot(path)
        .map_err(|e| format!("snapshot write: {e}"))?;
    drop(scratch);
    let pool = new_broker();
    let loaded = pool
        .load_snapshot(path)
        .map_err(|e| format!("snapshot load: {e}"))?;
    std::fs::remove_file(path).map_err(|e| format!("snapshot cleanup: {e}"))?;
    if loaded.loaded != seen.len() || written.entries != seen.len() || loaded.skipped > 0 {
        return Err(format!(
            "snapshot restored {} of {} artifacts ({} skipped)",
            loaded.loaded,
            seen.len(),
            loaded.skipped
        ));
    }
    Ok(pool)
}

/// Generates the inputs and, for `warm_mix`, builds, snapshots and
/// restores the artifact pool.
///
/// # Errors
///
/// Propagates pool failures.
pub fn prepare(workload: Workload, seed: u64, out_dir: &Path) -> Result<Prepared, String> {
    let requests = generate(workload, seed);
    let pool = match workload {
        Workload::WarmMix => {
            let path = out_dir.join(format!("{}-{seed}-pool.snap", workload.name()));
            Some(restore_pool(&requests, &path)?)
        }
        _ => None,
    };
    Ok(Prepared { requests, pool })
}

/// Checks every served request's cache decision against the workload:
/// cold rounds miss, warm rounds hit, trajectory requests bypass.
#[must_use]
pub fn cache_violations(workload: Workload, requests: &[Request], round: &Round) -> Vec<String> {
    round
        .served
        .iter()
        .filter(|s| s.error.is_none())
        .filter_map(|s| {
            let request = &requests[s.id];
            let expected = if request.bypass {
                None
            } else if workload.cold() {
                Some(CacheOutcome::Miss)
            } else {
                Some(CacheOutcome::Hit)
            };
            (s.cache != expected).then(|| {
                format!(
                    "request {} ({}): cache decision {:?}, expected {expected:?}",
                    s.id, request.name, s.cache
                )
            })
        })
        .collect()
}

/// Requests of `round` whose digest differs from `reference`'s.
fn digest_mismatches(round: &Round, reference: &Round) -> Vec<usize> {
    round
        .served
        .iter()
        .zip(&reference.served)
        .filter(|(a, b)| a.error.is_none() && b.error.is_none() && a.digest != b.digest)
        .map(|(a, _)| a.id)
        .collect()
}

/// Re-serves one request and compares it with a direct
/// `WeakSimulator::run` of the same request and seed.  Static requests are
/// re-served warm from `broker`; a trajectory request is compared with the
/// histogram its round served.
fn spot_check(requests: &[Request], broker: &ServiceBroker, round: &Round) -> Option<String> {
    let request = requests
        .iter()
        .min_by_key(|r| (r.circuit().map_or(usize::MAX, |c| c.len()), r.id))?;
    let circuit = match request.circuit() {
        Ok(c) => c,
        Err(e) => return Some(e),
    };
    let direct = match request
        .sim
        .clone()
        .run(&circuit, request.shots, request.seed)
    {
        Ok(outcome) => outcome.histogram,
        Err(e) => return Some(format!("spot check direct run: {e}")),
    };
    let served = if request.bypass {
        round.served[request.id].digest
    } else {
        match broker.serve(&request.sim, &circuit, request.shots, request.seed) {
            Ok(outcome) if outcome.cache == Some(CacheOutcome::Hit) => {
                crate::serve::digest(&outcome.histogram)
            }
            Ok(outcome) => {
                return Some(format!(
                    "spot check: re-serve was {:?}, not a hit",
                    outcome.cache
                ))
            }
            Err(e) => return Some(format!("spot check re-serve: {e}")),
        }
    };
    (served != crate::serve::digest(&direct)).then(|| {
        format!(
            "spot check: served histogram of {} differs from a direct run",
            request.name
        )
    })
}

/// Times one set-up.
fn timed_setup(options: &Options, setups: &mut Vec<f64>) -> Result<Prepared, String> {
    let start = Instant::now();
    let prepared = prepare(options.workload, options.seed, &options.out_dir)?;
    setups.push(start.elapsed().as_secs_f64());
    Ok(prepared)
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Fails when set-up fails.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload;
    let (before, after) = match workload {
        Workload::WarmMix => WARM_SETUPS,
        _ => SETUPS,
    };
    let mut setups = Vec::new();
    for _ in 1..before {
        drop(timed_setup(options, &mut setups)?);
    }
    let Prepared { requests, pool } = timed_setup(options, &mut setups)?;

    let mut rounds: Vec<Round> = Vec::new();
    let mut problems = Vec::new();
    let mut last_broker = None;
    let start = Instant::now();
    while rounds.is_empty()
        || start.elapsed().as_secs_f64() < options.seconds
        || rounds.len() * requests.len() < workload.min_requests()
    {
        let fresh = pool.is_none().then(new_broker);
        let broker = fresh.as_ref().or(pool.as_ref()).expect("a broker");
        let round = run_round(&requests, workload.clients(), broker, None, None);
        problems.extend(cache_violations(workload, &requests, &round));
        rounds.push(round);
        if fresh.is_some() {
            last_broker = fresh;
        }
    }
    let broker = pool
        .as_ref()
        .or(last_broker.as_ref())
        .expect("a broker served the last round");
    let spot = spot_check(&requests, broker, rounds.last().expect("a round ran"));
    problems.extend(spot);
    drop((pool, last_broker));
    for _ in 0..after {
        drop(timed_setup(options, &mut setups)?);
    }

    let mut failed_ids: HashSet<(usize, usize)> = HashSet::new();
    for (r, round) in rounds.iter().enumerate() {
        failed_ids.extend(
            round
                .served
                .iter()
                .filter(|s| s.error.is_some())
                .map(|s| (r, s.id)),
        );
        failed_ids.extend(
            digest_mismatches(round, &rounds[0])
                .into_iter()
                .map(|id| (r, id)),
        );
    }
    let served: Vec<&Served> = rounds.iter().flat_map(|r| &r.served).collect();
    let attempted = served.len();
    let failed = failed_ids.len();
    let wall: f64 = rounds.iter().map(|r| r.wall).sum();
    let latencies: Vec<f64> = served.iter().map(|s| s.latency).collect();
    let shots: u64 = served.iter().map(|s| s.shots).sum();
    let n = latencies.len();

    let mut notes = vec![
        format!(
            "rounds {} requests {attempted} wall_s {wall:.3}",
            rounds.len()
        ),
        format!("round_digest {:016x}", rounds[0].digest()),
        format!("metric request_p50_s {} s (n={n})", median(&latencies)),
    ];
    if n >= 100 {
        notes.push(format!(
            "metric request_p90_s {} s (n={n})",
            percentile(&latencies, 0.9)
        ));
    } else {
        notes.push(format!(
            "metric request_p90_s not reported: {n} requests, fewer than 100"
        ));
    }
    notes.push(format!(
        "metric error_rate {} (failed {failed} of {attempted})",
        ratio(failed as f64, attempted as f64)
    ));
    let mut kinds: Vec<&str> = requests.iter().map(|r| r.name.as_str()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    if kinds.len() < requests.len() {
        for kind in kinds {
            let of_kind: Vec<f64> = served
                .iter()
                .filter(|s| requests[s.id].name == kind)
                .map(|s| s.latency)
                .collect();
            notes.push(format!(
                "latency {kind} p50 {:.4} s (n={})",
                median(&of_kind),
                of_kind.len()
            ));
        }
    }
    let mut slowest: Vec<&Served> = rounds[0].served.iter().collect();
    slowest.sort_by(|a, b| b.latency.total_cmp(&a.latency));
    for s in slowest.iter().take(5) {
        notes.push(format!(
            "slow request {} {} {:.4} s",
            s.id, requests[s.id].name, s.latency
        ));
    }
    for round in &rounds {
        for s in round.served.iter().filter(|s| s.error.is_some()) {
            notes.push(format!(
                "failed request {} ({}): {}",
                s.id,
                requests[s.id].name,
                s.error.as_deref().unwrap_or("")
            ));
        }
    }

    let metrics = vec![
        Metric::new("request_p50_s", median(&latencies), "s"),
        Metric::new("requests_per_s", ratio(attempted as f64, wall), "1/s"),
        Metric::new("shots_per_s", ratio(shots as f64, wall), "1/s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes,
    })
}

/// The traced run: an untraced baseline round, the same round traced, then
/// the per-layer probes.  Writes the spans and the per-gate construction
/// profile as JSON lines into the output directory.
///
/// # Errors
///
/// Fails when set-up fails or a trace file cannot be written.
#[allow(clippy::too_many_lines)]
pub fn run_traced(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload;
    let Prepared { requests, pool } = prepare(workload, options.seed, &options.out_dir)?;
    let tracer = Tracer::new();
    let clients = workload.clients();
    let mut problems = Vec::new();

    let fresh_or_pool = || -> Option<ServiceBroker> { pool.is_none().then(new_broker) };
    let baseline_broker = fresh_or_pool();
    let baseline = run_round(
        &requests,
        clients,
        baseline_broker
            .as_ref()
            .or(pool.as_ref())
            .expect("a broker"),
        None,
        None,
    );
    drop(baseline_broker);

    let fits = Fits::default();
    if workload == Workload::WarmMix {
        fits.prepare(&requests, &tracer)?;
    }
    let traced_broker = fresh_or_pool();
    let broker = traced_broker.as_ref().or(pool.as_ref()).expect("a broker");
    let cache_before = broker.cache().stats();
    let service_before = broker.stats();
    let hook = |request: &Request, circuit: &circuit::Circuit, histogram: &_, span| {
        fits.check(request, circuit, histogram, &tracer, span)
    };
    let traced = run_round(&requests, clients, broker, Some(&tracer), Some(&hook));
    let cache_after = broker.cache().stats();
    let service_after = broker.stats();
    problems.extend(cache_violations(workload, &requests, &traced));
    problems.extend(
        digest_mismatches(&traced, &baseline)
            .into_iter()
            .map(|id| format!("request {id}: traced and untraced histograms differ")),
    );
    if workload.clients() > 1 {
        let single = run_round(&requests, 1, broker, None, None);
        problems.extend(
            digest_mismatches(&single, &traced)
                .into_iter()
                .map(|id| format!("request {id}: 1- and {clients}-client histograms differ")),
        );
    }

    // Artifact codec: persist what the round served and restore it.
    let mut snapshot = (0.0, 0.0, 0u64);
    let loaded = new_broker();
    if requests.iter().any(|r| !r.bypass) {
        let path =
            options
                .out_dir
                .join(format!("{}-{}-traced.snap", workload.name(), options.seed));
        let (written, encode) = timed(Some(&tracer), "artifact.snapshot_write", None, None, || {
            broker.write_snapshot(&path)
        });
        let written = written.map_err(|e| format!("snapshot write: {e}"))?;
        let (restored, decode) = timed(Some(&tracer), "artifact.snapshot_load", None, None, || {
            loaded.load_snapshot(&path)
        });
        let restored = restored.map_err(|e| format!("snapshot load: {e}"))?;
        std::fs::remove_file(&path).map_err(|e| format!("snapshot cleanup: {e}"))?;
        if restored.loaded != written.entries || restored.skipped > 0 {
            problems.push(format!(
                "snapshot restored {} of {} artifacts",
                restored.loaded, written.entries
            ));
        }
        snapshot = (encode.as_secs_f64(), decode.as_secs_f64(), written.bytes);
    }
    probe::draw_probes(&requests, &loaded, &tracer);
    drop(loaded);

    // Decision-diagram construction, gate by gate, of every distinct
    // circuit the round built on the DD engine.
    let mut gates: Vec<GateLine> = Vec::new();
    let mut constructions = Vec::new();
    let mut seen = HashSet::new();
    for s in &traced.served {
        let request = &requests[s.id];
        let built_on_dd = request.sim.backend() == Backend::DecisionDiagram
            && !request.bypass
            && s.route.is_some_and(|r| r != RouteClass::Tableau);
        if built_on_dd && seen.insert(request.fingerprint) {
            let circuit = request.circuit()?;
            match probe::construct(request, &circuit, &tracer, &mut gates) {
                Ok(c) => constructions.push(c),
                Err(e) => problems.push(format!("construction profile of {}: {e}", request.name)),
            }
        }
    }
    let trajectories = probe::trajectory_probes(&requests, &traced.served, &fits, &tracer);
    problems.extend(trajectories.errors);
    problems.extend(spot_check(&requests, broker, &traced));

    let stem = format!("{}-{}", workload.name(), options.seed);
    let spans_path = options.out_dir.join(format!("{stem}-spans.jsonl"));
    let gates_path = options.out_dir.join(format!("{stem}-gates.jsonl"));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    probe::write_gates(&gates_path, &requests, &gates)
        .map_err(|e| format!("{}: {e}", gates_path.display()))?;

    // ---- metrics ----
    let ok: Vec<&Served> = traced.served.iter().filter(|s| s.error.is_none()).collect();
    let count_route = |class| ok.iter().filter(|s| s.route == Some(class)).count() as f64;
    let per_draw = |name: &str| {
        ratio(
            tracer.total(name) * 1e9,
            (tracer.count(name) * PROBE_SHOTS) as f64,
        )
    };
    let dd = constructions
        .iter()
        .fold(DdStats::default(), |mut total, c| {
            total.merge(&c.stats);
            total
        });
    let construct_s: f64 = constructions.iter().map(|c| c.seconds).sum();
    let nodes_created = dd.vector_unique_misses as f64;
    let overheads: Vec<f64> = ok.iter().map(|s| s.overhead_s).collect();
    let dynamic_tableau: Vec<&&Served> = ok
        .iter()
        .filter(|s| requests[s.id].bypass && s.route == Some(RouteClass::Tableau))
        .collect();
    let lookups = (cache_after.hits + cache_after.misses)
        .saturating_sub(cache_before.hits + cache_before.misses);
    let traced_latency: f64 = traced.served.iter().map(|s| s.latency).sum();
    let untraced_latency: f64 = baseline.served.iter().map(|s| s.latency).sum();
    let p_values = fits
        .p_values
        .lock()
        .expect("no thread panics while holding the fits")
        .clone();

    let metrics = vec![
        Metric::new("circuit.parse_s", tracer.total("circuit.parse"), "s"),
        Metric::new(
            "circuit.fingerprint_s",
            tracer.total("circuit.fingerprint"),
            "s",
        ),
        Metric::new(
            "router.tableau_requests",
            count_route(RouteClass::Tableau),
            "count",
        ),
        Metric::new(
            "router.stitched_requests",
            count_route(RouteClass::Stitched),
            "count",
        ),
        Metric::new(
            "router.dense_requests",
            count_route(RouteClass::Dense),
            "count",
        ),
        Metric::new("dd.construct_s", construct_s, "s"),
        Metric::new("dd.nodes_created", nodes_created, "count"),
        Metric::new(
            "dd.ns_per_node",
            ratio(construct_s * 1e9, nodes_created),
            "ns",
        ),
        Metric::new(
            "dd.final_nodes",
            constructions.iter().map(|c| c.final_nodes as f64).sum(),
            "count",
        ),
        Metric::new(
            "dd.peak_nodes",
            constructions
                .iter()
                .map(|c| c.peak_nodes)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        Metric::new(
            "dd.top10_gate_share",
            ratio(
                constructions.iter().map(|c| c.top10_seconds).sum(),
                construct_s,
            ),
            "ratio",
        ),
        Metric::new(
            "dd.vector_unique_hit_rate",
            dd.vector_unique_hit_rate(),
            "ratio",
        ),
        Metric::new("dd.mv_cache_hit_rate", dd.mv_cache.hit_rate(), "ratio"),
        Metric::new("dd.add_cache_hit_rate", dd.add_cache.hit_rate(), "ratio"),
        Metric::new(
            "dd.mv_cache_evictions",
            dd.mv_cache.evictions as f64,
            "count",
        ),
        Metric::new(
            "dd.add_cache_evictions",
            dd.add_cache.evictions as f64,
            "count",
        ),
        Metric::new(
            "dd.operator_cache_hit_rate",
            dd.operator_cache.hit_rate(),
            "ratio",
        ),
        Metric::new("dd.gc_count", dd.garbage_collections as f64, "count"),
        Metric::new(
            "sampler.compile_s",
            constructions.iter().map(|c| c.compile_seconds).sum(),
            "s",
        ),
        Metric::new(
            "sampler.arena_bytes",
            constructions.iter().map(|c| c.arena_bytes as f64).sum(),
            "bytes",
        ),
        Metric::new(
            "sampler.draw_ns_per_shot_1t",
            per_draw("sampler.draw_1t"),
            "ns",
        ),
        Metric::new(
            "sampler.draw_ns_per_shot_2t",
            per_draw("sampler.draw_2t"),
            "ns",
        ),
        Metric::new("sv.construct_s", tracer.total("sv.construct"), "s"),
        Metric::new("sv.prefix_build_s", tracer.total("sv.prefix_build"), "s"),
        Metric::new("sv.draw_ns_per_shot", per_draw("sv.draw"), "ns"),
        Metric::new("tableau.draw_ns_per_shot", per_draw("tableau.draw"), "ns"),
        Metric::new(
            "tableau.dynamic_shots_per_s",
            ratio(
                dynamic_tableau.iter().map(|s| s.shots as f64).sum(),
                dynamic_tableau.iter().map(|s| s.serve_s).sum(),
            ),
            "1/s",
        ),
        Metric::new(
            "artifact.sample_s",
            ok.iter()
                .filter(|s| s.cache.is_some())
                .map(|s| s.sampling_s)
                .sum(),
            "s",
        ),
        Metric::new(
            "artifact.distinct_outcomes",
            ok.iter().map(|s| s.distinct as f64).sum(),
            "count",
        ),
        Metric::new("artifact.encode_s", snapshot.0, "s"),
        Metric::new("artifact.decode_s", snapshot.1, "s"),
        Metric::new("artifact.snapshot_bytes", snapshot.2 as f64, "bytes"),
        Metric::new(
            "cache.hit_ratio",
            ratio(
                cache_after.hits.saturating_sub(cache_before.hits) as f64,
                lookups as f64,
            ),
            "ratio",
        ),
        Metric::new("cache.bytes", cache_after.bytes as f64, "bytes"),
        Metric::new("service.overhead_p50_s", percentile(&overheads, 0.5), "s"),
        Metric::new("service.overhead_p90_s", percentile(&overheads, 0.9), "s"),
        Metric::new(
            "service.builds",
            (service_after.builds - service_before.builds) as f64,
            "count",
        ),
        Metric::new(
            "service.coalesced",
            (service_after.coalesced - service_before.coalesced) as f64,
            "count",
        ),
        Metric::new(
            "service.shed",
            (service_after.shed - service_before.shed) as f64,
            "count",
        ),
        Metric::new(
            "service.retries",
            (service_after.retries - service_before.retries) as f64,
            "count",
        ),
        Metric::new("trajectory.run_s", trajectories.two_workers_s, "s"),
        Metric::new(
            "trajectory.speedup_2w",
            ratio(trajectories.one_worker_s, trajectories.two_workers_s),
            "ratio",
        ),
        Metric::new(
            "trajectory.compute_hit_rate",
            trajectories.stats.compute_hit_rate(),
            "ratio",
        ),
        Metric::new(
            "trajectory.peak_representation",
            trajectories.peak_representation as f64,
            "count",
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(traced_latency, untraced_latency),
            "ratio",
        ),
        Metric::new("check.fit_tests", p_values.len() as f64, "count"),
        Metric::new(
            "check.min_p_value",
            p_values.iter().copied().fold(1.0, f64::min),
            "ratio",
        ),
    ];

    let failed = traced.failures() + baseline.failures();
    let mut notes = vec![
        format!("spans {} -> {}", tracer.spans().len(), spans_path.display()),
        format!("gate_profile {} -> {}", gates.len(), gates_path.display()),
        format!(
            "tracing overhead: traced requests {traced_latency:.4} s vs untraced {untraced_latency:.4} s"
        ),
        format!("round_digest {:016x}", traced.digest()),
    ];
    for s in traced.served.iter().chain(&baseline.served) {
        if let Some(e) = &s.error {
            notes.push(format!(
                "failed request {} ({}): {e}",
                s.id, requests[s.id].name
            ));
        }
    }
    Ok(Outcome {
        attempted: traced.served.len() + baseline.served.len(),
        failed,
        problems,
        metrics,
        notes,
    })
}
