//! `weaksim-cli` — a serve-loop front end over the artifact-cache broker.
//!
//! Reads OpenQASM circuits (file arguments, or file paths line-by-line on
//! stdin when no files are given), runs each as a weak-simulation *request*
//! through one long-lived [`weaksim::ServiceBroker`], and prints per-request
//! route, cache outcome, timings and the top measurement outcomes.  Feeding
//! the same circuit twice (or using `--repeat`) demonstrates the pay-once
//! contract: the first request pays strong simulation + sampler
//! preparation, every later one only the per-shot draw — with a histogram
//! bit-identical to the cold run for the same seed.
//!
//! ```text
//! weaksim-cli [--backend dd|sv] [--shots N] [--seed N] [--router]
//!             [--cache-bytes N] [--repeat N] [--serve-threads N]
//!             [--max-inflight-builds N] [--snapshot PATH]
//!             [--snapshot-every N] [FILE ...]
//! ```
//!
//! With no `FILE` arguments the tool enters serve mode: each stdin line
//! naming a QASM file is one request, errors are reported per request and
//! the loop continues, and an end-of-session cache summary is printed on
//! EOF.  `--serve-threads N` serves requests on N worker threads through
//! the broker, which coalesces concurrent identical cold builds
//! single-flight and sheds requests it cannot admit before their deadline.
//! `--snapshot PATH` loads a cache snapshot at startup (corrupted sections
//! are skipped and rebuilt cold) and writes one at shutdown — clean or not
//! — and after every `--snapshot-every N` requests.
//!
//! A broken stdout (e.g. the consumer of a pipe exiting early) or a failing
//! stdin read never panics: the CLI stops serving, still writes the
//! snapshot, reports the cache summary on stderr and exits non-zero.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use weaksim::{ArtifactCache, Backend, CacheOutcome, ServiceBroker, ServiceConfig, WeakSimulator};

/// How many distinct outcomes to print per request.
const TOP_OUTCOMES: usize = 4;

struct Options {
    backend: Backend,
    shots: u64,
    seed: u64,
    router: bool,
    cache_bytes: Option<u64>,
    repeat: u32,
    serve_threads: usize,
    max_inflight_builds: usize,
    snapshot: Option<PathBuf>,
    snapshot_every: Option<u64>,
    files: Vec<String>,
}

const USAGE: &str = "usage: weaksim-cli [--backend dd|sv] [--shots N] [--seed N] [--router] \
                     [--cache-bytes N] [--repeat N] \
                     [--serve-threads N] [--max-inflight-builds N] \
                     [--snapshot PATH] [--snapshot-every N] [FILE ...]\n\
                     With no FILEs, reads QASM file paths line-by-line from stdin (serve mode).";

fn parse_options(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        backend: Backend::DecisionDiagram,
        shots: 10_000,
        seed: 1,
        router: false,
        cache_bytes: None,
        repeat: 1,
        serve_threads: 1,
        max_inflight_builds: ServiceConfig::default().max_inflight_builds,
        snapshot: None,
        snapshot_every: None,
        files: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} expects a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--backend" => {
                options.backend = match value("--backend")?.as_str() {
                    "dd" => Backend::DecisionDiagram,
                    "sv" => Backend::StateVector,
                    other => return Err(format!("unknown backend `{other}` (want dd or sv)")),
                };
            }
            "--shots" => {
                options.shots = value("--shots")?
                    .parse()
                    .map_err(|e| format!("--shots: {e}"))?;
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--router" => options.router = true,
            "--cache-bytes" => {
                options.cache_bytes = Some(
                    value("--cache-bytes")?
                        .parse()
                        .map_err(|e| format!("--cache-bytes: {e}"))?,
                );
            }
            "--repeat" => {
                options.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if options.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--serve-threads" => {
                options.serve_threads = value("--serve-threads")?
                    .parse()
                    .map_err(|e| format!("--serve-threads: {e}"))?;
                if options.serve_threads == 0 {
                    return Err("--serve-threads must be at least 1".into());
                }
            }
            "--max-inflight-builds" => {
                options.max_inflight_builds = value("--max-inflight-builds")?
                    .parse()
                    .map_err(|e| format!("--max-inflight-builds: {e}"))?;
                if options.max_inflight_builds == 0 {
                    return Err("--max-inflight-builds must be at least 1".into());
                }
            }
            "--snapshot" => {
                options.snapshot = Some(PathBuf::from(value("--snapshot")?));
            }
            "--snapshot-every" => {
                let every: u64 = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
                if every == 0 {
                    return Err("--snapshot-every must be at least 1".into());
                }
                options.snapshot_every = Some(every);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            file => options.files.push(file.to_owned()),
        }
    }
    Ok(options)
}

/// Writes one line to stderr, ignoring errors (stderr may be broken too;
/// diagnostics must never panic the serve loop).
fn note(message: &str) {
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(message.as_bytes());
    let _ = err.write_all(b"\n");
}

/// Shared serve-loop state: the broker, the simulator template, output
/// health, the request counter driving `--snapshot-every`, and the lock
/// serializing snapshot writes.
struct Serve {
    broker: ServiceBroker,
    sim: WeakSimulator,
    options: Options,
    /// False once stdout failed (e.g. broken pipe): stop writing reports.
    stdout_ok: AtomicBool,
    /// False once any request failed (the exit code).
    all_ok: AtomicBool,
    requests: AtomicU64,
    snapshot_lock: Mutex<()>,
}

impl Serve {
    /// Writes a fully-formatted report block to stdout atomically.  A write
    /// failure (broken pipe) marks stdout as broken instead of panicking.
    fn emit(&self, report: &str) {
        if !self.stdout_ok.load(Ordering::Relaxed) {
            return;
        }
        let mut out = std::io::stdout().lock();
        if out
            .write_all(report.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            self.stdout_ok.store(false, Ordering::Relaxed);
            self.all_ok.store(false, Ordering::Relaxed);
            note("stdout: write failed (broken pipe?); no further reports");
        }
    }

    /// Writes the snapshot if `--snapshot` is configured; failures are
    /// reported, never fatal mid-serve.
    fn write_snapshot(&self) -> bool {
        let Some(path) = &self.options.snapshot else {
            return true;
        };
        let _guard = match self.snapshot_lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        match self.broker.write_snapshot(path) {
            Ok(report) => {
                note(&format!(
                    "snapshot: wrote {} artifact(s), {} bytes to {}",
                    report.entries,
                    report.bytes,
                    path.display()
                ));
                true
            }
            Err(e) => {
                note(&format!(
                    "snapshot: write to {} failed: {e}",
                    path.display()
                ));
                false
            }
        }
    }

    /// Runs one request (a QASM file) `repeat` times through the broker,
    /// emitting one report block per run.
    fn serve_request(&self, path: &str) {
        use std::fmt::Write as _;
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                note(&format!("{path}: cannot read: {e}"));
                self.all_ok.store(false, Ordering::Relaxed);
                return;
            }
        };
        let circuit = match circuit::qasm::parse(&source) {
            Ok(circuit) => circuit,
            Err(e) => {
                note(&format!("{path}: QASM parse error: {e}"));
                self.all_ok.store(false, Ordering::Relaxed);
                return;
            }
        };
        let name = if circuit.name().is_empty() {
            path
        } else {
            circuit.name()
        };
        for _ in 0..self.options.repeat {
            let wall = Instant::now();
            let outcome =
                match self
                    .broker
                    .serve(&self.sim, &circuit, self.options.shots, self.options.seed)
                {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        note(&format!("{path}: run failed: {e}"));
                        self.all_ok.store(false, Ordering::Relaxed);
                        return;
                    }
                };
            let wall = wall.elapsed();
            let cache = match outcome.cache {
                Some(CacheOutcome::Hit) => "hit",
                Some(CacheOutcome::Miss) => "miss",
                Some(CacheOutcome::Coalesced) => "coalesced",
                None => "bypass",
            };
            // Build the whole block off-lock, then emit it atomically so
            // concurrent workers never interleave partial reports.
            let mut report = String::new();
            let _ = writeln!(
                report,
                "{name}: {} qubits, {} shots, cache {cache}, route [{}]",
                circuit.num_qubits(),
                outcome.histogram.shots(),
                outcome.route,
            );
            let _ = writeln!(
                report,
                "  strong {:.3}s + prepare {:.3}s + sample {:.3}s (wall {:.3}s)",
                outcome.strong_time.as_secs_f64(),
                outcome.precompute_time.as_secs_f64(),
                outcome.sampling_time.as_secs_f64(),
                wall.as_secs_f64(),
            );
            let mut top: Vec<(u64, u64)> = outcome.histogram.sorted_counts();
            top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let shown: Vec<String> = top
                .iter()
                .take(TOP_OUTCOMES)
                .map(|&(outcome_bits, count)| {
                    format!("{} x{count}", outcome.histogram.bitstring(outcome_bits))
                })
                .collect();
            let rest = top.len().saturating_sub(TOP_OUTCOMES);
            if rest > 0 {
                let _ = writeln!(
                    report,
                    "  top outcomes: {} (+{rest} more)",
                    shown.join(", ")
                );
            } else {
                let _ = writeln!(report, "  top outcomes: {}", shown.join(", "));
            }
            self.emit(&report);

            let served = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
            if self
                .options
                .snapshot_every
                .is_some_and(|every| served.is_multiple_of(every))
            {
                self.write_snapshot();
            }
        }
    }
}

fn main() -> ExitCode {
    let options = match parse_options(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            note(&message);
            return ExitCode::FAILURE;
        }
    };

    let cache = match options.cache_bytes {
        Some(bytes) => ArtifactCache::with_byte_budget(bytes),
        None => ArtifactCache::unbounded(),
    };
    let config = ServiceConfig {
        max_inflight_builds: options.max_inflight_builds,
        ..ServiceConfig::default()
    };
    let broker = ServiceBroker::new(cache, config);

    if let Some(path) = &options.snapshot {
        match broker.load_snapshot(path) {
            Ok(report) => {
                for message in &report.messages {
                    note(&format!("snapshot: {message}"));
                }
                note(&format!(
                    "snapshot: restored {} artifact(s) from {} ({} skipped)",
                    report.loaded,
                    path.display(),
                    report.skipped
                ));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                note(&format!(
                    "snapshot: {} not found, starting cold",
                    path.display()
                ));
            }
            Err(e) => {
                note(&format!(
                    "snapshot: cannot read {}: {e}; starting cold",
                    path.display()
                ));
            }
        }
    }

    let mut sim = WeakSimulator::new(options.backend);
    if options.router {
        sim = sim.with_clifford_router();
    }

    let serve = Serve {
        broker,
        sim,
        options,
        stdout_ok: AtomicBool::new(true),
        all_ok: AtomicBool::new(true),
        requests: AtomicU64::new(0),
        snapshot_lock: Mutex::new(()),
    };

    if serve.options.files.is_empty() {
        // Serve mode: one QASM file path per stdin line, errors are
        // per-request and the loop keeps going.  The stdin reader feeds a
        // channel drained by `--serve-threads` workers; a failing stdin
        // read stops intake but lets in-flight requests finish.
        let (tx, rx) = mpsc::channel::<String>();
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..serve.options.serve_threads {
                scope.spawn(|| loop {
                    let request = {
                        let receiver = match rx.lock() {
                            Ok(guard) => guard,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        receiver.recv()
                    };
                    match request {
                        Ok(path) => serve.serve_request(&path),
                        Err(_) => break,
                    }
                });
            }
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = match line {
                    Ok(line) => line,
                    Err(e) => {
                        note(&format!("stdin: read failed: {e}; shutting down"));
                        serve.all_ok.store(false, Ordering::Relaxed);
                        break;
                    }
                };
                let path = line.trim();
                if path.is_empty() || path.starts_with('#') {
                    continue;
                }
                if tx.send(path.to_owned()).is_err() {
                    break;
                }
            }
            drop(tx);
        });
    } else {
        for path in serve.options.files.clone() {
            serve.serve_request(&path);
        }
    }

    // Shutdown — clean or not: persist the cache, then report.  The summary
    // goes to stdout when it still works, stderr otherwise (a broken pipe
    // must not swallow the session accounting).
    if !serve.write_snapshot() {
        serve.all_ok.store(false, Ordering::Relaxed);
    }
    let stats = serve.broker.cache().stats();
    let service = serve.broker.stats();
    let summary = format!(
        "cache: {} entries, {} bytes, {} hits / {} misses, {} evictions\n\
         service: {} builds, {} coalesced, {} shed, {} retries, {} build failures\n",
        stats.entries,
        stats.bytes,
        stats.hits,
        stats.misses,
        stats.evictions,
        service.builds,
        service.coalesced,
        service.shed,
        service.retries,
        service.build_failures,
    );
    if serve.stdout_ok.load(Ordering::Relaxed) {
        serve.emit(&summary);
    }
    if !serve.stdout_ok.load(Ordering::Relaxed) {
        note(summary.trim_end());
    }
    if serve.all_ok.load(Ordering::Relaxed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
