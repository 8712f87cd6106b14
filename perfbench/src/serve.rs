//! Closed-loop clients that serve one round of requests through a
//! [`ServiceBroker`] and check every histogram.

use crate::trace::{timed, Tracer};
use crate::workload::Request;
use circuit::Circuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use weaksim::{CacheOutcome, RunOutcome, ServiceBroker, ShotHistogram};

/// Which engines the router used for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// Entirely on the stabilizer tableau.
    Tableau,
    /// A tableau prefix stitched into the dense backend.
    Stitched,
    /// Entirely on the dense backend.
    Dense,
}

impl RouteClass {
    fn of(outcome: &RunOutcome) -> Self {
        match outcome.route.segments.len() {
            0 | 1 if outcome.route.used_tableau() => RouteClass::Tableau,
            0 | 1 => RouteClass::Dense,
            _ => RouteClass::Stitched,
        }
    }
}

/// The record of one served request.
#[derive(Debug, Clone)]
pub struct Served {
    /// Position in the round.
    pub id: usize,
    /// From handing the request to the parser until the checked histogram
    /// is in hand, in seconds.
    pub latency: f64,
    /// Why the request failed, if it did: a typed error (including
    /// `Overloaded` sheds) or a failed check.
    pub error: Option<String>,
    /// Order-independent digest of the histogram.
    pub digest: u64,
    /// Shots delivered.
    pub shots: u64,
    /// Distinct outcomes in the histogram.
    pub distinct: usize,
    /// Router decision.
    pub route: Option<RouteClass>,
    /// Cache decision (`None` for the cache bypass).
    pub cache: Option<CacheOutcome>,
    /// `ServiceBroker::serve` wall time, in seconds.
    pub serve_s: f64,
    /// Serve time not spent in strong simulation, sampler preparation or
    /// sampling: lookup, locks and queue wait.
    pub overhead_s: f64,
    /// Sampling time reported by the outcome.
    pub sampling_s: f64,
    /// The histogram, kept only when the post-request hook asks for it.
    pub histogram: Option<ShotHistogram>,
}

impl Served {
    fn failed(id: usize, latency: f64, error: String) -> Self {
        Self {
            id,
            latency,
            error: Some(error),
            digest: 0,
            shots: 0,
            distinct: 0,
            route: None,
            cache: None,
            serve_s: 0.0,
            overhead_s: 0.0,
            sampling_s: 0.0,
            histogram: None,
        }
    }
}

/// What a traced round does after each request, outside its latency: fit
/// checks against exact distributions.  Returns an error message for a
/// failed check, and whether to keep the histogram.
pub type PostHook<'a> =
    dyn Fn(&Request, &Circuit, &ShotHistogram, Option<u64>) -> (Option<String>, bool) + Sync + 'a;

/// One served round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Per-request records, in request order.
    pub served: Vec<Served>,
    /// Wall time from the first request to the last completion, seconds.
    pub wall: f64,
}

impl Round {
    /// Digest of the whole round: every request's digest in request order.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.served
            .iter()
            .fold(0x5eed_u64, |acc, s| mix(acc ^ s.digest))
    }

    /// Requests that failed.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.served.iter().filter(|s| s.error.is_some()).count()
    }
}

/// SplitMix64's finalizer.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-independent digest of a histogram's counts.
#[must_use]
pub fn digest(histogram: &ShotHistogram) -> u64 {
    let sum = histogram
        .counts()
        .iter()
        .fold(0u64, |acc, (&o, &c)| acc.wrapping_add(mix(o ^ mix(c))));
    mix(sum ^ histogram.shots())
}

/// Checks that the histogram holds exactly the shots asked for.
fn check_shots(histogram: &ShotHistogram, shots: u64) -> Option<String> {
    let counted: u64 = histogram.counts().values().sum();
    (histogram.shots() != shots || counted != shots).then(|| {
        format!(
            "shot count mismatch: asked {shots}, histogram reports {}, counts sum to {counted}",
            histogram.shots()
        )
    })
}

fn serve_one(
    request: &Request,
    broker: &ServiceBroker,
    tracer: Option<&Tracer>,
    hook: Option<&PostHook<'_>>,
) -> Served {
    let id = Some(request.id);
    let span = tracer.map(Tracer::reserve);
    let start = Instant::now();
    let elapsed = || start.elapsed().as_secs_f64();

    let (parsed, _) = timed(tracer, "circuit.parse", span, id, || request.circuit());
    let circuit = match parsed {
        Ok(circuit) => circuit,
        Err(e) => return Served::failed(request.id, elapsed(), format!("parse: {e}")),
    };
    if tracer.is_some() {
        let (key, _) = timed(tracer, "circuit.fingerprint", span, id, || {
            request.sim.request_fingerprint(&circuit)
        });
        if key != request.fingerprint {
            return Served::failed(request.id, elapsed(), "fingerprint mismatch".to_owned());
        }
    }
    let (result, serve) = timed(tracer, "service.serve", span, id, || {
        broker.serve(&request.sim, &circuit, request.shots, request.seed)
    });
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => return Served::failed(request.id, elapsed(), format!("serve: {e}")),
    };
    let ((error, digest), _) = timed(tracer, "check.histogram", span, id, || {
        (
            check_shots(&outcome.histogram, request.shots),
            digest(&outcome.histogram),
        )
    });
    let end = Instant::now();
    if let (Some(tracer), Some(span)) = (tracer, span) {
        tracer.record(span, "request", None, id, start, end);
    }

    let mut served = Served {
        id: request.id,
        latency: (end - start).as_secs_f64(),
        error,
        digest,
        shots: outcome.histogram.shots(),
        distinct: outcome.histogram.distinct_outcomes(),
        route: Some(RouteClass::of(&outcome)),
        cache: outcome.cache,
        serve_s: serve.as_secs_f64(),
        overhead_s: (serve
            .saturating_sub(outcome.strong_time)
            .saturating_sub(outcome.precompute_time)
            .saturating_sub(outcome.sampling_time))
        .as_secs_f64(),
        sampling_s: outcome.sampling_time.as_secs_f64(),
        histogram: None,
    };
    if let Some(hook) = hook {
        let ((fit_error, keep), _) = timed(tracer, "check.fit", span, id, || {
            hook(request, &circuit, &outcome.histogram, span)
        });
        if served.error.is_none() {
            served.error = fit_error;
        }
        if keep {
            served.histogram = Some(outcome.histogram);
        }
    }
    served
}

/// Serves `requests` once with `clients` closed-loop clients: each client
/// takes the next unserved request as soon as its previous one completed.
#[must_use]
pub fn run_round(
    requests: &[Request],
    clients: usize,
    broker: &ServiceBroker,
    tracer: Option<&Tracer>,
    hook: Option<&PostHook<'_>>,
) -> Round {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    let client = || {
        let mut mine = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(request) = requests.get(index) else {
                break;
            };
            mine.push(serve_one(request, broker, tracer, hook));
        }
        results
            .lock()
            .expect("no client panics while holding the results")
            .extend(mine);
    };
    // A single client runs on the calling thread.  Several clients each get
    // a thread of their own, like a server's workers: mixing the calling
    // thread in makes the allocator's peak vary from run to run.
    std::thread::scope(|scope| {
        if clients <= 1 {
            client();
        } else {
            for _ in 0..clients {
                scope.spawn(client);
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut served = results
        .into_inner()
        .expect("every client finished without panicking");
    served.sort_by_key(|s| s.id);
    Round { served, wall }
}
