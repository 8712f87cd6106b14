//! Request-level benchmark of the weak simulator.
//!
//! One request is one `ServiceBroker::serve` call, as `weaksim-cli` makes
//! it: QASM text in (or a built circuit where no QASM form exists), a
//! checked histogram out.  Four workloads stress different layers:
//!
//! * `cold_mix` — about 100 distinct static requests on a fresh cache, one
//!   client, router on: decision-diagram construction dominates;
//! * `cold_large` — three `supremacy_4x5_8` instances: construction whose
//!   tables outgrow the CPU caches.  On a shared 2-core host its request
//!   latency moved by up to 40 % between runs, too much for the
//!   regression gate, so `BENCHMARK.json` leaves it out; run it by hand
//!   with a fixed seed;
//! * `warm_mix` — two clients, Zipf-skewed hits with log-uniform shot
//!   counts on a pool restored from a snapshot: the draw kernels, histogram
//!   accumulation and per-request overhead;
//! * `trajectory_mix` — dynamic and noisy requests through the cache
//!   bypass on two trajectory workers.
//!
//! The untraced run reports the end-to-end metrics; the traced run serves
//! the same round again with spans around every call into the library and
//! probes each layer (see [`bench::run_traced`]).

pub mod bench;
pub mod probe;
pub mod report;
pub mod serve;
pub mod sys;
pub mod trace;
pub mod workload;
