//! Shared constants for the benchmark harness that regenerates the
//! evaluation of the paper (Table I and the illustrative figures).
//!
//! The entry points are two binaries and one bench:
//!
//! * `cargo run -p bench --release --bin table1` — measures every benchmark
//!   of Table I with both samplers and prints the table;
//! * `cargo run -p bench --release --bin figures -- fig2|fig3|fig4|all` —
//!   regenerates the running-example figures;
//! * `cargo bench -p bench --bench sampler_throughput` — times each sampler's
//!   precomputation and per-shot draw, the normalization ablation, the
//!   per-shot scaling with the qubit count and the trajectory engine, and
//!   records them all in `BENCH_sampler_throughput.json`, whose keys CI
//!   checks.

/// The seed used everywhere in the harness for reproducibility.
pub const BENCH_SEED: u64 = 2020;
