//! Self-tests of the benchmark: the generator is deterministic, and each
//! workload's set-up produces the cache behaviour the workload claims.
//! Rounds run on cheap subsets of the real request lists.

use perfbench::bench::{cache_violations, new_broker, restore_pool};
use perfbench::serve::run_round;
use perfbench::workload::{generate, Payload, Request, Workload};
use std::collections::HashSet;
use weaksim::CacheOutcome;

fn payload_text(request: &Request) -> String {
    match &request.payload {
        Payload::Qasm(text) => text.clone(),
        Payload::Built(circuit) => format!("{circuit:?}"),
    }
}

/// The requests of `workload` whose catalogue name is in `names`, with
/// their shot counts capped and ids renumbered.
fn subset(workload: Workload, names: &[&str], max_shots: u64) -> Vec<Request> {
    generate(workload, 11)
        .into_iter()
        .filter(|r| names.contains(&r.name.as_str()))
        .enumerate()
        .map(|(id, mut r)| {
            r.id = id;
            r.shots = r.shots.min(max_shots);
            r
        })
        .collect()
}

#[test]
fn generator_is_deterministic_for_a_seed() {
    for workload in Workload::ALL {
        let a = generate(workload, 42);
        let b = generate(workload, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (&x.name, x.fingerprint, x.shots, x.seed),
                (&y.name, y.fingerprint, y.shots, y.seed)
            );
            assert_eq!(payload_text(x), payload_text(y));
        }
        let c = generate(workload, 43);
        assert_ne!(
            a.iter().map(|r| r.seed).collect::<Vec<_>>(),
            c.iter().map(|r| r.seed).collect::<Vec<_>>(),
            "{}: another seed draws other sampling seeds",
            workload.name()
        );
        // The catalogue, and so the work, is the same for every seed.
        let names = |v: &[Request]| {
            let mut n: Vec<_> = v.iter().map(|r| r.name.clone()).collect();
            n.sort();
            n
        };
        assert_eq!(names(&a), names(&c));
    }
}

#[test]
fn cold_setups_yield_only_misses() {
    for workload in [Workload::ColdMix, Workload::ColdLarge] {
        let requests = generate(workload, 5);
        let distinct: HashSet<_> = requests.iter().map(|r| r.fingerprint).collect();
        assert_eq!(distinct.len(), requests.len(), "{}", workload.name());
        assert!(requests.iter().all(|r| !r.bypass));
    }
    let requests = subset(
        Workload::ColdMix,
        &[
            "qft_16",
            "qft_20",
            "ghz_250",
            "grover_12_s0",
            "supremacy_4x4_8_s3",
        ],
        500,
    );
    assert_eq!(requests.len(), 5);
    let broker = new_broker();
    let round = run_round(&requests, 1, &broker, None, None);
    assert_eq!(round.failures(), 0);
    assert!(cache_violations(Workload::ColdMix, &requests, &round).is_empty());
    assert!(round
        .served
        .iter()
        .all(|s| s.cache == Some(CacheOutcome::Miss)));
    assert_eq!(broker.cache().stats().hits, 0);
    assert_eq!(broker.stats().builds, 5);
}

#[test]
fn warm_setup_yields_only_hits_on_restored_artifacts() {
    let requests = subset(
        Workload::WarmMix,
        &["ghz_1000", "qft_48", "supremacy_4x4_10_s1"],
        2_000,
    );
    assert!(requests.len() > 3);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-pool.snap");
    let pool = restore_pool(&requests, &path).expect("the pool builds and restores");
    let two = run_round(&requests, 2, &pool, None, None);
    assert_eq!(two.failures(), 0);
    assert!(cache_violations(Workload::WarmMix, &requests, &two).is_empty());
    assert!(two
        .served
        .iter()
        .all(|s| s.cache == Some(CacheOutcome::Hit)));
    assert_eq!(
        pool.stats().builds,
        0,
        "every artifact came from the snapshot"
    );
    let one = run_round(&requests, 1, &pool, None, None);
    let digests =
        |r: &perfbench::serve::Round| r.served.iter().map(|s| s.digest).collect::<Vec<_>>();
    assert_eq!(
        digests(&one),
        digests(&two),
        "1 and 2 clients draw the same"
    );
}

#[test]
fn trajectory_requests_take_the_cache_bypass() {
    assert!(generate(Workload::TrajectoryMix, 3)
        .iter()
        .all(|r| r.bypass));
    let requests = subset(
        Workload::TrajectoryMix,
        &["teleportation_p0.01", "stabilizer_cycle_9x3"],
        300,
    );
    let broker = new_broker();
    let round = run_round(&requests, 1, &broker, None, None);
    assert_eq!(round.failures(), 0);
    assert!(cache_violations(Workload::TrajectoryMix, &requests, &round).is_empty());
    assert!(round.served.iter().all(|s| s.cache.is_none()));
    assert!(broker.cache().is_empty());
    assert_eq!(broker.stats().builds, 0);
}
