//! Artifact-cache eviction under a deliberately tiny capacity.
//!
//! An undersized cache really evicts, really recompresses, and the
//! recompressed artifacts are identical to the first pass. A sweep,
//! though, never recompresses even at capacity one: it executes its
//! points grouped by `(network, M)`, so each pair's units finish before
//! the next pair evicts it.
//!
//! This lives in its own integration-test binary so the process-global
//! artifact cache starts empty; the tests take [`LOCK`] so neither races
//! the other's capacity changes or counters.

use escalate_bench::sweep::{run_sweep, Sampler, SweepOptions, SweepRecord};
use escalate_bench::{
    artifact_cache_evictions, artifact_cache_len, compress_cached, set_artifact_cache_capacity,
    DEFAULT_CACHE_CAP,
};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::ModelProfile;
use escalate_obs::Registry;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn tiny_cache_cap_evicts_and_recompresses_identically() {
    let _serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let profile = ModelProfile::for_model("MobileNetV2").expect("known model");
    // Avoid M=6 (the default used by other suites) so this binary's
    // working set is self-contained even if the harness changes.
    let cfg_m4 = CompressionConfig {
        m: 4,
        ..CompressionConfig::default()
    };
    let cfg_m5 = CompressionConfig {
        m: 5,
        ..CompressionConfig::default()
    };

    // At most one resident entry, so re-bounding to one slot evicts
    // nothing.
    assert_eq!(set_artifact_cache_capacity(1), 0);

    let first = compress_cached(&profile, &cfg_m4).expect("m=4 compresses");
    assert_eq!(artifact_cache_len(), 1);
    let before = artifact_cache_evictions();

    // A second distinct (network, M) artifact displaces the first...
    compress_cached(&profile, &cfg_m5).expect("m=5 compresses");
    assert_eq!(artifact_cache_len(), 1);
    assert!(
        artifact_cache_evictions() > before,
        "inserting past a 1-entry cap must evict"
    );

    // ...so asking for the first again recompresses from scratch — and
    // eviction is invisible in the results: the artifacts match the
    // originals exactly.
    let again = compress_cached(&profile, &cfg_m4).expect("m=4 recompresses");
    assert!(
        artifact_cache_evictions() >= before + 2,
        "round-tripping two artifacts through one slot evicts both"
    );
    assert!(
        !std::sync::Arc::ptr_eq(&first, &again),
        "the evicted entry cannot be served back by pointer"
    );
    assert_eq!(first.len(), again.len());
    for (a, b) in first.iter().zip(again.iter()) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    // Growing the bound back never evicts.
    assert_eq!(set_artifact_cache_capacity(DEFAULT_CACHE_CAP), 0);
}

#[test]
fn one_slot_cache_compresses_each_sweep_pair_once() {
    let _serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let out = std::env::temp_dir().join(format!("escalate_eviction_{}.jsonl", std::process::id()));
    std::fs::remove_file(&out).ok();
    let opts = SweepOptions {
        networks: vec!["MobileNet".into()],
        samples: 4,
        input_seeds: 1,
        m_range: (4, 5),
        sampler: Sampler::Halton,
        out: out.clone(),
        ..SweepOptions::default()
    };

    set_artifact_cache_capacity(1);
    let registry = Arc::new(Registry::new());
    let previous = escalate_obs::install(Arc::clone(&registry));
    let ran = run_sweep(&opts, &mut Vec::new());
    match previous {
        Some(r) => escalate_obs::install(r),
        None => escalate_obs::uninstall(),
    };
    set_artifact_cache_capacity(DEFAULT_CACHE_CAP);
    ran.expect("sweep runs");

    let stream = std::fs::read_to_string(&out).expect("stream");
    std::fs::remove_file(&out).ok();
    let ms: BTreeSet<usize> = stream
        .lines()
        .map(|l| SweepRecord::from_json_line(l).expect("record").point.m)
        .collect();
    assert_eq!(ms.len(), 2, "the grid must visit both M values: {ms:?}");
    assert_eq!(
        registry.counter("bench.cache_misses"),
        ms.len() as u64,
        "each (network, M) pair compresses exactly once"
    );
    assert!(
        registry.counter("bench.cache_evictions") > 0,
        "the second pair must evict the first from the one slot"
    );
}
