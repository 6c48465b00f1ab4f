#![warn(missing_docs)]

//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Each table/figure is one entry of the [`experiments`] registry
//! (`table1`, `fig7`–`fig13`, `table4`, plus the ablation studies), run
//! through `escalate report`; this library holds the common plumbing:
//! compressing a model, building the accelerator workloads, running all
//! four simulators over multiple input seeds, and attaching energy
//! breakdowns.
//!
//! Orchestration lives in two layers: [`plan`] is the shared run-plan
//! machinery (work-unit enumeration, deterministic parallel execution,
//! output sinks with JSONL resume), and [`experiments`]/[`sweep`] are its
//! two consumers — the paper's experiment registry and the design-space
//! sweep behind `escalate sweep`.

pub mod experiments;
pub mod plan;
pub mod render;
pub mod sweep;

use escalate_baselines::{BaselineSim, BaselineWorkload, Eyeriss, LayerModel, Scnn, SparTen};
use escalate_core::cache::SingleFlightCache;
use escalate_core::pipeline::CompressionConfig;
use escalate_core::{compress_model_artifacts, CompressedLayer, EscalateError};
use escalate_energy::{layer_energy, model_energy, BufferCaps, EnergyBreakdown, UnitEnergy};
use escalate_models::ModelProfile;
use escalate_sim::{Accelerator, Escalate, ModelStats, SimConfig, Workload};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// Default number of random input samples averaged per experiment (the
/// paper uses 10; see §5.2.1).
pub const DEFAULT_INPUT_SEEDS: u64 = 10;

/// Environment variable overriding [`input_seeds`].
pub const SEEDS_ENV: &str = "ESCALATE_SEEDS";

/// Number of input seeds experiments average over: the `ESCALATE_SEEDS`
/// environment variable when set (and positive), else
/// [`DEFAULT_INPUT_SEEDS`]. An invalid value (garbage, `0`) earns a
/// one-line stderr warning before the default applies — it is never
/// swallowed silently. The CLI's `--seeds` flag overrides both.
pub fn input_seeds() -> u64 {
    escalate_core::par::positive_env(SEEDS_ENV).unwrap_or(DEFAULT_INPUT_SEEDS)
}

/// One accelerator's averaged result on one model.
#[derive(Debug, Clone)]
pub struct AccelRun {
    /// Accelerator name.
    pub name: String,
    /// Mean cycles over the input seeds.
    pub cycles: f64,
    /// Mean total DRAM bytes.
    pub dram_bytes: f64,
    /// Mean total energy (pJ).
    pub energy_pj: f64,
    /// Full per-layer stats of the **first seed only** — deliberately not
    /// a mean: layer-wise figures need one concrete per-layer trace
    /// (integer cycle/traffic counts of a real run), and a component-wise
    /// average of traces would be a trace of no run at all. The field name
    /// says so; the seed-averaged scalars live in
    /// [`AccelRun::cycles`]/[`AccelRun::dram_bytes`]/[`AccelRun::energy_pj`].
    pub first_seed_stats: ModelStats,
    /// Component-wise mean energy breakdown over the input seeds; its
    /// components sum to [`AccelRun::energy_pj`].
    pub energy: EnergyBreakdown,
}

/// All four accelerators' results on one model.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Model name.
    pub model: String,
    /// ESCALATE.
    pub escalate: AccelRun,
    /// Eyeriss (the normalization baseline).
    pub eyeriss: AccelRun,
    /// SCNN.
    pub scnn: AccelRun,
    /// SparTen.
    pub sparten: AccelRun,
}

impl ModelRun {
    /// Speedup of an accelerator over Eyeriss.
    ///
    /// # Panics
    ///
    /// Panics if `run` reports zero cycles — every simulated layer costs
    /// at least one cycle, so a zero here is a harness bug that must not
    /// be papered over with a fabricated ratio.
    pub fn speedup_over_eyeriss(&self, run: &AccelRun) -> f64 {
        assert!(
            run.cycles > 0.0,
            "{}: zero-cycle run cannot be normalized",
            run.name
        );
        self.eyeriss.cycles / run.cycles
    }

    /// Energy efficiency (inverse energy) normalized to Eyeriss.
    ///
    /// # Panics
    ///
    /// Panics if `run` reports zero energy (see
    /// [`ModelRun::speedup_over_eyeriss`]).
    pub fn efficiency_over_eyeriss(&self, run: &AccelRun) -> f64 {
        assert!(
            run.energy_pj > 0.0,
            "{}: zero-energy run cannot be normalized",
            run.name
        );
        self.eyeriss.energy_pj / run.energy_pj
    }

    /// DRAM accesses normalized to ESCALATE (Figure 9's axis).
    ///
    /// # Panics
    ///
    /// Panics if the ESCALATE run moved zero DRAM bytes (see
    /// [`ModelRun::speedup_over_eyeriss`]).
    pub fn dram_vs_escalate(&self, run: &AccelRun) -> f64 {
        assert!(
            self.escalate.dram_bytes > 0.0,
            "ESCALATE run moved no DRAM bytes; cannot normalize"
        );
        run.dram_bytes / self.escalate.dram_bytes
    }
}

/// Cache key for [`compress_cached`]: the model name, the profile
/// fingerprint (so two *different* networks that share a name — e.g. two
/// `@file` descriptions both called "custom" — never collide), plus every
/// [`CompressionConfig`] field (floats by bit pattern).
type CacheKey = (String, u64, usize, u32, usize, u32, usize, u64);

fn cache_key(profile: &ModelProfile, cfg: &CompressionConfig) -> CacheKey {
    (
        profile.name.clone(),
        profile.fingerprint(),
        cfg.m,
        cfg.basis_bits,
        cfg.weight_rank,
        cfg.weight_noise.to_bits(),
        cfg.qat_epochs,
        cfg.seed,
    )
}

/// Capacity of the artifact and workload caches: generous for one-shot
/// grids (the full experiment registry visits far fewer distinct
/// `(model, config)` pairs) while keeping a long-running daemon's memory
/// bounded. The daemon's `--cache` flag re-bounds the artifact cache.
pub const DEFAULT_CACHE_CAP: usize = 32;

type ArtifactCache = SingleFlightCache<CacheKey, Arc<Vec<CompressedLayer>>>;

fn artifact_cache() -> &'static ArtifactCache {
    static CACHE: OnceLock<ArtifactCache> = OnceLock::new();
    CACHE.get_or_init(|| SingleFlightCache::new(DEFAULT_CACHE_CAP))
}

/// Re-bounds the process-wide artifact cache (`0` = unbounded), evicting
/// down to the new capacity immediately; evictions are counted on the
/// installed metrics recorder (`bench.cache_evictions`). Returns the
/// number of entries evicted. The daemon's `--cache` flag lands here.
pub fn set_artifact_cache_capacity(capacity: usize) -> u64 {
    let evicted = artifact_cache().set_capacity(capacity);
    if evicted > 0 {
        escalate_obs::counter_add("bench.cache_evictions", evicted);
    }
    evicted
}

/// Resident entries in the process-wide artifact cache.
pub fn artifact_cache_len() -> usize {
    artifact_cache().len()
}

/// Total artifact-cache evictions since process start, independent of
/// whether a metrics recorder is installed.
pub fn artifact_cache_evictions() -> u64 {
    artifact_cache().evictions()
}

/// Compresses a model at most once per process for each distinct
/// `(model, config)` pair; later calls return the shared artifacts.
///
/// Compression is the dominant fixed cost of an experiment grid (the
/// simulators re-run per seed and per accelerator; compression does not
/// need to), so harnesses that revisit the same model — seed sweeps, the
/// four-accelerator comparison, benchmark grids — go through this cache.
/// Concurrent first requests for the same key are single-flighted: one
/// caller compresses while the others wait on that key's slot, so the
/// expensive step never runs twice. The cache is capacity-bounded
/// ([`DEFAULT_CACHE_CAP`]) with LRU eviction —
/// a long-running daemon churning through configs stays at a fixed
/// footprint. Hits, misses, and evictions are counted on the metrics
/// recorder (`bench.cache_hits` / `bench.cache_misses` /
/// `bench.cache_evictions`) when one is installed.
///
/// # Errors
///
/// Propagates compression failures (errors are not cached; a later call
/// retries).
pub fn compress_cached(
    profile: &ModelProfile,
    cfg: &CompressionConfig,
) -> Result<Arc<Vec<CompressedLayer>>, EscalateError> {
    let key = cache_key(profile, cfg);
    let look = artifact_cache()
        .get_or_compute(key, || compress_model_artifacts(profile, cfg).map(Arc::new))?;
    escalate_obs::counter_add(
        if look.hit {
            "bench.cache_hits"
        } else {
            "bench.cache_misses"
        },
        1,
    );
    if look.evicted > 0 {
        escalate_obs::counter_add("bench.cache_evictions", look.evicted);
    }
    Ok(look.value)
}

/// Averages per-seed results: seeds are simulated in parallel
/// (order-preserving), then every f64 sum — totals *and* the energy
/// breakdown, component by component — folds in ascending seed order, so
/// the mean is bit-identical for any thread count. Only
/// `first_seed_stats` is not a mean: it keeps the first seed's per-layer
/// trace (see [`AccelRun`]).
fn average_runs(name: String, per_seed: Vec<(ModelStats, EnergyBreakdown)>) -> AccelRun {
    let n = per_seed.len() as f64;
    let mut cycles = 0.0;
    let mut dram = 0.0;
    let mut energy = 0.0;
    let mut bd = EnergyBreakdown::default();
    for (stats, e) in &per_seed {
        // `schedule_cycles` is the serial layer sum unless a pipelined
        // schedule ran, so serial results are bit-identical to before.
        cycles += stats.schedule_cycles() as f64;
        dram += stats.total_dram().total() as f64;
        energy += e.total_pj();
        bd.dram_pj += e.dram_pj;
        bd.mac_pj += e.mac_pj;
        bd.concentration_pj += e.concentration_pj;
        bd.dilution_pj += e.dilution_pj;
        bd.input_buf_pj += e.input_buf_pj;
        bd.coef_psum_pj += e.coef_psum_pj;
        bd.act_buf_pj += e.act_buf_pj;
        bd.output_buf_pj += e.output_buf_pj;
    }
    bd.dram_pj /= n;
    bd.mac_pj /= n;
    bd.concentration_pj /= n;
    bd.dilution_pj /= n;
    bd.input_buf_pj /= n;
    bd.coef_psum_pj /= n;
    bd.act_buf_pj /= n;
    bd.output_buf_pj /= n;
    let (first_seed_stats, _) = per_seed.into_iter().next().expect("at least one seed ran");
    AccelRun {
        name,
        cycles: cycles / n,
        dram_bytes: dram / n,
        energy_pj: energy / n,
        first_seed_stats,
        energy: bd,
    }
}

/// The generic seed-averaging runner: simulates any [`Accelerator`] over
/// `seeds` input seeds and attaches energy under the given buffer
/// capacities.
///
/// Seeds fan out over the global thread pool unless `threads == 1`, which
/// forces a sequential loop; each seed is an independent simulation and
/// the average folds in seed order, so results are bit-identical either
/// way. ESCALATE and the baselines both run through this one function —
/// the only per-design differences are the `Accelerator` instance and the
/// buffer pricing.
pub fn run_accelerator(
    acc: &dyn Accelerator,
    caps: &BufferCaps,
    seeds: u64,
    threads: usize,
) -> AccelRun {
    let _t = escalate_obs::span_labeled("bench.accelerator", acc.name());
    if seeds == 0 {
        // Same policy as `positive_env`: clamp, but never silently.
        eprintln!(
            "warning: {}: seeds=0 requested; running 1 seed (a mean needs at least one sample)",
            acc.name()
        );
    }
    let units = UnitEnergy::table3();
    let simulate = |seed: u64| {
        let stats = acc.simulate(seed, threads);
        let e = model_energy(&stats, caps, &units);
        (stats, e)
    };
    let per_seed: Vec<(ModelStats, EnergyBreakdown)> = if threads == 1 {
        (0..seeds.max(1)).map(simulate).collect()
    } else {
        (0..seeds.max(1)).into_par_iter().map(simulate).collect()
    };
    average_runs(acc.name().into(), per_seed)
}

/// Runs ESCALATE on a compressed model, averaged over input seeds — a
/// thin wrapper binding [`Escalate`] to the workload and routing through
/// [`run_accelerator`] with the Table 2 buffer capacities.
pub fn run_escalate(
    profile: &ModelProfile,
    artifacts: &[CompressedLayer],
    sim_cfg: &SimConfig,
    seeds: u64,
) -> AccelRun {
    let workload = Workload::from_artifacts(&profile.name, artifacts, profile);
    run_escalate_workload(&workload, sim_cfg, seeds)
}

/// [`run_escalate`] against an already-built [`Workload`] — the sweep's
/// shared-work path hands in a cached workload ([`workload_cached`])
/// instead of rebuilding it per design point. The workload is read-only
/// to the simulation, so sharing cannot change results.
pub fn run_escalate_workload(workload: &Workload, sim_cfg: &SimConfig, seeds: u64) -> AccelRun {
    escalate_core::par::configure_threads(sim_cfg.threads);
    let caps = BufferCaps::from_config(sim_cfg);
    run_accelerator(
        &Escalate::new(workload, sim_cfg),
        &caps,
        seeds,
        sim_cfg.threads,
    )
}

type WorkloadCache = SingleFlightCache<CacheKey, Arc<Workload>>;

fn workload_cache() -> &'static WorkloadCache {
    static CACHE: OnceLock<WorkloadCache> = OnceLock::new();
    CACHE.get_or_init(|| SingleFlightCache::new(DEFAULT_CACHE_CAP))
}

/// Builds the ESCALATE [`Workload`] for `(model, compression config)` at
/// most once per process, compressing through [`compress_cached`] first.
/// The workload — per-layer coefficient bitmasks, shapes, sparsities — is
/// a pure function of the artifacts, i.e. hardware-invariant: every
/// design point of a sweep sharing `(network, M)` simulates the very same
/// workload, so rebuilding it per point is pure overhead. Hits and misses
/// count as `sweep.derived_hits` / `sweep.derived_misses` alongside the
/// sim-side derived-state cache, evictions as `bench.workload_evictions`;
/// the cache has the artifact cache's default capacity
/// ([`DEFAULT_CACHE_CAP`]).
///
/// # Errors
///
/// Propagates compression failures.
pub fn workload_cached(
    profile: &ModelProfile,
    cfg: &CompressionConfig,
) -> Result<Arc<Workload>, EscalateError> {
    let artifacts = compress_cached(profile, cfg)?;
    let key = cache_key(profile, cfg);
    let look = workload_cache().get_or_compute(key, || {
        Ok::<_, EscalateError>(Arc::new(Workload::from_artifacts(
            &profile.name,
            &artifacts,
            profile,
        )))
    })?;
    escalate_obs::counter_add(
        if look.hit {
            "sweep.derived_hits"
        } else {
            "sweep.derived_misses"
        },
        1,
    );
    if look.evicted > 0 {
        escalate_obs::counter_add("bench.workload_evictions", look.evicted);
    }
    Ok(look.value)
}

/// Runs all four accelerators on one model.
///
/// The model compresses first, through the per-process artifact cache;
/// then the four simulations, which are independent, run concurrently
/// (nested joins on the global pool) unless `sim_cfg.threads == 1`.
/// Compressing inside one arm of the joins instead would leave it no
/// spare worker, since the joins hold them.
///
/// # Errors
///
/// Propagates compression failures.
pub fn run_model(
    profile: &ModelProfile,
    sim_cfg: &SimConfig,
    seeds: u64,
) -> Result<ModelRun, EscalateError> {
    let _t = escalate_obs::span_labeled("bench.model", &profile.name);
    escalate_core::par::configure_threads(sim_cfg.threads);
    let artifacts = escalate_artifacts(profile, sim_cfg)?;
    let escalate = || run_escalate(profile, &artifacts, sim_cfg, seeds);
    let base = |model: &dyn LayerModel| run_baseline(model, profile, sim_cfg, seeds);
    let (eyeriss, scnn, sparten) = (Eyeriss::default(), Scnn::default(), SparTen::default());
    let (escalate, (eyeriss, (scnn, sparten))) = if sim_cfg.threads == 1 {
        (escalate(), (base(&eyeriss), (base(&scnn), base(&sparten))))
    } else {
        rayon::join(escalate, || {
            rayon::join(
                || base(&eyeriss),
                || rayon::join(|| base(&scnn), || base(&sparten)),
            )
        })
    };
    Ok(ModelRun {
        model: profile.name.to_string(),
        escalate,
        eyeriss,
        scnn,
        sparten,
    })
}

/// The four designs [`run_model`] compares, in the comparison table's row
/// order (ESCALATE last).
pub const ACCELERATOR_NAMES: [&str; 4] = ["Eyeriss", "SCNN", "SparTen", "ESCALATE"];

/// ESCALATE's compressed model at `sim_cfg.m`, through the artifact cache.
fn escalate_artifacts(
    profile: &ModelProfile,
    sim_cfg: &SimConfig,
) -> Result<Arc<Vec<CompressedLayer>>, EscalateError> {
    compress_cached(
        profile,
        &CompressionConfig {
            m: sim_cfg.m,
            ..CompressionConfig::default()
        },
    )
}

/// A baseline on the profile's [`BaselineWorkload`] with 64 KiB buffers.
fn run_baseline(
    model: &dyn LayerModel,
    profile: &ModelProfile,
    sim_cfg: &SimConfig,
    seeds: u64,
) -> AccelRun {
    let bw = BaselineWorkload::for_profile(profile);
    let caps = BufferCaps::baseline(64 * 1024);
    run_accelerator(&BaselineSim::new(model, &bw), &caps, seeds, sim_cfg.threads)
}

/// Runs one of the four accelerators by name — the unit-sized slice of
/// [`run_model`] for callers (the serve daemon's simulate plan) that fan
/// the comparison out as independent work units. Each arm takes exactly
/// the code path `run_model` takes for that design, and every stage is
/// order-preserving with per-seed RNGs, so assembling the four results
/// into a [`ModelRun`] is bit-identical to one `run_model` call at any
/// thread count.
///
/// # Errors
///
/// Propagates compression failures; an unknown name reports the valid
/// set.
pub fn run_accelerator_by_name(
    name: &str,
    profile: &ModelProfile,
    sim_cfg: &SimConfig,
    seeds: u64,
) -> Result<AccelRun, EscalateError> {
    escalate_core::par::configure_threads(sim_cfg.threads);
    let base = |model: &dyn LayerModel| Ok(run_baseline(model, profile, sim_cfg, seeds));
    match name {
        "ESCALATE" => Ok(run_escalate(
            profile,
            &escalate_artifacts(profile, sim_cfg)?,
            sim_cfg,
            seeds,
        )),
        "Eyeriss" => base(&Eyeriss::default()),
        "SCNN" => base(&Scnn::default()),
        "SparTen" => base(&SparTen::default()),
        other => Err(EscalateError::Simulation {
            what: format!("unknown accelerator {other:?} (expected {ACCELERATOR_NAMES:?})"),
        }),
    }
}

/// Per-layer energy of one accelerator run (ESCALATE buffer pricing).
pub fn escalate_layer_energies(
    run: &AccelRun,
    sim_cfg: &SimConfig,
) -> Vec<(String, EnergyBreakdown)> {
    let caps = BufferCaps::from_config(sim_cfg);
    let units = UnitEnergy::table3();
    run.first_seed_stats
        .layers
        .iter()
        .map(|l| (l.name.clone(), layer_energy(l, &caps, &units)))
        .collect()
}

/// Geometric mean of `vals`, folded in slice order (so callers that build
/// the slice in model order reproduce the historical per-binary closures
/// bit for bit). The empty product is 1.0; a single element is returned
/// unchanged (up to `exp(ln(x))` rounding).
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 1.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Renders a simple ASCII bar of `value` scaled so `max` fills `width`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

/// Formats a ratio like `12.3x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_seeds_ignores_invalid_env_with_warning() {
        // One test covering set/invalid/zero/unset so the env mutations
        // cannot race each other under the parallel test runner (this is
        // the only test in the binary touching ESCALATE_SEEDS).
        std::env::set_var(SEEDS_ENV, "7");
        assert_eq!(input_seeds(), 7);
        std::env::set_var(SEEDS_ENV, "lots");
        assert_eq!(input_seeds(), DEFAULT_INPUT_SEEDS);
        std::env::set_var(SEEDS_ENV, "0");
        assert_eq!(input_seeds(), DEFAULT_INPUT_SEEDS);
        std::env::remove_var(SEEDS_ENV);
        assert_eq!(input_seeds(), DEFAULT_INPUT_SEEDS);
    }

    #[test]
    fn average_runs_averages_scalars_and_keeps_first_seed_trace() {
        use escalate_sim::LayerStats;
        let seed_stats = |cycles: u64| ModelStats {
            model_name: "m".into(),
            layers: vec![LayerStats {
                name: "l0".into(),
                cycles,
                ..LayerStats::default()
            }],
            pipeline: None,
        };
        let energy = |mac_pj: f64| EnergyBreakdown {
            mac_pj,
            ..EnergyBreakdown::default()
        };
        let run = average_runs(
            "acc".into(),
            vec![
                (seed_stats(100), energy(10.0)),
                (seed_stats(300), energy(30.0)),
            ],
        );
        // Scalars are true means over the seeds...
        assert_eq!(run.cycles, 200.0);
        assert_eq!(run.energy_pj, 20.0);
        assert_eq!(run.energy.mac_pj, 20.0);
        // ...while the per-layer trace is the first seed's, verbatim — the
        // field name documents exactly that.
        assert_eq!(run.first_seed_stats.layers[0].cycles, 100);
    }

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10).len(), 10);
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn accelerator_by_name_matches_run_model_bitwise() {
        // The serve daemon fans the four designs out as independent work
        // units through `run_accelerator_by_name`; its bit-identity claim
        // against the one-shot `run_model` path is pinned here.
        let profile = ModelProfile::for_model("MobileNet").unwrap();
        let cfg = SimConfig::default();
        let whole = run_model(&profile, &cfg, 2).unwrap();
        let parts = [&whole.eyeriss, &whole.scnn, &whole.sparten, &whole.escalate];
        for (name, expect) in ACCELERATOR_NAMES.iter().zip(parts) {
            let run = run_accelerator_by_name(name, &profile, &cfg, 2).unwrap();
            assert_eq!(run.name, expect.name);
            assert_eq!(run.cycles.to_bits(), expect.cycles.to_bits(), "{name}");
            assert_eq!(run.dram_bytes.to_bits(), expect.dram_bytes.to_bits());
            assert_eq!(run.energy_pj.to_bits(), expect.energy_pj.to_bits());
        }
        assert!(run_accelerator_by_name("TPU", &profile, &cfg, 1).is_err());
    }

    #[test]
    fn mobilenet_end_to_end_smoke() {
        // The smallest model: full four-accelerator comparison with one seed.
        let profile = ModelProfile::for_model("MobileNet").unwrap();
        let run = run_model(&profile, &SimConfig::default(), 1).unwrap();
        assert!(run.escalate.cycles > 0.0);
        // ESCALATE must beat the dense baseline on a sparse model.
        assert!(
            run.speedup_over_eyeriss(&run.escalate) > 1.0,
            "speedup {}",
            run.speedup_over_eyeriss(&run.escalate)
        );
        assert!(run.escalate.energy_pj > 0.0);
    }
}
