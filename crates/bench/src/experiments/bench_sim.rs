//! Emits `BENCH_sim.json`: wall-clock of the full MobileNet
//! four-accelerator grid (ESCALATE + Eyeriss + SCNN + SparTen over the
//! configured input seeds), once forced sequential (`threads = 1`) and
//! once on the full thread pool, plus the resulting speedup. The two runs
//! are asserted bit-identical before anything is written, so the file also
//! certifies the determinism contract of the parallel harness.
//!
//! The record also carries the host context that makes trajectory entries
//! from different machines comparable (`host_cores`, `git_rev`) and a
//! `kernel` section timing the Dilution-Concentration position walk —
//! scalar reference vs the word-parallel `PositionKernel`, one position
//! at a time and batched — plus the layer-plan compile/reuse counters of
//! an instrumented whole-grid run and the activation-mask repeat rate
//! that sealed the old memo's fate (exact-key hits need repeated masks;
//! Bernoulli multi-word masks essentially never repeat, hence the
//! measured 0.0000 hit rate and the memo's removal in favor of compiled
//! plans).
//!
//! A timing benchmark, so this experiment is **not** golden-checked
//! (`Experiment::golden` is `false`). The output path defaults to
//! `BENCH_sim.json` and can be overridden with the first positional arg.

use super::{Cell, ExpContext, ExpError, Experiment, Record, Table};
use crate::tline;
use crate::{run_model, ModelRun};
use escalate_models::hash::splitmix64;
use escalate_models::ModelProfile;
use escalate_sim::ca::{position_cost_scalar, CaScratch, PositionKernel, MAX_BATCH};
use escalate_sim::{PositionCost, SimConfig};
use std::time::Instant;

/// Errors unless the two grids produced bit-identical results.
fn assert_identical(seq: &ModelRun, par: &ModelRun) -> Result<(), ExpError> {
    for (s, p) in [
        (&seq.escalate, &par.escalate),
        (&seq.eyeriss, &par.eyeriss),
        (&seq.scnn, &par.scnn),
        (&seq.sparten, &par.sparten),
    ] {
        if s.first_seed_stats != p.first_seed_stats {
            return Err(ExpError::Msg(format!(
                "{}: per-layer stats diverged",
                s.name
            )));
        }
        if !(s.cycles == p.cycles && s.dram_bytes == p.dram_bytes && s.energy_pj == p.energy_pj) {
            return Err(ExpError::Msg(format!(
                "{}: seed averages diverged between sequential and parallel runs",
                s.name
            )));
        }
    }
    Ok(())
}

/// Best-effort short commit hash of the working tree, `"unknown"` outside
/// a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn mask(seed: &mut u64, c: usize, keep_per_mille: u64) -> Vec<u64> {
    let words = c.div_ceil(64);
    let mut v: Vec<u64> = (0..words)
        .map(|_| {
            let mut w = 0u64;
            for b in 0..64 {
                if splitmix64(seed) % 1000 < keep_per_mille {
                    w |= 1 << b;
                }
            }
            w
        })
        .collect();
    let tail = c - (words - 1) * 64;
    if tail < 64 {
        *v.last_mut().expect("words >= 1") &= (1u64 << tail) - 1;
    }
    v
}

/// Positions per second of the scalar path, the one-position-at-a-time
/// kernel, and the batched kernel (`cost_batch`, the production walk) on
/// a dense-activation / sparse-coefficient MobileNet-shaped channel
/// (`C = 256`, ~95% sparse coefficients, ~90% dense activations).
fn time_kernel(cfg: &SimConfig) -> Result<(f64, f64, f64), ExpError> {
    const C: usize = 256;
    const POSITIONS: usize = 48;
    let words = C.div_ceil(64);
    let mut seed = 0x5eed_c0de_u64;
    let coef: Vec<Vec<u64>> = (0..cfg.m).map(|_| mask(&mut seed, C, 50)).collect();
    let refs: Vec<&[u64]> = coef.iter().map(Vec::as_slice).collect();
    let acts: Vec<Vec<u64>> = (0..POSITIONS).map(|_| mask(&mut seed, C, 900)).collect();
    let acts_flat: Vec<u64> = acts.iter().flatten().copied().collect();

    let mut scratch = CaScratch::new(cfg);
    let mut kernel = PositionKernel::new(cfg);
    let mut costs = vec![PositionCost::default(); MAX_BATCH];

    // Equality before timing, and warm-up for every path.
    kernel.bind(C, refs.iter().copied());
    for (p, act) in acts.iter().enumerate() {
        let scalar = position_cost_scalar(cfg, C, act, &refs, &mut scratch);
        if kernel.cost(act) != scalar {
            return Err(ExpError::Msg(
                "kernel diverged from the scalar reference".into(),
            ));
        }
        let (chunk, off) = (p / MAX_BATCH, p % MAX_BATCH);
        let n = MAX_BATCH.min(POSITIONS - chunk * MAX_BATCH);
        kernel.cost_batch(
            &acts_flat[chunk * MAX_BATCH * words..(chunk * MAX_BATCH + n) * words],
            n,
            &mut costs,
        );
        if costs[off] != scalar {
            return Err(ExpError::Msg(
                "batched kernel diverged from the scalar reference".into(),
            ));
        }
    }

    // Best-of-three measurement rounds per path: positions/s from the
    // fastest round, which is the least scheduler-perturbed one.
    const ROUNDS: usize = 200;
    const TRIES: usize = 3;
    let mut sink = 0u64;
    let best = |elapsed: &mut f64, t: Instant| {
        *elapsed = elapsed.min(t.elapsed().as_secs_f64()).max(1e-12);
    };

    let mut scalar_s = f64::INFINITY;
    for _ in 0..TRIES {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for act in &acts {
                sink += position_cost_scalar(cfg, C, act, &refs, &mut scratch).ca_cycles;
            }
        }
        best(&mut scalar_s, t);
    }

    let mut single_s = f64::INFINITY;
    for _ in 0..TRIES {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            kernel.bind(C, refs.iter().copied());
            for act in &acts {
                sink += kernel.cost(act).ca_cycles;
            }
        }
        best(&mut single_s, t);
    }

    let mut batched_s = f64::INFINITY;
    for _ in 0..TRIES {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            kernel.bind(C, refs.iter().copied());
            let mut p = 0usize;
            while p < POSITIONS {
                let n = MAX_BATCH.min(POSITIONS - p);
                kernel.cost_batch(&acts_flat[p * words..(p + n) * words], n, &mut costs);
                for cost in &costs[..n] {
                    sink += cost.ca_cycles;
                }
                p += n;
            }
        }
        best(&mut batched_s, t);
    }
    std::hint::black_box(sink);

    let walked = (ROUNDS * POSITIONS) as f64;
    Ok((walked / scalar_s, walked / single_s, walked / batched_s))
}

/// Fraction of activation masks repeating an earlier draw in a stream of
/// `draws` — the diagnosis behind the memo's removal: an exact-key memo
/// (the only keying the bit-identity contract allows) can only hit on
/// repeats, and at `C = 256`/90% density the space of masks is so large
/// that repeats essentially never happen.
fn mask_repeat_rate(c: usize, keep_per_mille: u64, draws: usize) -> f64 {
    let mut seed = 0xd1a6_005e_u64;
    let mut seen = std::collections::HashSet::with_capacity(draws);
    let mut repeats = 0usize;
    for _ in 0..draws {
        if !seen.insert(mask(&mut seed, c, keep_per_mille)) {
            repeats += 1;
        }
    }
    repeats as f64 / draws.max(1) as f64
}

/// Registry entry for the harness wall-clock benchmark record.
pub struct BenchSim;

impl Experiment for BenchSim {
    fn name(&self) -> &'static str {
        "bench_sim"
    }

    fn paper_anchor(&self) -> &'static str {
        "harness"
    }

    fn summary(&self) -> &'static str {
        "BENCH_sim.json wall-clock + determinism certification record"
    }

    fn golden(&self) -> bool {
        false // wall-clock benchmark; output is host-dependent
    }

    fn run(&self, ctx: &ExpContext) -> Result<Table, ExpError> {
        let out_path = ctx.arg_or("BENCH_sim.json").to_string();
        // Build the global pool at full width up front: the first configuration
        // wins for the whole process, and the sequential grid (which only uses
        // `threads == 1` fast paths) must not pin the pool to one thread.
        let threads = escalate_core::par::configure_threads(0);
        let host_cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let seeds = ctx.seeds;
        let profile = ModelProfile::for_model("MobileNet").expect("known model");

        let sequential_cfg = SimConfig {
            threads: 1,
            ..SimConfig::default()
        };
        let parallel_cfg = SimConfig::default();

        // Warm the artifact cache so both timings measure simulation, not the
        // shared one-off compression.
        let warm = Instant::now();
        run_model(&profile, &sequential_cfg, 1)?;
        let warmup_s = warm.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let seq = run_model(&profile, &sequential_cfg, seeds)?;
        let sequential_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let par = run_model(&profile, &parallel_cfg, seeds)?;
        let parallel_s = t0.elapsed().as_secs_f64();

        assert_identical(&seq, &par)?;
        let speedup = sequential_s / parallel_s;

        // Kernel microbenchmark: the position walk itself — scalar,
        // one-position kernel, batched kernel — outside the harness so
        // the numbers isolate the per-position cost model.
        let (scalar_pps, single_pps, batched_pps) = time_kernel(&parallel_cfg)?;
        let kernel_speedup = batched_pps / scalar_pps.max(1e-12);

        // Layer-plan counters of a real (untimed) grid run, via the
        // observability layer. An installed recorder is
        // bit-non-perturbing, but it is kept out of the timed runs above
        // anyway.
        let registry = std::sync::Arc::new(escalate_obs::Registry::new());
        escalate_obs::install(std::sync::Arc::clone(&registry));
        let instrumented = run_model(&profile, &parallel_cfg, seeds);
        escalate_obs::uninstall();
        assert_identical(&seq, &instrumented?)?;
        let plan_compiles = registry.counter("ca.plan_compiles");
        let plan_reuses = registry.counter("ca.plan_reuses");
        // The number that decided the memo verdict, recorded alongside the
        // counters that replaced it.
        let repeat_rate = mask_repeat_rate(256, 900, 10_000);

        let json = format!(
            "{{\n  \"benchmark\": \"mobilenet_four_accelerator_grid\",\n  \"model\": \"MobileNet\",\n  \"accelerators\": [\"ESCALATE\", \"Eyeriss\", \"SCNN\", \"SparTen\"],\n  \"seeds\": {seeds},\n  \"threads\": {threads},\n  \"host_cores\": {host_cores},\n  \"git_rev\": \"{git_rev}\",\n  \"compression_warmup_s\": {warmup_s:.4},\n  \"sequential_s\": {sequential_s:.4},\n  \"parallel_s\": {parallel_s:.4},\n  \"speedup\": {speedup:.2},\n  \"bit_identical\": true,\n  \"kernel\": {{\n    \"shape\": \"c256_m6_coef95_act90\",\n    \"positions_per_sec_scalar\": {scalar_pps:.0},\n    \"positions_per_sec_word_parallel\": {single_pps:.0},\n    \"positions_per_sec_batched\": {batched_pps:.0},\n    \"speedup\": {kernel_speedup:.2},\n    \"plan_compiles\": {plan_compiles},\n    \"plan_reuses\": {plan_reuses},\n    \"memo\": \"removed: exact-key hit rate measured 0.0000 on the real grid\",\n    \"mask_repeat_rate\": {repeat_rate:.4}\n  }}\n}}\n",
            git_rev = git_rev(),
        );
        std::fs::write(&out_path, &json)?;

        let mut t = Table::new(self.name(), self.paper_anchor());
        tline!(t, "{json}");
        tline!(
            t,
            "wrote {out_path} ({threads} threads, {speedup:.2}x over sequential, batched kernel {kernel_speedup:.2}x over scalar, {plan_compiles} plan compiles / {plan_reuses} reuses)"
        );
        t.push_record(Record::new([
            ("out_path", Cell::from(out_path)),
            ("seeds", Cell::from(seeds)),
            ("threads", Cell::from(threads)),
            ("host_cores", Cell::from(host_cores)),
            ("sequential_s", sequential_s.into()),
            ("parallel_s", parallel_s.into()),
            ("speedup_x", speedup.into()),
            ("bit_identical", true.into()),
            ("kernel_speedup_x", kernel_speedup.into()),
            ("plan_compiles", Cell::from(plan_compiles)),
            ("plan_reuses", Cell::from(plan_reuses)),
            ("mask_repeat_rate", repeat_rate.into()),
        ]));
        Ok(t)
    }
}
