//! The sampled (throughput) fidelity: the default per-layer engine.
//!
//! For decomposed layers the engine drives the shared simulation core
//! ([`crate::context`]) with a synthetic [`MaskSource::Bernoulli`]: the
//! bit-exact CA component models run on a deterministic sample of
//! (output channel, input position) pairs, then
//! [`crate::context::assemble_stats`] extrapolates by the Basis-First
//! mapping's parallelism — output channels spread over `N_PE` blocks in
//! rounds, rows over `l` slices, and the CA/MAC stages of a slice overlap
//! via double buffering, so a slice advances at `max(CA time, R·S)` per
//! position. Dense layers take the fallback path.

use crate::accel::{Accelerator, Escalate};
use crate::config::SimConfig;
use crate::context::{
    assemble_stats, run_positions, LayerContext, NoopObserver, PositionAggregate, SimObserver,
    TrafficInputs,
};
use crate::fallback::simulate_dense;
use crate::masks::{layer_seed, MaskSource};
use crate::stats::{LayerStats, ModelStats};
use crate::workload::{LayerWorkload, Workload, WorkloadMode};

/// Input positions sampled per channel.
const SAMPLE_POSITIONS: usize = 48;

/// Simulates one layer.
///
/// `seed` controls the synthetic activation draw (the paper averages over
/// 10 random inputs; callers pass different seeds and average).
///
/// When a process-global metrics recorder is installed
/// (`escalate_obs::install`), the run's events flow into it through an
/// [`crate::observe::ObsObserver`]; with none installed this is exactly
/// the zero-cost [`NoopObserver`] path. The observer only reads the event
/// stream, so results are bit-identical either way.
pub fn simulate_layer(lw: &LayerWorkload, cfg: &SimConfig, seed: u64) -> LayerStats {
    match crate::observe::ObsObserver::from_global() {
        Some(mut obs) => simulate_layer_observed(lw, cfg, seed, &mut obs),
        None => simulate_layer_observed(lw, cfg, seed, &mut NoopObserver),
    }
}

/// [`simulate_layer`] with a [`SimObserver`] receiving every sampled
/// position's CA cost and the finished layer stats (the explicit observer
/// is used as-is; the global recorder is not consulted).
pub fn simulate_layer_observed(
    lw: &LayerWorkload,
    cfg: &SimConfig,
    seed: u64,
    obs: &mut dyn SimObserver,
) -> LayerStats {
    let stats = match &lw.mode {
        WorkloadMode::Dense => simulate_dense(&lw.shape, cfg, lw.weight_bytes),
        WorkloadMode::Decomposed(_) => {
            let ctx = LayerContext::new(lw, cfg).expect("decomposed mode checked above");
            let keep_prob = 1.0 - lw.act_sparsity;
            let sampled_k = ctx.sample_channels(cfg);
            let sp = lw.positions().clamp(1, SAMPLE_POSITIONS);
            let agg = if cfg.share_derived {
                shared_walk(&ctx, lw, cfg, seed, keep_prob, sp, &sampled_k, obs)
            } else {
                let mut source =
                    MaskSource::bernoulli(layer_seed(seed, &lw.name), ctx.c, keep_prob, sp);
                run_positions(&ctx, cfg, &sampled_k, &mut source, obs)
            };

            // Traffic estimated from the profiled sparsity: nonzero
            // payload plus the SparseMap bit mask.
            let nnz_act_bytes = (lw.shape.input_size() as f64 * keep_prob).ceil() as u64;
            let ifm_bytes = nnz_act_bytes + (lw.shape.input_size() as u64).div_ceil(8);
            assemble_stats(
                &ctx,
                cfg,
                &agg,
                &TrafficInputs {
                    nnz_act_bytes,
                    ifm_bytes,
                },
            )
        }
    };
    obs.on_layer(&stats);
    stats
}

/// The [`SimConfig::share_derived`] walk: serve the folded sums from the
/// cross-point walk cache when an earlier design point already performed
/// this exact walk, otherwise run it against cached masks and publish
/// the sums.
///
/// A hit reassembles the [`PositionAggregate`] bit-for-bit: the cached
/// per-channel sums are the walk's own f64 folds, and the one
/// mapping-dependent output (`max_block_time`) is `max_mean_pos ×
/// positions_per_slice` — multiplying every per-channel mean by the same
/// positive slice size is monotone, so the max of the products is the
/// product of the max. The walk counts as a plan reuse (the cached sums
/// embody a previously compiled plan's output).
#[allow(clippy::too_many_arguments)]
fn shared_walk(
    ctx: &LayerContext,
    lw: &LayerWorkload,
    cfg: &SimConfig,
    seed: u64,
    keep_prob: f64,
    sp: usize,
    sampled_k: &[usize],
    obs: &mut dyn SimObserver,
) -> PositionAggregate {
    let ls = layer_seed(seed, &lw.name);
    let key = crate::shared::walk_key(
        ctx.c,
        ctx.m,
        sampled_k,
        |k, mi| ctx.masks.mask(k, mi),
        ls,
        keep_prob,
        sp,
        lw.shape.r * lw.shape.s,
        cfg,
    );
    let (sums, walked) = crate::shared::cached_walk(key, || {
        // Hardware-invariant across design points: the walk consumes
        // exactly `sampled_k.len() × sp` masks of the layer's Bernoulli
        // stream, so the materialized block is bit-identical to the live
        // draw.
        let (words, _hit) = crate::shared::cached_masks(ls, ctx.c, keep_prob, sp, sampled_k.len());
        let mut source = MaskSource::materialized(words, ctx.c, sp);
        run_positions(ctx, cfg, sampled_k, &mut source, &mut *obs)
    });
    if let Some(agg) = walked {
        return agg;
    }
    let agg = PositionAggregate {
        sum_pos_cycles: sums.sum_pos_cycles,
        sum_matched: sums.sum_matched,
        sum_gather: sums.sum_gather,
        sum_idle: sums.sum_idle,
        max_mean_pos: sums.max_mean_pos,
        max_block_time: sums.max_mean_pos * ctx.positions_per_slice() as f64,
        sampled_channels: sampled_k.len(),
        positions_per_channel: sp,
        plan_compiles: 0,
        plan_reuses: 1,
    };
    obs.on_walk(&agg);
    agg
}

/// Simulates a whole model: ESCALATE as an [`Accelerator`], folded through
/// the provided `simulate` (layers fan out over the global thread pool
/// unless `cfg.threads == 1`; each draws from its own RNG stream, so any
/// thread count is bit-identical).
pub fn simulate_model(workload: &Workload, cfg: &SimConfig, seed: u64) -> ModelStats {
    Escalate::new(workload, cfg).simulate(seed, cfg.threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CoefMasks;
    use escalate_core::quant::TernaryCoeffs;
    use escalate_models::LayerShape;
    use escalate_tensor::Tensor;

    fn workload(
        c: usize,
        k: usize,
        x: usize,
        coef_sparsity: f64,
        act_sparsity: f64,
    ) -> LayerWorkload {
        let m = 6;
        let coeffs = Tensor::from_fn(&[k, c, m], |i| {
            let h = (i[0] * 7919 + i[1] * 104729 + i[2] * 1299709) % 1000;
            if (h as f64) < coef_sparsity * 1000.0 {
                0.0
            } else if h % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let t = TernaryCoeffs::ternarize(&coeffs, 0.0).unwrap();
        LayerWorkload {
            name: format!("c{c}k{k}x{x}"),
            shape: LayerShape::conv("t", c, k, x, x, 3, 1, 1),
            out_channels: k,
            mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
            act_sparsity,
            out_sparsity: act_sparsity,
            weight_bytes: 1000,
        }
    }

    #[test]
    fn cycles_scale_with_feature_map_size() {
        let cfg = SimConfig::default();
        let a = simulate_layer(&workload(64, 64, 16, 0.9, 0.5), &cfg, 0);
        let b = simulate_layer(&workload(64, 64, 32, 0.9, 0.5), &cfg, 0);
        assert!(
            b.cycles > 2 * a.cycles,
            "4x positions should give ~4x cycles: {} vs {}",
            a.cycles,
            b.cycles
        );
    }

    #[test]
    fn cycles_scale_with_output_channels() {
        let cfg = SimConfig::default();
        let a = simulate_layer(&workload(64, 64, 16, 0.9, 0.5), &cfg, 0);
        let b = simulate_layer(&workload(64, 256, 16, 0.9, 0.5), &cfg, 0);
        assert!(b.cycles > 3 * a.cycles);
    }

    #[test]
    fn dense_activations_slow_the_ca() {
        let cfg = SimConfig::default();
        let sparse = simulate_layer(&workload(256, 64, 16, 0.9, 0.8), &cfg, 0);
        let dense = simulate_layer(&workload(256, 64, 16, 0.9, 0.0), &cfg, 0);
        assert!(dense.cycles > sparse.cycles);
    }

    #[test]
    fn low_coef_sparsity_creates_mac_idle() {
        // Wide layer, dense coefficients and activations: the CA cannot
        // keep up with the 9-cycle MAC service time.
        let cfg = SimConfig::default();
        let busy = simulate_layer(&workload(512, 64, 16, 0.3, 0.3), &cfg, 0);
        assert!(busy.mac_idle_cycles > 0, "expected idle MACs");
        // High sparsity frees the CA.
        let fast = simulate_layer(&workload(512, 64, 16, 0.98, 0.7), &cfg, 0);
        assert!(fast.mac_idle_fraction() < busy.mac_idle_fraction());
    }

    #[test]
    fn speedup_bounded_by_c_over_m() {
        // With perfect sparsity the layer is MAC-bound: cycles ≈
        // K·positions·RS / (N_PE·l) — the C/M compute bound of §5.2.2.
        let cfg = SimConfig::default();
        let lw = workload(512, 64, 20, 0.99, 0.9);
        let s = simulate_layer(&lw, &cfg, 0);
        let mac_bound = (64.0 * 400.0 * 9.0 / (32.0 * 5.0)) as u64;
        assert!(s.cycles >= mac_bound, "{} < {mac_bound}", s.cycles);
        assert!(
            s.cycles < mac_bound * 3,
            "{} should be near the MAC bound {mac_bound}",
            s.cycles
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SimConfig::default();
        let lw = workload(128, 32, 16, 0.8, 0.5);
        let a = simulate_layer(&lw, &cfg, 7);
        let b = simulate_layer(&lw, &cfg, 7);
        assert_eq!(a, b);
        let c = simulate_layer(&lw, &cfg, 8);
        // Different input sample: cycle counts may differ slightly.
        assert_eq!(a.mac_ops, c.mac_ops);
    }

    #[test]
    fn small_ifm_avoids_dram_restreaming() {
        let cfg = SimConfig::default();
        // 16x16x64 compressed easily fits 40KB of input buffers.
        let small = simulate_layer(&workload(64, 256, 16, 0.9, 0.5), &cfg, 0);
        let one_load = small.dram.ifm;
        // 64x64x256 exceeds the buffers: re-streamed per round (2 rounds).
        let big = simulate_layer(&workload(256, 256, 64, 0.9, 0.5), &cfg, 0);
        assert!(big.dram.ifm > one_load);
        assert_eq!(small.dram.weights, 1000);
    }

    #[test]
    fn sample_channels_knob_changes_coverage_not_determinism() {
        let lw = workload(128, 64, 16, 0.8, 0.5);
        let narrow = SimConfig::default();
        let wide = SimConfig {
            sample_channels: 64,
            ..SimConfig::default()
        };
        // Same knob, same seed: identical.
        assert_eq!(simulate_layer(&lw, &wide, 3), simulate_layer(&lw, &wide, 3));
        // Full coverage and 8-channel sampling estimate the same layer.
        let a = simulate_layer(&lw, &narrow, 3);
        let b = simulate_layer(&lw, &wide, 3);
        assert_eq!(a.mac_ops, b.mac_ops);
        let ratio = a.cycles as f64 / b.cycles as f64;
        assert!((0.7..1.4).contains(&ratio), "cycle ratio {ratio}");
    }

    #[test]
    fn shared_derived_state_is_bit_identical() {
        let lw = workload(128, 32, 16, 0.8, 0.5);
        let cold = SimConfig::default();
        let shared = SimConfig {
            share_derived: true,
            ..SimConfig::default()
        };
        for seed in [0, 7] {
            assert_eq!(
                simulate_layer(&lw, &cold, seed),
                simulate_layer(&lw, &shared, seed),
                "seed {seed}"
            );
        }
        // Warm-cache repeat: the second shared run hits both caches.
        assert_eq!(
            simulate_layer(&lw, &shared, 3),
            simulate_layer(&lw, &shared, 3)
        );
        // A different hardware point still shares masks and plans (both
        // are hardware-invariant) without changing its own results.
        let wide = SimConfig {
            input_bus_bytes: 64,
            n_pe: 8,
            ..cold
        };
        let wide_shared = SimConfig {
            share_derived: true,
            ..wide
        };
        assert_eq!(
            simulate_layer(&lw, &wide, 5),
            simulate_layer(&lw, &wide_shared, 5)
        );
    }

    #[test]
    fn walk_cache_serves_other_mappings_bit_identically() {
        // The walk sums are CA-invariant: points differing only in PE
        // count (different block/slice mapping, hence different
        // max_block_time) reuse the cached walk yet must match their own
        // cold runs exactly.
        let lw = workload(96, 48, 16, 0.85, 0.4);
        let warmup = SimConfig {
            share_derived: true,
            ..SimConfig::default()
        };
        let _ = simulate_layer(&lw, &warmup, 11);
        for n_pe in [8, 16, 64] {
            let cold = SimConfig {
                n_pe,
                ..SimConfig::default()
            };
            let shared = SimConfig {
                share_derived: true,
                ..cold
            };
            assert_eq!(
                simulate_layer(&lw, &cold, 11),
                simulate_layer(&lw, &shared, 11),
                "n_pe {n_pe}"
            );
        }
        // A different bus width is a different CA cost model: its walk is
        // keyed separately and still matches the cold run.
        let wide_cold = SimConfig {
            input_bus_bytes: 64,
            ..SimConfig::default()
        };
        let wide_shared = SimConfig {
            share_derived: true,
            ..wide_cold
        };
        assert_eq!(
            simulate_layer(&lw, &wide_cold, 11),
            simulate_layer(&lw, &wide_shared, 11)
        );
    }

    #[test]
    fn model_stats_aggregate() {
        let cfg = SimConfig::default();
        let w = Workload {
            model_name: "toy".into(),
            layers: vec![
                workload(64, 64, 16, 0.9, 0.5),
                workload(64, 128, 16, 0.9, 0.5),
            ],
        };
        let s = simulate_model(&w, &cfg, 0);
        assert_eq!(s.layers.len(), 2);
        assert_eq!(s.total_cycles(), s.layers[0].cycles + s.layers[1].cycles);
    }
}
