//! The simulation core shared by every fidelity.
//!
//! The three simulation modes — sampled ([`crate::engine`]), trace-driven
//! ([`crate::trace`]), and cycle-stepped ([`crate::detailed`]) — used to
//! re-derive the identical per-layer setup and re-implement the same
//! position walk with drifting constants. This module owns that setup
//! once:
//!
//! - [`LayerContext`] derives everything the Basis-First mapping fixes per
//!   layer (effective `R·S`, the MAC row, the pointwise `parallel_k`, the
//!   block/slice [`Mapping`], the stratified channel sample) in exactly
//!   one place;
//! - [`run_positions`] walks sampled channels × positions against any
//!   [`MaskSource`], folding per-position CA costs into a
//!   [`PositionAggregate`] with the engine's historical arithmetic order
//!   (bit-identical results);
//! - [`assemble_stats`] extrapolates an aggregate into [`LayerStats`]
//!   under one traffic model, taking only the fidelity-specific IFM byte
//!   counts as input;
//! - [`SimObserver`] is the hook through which per-position and per-slice
//!   events flow to instrumentation without touching the hot path's
//!   structure.

use crate::ca::{PositionCost, PositionKernel, MAX_BATCH};
use crate::config::SimConfig;
use crate::dataflow::Mapping;
use crate::error::SimError;
use crate::mac::MacRow;
use crate::masks::MaskSource;
use crate::slice::SliceTrace;
use crate::stats::{DramTraffic, LayerStats, SramTraffic};
use crate::workload::{CoefMasks, LayerWorkload, WorkloadMode};
use escalate_tensor::Tensor;
use std::cell::RefCell;

/// Per-layer derived state of the Basis-First mapping, built once and
/// shared by every fidelity. This is the *only* place `rs`, [`MacRow`],
/// `parallel_k` and [`Mapping`] are derived from a workload.
pub struct LayerContext<'a> {
    /// The layer being simulated.
    pub lw: &'a LayerWorkload,
    /// Coefficient bitmasks of the decomposed layer.
    pub masks: &'a CoefMasks,
    /// Output channels `K`.
    pub k_total: usize,
    /// Input channels `C`.
    pub c: usize,
    /// Basis count `M`.
    pub m: usize,
    /// Mask words per channel (`⌈C/64⌉`).
    pub words: usize,
    /// Effective kernel area: SCNN-style scatter with stride means only
    /// ~`R·S/stride²` of a basis kernel's products land on valid output
    /// positions, shrinking the MAC service time per intermediate element.
    pub rs: usize,
    /// The `M`-MAC row servicing one slice.
    pub mac_row: MacRow,
    /// Output channels retired per block pass: pointwise workloads
    /// (`M = 1`) would leave `M−1` CA-MAC pairs idle, so the dataflow
    /// assigns each pair its own output channel instead.
    pub parallel_k: usize,
    /// Block/slice assignment of channels and rows.
    pub mapping: Mapping,
}

impl<'a> LayerContext<'a> {
    /// Derives the context for a decomposed layer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotDecomposed`] for dense-fallback workloads —
    /// they have no coefficient masks to simulate (the sampling engine
    /// routes them to [`crate::fallback`] before building a context) —
    /// and [`SimError::UnsupportedLayer`] for grouped convolutions, whose
    /// per-group reduction the decomposed datapath cannot express (the
    /// compression pipeline keeps them dense, so a decomposed grouped
    /// workload is a caller bug this catches instead of mis-simulating).
    pub fn new(lw: &'a LayerWorkload, cfg: &SimConfig) -> Result<LayerContext<'a>, SimError> {
        if let escalate_models::LayerKind::GroupedConv { .. } = lw.shape.kind {
            return Err(SimError::UnsupportedLayer {
                layer: lw.name.clone(),
                kind: lw.shape.kind.to_string(),
            });
        }
        let WorkloadMode::Decomposed(masks) = &lw.mode else {
            return Err(SimError::NotDecomposed {
                layer: lw.name.clone(),
            });
        };
        let k_total = masks.k();
        let c = masks.c();
        let m = masks.m();
        let rs = (lw.shape.r * lw.shape.s)
            .div_ceil(lw.shape.stride * lw.shape.stride)
            .max(1);
        let mac_row = MacRow::new(m, rs);
        let parallel_k = if m == 1 { cfg.m.max(1) } else { 1 };
        let mapping = Mapping::new(cfg, k_total.div_ceil(parallel_k), lw.shape.x);
        Ok(LayerContext {
            lw,
            masks,
            k_total,
            c,
            m,
            words: c.div_ceil(64),
            rs,
            mac_row,
            parallel_k,
            mapping,
        })
    }

    /// Checks a concrete feature map against the workload's shape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFeatureMap`] for non-rank-3 tensors and
    /// [`SimError::ShapeMismatch`] when the dimensions disagree.
    pub fn validate_ifm(&self, ifm: &Tensor) -> Result<(), SimError> {
        let [c, x, y]: [usize; 3] =
            ifm.shape()
                .try_into()
                .map_err(|_| SimError::BadFeatureMap {
                    layer: self.lw.name.clone(),
                    shape: ifm.shape().to_vec(),
                })?;
        if (c, x, y) != (self.c, self.lw.shape.x, self.lw.shape.y) {
            return Err(SimError::ShapeMismatch {
                layer: self.lw.name.clone(),
                expected: [self.c, self.lw.shape.x, self.lw.shape.y],
                got: [c, x, y],
            });
        }
        Ok(())
    }

    /// Input positions owned by one slice (`rows_per_slice × Y`).
    pub fn positions_per_slice(&self) -> usize {
        self.mapping.rows_per_slice() * self.lw.shape.y
    }

    /// The stratified output-channel sample: quantile representatives of
    /// the per-channel coefficient-count distribution (`cfg.sample_channels`
    /// of them, or every channel when `K` is smaller), because the counts
    /// are heavy-tailed and a fixed stride can land on unrepresentative
    /// channels.
    pub fn sample_channels(&self, cfg: &SimConfig) -> Vec<usize> {
        let sk = self.k_total.min(cfg.sample_channels.max(1));
        let mut order: Vec<usize> = (0..self.k_total).collect();
        order.sort_by_key(|&k| self.masks.nnz_for_channel(k));
        (0..sk)
            .map(|i| order[((2 * i + 1) * self.k_total) / (2 * sk)])
            .collect()
    }
}

/// A per-position event flowing through [`SimObserver::on_position`].
pub struct PositionEvent<'a> {
    /// Output channel being walked.
    pub channel: usize,
    /// Position index within the walk (`0..positions`).
    pub position: usize,
    /// The CA cost model's verdict for this position.
    pub cost: &'a PositionCost,
    /// MAC-row cycles the position occupies (`max(CA, R·S)`).
    pub mac_row_cycles: u64,
}

/// A per-slice event flowing through [`SimObserver::on_slice`] (emitted by
/// the detailed fidelity, which steps whole slices).
pub struct SliceEvent<'a> {
    /// Output channel the slice run belongs to.
    pub channel: usize,
    /// Slice index within the block (`0..l`).
    pub slice: usize,
    /// The cycle-stepped pipeline trace.
    pub trace: &'a SliceTrace,
}

/// Instrumentation hook for the simulation core: implementors receive
/// every per-position CA cost (sampled and trace-driven fidelities),
/// every cycle-stepped slice trace (detailed fidelity), and the finished
/// per-layer stats (sampled and trace-driven fidelities, dense-fallback
/// layers included). All methods default to no-ops, so observers
/// implement only what they record.
pub trait SimObserver {
    /// Called once per simulated (channel, position) pair.
    fn on_position(&mut self, _ev: &PositionEvent) {}

    /// Called once per cycle-stepped (channel, slice) run.
    fn on_slice(&mut self, _ev: &SliceEvent) {}

    /// Called once per finished channel × position walk with the folded
    /// aggregate — the hook through which walk-level statistics (walks
    /// executed vs served by the walk cache) reach instrumentation.
    fn on_walk(&mut self, _agg: &PositionAggregate) {}

    /// Called once per finished layer with the stats the simulation
    /// returns — exactly the values callers see, so observer-side totals
    /// reconcile with [`crate::stats::ModelStats`] count-for-count.
    fn on_layer(&mut self, _stats: &LayerStats) {}
}

/// The do-nothing observer the plain entry points use.
pub struct NoopObserver;

impl SimObserver for NoopObserver {}

/// Folded result of one channel × position walk.
///
/// Sums are kept in the engine's historical arithmetic order — per-channel
/// position means accumulated as f64 — so the sampled fidelity stays
/// bit-identical across the refactor.
#[derive(Debug, Clone, Copy, Default)]
pub struct PositionAggregate {
    /// Σ over sampled channels of the mean per-position MAC-row cycles.
    pub sum_pos_cycles: f64,
    /// Σ matched (activation, coefficient) pairs over all samples.
    pub sum_matched: f64,
    /// Σ concentration gather passes over all samples.
    pub sum_gather: f64,
    /// Σ MAC idle cycles over all samples.
    pub sum_idle: f64,
    /// Slowest per-block drain time seen (mean position cycles × the
    /// positions one slice owns).
    pub max_block_time: f64,
    /// Largest per-channel mean position cycles seen — the
    /// mapping-invariant factor of `max_block_time` (multiplying every
    /// per-channel mean by the positive slice size is monotone, so
    /// `max_block_time = max_mean_pos × positions_per_slice` bit-for-bit),
    /// which is what lets the walk cache serve design points whose
    /// mappings differ.
    pub max_mean_pos: f64,
    /// Channels walked.
    pub sampled_channels: usize,
    /// Positions walked per channel.
    pub positions_per_channel: usize,
    /// 1 when the walk was executed (every sampled channel bound and
    /// every position costed), 0 when it was served from the walk cache.
    /// Counted as `ca.plan_compiles`.
    pub plan_compiles: u64,
    /// 1 when the walk was served from the walk cache
    /// ([`crate::shared::cached_walk`]) instead of executed. Counted as
    /// `ca.plan_reuses`.
    pub plan_reuses: u64,
}

thread_local! {
    // One PositionKernel per host thread, reused across layers (and
    // across whole simulations) as long as the config's kernel-relevant
    // knobs are unchanged — `bind` resets all per-channel state, so the
    // reuse cannot leak state between layers and results stay
    // bit-identical at any thread count.
    static KERNEL_CACHE: RefCell<Option<PositionKernel>> = const { RefCell::new(None) };
}

/// Walks `sampled_k × source.positions()` through the bit-exact CA cost
/// model, allocating nothing per position. This is the one inner loop
/// every fidelity that aggregates per-position costs drives.
///
/// Uses a thread-local [`PositionKernel`] (rebuilt only when `cfg`'s
/// kernel-relevant knobs change) so its scratch buffers survive across
/// walks; [`run_positions_with`] is the same walk against a caller-owned
/// kernel.
pub fn run_positions(
    ctx: &LayerContext,
    cfg: &SimConfig,
    sampled_k: &[usize],
    source: &mut MaskSource,
    obs: &mut dyn SimObserver,
) -> PositionAggregate {
    KERNEL_CACHE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let kernel = match slot.as_mut() {
            Some(k) if k.matches(cfg) => k,
            _ => slot.insert(PositionKernel::new(cfg)),
        };
        run_positions_with(ctx, cfg, sampled_k, source, obs, kernel)
    })
}

/// [`run_positions`] against a caller-owned [`PositionKernel`] (which must
/// have been built from an equivalent config). Binds each sampled channel
/// once and walks its positions in batches of [`MAX_BATCH`]; the
/// per-position fold order (and hence every f64 accumulation feeding
/// [`assemble_stats`]) is identical to a one-position-at-a-time walk.
pub fn run_positions_with(
    ctx: &LayerContext,
    cfg: &SimConfig,
    sampled_k: &[usize],
    source: &mut MaskSource,
    obs: &mut dyn SimObserver,
    kernel: &mut PositionKernel,
) -> PositionAggregate {
    assert!(kernel.matches(cfg), "kernel built from a different config");
    let _span = escalate_obs::span("ca.kernel");
    let sp = source.positions();
    let mut agg = PositionAggregate {
        sampled_channels: sampled_k.len(),
        positions_per_channel: sp,
        plan_compiles: 1,
        ..PositionAggregate::default()
    };
    let mut batch = vec![0u64; MAX_BATCH * ctx.words];
    let mut costs = [PositionCost::default(); MAX_BATCH];
    for &k in sampled_k {
        kernel.bind(ctx.c, (0..ctx.m).map(|mi| ctx.masks.mask(k, mi)));
        let mut k_pos_cycles = 0.0f64;
        let mut p = 0usize;
        while p < sp {
            let n = MAX_BATCH.min(sp - p);
            for b in 0..n {
                // Masks are materialized in position order, so Bernoulli
                // sources consume their RNG stream exactly as the
                // unbatched walk did.
                source.mask_into(p + b, &mut batch[b * ctx.words..(b + 1) * ctx.words]);
            }
            kernel.cost_batch(&batch[..n * ctx.words], n, &mut costs);
            for (b, cost) in costs.iter().enumerate().take(n) {
                let pos_cycles = ctx.mac_row.position_cycles(cost.ca_cycles);
                k_pos_cycles += pos_cycles as f64;
                agg.sum_matched += cost.matched as f64;
                agg.sum_gather += cost.gather_passes as f64;
                agg.sum_idle += ctx.mac_row.idle_cycles(cost.ca_cycles) as f64;
                obs.on_position(&PositionEvent {
                    channel: k,
                    position: p + b,
                    cost,
                    mac_row_cycles: pos_cycles,
                });
            }
            p += n;
        }
        let mean_pos = k_pos_cycles / sp as f64;
        agg.sum_pos_cycles += mean_pos;
        agg.max_mean_pos = agg.max_mean_pos.max(mean_pos);
        let block_time = mean_pos * ctx.positions_per_slice() as f64;
        agg.max_block_time = agg.max_block_time.max(block_time);
    }
    obs.on_walk(&agg);
    agg
}

/// The fidelity-specific traffic inputs [`assemble_stats`] cannot derive
/// itself: how many IFM bytes actually move. The sampling engine estimates
/// both from the profiled sparsity; the trace-driven mode measures them on
/// the concrete feature map (exact SparseMap stream sizes).
pub struct TrafficInputs {
    /// Nonzero activation payload bytes of the input feature map.
    pub nnz_act_bytes: u64,
    /// Compressed IFM size in DRAM (payload + bit masks).
    pub ifm_bytes: u64,
}

/// Extrapolates a [`PositionAggregate`] into full-layer [`LayerStats`]
/// under the work-queue schedule and the shared DRAM/SRAM traffic model.
///
/// When the walk covered every channel and every position, the counters
/// are taken as exact integer sums (no extrapolation — this is what makes
/// full-coverage trace runs comparable, count-for-count, with the detailed
/// fidelity); otherwise they extrapolate through the engine's historical
/// mean-based estimator, preserving its f64 arithmetic order bit-for-bit.
pub fn assemble_stats(
    ctx: &LayerContext,
    cfg: &SimConfig,
    agg: &PositionAggregate,
    traffic: &TrafficInputs,
) -> LayerStats {
    let lw = ctx.lw;
    let k_total = ctx.k_total;
    let samples = (agg.sampled_channels * agg.positions_per_channel) as f64;
    let mean_pos_cycles = agg.sum_pos_cycles / agg.sampled_channels as f64;
    let mean_matched = agg.sum_matched / samples;
    let mean_gather = agg.sum_gather / samples;
    let mean_idle = agg.sum_idle / samples;

    let positions = lw.positions() as f64;
    let positions_per_slice = ctx.positions_per_slice() as f64;

    // Work-queue schedule: blocks pull the next output channel (group) as
    // they finish; the layer ends when the slowest block drains.
    let total_block_work =
        (k_total as f64 / ctx.parallel_k as f64) * positions_per_slice * mean_pos_cycles;
    let compute_cycles = (total_block_work / cfg.n_pe as f64)
        .max(agg.max_block_time)
        .ceil() as u64;

    let mac_ops = (k_total as f64 * positions * ctx.mac_row.ops_per_position() as f64) as u64;
    let full_coverage =
        agg.sampled_channels == k_total && agg.positions_per_channel == lw.positions();
    let (ca_adds, gather_passes, mac_idle) = if full_coverage {
        // The sums are exact integer counts (every addend was an integer
        // cast, well inside f64's exact range).
        (
            agg.sum_matched as u64,
            agg.sum_gather as u64,
            agg.sum_idle as u64,
        )
    } else {
        (
            (k_total as f64 * positions * mean_matched) as u64,
            (k_total as f64 * positions * mean_gather) as u64,
            (k_total as f64 * positions * mean_idle) as u64,
        )
    };
    let mac_slots = (k_total as f64 * positions * ctx.m as f64 * mean_pos_cycles).max(1.0) as u64;

    // DRAM traffic. Weights stream once (they fit on-chip after the first
    // load thanks to coefficient compression); the compressed IFM
    // re-streams once per output-channel round unless it fits in the
    // distributed input buffers.
    let rounds = ctx.mapping.rounds() as u64;
    let ifm_loads = if traffic.ifm_bytes <= cfg.total_input_buf_bytes() as u64 {
        1
    } else {
        rounds
    };
    // The OFM is written back SparseMap-compressed (post-ReLU nonzeros
    // plus the bit mask), like every activation tensor.
    let ofm_dense = (lw.out_channels * lw.shape.out_x() * lw.shape.out_y()) as u64;
    let ofm_bytes =
        (ofm_dense as f64 * (1.0 - lw.out_sparsity)).ceil() as u64 + ofm_dense.div_ceil(8);

    // SRAM traffic.
    let coef_bytes_per_pos =
        (ctx.c * ctx.m) as u64 / 8 + (ctx.masks.total_nnz() as u64 / k_total.max(1) as u64) / 8;
    let sram = SramTraffic {
        input_buf: traffic.nnz_act_bytes * rounds + traffic.ifm_bytes * ifm_loads,
        coef_buf: (k_total as f64 * positions) as u64 * coef_bytes_per_pos.max(1),
        psum_buf: (k_total as f64 * positions) as u64
            * ctx.mac_row.psum_accesses_per_position()
            * 2,
        output_buf: ofm_bytes,
        act_buf: ca_adds,
    };

    // Memory-bound layers pace at the DRAM bandwidth.
    let dram_total = lw.weight_bytes + traffic.ifm_bytes * ifm_loads + ofm_bytes;
    let dram_cycles = (dram_total as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
    let cycles = compute_cycles.max(dram_cycles);

    LayerStats {
        name: lw.name.clone(),
        cycles: cycles.max(1),
        mac_ops,
        ca_adds,
        gather_passes,
        mac_idle_cycles: mac_idle,
        mac_cycle_slots: mac_slots,
        dram: DramTraffic {
            weights: lw.weight_bytes,
            ifm: traffic.ifm_bytes * ifm_loads,
            ofm: ofm_bytes,
        },
        sram,
        fallback: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CoefMasks;
    use escalate_core::quant::TernaryCoeffs;
    use escalate_models::LayerShape;

    fn workload(c: usize, k: usize, m: usize, x: usize) -> LayerWorkload {
        let coeffs = escalate_tensor::Tensor::from_fn(&[k, c, m], |i| {
            match (i[0] * 7 + i[1] * 3 + i[2]) % 5 {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0,
            }
        });
        let t = TernaryCoeffs::ternarize(&coeffs, 0.0).unwrap();
        LayerWorkload {
            name: format!("ctx{c}x{k}"),
            shape: LayerShape::conv("t", c, k, x, x, 3, 1, 1),
            out_channels: k,
            mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
            act_sparsity: 0.5,
            out_sparsity: 0.5,
            weight_bytes: 100,
        }
    }

    #[test]
    fn context_rejects_dense_workloads() {
        let lw = LayerWorkload {
            name: "dense".into(),
            shape: LayerShape::conv("d", 3, 8, 8, 8, 3, 1, 1),
            out_channels: 8,
            mode: WorkloadMode::Dense,
            act_sparsity: 0.5,
            out_sparsity: 0.5,
            weight_bytes: 10,
        };
        let err = LayerContext::new(&lw, &SimConfig::default())
            .err()
            .expect("must reject");
        assert!(matches!(err, SimError::NotDecomposed { .. }));
    }

    #[test]
    fn context_rejects_grouped_layers_with_a_typed_error() {
        // A grouped conv must never reach the decomposed datapath — the
        // basis kernels assume a full cross-channel reduction.
        let mut lw = workload(32, 8, 6, 8);
        lw.shape = LayerShape::grouped_conv("g", 32, 8, 8, 8, 3, 1, 1, 4);
        let err = LayerContext::new(&lw, &SimConfig::default())
            .err()
            .expect("must reject");
        assert!(matches!(err, SimError::UnsupportedLayer { .. }), "{err}");
        assert!(err.to_string().contains("gconv"), "{err}");
        // Even a dense-mode grouped workload reports the kind, not a
        // misleading NotDecomposed.
        lw.mode = WorkloadMode::Dense;
        let err = LayerContext::new(&lw, &SimConfig::default())
            .err()
            .expect("must reject");
        assert!(matches!(err, SimError::UnsupportedLayer { .. }), "{err}");
    }

    #[test]
    fn context_accepts_dilated_layers() {
        // Dilation changes only output geometry; the decomposed datapath
        // applies unchanged, so the context must build.
        let mut lw = workload(32, 8, 6, 8);
        lw.shape = LayerShape::dilated_conv("d", 32, 8, 8, 8, 3, 1, 2, 2);
        let ctx = LayerContext::new(&lw, &SimConfig::default()).expect("dilated must simulate");
        assert_eq!(ctx.rs, 9, "tap count is dilation-invariant");
    }

    #[test]
    fn pointwise_layers_parallelize_channels() {
        let cfg = SimConfig::default();
        let pw = workload(64, 32, 1, 8);
        let ctx = LayerContext::new(&pw, &cfg).unwrap();
        assert_eq!(ctx.parallel_k, cfg.m);
        assert_eq!(ctx.rs, 9);
        let full = workload(64, 32, 6, 8);
        assert_eq!(LayerContext::new(&full, &cfg).unwrap().parallel_k, 1);
    }

    #[test]
    fn ifm_validation_reports_typed_errors() {
        let lw = workload(32, 8, 6, 8);
        let ctx = LayerContext::new(&lw, &SimConfig::default()).unwrap();
        assert!(ctx.validate_ifm(&Tensor::zeros(&[32, 8, 8])).is_ok());
        assert!(matches!(
            ctx.validate_ifm(&Tensor::zeros(&[32, 8])),
            Err(SimError::BadFeatureMap { .. })
        ));
        assert!(matches!(
            ctx.validate_ifm(&Tensor::zeros(&[16, 8, 8])),
            Err(SimError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn channel_sample_respects_the_config_knob() {
        let lw = workload(32, 64, 6, 8);
        let cfg = SimConfig::default();
        let ctx = LayerContext::new(&lw, &cfg).unwrap();
        assert_eq!(ctx.sample_channels(&cfg).len(), cfg.sample_channels);
        let wide = SimConfig {
            sample_channels: 1000,
            ..cfg
        };
        let all = ctx.sample_channels(&wide);
        assert_eq!(all.len(), 64, "clamped to K");
        // Full coverage is a permutation of every channel.
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn observer_sees_every_sampled_position() {
        struct Counter {
            positions: usize,
        }
        impl SimObserver for Counter {
            fn on_position(&mut self, _ev: &PositionEvent) {
                self.positions += 1;
            }
        }
        let lw = workload(48, 16, 6, 6);
        let cfg = SimConfig::default();
        let ctx = LayerContext::new(&lw, &cfg).unwrap();
        let sampled = ctx.sample_channels(&cfg);
        let mut source = MaskSource::bernoulli(1, ctx.c, 0.5, 10);
        let mut counter = Counter { positions: 0 };
        let agg = run_positions(&ctx, &cfg, &sampled, &mut source, &mut counter);
        assert_eq!(counter.positions, sampled.len() * 10);
        assert_eq!(agg.sampled_channels, sampled.len());
        assert_eq!(agg.positions_per_channel, 10);
    }
}
