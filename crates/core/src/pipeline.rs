//! Whole-model compression pipeline with exact storage accounting
//! (regenerates Table 1).
//!
//! For every convolutional layer of a model the pipeline: synthesizes
//! weights matched to the model's profile (see `escalate-models`),
//! decomposes them with `M` basis kernels, ternarizes the coefficients at
//! a threshold hitting the profile's sparsity target, quantizes the basis
//! to 8 bits, and accounts the compressed size with the 2-level SparseMap
//! encoding — per-output-channel slices, exactly as the accelerator stores
//! them (§4.2.1). The first convolutional layer stays 8-bit dense
//! (§3.2), FC layers are not counted (§5.1.2), and depthwise/pointwise
//! pairs are folded through Eq. (5).

use crate::cache::{Lookup, SingleFlightCache};
use crate::decompose::{decompose, Decomposed};
use crate::dsc::decompose_dsc;
use crate::error::EscalateError;
use crate::qat::{retrain_coeffs, QatConfig};
use crate::quant::{threshold_for_sparsity, HybridQuantized, QuantizedBasis, TernaryCoeffs};
use escalate_models::{synth, LayerKind, LayerShape, ModelProfile};
use escalate_sparse::TwoLevelSparseMap;
use escalate_tensor::{Matrix, Tensor};
use rayon::prelude::*;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// Configuration of the compression pipeline.
#[derive(Debug, Clone, Copy)]
pub struct CompressionConfig {
    /// Number of basis kernels `M` (the paper uses 6).
    pub m: usize,
    /// Bit width of the basis kernels and the dense first layer.
    pub basis_bits: u32,
    /// Effective kernel rank of the synthetic weights.
    pub weight_rank: usize,
    /// Relative full-rank noise added to the synthetic weights.
    pub weight_noise: f32,
    /// Epochs of quantization-aware retraining per layer (0 disables).
    pub qat_epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Share the `M`-invariant synthetic weights (weight tensors and
    /// pointwise weight matrices) across repeated compressions of the same
    /// model through two bounded process-global synth caches. Purely a
    /// time/memory trade — every cached value is a deterministic function
    /// of its key, so results are bit-identical either way. Design-space
    /// sweeps opt in; one-shot compressions should leave it off and skip
    /// the resident cache footprint.
    pub reuse_units: bool,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            m: 6,
            basis_bits: 8,
            weight_rank: 6,
            weight_noise: 0.05,
            qat_epochs: 0,
            seed: 42,
            reuse_units: false,
        }
    }
}

impl CompressionConfig {
    /// This configuration with `m` basis kernels: the one check of a
    /// basis count that holds for every model. Each decomposed layer
    /// further bounds `m` by its kernel area `R*S`.
    ///
    /// # Errors
    ///
    /// [`EscalateError::NoBasisKernels`] when `m` is 0.
    pub fn try_with_m(&self, m: usize) -> Result<CompressionConfig, EscalateError> {
        if m == 0 {
            return Err(EscalateError::NoBasisKernels);
        }
        Ok(CompressionConfig { m, ..*self })
    }
}

/// Compression outcome for one layer (or one fused DSC pair).
#[derive(Debug, Clone)]
pub struct LayerCompression {
    /// Layer name (for DSC pairs, the depthwise layer's name).
    pub name: String,
    /// Original storage in bits (fp32).
    pub original_bits: usize,
    /// Compressed storage in bits (basis + scales + SparseMap coefficients).
    pub compressed_bits: usize,
    /// Original parameter count.
    pub original_params: usize,
    /// Remaining parameter count (basis values + nonzero coefficients).
    pub remaining_params: usize,
    /// Total coefficient count (0 for dense-fallback layers).
    pub coeff_total: usize,
    /// Nonzero coefficient count.
    pub coeff_nnz: usize,
    /// Relative weight-space error of the compressed layer.
    pub weight_error: f32,
    /// Whether the layer went through kernel decomposition.
    pub decomposed: bool,
}

impl LayerCompression {
    /// Compression ratio of this layer.
    pub fn compression_ratio(&self) -> f64 {
        self.original_bits as f64 / self.compressed_bits.max(1) as f64
    }

    /// Coefficient sparsity of this layer (0 for dense layers).
    pub fn coeff_sparsity(&self) -> f64 {
        if self.coeff_total == 0 {
            0.0
        } else {
            1.0 - self.coeff_nnz as f64 / self.coeff_total as f64
        }
    }
}

/// Compression outcome for a whole model.
#[derive(Debug, Clone)]
pub struct ModelCompression {
    /// Model name.
    pub model_name: String,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerCompression>,
}

impl ModelCompression {
    /// Whole-model compression ratio (fp32 conv weights vs compressed).
    pub fn compression_ratio(&self) -> f64 {
        let orig: usize = self.layers.iter().map(|l| l.original_bits).sum();
        let comp: usize = self.layers.iter().map(|l| l.compressed_bits).sum();
        orig as f64 / comp.max(1) as f64
    }

    /// Compressed conv model size in MiB.
    pub fn compressed_size_mb(&self) -> f64 {
        self.layers.iter().map(|l| l.compressed_bits).sum::<usize>() as f64
            / 8.0
            / (1024.0 * 1024.0)
    }

    /// Overall coefficient sparsity across decomposed layers.
    pub fn coeff_sparsity(&self) -> f64 {
        let total: usize = self.layers.iter().map(|l| l.coeff_total).sum();
        let nnz: usize = self.layers.iter().map(|l| l.coeff_nnz).sum();
        if total == 0 {
            0.0
        } else {
            1.0 - nnz as f64 / total as f64
        }
    }

    /// Pruning ratio w.r.t. the original weights (Table 1's "Prun." column):
    /// the fraction of original parameters eliminated by decomposition plus
    /// coefficient pruning.
    pub fn pruning_ratio(&self) -> f64 {
        let orig: usize = self.layers.iter().map(|l| l.original_params).sum();
        let rem: usize = self.layers.iter().map(|l| l.remaining_params).sum();
        if orig == 0 {
            0.0
        } else {
            1.0 - rem as f64 / orig as f64
        }
    }

    /// Parameter-weighted mean weight-space error.
    pub fn mean_weight_error(&self) -> f64 {
        let total: usize = self.layers.iter().map(|l| l.original_params).sum();
        if total == 0 {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.weight_error as f64 * l.original_params as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Monotone accuracy proxy used where the paper reports top-1 accuracy.
///
/// With no training stack available, accuracy cannot be measured;
/// `proxy = baseline − κ·ε` maps the parameter-weighted weight-space error
/// `ε ∈ [0, 1]` to an accuracy drop. κ = 2.5 points per unit error is
/// calibrated so the default (M = 6, Table 1 sparsity) configurations land
/// near the paper's reported sub-2-point drops; retraining, which recovers
/// most of the raw quantization error in the real pipeline, is the reason
/// the calibrated κ is far below a naive error-to-accuracy slope (see
/// EXPERIMENTS.md). Only the *ordering* of policies/configurations is
/// meaningful, which is what Figures 7 and 12 compare.
pub fn accuracy_proxy(baseline_top1: f64, mean_weight_error: f64) -> f64 {
    (baseline_top1 - 2.5 * mean_weight_error).max(0.0)
}

/// Storage cost in bits of ternary coefficients under the per-filter
/// 2-level SparseMap encoding, plus the per-filter scale metadata
/// (8-bit positive scale + 2-bit quotient).
pub fn ternary_storage_bits(coeffs: &TernaryCoeffs) -> usize {
    let [k, _, _] = coeffs.shape();
    let mut bits = k * (8 + 2);
    for ki in 0..k {
        let dense: Vec<f32> = coeffs.slice(ki).iter().map(|&v| v as f32).collect();
        // Nonzero ternary values cost 1 bit (the sign).
        bits += TwoLevelSparseMap::encode(&dense).size_bits(1);
    }
    bits
}

/// Compresses one regular convolution layer via kernel decomposition.
///
/// # Errors
///
/// Propagates decomposition and quantization failures.
pub fn compress_layer(
    layer: &LayerShape,
    cfg: &CompressionConfig,
    target_sparsity: f64,
    seed: u64,
) -> Result<LayerCompression, EscalateError> {
    compress_layer_artifact(layer, cfg, target_sparsity, seed).map(|a| a.stats)
}

/// Like [`compress_layer`] but also returns the quantized artifact the
/// accelerator simulator consumes.
///
/// # Errors
///
/// Propagates decomposition and quantization failures.
pub fn compress_layer_artifact(
    layer: &LayerShape,
    cfg: &CompressionConfig,
    target_sparsity: f64,
    seed: u64,
) -> Result<CompressedLayer, EscalateError> {
    let w = synth_weights(
        layer,
        cfg.weight_rank,
        cfg.weight_noise,
        seed,
        cfg.reuse_units,
    );
    let rs = layer.r * layer.s;
    let m = cfg.m.min(rs);
    let d = {
        let _t = escalate_obs::span("pipeline.decompose");
        decompose(&w, m)?
    };
    let (stats, hybrid) = compress_decomposed(&layer.name, &w, &d, cfg, target_sparsity)?;
    Ok(CompressedLayer {
        shape: layer.clone(),
        fused_pointwise: None,
        stats,
        quantized: Some(hybrid),
    })
}

/// Shared tail of the compression paths: ternarize (optionally retrain),
/// quantize the basis, and account storage.
fn compress_decomposed(
    name: &str,
    original: &Tensor,
    d: &Decomposed,
    cfg: &CompressionConfig,
    target_sparsity: f64,
) -> Result<(LayerCompression, HybridQuantized), EscalateError> {
    let t = threshold_for_sparsity(&d.coeffs, target_sparsity);
    let coeffs = if cfg.qat_epochs > 0 {
        let _t = escalate_obs::span("pipeline.qat");
        retrain_coeffs(
            &d.coeffs,
            &QatConfig {
                epochs: cfg.qat_epochs,
                threshold: t,
                ..QatConfig::default()
            },
        )?
        .coeffs
    } else {
        let _t = escalate_obs::span("pipeline.quant");
        TernaryCoeffs::ternarize(&d.coeffs, t)?
    };
    let basis = QuantizedBasis::quantize(&d.basis);
    let hybrid = HybridQuantized { basis, coeffs };

    let _t = escalate_obs::span("pipeline.reconstruct");
    let dec = hybrid.to_decomposed();
    // `reconstruct()` always produces a `[K, C, R, S]` tensor, so which
    // branch runs is known from the geometry alone — the DSC fold (whose
    // "original" is the flattened (dw, pw) pair) never materializes the
    // reconstruction it would immediately discard.
    let recon_shape = [dec.k(), dec.c(), dec.r(), dec.s()];
    let weight_error = if original.shape() == &recon_shape[..] {
        original.relative_error(&dec.reconstruct())
    } else {
        // DSC fold: error is measured against the decomposed-then-
        // reconstructed coefficients instead.
        d.coeffs.relative_error(&dec.coeffs)
    };

    let original_params = original.len();
    let coeff_total = hybrid.coeffs.ternary.len();
    let coeff_nnz = hybrid.coeffs.nnz();
    let compressed_bits = hybrid.basis.size_bits() + ternary_storage_bits(&hybrid.coeffs);
    let stats = LayerCompression {
        name: name.to_string(),
        original_bits: original_params * 32,
        compressed_bits,
        original_params,
        remaining_params: hybrid.basis.q.len() + hybrid.coeffs.nonzero_groups(),
        coeff_total,
        coeff_nnz,
        weight_error,
        decomposed: true,
    };
    Ok((stats, hybrid))
}

/// Compresses a 1×1 (pointwise) layer: with `RS = 1` decomposition cannot
/// help, so the weights themselves are ternarized (`M = 1`, identity
/// basis).
fn compress_pointwise(
    layer: &LayerShape,
    cfg: &CompressionConfig,
    target_sparsity: f64,
    seed: u64,
) -> Result<(LayerCompression, HybridQuantized), EscalateError> {
    // Rank is irrelevant at RS=1.
    let w = synth_weights(layer, 1, 1.0, seed, cfg.reuse_units);
    let coeffs3 = w.reshape(&[layer.k, layer.c, 1]);
    let t = threshold_for_sparsity(&coeffs3, target_sparsity);
    let coeffs = {
        let _t = escalate_obs::span("pipeline.quant");
        TernaryCoeffs::ternarize(&coeffs3, t)?
    };
    let weight_error = coeffs3.relative_error(&coeffs.dequantize());
    let original_params = w.len();
    let coeff_nnz = coeffs.nnz();
    let stats = LayerCompression {
        name: layer.name.clone(),
        original_bits: original_params * 32,
        compressed_bits: ternary_storage_bits(&coeffs),
        original_params,
        remaining_params: coeff_nnz,
        coeff_total: coeffs.ternary.len(),
        coeff_nnz,
        weight_error,
        decomposed: true,
    };
    // An identity basis: one 1x1 kernel with unit weight.
    let basis = QuantizedBasis::quantize(&Tensor::ones(&[1, 1, 1]));
    Ok((stats, HybridQuantized { basis, coeffs }))
}

/// Compresses a layer kept dense at `basis_bits` (the first conv layer).
fn compress_dense(
    layer: &LayerShape,
    cfg: &CompressionConfig,
    seed: u64,
) -> Result<LayerCompression, EscalateError> {
    let w = synth_weights(layer, layer.r * layer.s, 0.3, seed, cfg.reuse_units);
    let (deq, bits) = crate::quant::quantize_linear(&w, cfg.basis_bits)?;
    Ok(LayerCompression {
        name: layer.name.clone(),
        original_bits: w.len() * 32,
        compressed_bits: bits,
        original_params: w.len(),
        remaining_params: w.len(),
        coeff_total: 0,
        coeff_nnz: 0,
        weight_error: w.relative_error(&deq),
        decomposed: false,
    })
}

/// Compresses a whole model according to its profile.
///
/// # Errors
///
/// Propagates per-layer failures.
///
/// # Examples
///
/// ```no_run
/// use escalate_core::{compress_model, pipeline::CompressionConfig};
/// use escalate_models::ModelProfile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profile = ModelProfile::for_model("ResNet18").expect("known model");
/// let result = compress_model(&profile, &CompressionConfig::default())?;
/// println!("{}: {:.1}x", result.model_name, result.compression_ratio());
/// # Ok(())
/// # }
/// ```
pub fn compress_model(
    profile: &ModelProfile,
    cfg: &CompressionConfig,
) -> Result<ModelCompression, EscalateError> {
    let artifacts = compress_model_artifacts(profile, cfg)?;
    Ok(ModelCompression {
        model_name: profile.name.to_string(),
        layers: artifacts.into_iter().map(|a| a.stats).collect(),
    })
}

/// One compressed layer (or fused DSC pair) together with the quantized
/// weights the accelerator simulator executes.
#[derive(Debug, Clone)]
pub struct CompressedLayer {
    /// The driving layer's shape (the depthwise layer for DSC pairs).
    pub shape: LayerShape,
    /// The pointwise layer folded into this unit (Eq. (5)), if any.
    pub fused_pointwise: Option<LayerShape>,
    /// Storage/accuracy accounting.
    pub stats: LayerCompression,
    /// The quantized decomposed weights; `None` for the dense fallback
    /// (first layer).
    pub quantized: Option<HybridQuantized>,
}

impl CompressedLayer {
    /// Number of output channels produced by this unit (the pointwise
    /// layer's `K` for fused DSC pairs).
    pub fn out_channels(&self) -> usize {
        self.fused_pointwise
            .as_ref()
            .map_or(self.shape.k, |pw| pw.k)
    }
}

/// Compresses a whole model, returning the per-layer quantized artifacts.
///
/// # Errors
///
/// Propagates per-layer failures.
pub fn compress_model_artifacts(
    profile: &ModelProfile,
    cfg: &CompressionConfig,
) -> Result<Vec<CompressedLayer>, EscalateError> {
    let _t = escalate_obs::span_labeled("pipeline.compress_model", &profile.name);
    let plan = plan_units(profile, cfg);
    escalate_obs::counter_add("pipeline.units", plan.len() as u64);
    // Units are independent and deterministic (each derives its own seed),
    // so compress them on the global pool and reassemble in plan order.
    plan.par_iter()
        .map(|unit| compress_unit(unit, cfg))
        .collect()
}

/// One independently-compressible unit of the plan.
#[derive(Debug, Clone)]
enum UnitPlan {
    /// The dense first convolution.
    Dense { layer: LayerShape, seed: u64 },
    /// A fused depthwise + pointwise pair (Eq. (5)).
    Dsc {
        dw: LayerShape,
        pw: LayerShape,
        seed: u64,
        pw_seed: u64,
        target: f64,
    },
    /// A standalone depthwise layer.
    DwOnly {
        layer: LayerShape,
        seed: u64,
        target: f64,
    },
    /// A 1×1 layer, ternary-only.
    Pointwise {
        layer: LayerShape,
        seed: u64,
        target: f64,
    },
    /// A regular decomposable convolution.
    Conv {
        layer: LayerShape,
        seed: u64,
        target: f64,
    },
}

/// Walks the conv layers and decides how each unit is compressed (the
/// sequential pairing logic), without doing any numeric work.
fn plan_units(profile: &ModelProfile, cfg: &CompressionConfig) -> Vec<UnitPlan> {
    let model = profile.model();
    let conv: Vec<&LayerShape> = model.conv_layers().collect();
    let n = conv.len();
    let mut plan = Vec::new();
    let mut i = 0usize;
    let mut first_conv_done = false;
    while i < n {
        let layer = conv[i];
        let seed = synth::layer_seed(cfg.seed, i, 0);
        let target = profile.layer_coeff_sparsity(i, n);
        if !first_conv_done && layer.kind == LayerKind::Conv {
            plan.push(UnitPlan::Dense {
                layer: layer.clone(),
                seed,
            });
            first_conv_done = true;
            i += 1;
            continue;
        }
        match layer.kind {
            LayerKind::DwConv => {
                if i + 1 < n && conv[i + 1].kind == LayerKind::PwConv && conv[i + 1].c == layer.k {
                    plan.push(UnitPlan::Dsc {
                        dw: layer.clone(),
                        pw: conv[i + 1].clone(),
                        seed,
                        pw_seed: synth::layer_seed(cfg.seed, i + 1, 0),
                        target,
                    });
                    i += 2;
                } else {
                    plan.push(UnitPlan::DwOnly {
                        layer: layer.clone(),
                        seed,
                        target,
                    });
                    i += 1;
                }
            }
            LayerKind::PwConv | LayerKind::Conv | LayerKind::DilatedConv { .. }
                if layer.r * layer.s == 1 =>
            {
                plan.push(UnitPlan::Pointwise {
                    layer: layer.clone(),
                    seed,
                    target,
                });
                i += 1;
            }
            // Dilation changes where a tap lands, not how many taps there
            // are, so the decomposition is the regular-conv one.
            LayerKind::Conv | LayerKind::DilatedConv { .. } => {
                plan.push(UnitPlan::Conv {
                    layer: layer.clone(),
                    seed,
                    target,
                });
                i += 1;
            }
            // Grouped convolutions keep full-channel basis sharing off the
            // table, so they stay dense (`LayerShape::is_decomposable` is
            // false for them) and run on the fallback datapath.
            LayerKind::GroupedConv { .. } => {
                plan.push(UnitPlan::Dense {
                    layer: layer.clone(),
                    seed,
                });
                i += 1;
            }
            LayerKind::PwConv | LayerKind::Fc => {
                i += 1;
            }
        }
    }
    plan
}

/// Default bound of each [`CompressionConfig::reuse_units`] cache
/// (entries). Sized for a sweep alternating between a couple of
/// MobileNet-class networks (≈30 weight tensors each); eviction is LRU, so
/// even a larger zoo just loses cross-network reuse, never correctness.
const DEFAULT_REUSE_CAP: usize = 128;

/// The two opt-in reuse caches: synthetic weight tensors and pointwise
/// weight matrices (`M`-invariant for every unit kind).
struct ReuseCaches {
    weights: SingleFlightCache<String, Arc<Tensor>>,
    pointwise: SingleFlightCache<String, Arc<Matrix>>,
}

fn reuse_caches() -> &'static ReuseCaches {
    static CACHES: OnceLock<ReuseCaches> = OnceLock::new();
    CACHES.get_or_init(|| ReuseCaches {
        weights: SingleFlightCache::new(DEFAULT_REUSE_CAP),
        pointwise: SingleFlightCache::new(DEFAULT_REUSE_CAP),
    })
}

/// Counts one synthesis-cache lookup (`pipeline.synth_*`).
fn count_synth<V>(look: Lookup<V>) -> V {
    escalate_obs::counter_add(
        if look.hit {
            "pipeline.synth_hits"
        } else {
            "pipeline.synth_misses"
        },
        1,
    );
    if look.evicted > 0 {
        escalate_obs::counter_add("pipeline.synth_evictions", look.evicted);
    }
    look.value
}

/// [`synth::weights`], shared across design points when `reuse` is set.
/// The key carries everything the synthesis reads (the full layer shape,
/// rank, noise bits, seed), so a hit is the bit-identical tensor the
/// miss path would have built.
fn synth_weights(
    layer: &LayerShape,
    rank: usize,
    noise: f32,
    seed: u64,
    reuse: bool,
) -> Arc<Tensor> {
    let _t = escalate_obs::span("pipeline.synth");
    let build = || Arc::new(synth::weights(layer, rank, noise, seed));
    if !reuse {
        return build();
    }
    let key = format!("{layer:?}|r{rank}|n{:08x}|s{seed}", noise.to_bits());
    let Ok(look) = reuse_caches()
        .weights
        .get_or_compute(key, || Ok::<_, Infallible>(build()));
    count_synth(look)
}

/// [`synth::pointwise_weights`] with the same opt-in sharing as
/// [`synth_weights`].
fn synth_pointwise(c: usize, k: usize, seed: u64, reuse: bool) -> Arc<Matrix> {
    let _t = escalate_obs::span("pipeline.synth");
    let build = || Arc::new(synth::pointwise_weights(c, k, seed));
    if !reuse {
        return build();
    }
    let key = format!("pw|c{c}|k{k}|s{seed}");
    let Ok(look) = reuse_caches()
        .pointwise
        .get_or_compute(key, || Ok::<_, Infallible>(build()));
    count_synth(look)
}

/// Compresses one planned unit (pure function of the plan and config).
fn compress_unit(
    unit: &UnitPlan,
    cfg: &CompressionConfig,
) -> Result<CompressedLayer, EscalateError> {
    match unit {
        UnitPlan::Dense { layer, seed } => Ok(CompressedLayer {
            shape: layer.clone(),
            fused_pointwise: None,
            stats: compress_dense(layer, cfg, *seed)?,
            quantized: None,
        }),
        UnitPlan::Dsc {
            dw,
            pw,
            seed,
            pw_seed,
            target,
        } => {
            let dw_w = synth_weights(
                dw,
                cfg.weight_rank,
                cfg.weight_noise,
                *seed,
                cfg.reuse_units,
            );
            let pw_w = synth_pointwise(pw.c, pw.k, *pw_seed, cfg.reuse_units);
            let m = cfg.m.min(dw.r * dw.s);
            let d = {
                let _t = escalate_obs::span("pipeline.decompose");
                decompose_dsc(&dw_w, &pw_w, m)?
            };
            // The "original" for accounting is the dw + pw pair.
            let orig_params = dw_w.len() + pw_w.as_slice().len();
            let orig = Tensor::from_vec(&[orig_params], {
                let mut v = dw_w.as_slice().to_vec();
                v.extend_from_slice(pw_w.as_slice());
                v
            });
            let (mut stats, hybrid) = compress_decomposed(&dw.name, &orig, &d, cfg, *target)?;
            stats.name = format!("{}+{}", dw.name, pw.name);
            Ok(CompressedLayer {
                shape: dw.clone(),
                fused_pointwise: Some(pw.clone()),
                stats,
                quantized: Some(hybrid),
            })
        }
        UnitPlan::DwOnly {
            layer,
            seed,
            target,
        } => {
            let dw_w = synth_weights(
                layer,
                cfg.weight_rank,
                cfg.weight_noise,
                *seed,
                cfg.reuse_units,
            );
            let m = cfg.m.min(layer.r * layer.s);
            let (ce, basis) = {
                let _t = escalate_obs::span("pipeline.decompose");
                crate::decompose::decompose_depthwise(&dw_w, m)?
            };
            let coeffs = Tensor::from_vec(&[layer.c, 1, m], ce.as_slice().to_vec());
            let d = Decomposed {
                basis,
                coeffs,
                captured_energy: 1.0,
            };
            let (stats, hybrid) = compress_decomposed(&layer.name, &dw_w, &d, cfg, *target)?;
            Ok(CompressedLayer {
                shape: layer.clone(),
                fused_pointwise: None,
                stats,
                quantized: Some(hybrid),
            })
        }
        UnitPlan::Pointwise {
            layer,
            seed,
            target,
        } => {
            let (stats, hybrid) = compress_pointwise(layer, cfg, *target, *seed)?;
            Ok(CompressedLayer {
                shape: layer.clone(),
                fused_pointwise: None,
                stats,
                quantized: Some(hybrid),
            })
        }
        UnitPlan::Conv {
            layer,
            seed,
            target,
        } => compress_layer_artifact(layer, cfg, *target, *seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_layer() -> LayerShape {
        LayerShape::conv("test", 16, 32, 16, 16, 3, 1, 1)
    }

    #[test]
    fn synth_reuse_returns_the_identical_tensor() {
        let layer = small_layer();
        let a = synth_weights(&layer, 3, 0.1, 0xfeed_2001, true);
        let b = synth_weights(&layer, 3, 0.1, 0xfeed_2001, true);
        assert!(Arc::ptr_eq(&a, &b), "repeat lookup must share the tensor");
        // The cached tensor is the one the uncached path would build.
        let fresh = synth_weights(&layer, 3, 0.1, 0xfeed_2001, false);
        assert_eq!(a.as_slice(), fresh.as_slice());
        // Any key component change misses.
        let c = synth_weights(&layer, 4, 0.1, 0xfeed_2001, true);
        assert!(!Arc::ptr_eq(&a, &c));
        let d = synth_weights(&layer, 3, 0.1, 0xfeed_2002, true);
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn try_with_m_rejects_zero_basis_kernels() {
        let base = CompressionConfig {
            seed: 7,
            ..CompressionConfig::default()
        };
        let five = base.try_with_m(5).unwrap();
        assert_eq!((five.m, five.seed), (5, 7));
        assert_eq!(
            base.try_with_m(0).unwrap_err(),
            EscalateError::NoBasisKernels
        );
    }

    #[test]
    fn dense_and_pointwise_units_are_m_invariant() {
        let at = |m: usize| CompressionConfig {
            m,
            ..CompressionConfig::default()
        };
        // Dense and pointwise units never consult M: compressing one at
        // M = 4 and M = 8 yields the same artifact field-for-field (f32/f64
        // debug formatting round-trips, so equal strings mean equal bits).
        let units = [
            UnitPlan::Dense {
                layer: small_layer(),
                seed: 0xfeed_2100,
            },
            UnitPlan::Pointwise {
                layer: LayerShape::conv("pw-m-test", 24, 32, 8, 8, 1, 1, 0),
                seed: 0xfeed_2101,
                target: 0.8,
            },
        ];
        for unit in &units {
            let m4 = compress_unit(unit, &at(4)).unwrap();
            let m8 = compress_unit(unit, &at(8)).unwrap();
            assert_eq!(format!("{m4:?}"), format!("{m8:?}"), "{unit:?}");
        }
        // A conv unit is M-dependent.
        let conv = UnitPlan::Conv {
            layer: small_layer(),
            seed: 0xfeed_2102,
            target: 0.8,
        };
        let m4 = compress_unit(&conv, &at(4)).unwrap();
        let m6 = compress_unit(&conv, &at(6)).unwrap();
        assert_ne!(m4.stats.compressed_bits, m6.stats.compressed_bits);
    }

    #[test]
    fn layer_compression_hits_sparsity_target() {
        let lc = compress_layer(&small_layer(), &CompressionConfig::default(), 0.9, 1).unwrap();
        assert!(
            (lc.coeff_sparsity() - 0.9).abs() < 0.03,
            "got {}",
            lc.coeff_sparsity()
        );
        assert!(lc.decomposed);
    }

    #[test]
    fn higher_sparsity_compresses_more() {
        let cfg = CompressionConfig::default();
        let lo = compress_layer(&small_layer(), &cfg, 0.5, 1).unwrap();
        let hi = compress_layer(&small_layer(), &cfg, 0.95, 1).unwrap();
        assert!(hi.compressed_bits < lo.compressed_bits);
        assert!(hi.compression_ratio() > lo.compression_ratio());
    }

    #[test]
    fn higher_sparsity_costs_accuracy() {
        let cfg = CompressionConfig::default();
        let lo = compress_layer(&small_layer(), &cfg, 0.3, 1).unwrap();
        let hi = compress_layer(&small_layer(), &cfg, 0.97, 1).unwrap();
        assert!(hi.weight_error >= lo.weight_error);
    }

    #[test]
    fn qat_improves_weight_error() {
        let base = CompressionConfig::default();
        let with_qat = CompressionConfig {
            qat_epochs: 30,
            ..base
        };
        let plain = compress_layer(&small_layer(), &base, 0.8, 1).unwrap();
        let trained = compress_layer(&small_layer(), &with_qat, 0.8, 1).unwrap();
        assert!(trained.weight_error <= plain.weight_error + 1e-4);
    }

    #[test]
    fn compressed_bits_are_far_below_fp32() {
        let lc = compress_layer(&small_layer(), &CompressionConfig::default(), 0.9, 1).unwrap();
        assert!(
            lc.compression_ratio() > 20.0,
            "got {:.1}x",
            lc.compression_ratio()
        );
    }

    #[test]
    fn accuracy_proxy_is_monotone() {
        assert!(accuracy_proxy(93.0, 0.1) > accuracy_proxy(93.0, 0.3));
        assert_eq!(accuracy_proxy(93.0, 0.0), 93.0);
        assert!(accuracy_proxy(50.0, 10.0) >= 0.0);
    }

    #[test]
    fn model_compression_small_model_end_to_end() {
        // Use MobileNet (smallest conv param count) as the end-to-end check.
        let profile = ModelProfile::for_model("MobileNet").unwrap();
        let result = compress_model(&profile, &CompressionConfig::default()).unwrap();
        assert!(!result.layers.is_empty());
        assert!(result.compression_ratio() > 1.0);
        // DSC pairs were fused: fewer entries than conv layers.
        let conv_count = profile.model().conv_layers().count();
        assert!(result.layers.len() < conv_count);
        // Sparsity lands near the profile target.
        assert!((result.coeff_sparsity() - profile.coeff_sparsity).abs() < 0.08);
    }

    #[test]
    fn first_layer_stays_dense() {
        let profile = ModelProfile::for_model("MobileNet").unwrap();
        let result = compress_model(&profile, &CompressionConfig::default()).unwrap();
        assert!(!result.layers[0].decomposed);
        assert_eq!(result.layers[0].coeff_total, 0);
    }

    #[test]
    fn ternary_storage_accounts_scales() {
        let coeffs3 = Tensor::from_fn(&[4, 8, 6], |i| ((i[0] + i[1] * i[2]) % 3) as f32 - 1.0);
        let t = TernaryCoeffs::ternarize(&coeffs3, 0.0).unwrap();
        let bits = ternary_storage_bits(&t);
        assert!(bits >= 4 * 10, "must include per-filter scale bits");
        assert!(bits >= t.nnz(), "must include sign bits");
    }
}
