//! Differential suite: the batched word-parallel [`PositionKernel`] —
//! through rebinds and every batch shape — against the scalar reference [`position_cost_scalar`],
//! byte-for-byte equal [`PositionCost`]s across random channel counts,
//! mask patterns, concentration windows, and bus widths — including
//! multi-word channels and the empty/dense extremes.
//!
//! This is the contract the kernel's two fast-path layers rest on (see
//! DESIGN.md, "the sampled-fidelity hot path"): any divergence here is a
//! correctness bug, not a tolerance question.

use escalate_models::hash::splitmix64;
use escalate_sim::ca::{position_cost_scalar, CaScratch, PositionKernel, MAX_BATCH};
use escalate_sim::engine::simulate_layer;
use escalate_sim::trace::simulate_layer_traced;
use escalate_sim::workload::{CoefMasks, LayerWorkload, WorkloadMode};
use escalate_sim::{PositionCost, SimConfig};
use escalate_tensor::Tensor;
use proptest::prelude::*;

/// Expands raw u64 material into a `⌈c/64⌉`-word mask with no bits at or
/// above `c`, applying a density `style`: 0 = raw, 1 = sparsified
/// (self-AND with a rotation), 2 = empty, 3 = dense (all ones).
fn mask_words(raw: &[u64], c: usize, style: u8) -> Vec<u64> {
    let words = c.div_ceil(64);
    let mut v: Vec<u64> = raw
        .iter()
        .cycle()
        .take(words)
        .map(|&w| match style {
            0 => w,
            1 => w & w.rotate_left(13),
            2 => 0,
            _ => u64::MAX,
        })
        .collect();
    let tail = c - (words - 1) * 64;
    if tail < 64 {
        *v.last_mut().expect("words >= 1") &= (1u64 << tail) - 1;
    }
    v
}

fn config(la: usize, ls: usize, bus_bytes: usize) -> SimConfig {
    SimConfig {
        look_ahead: la,
        look_aside: ls,
        input_bus_bytes: bus_bytes,
        ..SimConfig::default()
    }
}

/// Scalar reference costs of a whole position stream.
fn scalar_costs(
    cfg: &SimConfig,
    c: usize,
    acts: &[Vec<u64>],
    refs: &[&[u64]],
) -> Vec<PositionCost> {
    let mut scratch = CaScratch::new(cfg);
    acts.iter()
        .map(|a| position_cost_scalar(cfg, c, a, refs, &mut scratch))
        .collect()
}

/// Feeds `acts` through `kernel.cost_batch` in batches of `batch` (ragged
/// tail included) and asserts each answer equals the scalar reference.
fn assert_batched_matches(
    kernel: &mut PositionKernel,
    acts: &[Vec<u64>],
    expect: &[PositionCost],
    batch: usize,
) -> Result<(), TestCaseError> {
    let mut out = vec![PositionCost::default(); batch];
    for (chunk, exp) in acts.chunks(batch).zip(expect.chunks(batch)) {
        let flat: Vec<u64> = chunk.iter().flatten().copied().collect();
        kernel.cost_batch(&flat, chunk.len(), &mut out);
        prop_assert_eq!(&out[..chunk.len()], exp, "batch size {}", batch);
    }
    Ok(())
}

proptest! {
    /// One position, every path: scalar, bound kernel, and a repeat call
    /// (the kernel is stateless across calls — the pinning case that
    /// replaced the deleted memo) — all byte-for-byte equal.
    #[test]
    fn kernel_matches_scalar_on_any_position(
        c in 1usize..200,
        m in 1usize..7,
        raw_act in prop::collection::vec(any::<u64>(), 3),
        raw_coef in prop::collection::vec(any::<u64>(), 18),
        styles in (0u8..4, 0u8..4),
        windows in (0usize..8, 0usize..3),
        bus_bytes in 1usize..33,
    ) {
        let (act_style, coef_style) = styles;
        let (la, ls) = windows;
        let cfg = config(la, ls, bus_bytes);
        let act = mask_words(&raw_act, c, act_style);
        let coef_rows: Vec<Vec<u64>> = (0..m)
            .map(|mi| mask_words(&raw_coef[mi * 3..mi * 3 + 3], c, coef_style))
            .collect();
        let refs: Vec<&[u64]> = coef_rows.iter().map(Vec::as_slice).collect();

        let scalar = position_cost_scalar(&cfg, c, &act, &refs, &mut CaScratch::new(&cfg));
        let mut kernel = PositionKernel::new(&cfg);
        kernel.bind(c, refs.iter().copied());
        prop_assert_eq!(kernel.cost(&act), scalar);
        prop_assert_eq!(kernel.cost(&act), scalar, "repeat call must recompute identically");
    }

    /// A stream of positions through one bound kernel at batch sizes
    /// {1, 4, 8} plus a ragged prime (the run_positions usage pattern):
    /// every batched answer equals a fresh scalar evaluation, including
    /// tails shorter than the batch. Repeated masks in the stream pin the
    /// no-memo contract: identical inputs recompute identical outputs.
    #[test]
    fn batched_streams_match_scalar(
        c in 1usize..150,
        m in 1usize..7,
        raw_coef in prop::collection::vec(any::<u64>(), 18),
        raw_acts in prop::collection::vec(prop::collection::vec(any::<u64>(), 3), 1..12),
        act_style in 0u8..2,
    ) {
        let cfg = config(4, 1, 16);
        let coef_rows: Vec<Vec<u64>> = (0..m)
            .map(|mi| mask_words(&raw_coef[mi * 3..mi * 3 + 3], c, 1))
            .collect();
        let refs: Vec<&[u64]> = coef_rows.iter().map(Vec::as_slice).collect();
        // Repeat every other mask to guarantee stream-internal dupes.
        let acts: Vec<Vec<u64>> = raw_acts
            .iter()
            .enumerate()
            .map(|(i, raw)| {
                let raw = if i % 2 == 1 { &raw_acts[i - 1] } else { raw };
                mask_words(raw, c, act_style)
            })
            .collect();
        let expect = scalar_costs(&cfg, c, &acts, &refs);
        let mut kernel = PositionKernel::new(&cfg);
        kernel.bind(c, refs.iter().copied());
        for batch in [1usize, 3, 4, MAX_BATCH] {
            assert_batched_matches(&mut kernel, &acts, &expect, batch)?;
        }
    }

    /// Rebinding the kernel to a different channel (the per-channel loop in
    /// run_positions) never leaks state: after any bind sequence, answers
    /// still equal the scalar reference for the currently-bound masks.
    #[test]
    fn rebind_sequences_stay_exact(
        c in 1usize..100,
        raw in prop::collection::vec(any::<u64>(), 12),
        binds in prop::collection::vec(0usize..4, 2..5),
    ) {
        let cfg = config(4, 1, 16);
        let mut kernel = PositionKernel::new(&cfg);
        let act = mask_words(&raw[..2], c, 0);
        let mut scratch = CaScratch::new(&cfg);
        let coef_for = |b: usize| -> Vec<Vec<u64>> {
            (0..2)
                .map(|mi| mask_words(&raw[2 + 2 * (b + mi)..4 + 2 * (b + mi)], c, 1))
                .collect()
        };
        for &b in &binds {
            let coef_rows = coef_for(b);
            let refs: Vec<&[u64]> = coef_rows.iter().map(Vec::as_slice).collect();
            kernel.bind(c, refs.iter().copied());
            let scalar = position_cost_scalar(&cfg, c, &act, &refs, &mut scratch);
            prop_assert_eq!(kernel.cost(&act), scalar);
            prop_assert_eq!(kernel.cost(&act), scalar);
        }
    }
}

/// A `c`-channel mask with roughly `per_mille`/1000 bits set, drawn from
/// `seed` one splitmix64 value per bit.
fn splitmix_mask(seed: &mut u64, c: usize, per_mille: u64) -> Vec<u64> {
    let words: Vec<u64> = (0..c.div_ceil(64))
        .map(|_| {
            (0..64).fold(0u64, |w, b| {
                w | u64::from(splitmix64(seed) % 1000 < per_mille) << b
            })
        })
        .collect();
    mask_words(&words, c, 0)
}

/// The MobileNet regime the paper optimizes, beyond the proptests' reach
/// (c < 200): a 256-channel pointwise layer with M = 6, ~5%-dense
/// coefficients meeting ~90%-dense activations, over 48 positions (one
/// sampled channel's walk). Scalar, one-position and `MAX_BATCH`-chunked
/// kernel answers must all agree.
#[test]
fn mobilenet_regime_walk_matches_scalar_on_every_path() {
    const C: usize = 256;
    const M: usize = 6;
    const POSITIONS: usize = 48;
    let mut seed = 0x5eed_c0de_u64;
    let coef: Vec<Vec<u64>> = (0..M).map(|_| splitmix_mask(&mut seed, C, 50)).collect();
    let acts: Vec<Vec<u64>> = (0..POSITIONS)
        .map(|_| splitmix_mask(&mut seed, C, 900))
        .collect();
    let refs: Vec<&[u64]> = coef.iter().map(Vec::as_slice).collect();
    let cfg = SimConfig::default();
    let expect = scalar_costs(&cfg, C, &acts, &refs);

    let mut kernel = PositionKernel::new(&cfg);
    kernel.bind(C, refs.iter().copied());
    for (act, scalar) in acts.iter().zip(&expect) {
        assert_eq!(kernel.cost(act), *scalar);
    }
    assert_batched_matches(&mut kernel, &acts, &expect, MAX_BATCH).expect("batched == scalar");
}

fn workload(c: usize, k: usize, x: usize) -> LayerWorkload {
    use escalate_core::quant::TernaryCoeffs;
    use escalate_models::LayerShape;
    let m = 6;
    let coeffs = Tensor::from_fn(&[k, c, m], |i| {
        let h = (i[0] * 7919 + i[1] * 104729 + i[2] * 1299709) % 1000;
        if h < 900 {
            0.0
        } else if h % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    let t = TernaryCoeffs::ternarize(&coeffs, 0.0).unwrap();
    LayerWorkload {
        name: format!("kd{c}x{k}"),
        shape: LayerShape::conv("t", c, k, x, x, 3, 1, 1),
        out_channels: k,
        mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
        act_sparsity: 0.5,
        out_sparsity: 0.5,
        weight_bytes: 1000,
    }
}

/// End-to-end pin: whole-layer stats are bit-identical across repeated
/// walks through the thread-local kernel and across walks of a different
/// channel sample interleaved between them — for both the sampled and the
/// trace-driven fidelity.
#[test]
fn layer_stats_identical_across_repeated_and_interleaved_walks() {
    let lw = workload(96, 32, 12);
    let ifm = escalate_models::synth::activations(&lw.shape, 0.5, 11);
    let base = SimConfig::default();
    let sampled = simulate_layer(&lw, &base, 7);
    let traced = simulate_layer_traced(&lw, &base, &ifm).unwrap();
    for round in 0..3 {
        // Every round rebinds the same thread-local kernel. In between,
        // walking a different channel sample rebinds it to other
        // channels — which must not perturb the original answers either.
        assert_eq!(simulate_layer(&lw, &base, 7), sampled, "round={round}");
        assert_eq!(
            simulate_layer_traced(&lw, &base, &ifm).unwrap(),
            traced,
            "round={round}"
        );
        let other = SimConfig {
            sample_channels: 3 + round,
            ..base
        };
        let _ = simulate_layer(&lw, &other, 7);
    }
}
