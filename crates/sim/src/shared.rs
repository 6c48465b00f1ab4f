//! The cross-point derived-state cache behind [`SimConfig::share_derived`].
//!
//! A design-space sweep re-simulates the same `(network, M, input seed)`
//! workloads under many hardware configurations. Two derived artifacts of
//! a layer simulation are *hardware-invariant* — they depend only on the
//! layer, the input seed, and host-fidelity knobs, never on bus widths,
//! PE counts, or buffer sizes:
//!
//! - the synthetic Bernoulli **activation masks**: a pure function of
//!   `(layer seed, C, keep probability, sampled positions, masks drawn)` —
//!   the RNG stream is fixed by the seed, and the walk consumes exactly
//!   `sampled_channels × positions` masks in stream order;
//! - the compiled [`LayerPlan`]: a pure function of
//!   `(C, M, sampled channel ids, coefficient mask words)` — the sampled
//!   channel *selection* depends on `cfg.sample_channels` (a host knob
//!   that is part of the sweep grid), but given the selection the plan is
//!   config-independent.
//!
//! A third cache goes one level higher: the **folded walk sums**
//! ([`WalkSums`]). The per-channel sums a walk produces depend on the
//! masks, the plan, the MAC-row geometry, and the CA cost model's three
//! config knobs (bus elements, look-ahead, look-aside) — but *not* on
//! the PE count or buffer sizes, so design points that differ only in
//! those skip the walk entirely and reassemble the aggregate
//! bit-for-bit (the one mapping-dependent output, `max_block_time`, is
//! a monotone positive multiple of the cached `max_mean_pos`).
//!
//! Everything else — [`crate::context::LayerContext`]'s `parallel_k` and
//! block/slice [`crate::dataflow::Mapping`], the traffic model — depends
//! on the hardware point and is deliberately *not* cached here.
//!
//! Opting in cannot change results: cached masks are regenerated from the
//! very RNG stream the uncached path would draw (bit-identical by
//! construction, keyed by everything that feeds the stream), and a cached
//! plan is only reused after [`LayerPlan::matches`] verified it
//! word-for-word against the requested masks — a fingerprint collision
//! falls back to a fresh build, never a wrong reuse. All three caches are
//! [`SingleFlightCache`]s: LRU-bounded, and concurrent misses on one key
//! compute once. `sweep.derived_hits` / `sweep.derived_misses` count mask
//! lookups and walk hits, `sweep.derived_evictions` counts evictions from
//! all three; plan reuse flows through the existing `ca.plan_reuses` /
//! `ca.plan_compiles` counters.

use crate::ca::LayerPlan;
use crate::config::SimConfig;
use crate::context::PositionAggregate;
use crate::masks::draw_act_mask_into;
use escalate_core::cache::SingleFlightCache;
use escalate_models::hash::{fnv1a, FNV_OFFSET};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// Default bound of each cache (entries). Generous for a two-network
/// sweep grid — a network contributes `layers × distinct sample-channel
/// settings` mask entries per input seed — while keeping a long sweep's
/// footprint fixed.
pub const DEFAULT_DERIVED_CAP: usize = 512;

/// Everything that feeds the Bernoulli mask stream, floats by bit
/// pattern: `(layer seed, C, keep_prob bits, positions per channel,
/// channels walked)`.
type MaskKey = (u64, usize, u64, usize, usize);

/// Plan lookup key: geometry plus an FNV-1a fingerprint of the channel
/// ids and their coefficient mask words. The fingerprint narrows the
/// candidate; [`LayerPlan::matches`] decides.
type PlanKey = (usize, usize, u64);

/// Identity of one sampled channel × position walk — everything the
/// folded per-channel sums depend on, and nothing the mapping-dependent
/// extrapolation reads. `fp`/`fp2` are two independent FNV-1a
/// fingerprints (different offset bases) over the sampled channel ids
/// and their coefficient mask words; with every other component exact,
/// a wrong reuse needs a simultaneous 128-bit collision.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WalkKey {
    fp: u64,
    fp2: u64,
    c: usize,
    m: usize,
    layer_seed: u64,
    keep_prob_bits: u64,
    positions: usize,
    rs: usize,
    bus: usize,
    look_ahead: usize,
    look_aside: usize,
}

/// The hardware-invariant folded sums of one walk (see
/// [`PositionAggregate`] for the field semantics). `max_mean_pos` rather
/// than `max_block_time` is cached: the latter is `max_mean_pos ×
/// positions_per_slice`, and multiplying by the (positive) slice size is
/// monotone, so the caller reassembles it bit-for-bit for *its* mapping.
#[derive(Clone, Copy)]
pub struct WalkSums {
    /// Σ over sampled channels of the mean per-position MAC-row cycles.
    pub sum_pos_cycles: f64,
    /// Σ matched (activation, coefficient) pairs over all samples.
    pub sum_matched: f64,
    /// Σ concentration gather passes over all samples.
    pub sum_gather: f64,
    /// Σ MAC idle cycles over all samples.
    pub sum_idle: f64,
    /// Largest per-channel mean position cycles.
    pub max_mean_pos: f64,
}

struct DerivedCache {
    masks: SingleFlightCache<MaskKey, Arc<Vec<u64>>>,
    plans: SingleFlightCache<PlanKey, Arc<LayerPlan>>,
    walks: SingleFlightCache<WalkKey, WalkSums>,
}

fn derived_cache() -> &'static DerivedCache {
    static CACHE: OnceLock<DerivedCache> = OnceLock::new();
    CACHE.get_or_init(|| DerivedCache {
        masks: SingleFlightCache::new(DEFAULT_DERIVED_CAP),
        plans: SingleFlightCache::new(DEFAULT_DERIVED_CAP),
        walks: SingleFlightCache::new(DEFAULT_DERIVED_CAP),
    })
}

/// Re-bounds the derived caches (`0` = unbounded), evicting down to the
/// new capacity immediately. Exists for eviction-pressure tests and
/// memory-conscious embedders; the default bound suits sweep grids.
pub fn set_derived_cache_capacity(capacity: usize) {
    let cache = derived_cache();
    cache.masks.set_capacity(capacity);
    cache.plans.set_capacity(capacity);
    cache.walks.set_capacity(capacity);
}

/// Total evictions the derived caches have performed since process start.
pub fn derived_cache_evictions() -> u64 {
    let cache = derived_cache();
    cache.masks.evictions() + cache.plans.evictions() + cache.walks.evictions()
}

/// Adds a lookup's evictions to `sweep.derived_evictions`.
fn count_evictions(evicted: u64) {
    if evicted > 0 {
        escalate_obs::counter_add("sweep.derived_evictions", evicted);
    }
}

/// Draws the full mask block the sampled walk will consume — `channels ×
/// positions` masks of `⌈C/64⌉` words, back-to-back in stream order —
/// from a fresh RNG at `layer_seed`. This is byte-for-byte the stream
/// [`crate::masks::MaskSource::bernoulli`] would produce, because the
/// walk consumes exactly one mask per (channel, position) in that order.
fn generate_masks(
    layer_seed: u64,
    c: usize,
    keep_prob: f64,
    positions: usize,
    channels: usize,
) -> Vec<u64> {
    let words = c.div_ceil(64);
    let mut rng = StdRng::seed_from_u64(layer_seed);
    let mut out = vec![0u64; channels * positions * words];
    for mask in out.chunks_mut(words.max(1)) {
        draw_act_mask_into(&mut rng, c, keep_prob, mask);
    }
    out
}

/// The materialized Bernoulli mask block for one `(layer, input seed,
/// fidelity)` walk, cached across design points. Returns the shared words
/// and whether this lookup hit. Concurrent misses for one key generate
/// once; the others wait and hit.
pub fn cached_masks(
    layer_seed: u64,
    c: usize,
    keep_prob: f64,
    positions: usize,
    channels: usize,
) -> (Arc<Vec<u64>>, bool) {
    let key = (layer_seed, c, keep_prob.to_bits(), positions, channels);
    let Ok(look) = derived_cache().masks.get_or_compute(key, || {
        Ok::<_, Infallible>(Arc::new(generate_masks(
            layer_seed, c, keep_prob, positions, channels,
        )))
    });
    escalate_obs::counter_add(
        if look.hit {
            "sweep.derived_hits"
        } else {
            "sweep.derived_misses"
        },
        1,
    );
    count_evictions(look.evicted);
    (look.value, look.hit)
}

/// FNV-1a over the sampled channel ids and their coefficient mask words,
/// starting from `basis`.
fn mask_fingerprint<'m>(
    basis: u64,
    m: usize,
    channels: &[usize],
    mask: &impl Fn(usize, usize) -> &'m [u64],
) -> u64 {
    let mut fp = basis;
    for &k in channels {
        fp = fnv1a(fp, &(k as u64).to_le_bytes());
        for mi in 0..m {
            for &w in mask(k, mi) {
                fp = fnv1a(fp, &w.to_le_bytes());
            }
        }
    }
    fp
}

/// The shared compiled [`LayerPlan`] for `(c, m, channels, masks)`,
/// building and caching it on a miss. Returns the plan and whether the
/// lookup hit. A hit is only reported after [`LayerPlan::matches`]
/// verified the stored plan word-for-word against the requested masks; a
/// fingerprint collision builds a fresh plan and leaves the cached one in
/// place.
pub fn cached_plan<'m>(
    c: usize,
    m: usize,
    channels: &[usize],
    mask: impl Fn(usize, usize) -> &'m [u64],
) -> (Arc<LayerPlan>, bool) {
    let key = (c, m, mask_fingerprint(FNV_OFFSET, m, channels, &mask));
    let Ok(look) = derived_cache().plans.get_or_compute(key, || {
        Ok::<_, Infallible>(Arc::new(LayerPlan::build(c, m, channels, &mask)))
    });
    count_evictions(look.evicted);
    if look.hit && !look.value.matches(c, m, channels, &mask) {
        return (Arc::new(LayerPlan::build(c, m, channels, &mask)), false);
    }
    (look.value, look.hit)
}

/// Builds the [`WalkKey`] for a walk of `channels × positions` against
/// this layer's masks under `cfg`'s CA cost model. Everything the folded
/// sums read is captured: the coefficient masks and sampled channel ids
/// (double-fingerprinted), the activation mask stream identity, the
/// MAC-row geometry (`m`, `rs`), and the kernel's config-relevant knobs
/// (exactly the set [`crate::ca::PositionKernel::matches`] checks).
#[allow(clippy::too_many_arguments)]
pub fn walk_key<'m>(
    c: usize,
    m: usize,
    channels: &[usize],
    mask: impl Fn(usize, usize) -> &'m [u64],
    layer_seed: u64,
    keep_prob: f64,
    positions: usize,
    rs: usize,
    cfg: &SimConfig,
) -> WalkKey {
    WalkKey {
        fp: mask_fingerprint(FNV_OFFSET, m, channels, &mask),
        fp2: mask_fingerprint(FNV_OFFSET.rotate_left(32), m, channels, &mask),
        c,
        m,
        layer_seed,
        keep_prob_bits: keep_prob.to_bits(),
        positions,
        rs,
        bus: cfg.bus_elems().max(1),
        look_ahead: cfg.look_ahead,
        look_aside: cfg.look_aside,
    }
}

/// The folded sums of the walk `key` names: cached if a previous design
/// point already performed it, else produced by `walk` (once across
/// concurrent callers) and published for later points. Returns the sums
/// and, when this call ran `walk`, its full aggregate. A hit counts as a
/// derived hit *and* a walk hit: it skips the mask/plan lookups entirely.
pub fn cached_walk(
    key: WalkKey,
    walk: impl FnOnce() -> PositionAggregate,
) -> (WalkSums, Option<PositionAggregate>) {
    let mut walked = None;
    let Ok(look) = derived_cache().walks.get_or_compute(key, || {
        let agg = walk();
        walked = Some(agg);
        Ok::<_, Infallible>(WalkSums {
            sum_pos_cycles: agg.sum_pos_cycles,
            sum_matched: agg.sum_matched,
            sum_gather: agg.sum_gather,
            sum_idle: agg.sum_idle,
            max_mean_pos: agg.max_mean_pos,
        })
    });
    if look.hit {
        escalate_obs::counter_add("sweep.derived_hits", 1);
        escalate_obs::counter_add("sweep.walk_hits", 1);
    }
    count_evictions(look.evicted);
    (look.value, walked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn generated_masks_replay_the_bernoulli_stream() {
        let (c, sp, ch) = (100usize, 7, 3);
        let words = c.div_ceil(64);
        let block = generate_masks(99, c, 0.4, sp, ch);
        assert_eq!(block.len(), ch * sp * words);
        // The uncached walk draws the same stream mask by mask.
        let mut rng = StdRng::seed_from_u64(99);
        let mut buf = vec![0u64; words];
        for i in 0..ch * sp {
            draw_act_mask_into(&mut rng, c, 0.4, &mut buf);
            assert_eq!(&block[i * words..(i + 1) * words], &buf[..], "mask {i}");
        }
    }

    #[test]
    fn mask_cache_hits_on_identical_keys_only() {
        // Unique seeds so parallel tests sharing the process-global cache
        // cannot collide with these entries.
        let seed = 0xfeed_0001u64;
        let (a, hit_a) = cached_masks(seed, 70, 0.5, 4, 2);
        assert!(!hit_a, "first lookup must miss");
        let (b, hit_b) = cached_masks(seed, 70, 0.5, 4, 2);
        assert!(hit_b, "second lookup must hit");
        assert!(Arc::ptr_eq(&a, &b), "hit must share the same block");
        let (c, hit_c) = cached_masks(seed, 70, 0.5, 4, 3);
        assert!(!hit_c, "a different mask count is a different stream");
        assert_eq!(&c[..a.len()], &a[..], "longer block shares the prefix");
    }

    #[test]
    fn plan_cache_verifies_word_for_word_before_reuse() {
        let words = 2usize;
        let mk = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4 * words)
                .map(|_| rng.next_u64() & !(1 << 63))
                .collect()
        };
        let masks_a = mk(0xfeed_1001);
        let mask_a = |k: usize, mi: usize| &masks_a[(k % 2 * 2 + mi) * words..][..words];
        let (p1, hit1) = cached_plan(100, 2, &[0, 1], mask_a);
        assert!(!hit1);
        let (p2, hit2) = cached_plan(100, 2, &[0, 1], mask_a);
        assert!(hit2, "identical inputs must hit");
        assert!(Arc::ptr_eq(&p1, &p2));
        // Different masks (same geometry) must not reuse the plan.
        let masks_b = mk(0xfeed_1002);
        let mask_b = |k: usize, mi: usize| &masks_b[(k % 2 * 2 + mi) * words..][..words];
        let (p3, hit3) = cached_plan(100, 2, &[0, 1], mask_b);
        assert!(!hit3);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert!(p3.matches(100, 2, &[0, 1], mask_b));
    }

    #[test]
    fn concurrent_mask_misses_generate_once() {
        // A fresh key (unique seed) requested by eight threads at once:
        // one generates, the other seven wait on its slot and hit.
        let seed = 0xfeed_2001u64;
        let start = std::sync::Barrier::new(8);
        let misses: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        usize::from(!cached_masks(seed, 4096, 0.5, 64, 16).1)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(misses, 1, "exactly one lookup may miss");
    }
}
