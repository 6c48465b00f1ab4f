//! Criterion microbenchmark for the Dilution-Concentration position walk:
//! the scalar reference (`position_cost_scalar`) against the word-parallel
//! `PositionKernel`, one position at a time and batched (`cost_batch`), on
//! a dense-activation / sparse-coefficient MobileNet-shaped layer (the
//! regime the ESCALATE paper optimizes: ~95% coefficient sparsity meeting
//! mostly-nonzero activations). `scripts/tier1.sh` runs this in criterion
//! test mode (`-- --test`) so the bench executes in CI; `cargo bench
//! --bench position_kernel` measures it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use escalate_models::hash::splitmix64;
use escalate_sim::ca::{position_cost_scalar, CaScratch, PositionKernel, MAX_BATCH};
use escalate_sim::SimConfig;

/// Input channels of the benchmarked layer (a mid-network MobileNet
/// pointwise shape: multi-word masks).
const C: usize = 256;
const M: usize = 6;
/// Positions per walk — matches the sampled engine's per-channel walk
/// length so one iteration is one realistic channel visit.
const POSITIONS: usize = 48;

/// A `C`-channel mask with roughly `keep_per_mille`/1000 bits set.
fn mask(seed: &mut u64, keep_per_mille: u64) -> Vec<u64> {
    let words = C.div_ceil(64);
    (0..words)
        .map(|_| {
            let mut w = 0u64;
            for b in 0..64 {
                if splitmix64(seed) % 1000 < keep_per_mille {
                    w |= 1 << b;
                }
            }
            w
        })
        .collect()
}

struct WalkInput {
    coef: Vec<Vec<u64>>,
    acts: Vec<Vec<u64>>,
    /// The same positions packed `MAX_BATCH` masks at a time for
    /// `cost_batch`.
    acts_flat: Vec<u64>,
}

fn walk_input() -> WalkInput {
    let mut seed = 0x5eed_c0de_u64;
    // ~95% sparse coefficients, ~90% dense activations.
    let coef: Vec<Vec<u64>> = (0..M).map(|_| mask(&mut seed, 50)).collect();
    let acts: Vec<Vec<u64>> = (0..POSITIONS).map(|_| mask(&mut seed, 900)).collect();
    let acts_flat: Vec<u64> = acts.iter().flatten().copied().collect();
    WalkInput {
        coef,
        acts,
        acts_flat,
    }
}

fn bench_position_walk(c: &mut Criterion) {
    let input = walk_input();
    let refs: Vec<&[u64]> = input.coef.iter().map(Vec::as_slice).collect();
    let cfg = SimConfig::default();
    let words = C.div_ceil(64);

    // Every timed path must agree before we time it — a benchmark of a
    // wrong kernel is worse than no benchmark.
    {
        let mut scratch = CaScratch::new(&cfg);
        let mut kernel = PositionKernel::new(&cfg);
        kernel.bind(C, refs.iter().copied());
        let mut batched = vec![Default::default(); MAX_BATCH];
        for (p, act) in input.acts.iter().enumerate() {
            let scalar = position_cost_scalar(&cfg, C, act, &refs, &mut scratch);
            assert_eq!(kernel.cost(act), scalar);
            let (chunk, off) = (p / MAX_BATCH, p % MAX_BATCH);
            let n = MAX_BATCH.min(POSITIONS - chunk * MAX_BATCH);
            kernel.cost_batch(
                &input.acts_flat[chunk * MAX_BATCH * words..(chunk * MAX_BATCH + n) * words],
                n,
                &mut batched,
            );
            assert_eq!(batched[off], scalar);
        }
    }

    let mut g = c.benchmark_group("position_walk");
    g.sample_size(30);

    let mut scratch = CaScratch::new(&cfg);
    g.bench_function("scalar", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for act in &input.acts {
                total +=
                    position_cost_scalar(&cfg, C, black_box(act), &refs, &mut scratch).ca_cycles;
            }
            total
        })
    });

    // One position at a time through the kernel, re-binding per iteration
    // like run_positions does per channel.
    let mut kernel = PositionKernel::new(&cfg);
    g.bench_function("word_parallel", |b| {
        b.iter(|| {
            kernel.bind(C, refs.iter().copied());
            let mut total = 0u64;
            for act in &input.acts {
                total += kernel.cost(black_box(act)).ca_cycles;
            }
            total
        })
    });

    // The production walk: MAX_BATCH positions per pass over the bound
    // coefficient words.
    let mut costs = vec![Default::default(); MAX_BATCH];
    g.bench_function("batched", |b| {
        b.iter(|| {
            kernel.bind(C, refs.iter().copied());
            let mut total = 0u64;
            let mut p = 0usize;
            while p < POSITIONS {
                let n = MAX_BATCH.min(POSITIONS - p);
                kernel.cost_batch(
                    black_box(&input.acts_flat[p * words..(p + n) * words]),
                    n,
                    &mut costs,
                );
                for cost in &costs[..n] {
                    total += cost.ca_cycles;
                }
                p += n;
            }
            total
        })
    });

    g.finish();
}

criterion_group!(benches, bench_position_walk);
criterion_main!(benches);
