//! Cross-crate property-based tests on randomized layer shapes.

use escalate::algo::decompose;
use escalate::algo::quant::{threshold_for_sparsity, TernaryCoeffs};
use escalate::algo::reorg::{forward_eq2, forward_eq3};
use escalate::models::{synth, LayerShape};
use escalate::sim::workload::CoefMasks;
use escalate::sim::{simulate_layer, LayerWorkload, SimConfig, Workload, WorkloadMode};
use escalate_bench::run_escalate_workload;
use escalate_bench::sweep::SweepRecord;
use escalate_obs::Json;
use proptest::prelude::*;

fn small_layer() -> impl Strategy<Value = LayerShape> {
    (2usize..10, 2usize..12, 5usize..9, 1usize..3)
        .prop_map(|(c, k, x, stride)| LayerShape::conv("prop", c, k, x, x, 3, stride, 1))
}

/// A deterministic synthetic decomposed layer (the engine-test recipe).
fn synthetic_layer(name: &str, c: usize, k: usize, x: usize, act_sparsity: f64) -> LayerWorkload {
    let coeffs = escalate::tensor::Tensor::from_fn(&[k, c, 6], |i| {
        let h = (i[0] * 7919 + i[1] * 104_729 + i[2] * 1_299_709) % 1000;
        if h < 850 {
            0.0
        } else if h % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    let t = TernaryCoeffs::ternarize(&coeffs, 0.0).expect("valid threshold");
    LayerWorkload {
        name: name.to_string(),
        shape: LayerShape::conv(name, c, k, x, x, 3, 1, 1),
        out_channels: k,
        mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
        act_sparsity,
        out_sparsity: act_sparsity,
        weight_bytes: 1000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq.(2) and Eq.(3) agree on arbitrary small layers.
    #[test]
    fn computation_orders_agree(layer in small_layer(), m in 1usize..9, seed in 0u64..1000) {
        let w = synth::weights(&layer, 9, 0.2, seed);
        let d = decompose(&w, m).expect("decomposition succeeds");
        let input = synth::activations(&layer, 0.5, seed);
        let (o2, _) = forward_eq2(&d, &input, layer.stride, layer.pad);
        let (o3, _) = forward_eq3(&d, &input, layer.stride, layer.pad);
        prop_assert!(o2.all_close(&o3, 1e-2), "rel err {}", o2.relative_error(&o3));
    }

    /// Ternarization hits any requested sparsity within tolerance on
    /// continuous coefficients, and dequantization preserves the pattern.
    #[test]
    fn ternarization_sparsity_control(k in 2usize..12, c in 2usize..12, target in 0.1f64..0.95) {
        let coeffs = escalate::tensor::Tensor::from_fn(&[k, c, 6], |i| {
            ((i[0] * 97 + i[1] * 31 + i[2] * 7) as f32 * 0.613).sin()
        });
        let t = threshold_for_sparsity(&coeffs, target);
        let tern = TernaryCoeffs::ternarize(&coeffs, t).expect("valid threshold");
        prop_assert!((tern.sparsity() - target).abs() < 0.12,
            "target {target} got {}", tern.sparsity());
        let deq = tern.dequantize();
        for (q, v) in tern.ternary.iter().zip(deq.as_slice()) {
            prop_assert_eq!(*q == 0, *v == 0.0);
        }
    }

    /// The simulator is monotone in activation density: more nonzero
    /// activations never reduce cycles.
    #[test]
    fn simulator_monotone_in_activation_density(seed in 0u64..50) {
        let coeffs = escalate::tensor::Tensor::from_fn(&[32, 64, 6], |i| {
            if (i[0] * 131 + i[1] * 17 + i[2]) % 10 < 8 { 0.0 } else { 1.0 }
        });
        let t = TernaryCoeffs::ternarize(&coeffs, 0.0).expect("valid threshold");
        let mk = |sa: f64| LayerWorkload {
            name: "prop".into(),
            shape: LayerShape::conv("prop", 64, 32, 12, 12, 3, 1, 1),
            out_channels: 32,
            mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
            act_sparsity: sa,
            out_sparsity: sa,
            weight_bytes: 100,
        };
        let cfg = SimConfig::default();
        let dense = simulate_layer(&mk(0.1), &cfg, seed);
        let sparse = simulate_layer(&mk(0.9), &cfg, seed);
        prop_assert!(dense.cycles >= sparse.cycles,
            "dense {} < sparse {}", dense.cycles, sparse.cycles);
        prop_assert!(dense.ca_adds >= sparse.ca_adds);
    }

    /// Opting into the cross-point derived-state cache
    /// (`SimConfig::share_derived`) can never change results: for
    /// randomized shapes, hardware points, batch sizes (input seeds
    /// averaged) and thread counts, every averaged f64 of the shared run
    /// matches the cold run bit-for-bit, and the per-layer trace is
    /// equal component-for-component. The process-global cache is warm
    /// or cold arbitrarily across cases — irrelevant by design, which is
    /// exactly the property under test.
    #[test]
    fn derived_sharing_is_bit_identical(
        c in 16usize..96,
        k in 8usize..40,
        x in 6usize..14,
        n_pe_i in 0usize..4,
        bus_i in 0usize..4,
        threads in 1usize..5,
        seeds in 1u64..4,
    ) {
        let n_pe = [8usize, 16, 32, 64][n_pe_i];
        let bus = [8usize, 16, 32, 64][bus_i];
        let w = Workload {
            model_name: "prop-shared".into(),
            layers: vec![
                synthetic_layer("shared-a", c, k, x, 0.5),
                synthetic_layer("shared-b", k.max(2), c, x, 0.3),
            ],
        };
        let cold_cfg = SimConfig {
            n_pe,
            input_bus_bytes: bus,
            threads,
            ..SimConfig::default()
        };
        let shared_cfg = SimConfig {
            share_derived: true,
            ..cold_cfg
        };
        let cold = run_escalate_workload(&w, &cold_cfg, seeds);
        let shared = run_escalate_workload(&w, &shared_cfg, seeds);
        prop_assert_eq!(cold.cycles.to_bits(), shared.cycles.to_bits());
        prop_assert_eq!(cold.dram_bytes.to_bits(), shared.dram_bytes.to_bits());
        prop_assert_eq!(cold.energy_pj.to_bits(), shared.energy_pj.to_bits());
        prop_assert_eq!(cold.first_seed_stats, shared.first_seed_stats);
    }

    /// Compression accounting is internally consistent for any layer and
    /// sparsity target.
    #[test]
    fn compression_accounting_invariants(
        layer in small_layer(),
        target in 0.3f64..0.98,
        seed in 0u64..100,
    ) {
        use escalate::algo::pipeline::{compress_layer, CompressionConfig};
        let lc = compress_layer(&layer, &CompressionConfig::default(), target, seed)
            .expect("compression succeeds");
        prop_assert_eq!(lc.original_bits, lc.original_params * 32);
        prop_assert!(lc.compressed_bits > 0);
        prop_assert!(lc.coeff_nnz <= lc.coeff_total);
        prop_assert!(lc.remaining_params <= lc.original_params + lc.coeff_total);
        prop_assert!(lc.weight_error.is_finite());
        prop_assert!((0.0..=1.0).contains(&lc.coeff_sparsity()));
    }
}

/// A derived-state cache far too small for the working set evicts
/// constantly — and the results still match cold runs exactly, because
/// sharing is an opportunistic fast path, never a correctness dependency.
#[test]
fn derived_eviction_pressure_keeps_results_identical() {
    use escalate::sim::shared::{
        derived_cache_evictions, set_derived_cache_capacity, DEFAULT_DERIVED_CAP,
    };
    let before = derived_cache_evictions();
    set_derived_cache_capacity(2);
    // Distinct layers × seeds: far more than 2 derived entries.
    for (i, (c, k)) in [(24usize, 16usize), (40, 12), (56, 20), (32, 24)]
        .into_iter()
        .enumerate()
    {
        let lw = synthetic_layer(&format!("evict-{i}"), c, k, 8, 0.4);
        let cold = SimConfig::default();
        let shared = SimConfig {
            share_derived: true,
            ..cold
        };
        for seed in [3u64, 9] {
            assert_eq!(
                simulate_layer(&lw, &cold, seed),
                simulate_layer(&lw, &shared, seed),
                "layer {i} seed {seed}"
            );
        }
    }
    let evicted = derived_cache_evictions() - before;
    set_derived_cache_capacity(DEFAULT_DERIVED_CAP);
    // 4 layers × 2 seeds of masks+walks through 2-entry caches:
    // eviction pressure must actually have occurred (other tests share
    // the process-global cache, so assert a floor, not an exact count).
    assert!(evicted >= 8, "expected sustained evictions, saw {evicted}");
}

/// Real texts the JSON reader takes in: a serve request, a unit frame
/// (an `escalate-run-manifest/v1` record inside a frame, as the daemon
/// streams it) and a sweep stream record from its writer.
fn json_corpus() -> Vec<String> {
    let sweep = SweepRecord {
        key: "MobileNet/s007-00000000deadbeef-n1".into(),
        network: "MobileNet".into(),
        sample: 7,
        seed: 0xdead_beef,
        point: escalate::sim::DesignPoint::table2(),
        input_seeds: 1,
        cycles: 711_816.0,
        dram_mb: 15.45312,
        energy_mj: 5.620360885495254,
        area_mm2: 4.5296,
    };
    vec![
        "{\"verb\": \"compress\", \"model\": \"gen:dilated:blocks=2\", \"m\": 6, \
         \"qat\": 0, \"seed\": 42, \"layers\": false}"
            .into(),
        "{\"type\": \"unit\", \"job\": 1, \"record\": {\"key\": \"simulate/MobileNet/Eyeriss\", \
         \"schema\": \"escalate-run-manifest/v1\", \"name\": \"Eyeriss\", \"mean_cycles\": 711816, \
         \"mean_dram_bytes\": 15453120, \"mean_energy_pj\": 5620360885.495254}}"
            .into(),
        sweep.to_json_line(),
    ]
}

/// Bytes that steer random text toward JSON's structure.
const JSON_BYTES: &[u8] = b"{}[]\",:-+.0123456789eE \\/utrfalsn\xc3\xa9";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the bytes, the reader answers `Ok` or `Err`; it never
    /// panics.
    #[test]
    fn json_reader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(
            prop_oneof![any::<u8>(), (0..JSON_BYTES.len()).prop_map(|i| JSON_BYTES[i])],
            0..96,
        ),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}

/// Every proper prefix of a real request, frame or record is an error
/// (an object is not closed before its last byte), and every single-byte
/// mutation of one parses or errs without panicking.
#[test]
fn json_reader_survives_cut_and_mutated_real_texts() {
    for text in json_corpus() {
        assert!(Json::parse(&text).is_ok(), "{text}");
        let bytes = text.as_bytes();
        for end in 0..bytes.len() {
            let cut = String::from_utf8_lossy(&bytes[..end]);
            assert!(Json::parse(&cut).is_err(), "{cut}");
        }
        let mut mutated = bytes.to_vec();
        for at in 0..bytes.len() {
            for byte in 0..=u8::MAX {
                mutated[at] = byte;
                let _ = Json::parse(&String::from_utf8_lossy(&mutated));
            }
            mutated[at] = bytes[at];
        }
    }
}

/// Nesting is capped at depth 32, and the cap is what keeps a 60 000-deep
/// text from exhausting a small thread stack.
#[test]
fn json_nesting_is_capped_at_depth_32() {
    let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let objects = |depth: usize| format!("{}0{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
    for nest in [arrays, objects] {
        assert!(Json::parse(&nest(32)).is_ok());
        assert_eq!(
            Json::parse(&nest(33)).map_err(|e| e.reason),
            Err("nesting deeper than 32")
        );
    }
    let deep = "[".repeat(60_000);
    let parsed = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || Json::parse(&deep).map_err(|e| e.reason))
        .expect("spawn a 256 KiB-stack thread")
        .join()
        .expect("the parse returns instead of overflowing the stack");
    assert_eq!(parsed, Err("nesting deeper than 32"));
}
