//! Per-model calibration profiles transcribed from Table 1 of the paper.
//!
//! The synthetic weight/activation generators are steered by these targets
//! so the simulated workloads carry the same sparsity structure the paper
//! measured; the reference columns (paper accuracies and compression
//! ratios) are reprinted by the Table 1 harness next to our measured
//! values.

use crate::hash::{fnv1a, FNV_OFFSET};
use crate::zoo::Model;

/// Dataset a model was evaluated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// CIFAR-10: 3×32×32 inputs, 10 classes.
    Cifar10,
    /// ImageNet: 3×224×224 inputs, 1000 classes.
    ImageNet,
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dataset::Cifar10 => f.write_str("CIFAR-10"),
            Dataset::ImageNet => f.write_str("ImageNet"),
        }
    }
}

/// Calibration targets and paper-reference numbers for one model.
///
/// Zoo profiles carry Table 1 transcriptions; profiles for user-supplied
/// networks (see [`ModelProfile::synthetic`]) carry neutral defaults and
/// the layer table itself in [`ModelProfile::custom`].
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// Model name (matches [`Model::name`]).
    pub name: String,
    /// Evaluation dataset.
    pub dataset: Dataset,
    /// Paper Table 1: baseline top-1 accuracy (%).
    pub baseline_top1: f64,
    /// Paper Table 1: ESCALATE top-1 accuracy (%).
    pub escalate_top1: f64,
    /// Paper Table 1: ESCALATE compression ratio (×).
    pub paper_compression: f64,
    /// Paper Table 1: ESCALATE coefficient sparsity (%), i.e. the fraction
    /// of ternary coefficients that are zero after pruning.
    pub coeff_sparsity: f64,
    /// Paper Table 1: pruning ratio w.r.t. the original weights (%).
    pub pruning_ratio: f64,
    /// Weight sparsity of the pruned checkpoint used for the *baseline*
    /// accelerators (ADMM-NN-S for CIFAR-10, STR for ImageNet, naive L1
    /// for ResNet152), from Table 1.
    pub baseline_weight_sparsity: f64,
    /// Mean ReLU activation sparsity used for the synthetic inputs.
    pub mean_activation_sparsity: f64,
    /// Layer table for non-zoo networks (loaded from a description file or
    /// generated); `None` for the six paper models, which are built from
    /// the zoo constructors by name.
    pub custom: Option<Model>,
}

impl ModelProfile {
    /// Profiles for all six evaluated models, in the paper's order.
    pub fn all() -> Vec<ModelProfile> {
        vec![
            ModelProfile {
                name: "VGG16".to_string(),
                dataset: Dataset::Cifar10,
                baseline_top1: 93.49,
                escalate_top1: 92.74,
                paper_compression: 79.04,
                coeff_sparsity: 0.8924,
                pruning_ratio: 0.961,
                baseline_weight_sparsity: 0.983,
                mean_activation_sparsity: 0.55,
                custom: None,
            },
            ModelProfile {
                name: "ResNet18".to_string(),
                dataset: Dataset::Cifar10,
                baseline_top1: 93.79,
                escalate_top1: 93.63,
                paper_compression: 106.45,
                coeff_sparsity: 0.974,
                pruning_ratio: 0.9821,
                baseline_weight_sparsity: 0.986,
                mean_activation_sparsity: 0.50,
                custom: None,
            },
            ModelProfile {
                name: "ResNet152".to_string(),
                dataset: Dataset::Cifar10,
                baseline_top1: 95.36,
                escalate_top1: 93.86,
                paper_compression: 325.27,
                coeff_sparsity: 0.992,
                pruning_ratio: 0.994,
                baseline_weight_sparsity: 0.9249,
                mean_activation_sparsity: 0.50,
                custom: None,
            },
            ModelProfile {
                name: "MobileNetV2".to_string(),
                dataset: Dataset::Cifar10,
                baseline_top1: 94.09,
                escalate_top1: 93.32,
                paper_compression: 11.51,
                coeff_sparsity: 0.9698,
                pruning_ratio: 0.9186,
                baseline_weight_sparsity: 0.836,
                mean_activation_sparsity: 0.45,
                custom: None,
            },
            ModelProfile {
                name: "ResNet50".to_string(),
                dataset: Dataset::ImageNet,
                baseline_top1: 76.25,
                escalate_top1: 73.89,
                paper_compression: 10.92,
                coeff_sparsity: 0.8822,
                pruning_ratio: 0.9216,
                baseline_weight_sparsity: 0.9023,
                mean_activation_sparsity: 0.45,
                custom: None,
            },
            ModelProfile {
                name: "MobileNet".to_string(),
                dataset: Dataset::ImageNet,
                baseline_top1: 70.10,
                escalate_top1: 67.89,
                paper_compression: 8.92,
                coeff_sparsity: 0.676,
                pruning_ratio: 0.639,
                baseline_weight_sparsity: 0.7528,
                mean_activation_sparsity: 0.40,
                custom: None,
            },
        ]
    }

    /// Looks up a profile by model name.
    pub fn for_model(name: &str) -> Option<ModelProfile> {
        ModelProfile::all().into_iter().find(|p| p.name == name)
    }

    /// Wraps a user-supplied network (loaded or generated) in a profile
    /// with neutral calibration defaults: 90% coefficient sparsity and 90%
    /// baseline weight sparsity (mid-range for Table 1), 50% mean
    /// activation sparsity, and zeroed paper-reference columns. The
    /// dataset is inferred from the stem's spatial size.
    pub fn synthetic(model: Model) -> ModelProfile {
        let dataset = match model.layers().first() {
            Some(l) if l.x >= 128 => Dataset::ImageNet,
            _ => Dataset::Cifar10,
        };
        ModelProfile {
            name: model.name().to_string(),
            dataset,
            baseline_top1: 0.0,
            escalate_top1: 0.0,
            paper_compression: 0.0,
            coeff_sparsity: 0.90,
            pruning_ratio: 0.0,
            baseline_weight_sparsity: 0.90,
            mean_activation_sparsity: 0.50,
            custom: Some(model),
        }
    }

    /// Instantiates the [`Model`] layer table: the stored table for custom
    /// profiles, the matching zoo constructor otherwise.
    pub fn model(&self) -> Model {
        if let Some(m) = &self.custom {
            return m.clone();
        }
        match self.name.as_str() {
            "VGG16" => Model::vgg16_cifar(),
            "ResNet18" => Model::resnet18_cifar(),
            "ResNet152" => Model::resnet152_cifar(),
            "MobileNetV2" => Model::mobilenet_v2_cifar(),
            "ResNet50" => Model::resnet50_imagenet(),
            "MobileNet" => Model::mobilenet_imagenet(),
            other => unreachable!("unknown profile model {other}"),
        }
    }

    /// A stable 64-bit fingerprint over everything that shapes the
    /// simulated workload: the name, the full layer table, and the
    /// sparsity calibration targets. Two profiles that share a name but
    /// describe different networks (a zoo model vs a custom file, say)
    /// fingerprint differently, so caches keyed on it never conflate them.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.name.as_bytes());
        for l in self.model().layers() {
            h = fnv1a(h, format!("{l:?}").as_bytes());
        }
        for v in [
            self.coeff_sparsity,
            self.baseline_weight_sparsity,
            self.mean_activation_sparsity,
        ] {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
        h
    }

    /// Per-layer activation sparsity for layer `i` of `n`.
    ///
    /// ReLU sparsity grows with depth in trained CNNs (early layers keep
    /// most activations, late layers are highly selective); we use a
    /// linear ramp centred on the profile's mean, matching the qualitative
    /// layer-wise profiles in Figures 11 and 13.
    pub fn activation_sparsity(&self, layer_index: usize, n_layers: usize) -> f64 {
        let frac = if n_layers <= 1 {
            0.5
        } else {
            layer_index as f64 / (n_layers - 1) as f64
        };
        // ±0.15 ramp around the mean, clamped to a sane ReLU range.
        (self.mean_activation_sparsity - 0.15 + 0.30 * frac).clamp(0.05, 0.90)
    }

    /// Per-layer coefficient sparsity for layer `i` of `n`.
    ///
    /// Redundancy concentrates in late, wide layers (the paper prunes some
    /// late ResNet152 downsampling layers entirely); we ramp ±2 points
    /// around the model-level target. The ramp is kept small because model
    /// parameters concentrate in late layers, so a steep ramp would push
    /// the parameter-weighted sparsity past the Table 1 target.
    pub fn layer_coeff_sparsity(&self, layer_index: usize, n_layers: usize) -> f64 {
        let frac = if n_layers <= 1 {
            0.5
        } else {
            layer_index as f64 / (n_layers - 1) as f64
        };
        (self.coeff_sparsity - 0.01 + 0.02 * frac).clamp(0.0, 0.995)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_profiles_exist() {
        let all = ModelProfile::all();
        assert_eq!(all.len(), 6);
        let cifar = all.iter().filter(|p| p.dataset == Dataset::Cifar10).count();
        assert_eq!(cifar, 4);
    }

    #[test]
    fn lookups_match_models() {
        for p in ModelProfile::all() {
            let m = p.model();
            assert_eq!(m.name(), p.name);
            assert!(ModelProfile::for_model(&p.name).is_some());
        }
        assert!(ModelProfile::for_model("LeNet").is_none());
    }

    #[test]
    fn sparsity_targets_match_table1() {
        let r152 = ModelProfile::for_model("ResNet152").unwrap();
        assert_eq!(r152.coeff_sparsity, 0.992);
        assert_eq!(r152.paper_compression, 325.27);
        let mbn = ModelProfile::for_model("MobileNet").unwrap();
        assert_eq!(mbn.baseline_weight_sparsity, 0.7528);
    }

    #[test]
    fn activation_sparsity_ramps_and_stays_bounded() {
        let p = ModelProfile::for_model("VGG16").unwrap();
        let n = 13;
        let first = p.activation_sparsity(0, n);
        let last = p.activation_sparsity(n - 1, n);
        assert!(first < last);
        for i in 0..n {
            let s = p.activation_sparsity(i, n);
            assert!((0.05..=0.90).contains(&s));
        }
    }

    #[test]
    fn coeff_sparsity_never_exceeds_one() {
        let p = ModelProfile::for_model("ResNet152").unwrap();
        for i in 0..60 {
            assert!(p.layer_coeff_sparsity(i, 60) < 1.0);
        }
    }

    #[test]
    fn synthetic_profiles_carry_their_model() {
        let m = Model::new(
            "tiny",
            vec![crate::layer::LayerShape::conv("c1", 3, 8, 16, 16, 3, 1, 1)],
        );
        let p = ModelProfile::synthetic(m.clone());
        assert_eq!(p.name, "tiny");
        assert_eq!(p.dataset, Dataset::Cifar10);
        assert_eq!(p.model(), m);
        let big = Model::new(
            "big",
            vec![crate::layer::LayerShape::conv(
                "c1", 3, 8, 224, 224, 3, 1, 1,
            )],
        );
        assert_eq!(ModelProfile::synthetic(big).dataset, Dataset::ImageNet);
    }

    #[test]
    fn fingerprints_separate_same_named_networks() {
        let zoo = ModelProfile::for_model("VGG16").unwrap();
        assert_eq!(zoo.fingerprint(), zoo.fingerprint());
        // A custom network that borrows a zoo name must not collide.
        let fake = ModelProfile::synthetic(Model::new(
            "VGG16",
            vec![crate::layer::LayerShape::conv("c1", 3, 8, 16, 16, 3, 1, 1)],
        ));
        assert_ne!(zoo.fingerprint(), fake.fingerprint());
        // The zoo profile and an identical-table synthetic differ too
        // (calibration targets differ).
        let same_table = ModelProfile::synthetic(zoo.model());
        assert_ne!(zoo.fingerprint(), same_table.fingerprint());
    }

    #[test]
    fn accuracy_drops_are_modest() {
        // Sanity on the transcription: every model loses < 2.5 points.
        for p in ModelProfile::all() {
            let drop = p.baseline_top1 - p.escalate_top1;
            assert!((0.0..2.5).contains(&drop), "{}: {drop}", p.name);
        }
    }
}
