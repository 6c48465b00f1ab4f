//! Workload characterization: the compute/traffic structure that decides
//! which accelerator wins where (the analysis behind Figures 11 and 13
//! and the §6.3 discussion).

use crate::layer::{LayerKind, LayerShape};
use crate::profiles::ModelProfile;

/// Compute/traffic characterization of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCharacter {
    /// Layer name.
    pub name: String,
    /// Dense MACs.
    pub macs: u64,
    /// Dense operand bytes (weights + IFM + OFM at 8 bits).
    pub bytes: u64,
    /// Arithmetic intensity: MACs per operand byte.
    pub intensity: f64,
    /// The ESCALATE per-layer speedup bound `C/M` (§5.2.2).
    pub cm_bound: f64,
    /// Spatial positions (SCNN's parallelism axis).
    pub positions: u64,
    /// Input channels (SparTen's and ESCALATE's parallelism axis).
    pub channels: u64,
    /// Whether the layer is depthwise or pointwise.
    pub kind: LayerKind,
}

impl LayerCharacter {
    /// Characterizes one layer for an `m`-basis decomposition (`m ≥ 1`).
    pub fn of(layer: &LayerShape, m: usize) -> LayerCharacter {
        let macs = layer.macs() as u64;
        let bytes = (layer.weight_params() + layer.input_size() + layer.output_size()) as u64;
        LayerCharacter {
            name: layer.name.clone(),
            macs,
            bytes,
            intensity: macs as f64 / bytes.max(1) as f64,
            cm_bound: layer.c as f64 / m as f64,
            positions: (layer.x * layer.y) as u64,
            channels: layer.c as u64,
            kind: layer.kind,
        }
    }
}

/// Whole-model characterization.
#[derive(Debug, Clone)]
pub struct ModelCharacter {
    /// Model name.
    pub name: String,
    /// Per-layer records in execution order.
    pub layers: Vec<LayerCharacter>,
}

impl ModelCharacter {
    /// Characterizes every conv layer of a profile's model for an
    /// `m`-basis decomposition (`m ≥ 1`).
    pub fn of(profile: &ModelProfile, m: usize) -> ModelCharacter {
        let model = profile.model();
        ModelCharacter {
            name: profile.name.to_string(),
            layers: model
                .conv_layers()
                .map(|l| LayerCharacter::of(l, m))
                .collect(),
        }
    }

    /// MAC-weighted mean arithmetic intensity — below the machine balance
    /// (multipliers × bytes-per-cycle⁻¹) the model is memory-bound.
    pub fn mean_intensity(&self) -> f64 {
        let macs: u64 = self.layers.iter().map(|l| l.macs).sum();
        let bytes: u64 = self.layers.iter().map(|l| l.bytes).sum();
        macs as f64 / bytes.max(1) as f64
    }

    /// MAC-weighted mean `C/M` bound — the best speedup the decomposed
    /// compute reduction alone can deliver for this model.
    pub fn mean_cm_bound(&self) -> f64 {
        let macs: u64 = self.layers.iter().map(|l| l.macs).sum();
        if macs == 0 {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.cm_bound * l.macs as f64)
            .sum::<f64>()
            / macs as f64
    }

    /// Fraction of MACs in depthwise/pointwise (DSC) layers — high values
    /// flag compact models that sparse accelerators struggle with (§6.3).
    pub fn dsc_mac_fraction(&self) -> f64 {
        let macs: u64 = self.layers.iter().map(|l| l.macs).sum();
        if macs == 0 {
            return 0.0;
        }
        let dsc: u64 = self
            .layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::DwConv | LayerKind::PwConv))
            .map(|l| l.macs)
            .sum();
        dsc as f64 / macs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_reflects_reuse() {
        // A wide 3x3 layer reuses each operand many times; a pointwise
        // layer on a tiny map barely at all.
        let fat = LayerCharacter::of(&LayerShape::conv("f", 256, 256, 32, 32, 3, 1, 1), 6);
        let thin = LayerCharacter::of(&LayerShape::pwconv("t", 256, 256, 2, 2), 6);
        assert!(fat.intensity > 10.0 * thin.intensity);
    }

    #[test]
    fn cm_bound_scales_with_channels() {
        let a = LayerCharacter::of(&LayerShape::conv("a", 64, 64, 8, 8, 3, 1, 1), 6);
        let b = LayerCharacter::of(&LayerShape::conv("b", 512, 64, 8, 8, 3, 1, 1), 6);
        assert!((a.cm_bound - 64.0 / 6.0).abs() < 1e-9);
        assert!(b.cm_bound >= 7.9 * a.cm_bound);
    }

    #[test]
    fn compact_models_are_dsc_dominated() {
        let mobilenet = ModelCharacter::of(&ModelProfile::for_model("MobileNet").unwrap(), 6);
        let vgg = ModelCharacter::of(&ModelProfile::for_model("VGG16").unwrap(), 6);
        assert!(mobilenet.dsc_mac_fraction() > 0.9);
        assert_eq!(vgg.dsc_mac_fraction(), 0.0);
    }

    #[test]
    fn cifar_vgg_is_weight_dominated() {
        // VGG16-CIFAR carries 14.7M weights over tiny maps: its traffic is
        // weight-dominated and its intensity low — exactly why eliminating
        // off-chip weight accesses wins Figure 9's CIFAR bars.
        let vgg = ModelCharacter::of(&ModelProfile::for_model("VGG16").unwrap(), 6);
        let mobilenet = ModelCharacter::of(&ModelProfile::for_model("MobileNet").unwrap(), 6);
        assert!(vgg.mean_intensity() < mobilenet.mean_intensity());
        // Machine balance at 960 MACs and 64 B/cycle is 15 MAC/B; VGG sits
        // near it, flagging the memory-boundedness the simulator shows.
        assert!(vgg.mean_intensity() < 40.0);
    }

    #[test]
    fn mean_cm_bound_tracks_model_width() {
        let r18 = ModelCharacter::of(&ModelProfile::for_model("ResNet18").unwrap(), 6);
        let wide = ModelCharacter::of(&ModelProfile::for_model("ResNet152").unwrap(), 6);
        assert!(wide.mean_cm_bound() > r18.mean_cm_bound());
        // With a larger M the bound shrinks.
        let r18_m8 = ModelCharacter::of(&ModelProfile::for_model("ResNet18").unwrap(), 8);
        assert!(r18_m8.mean_cm_bound() < r18.mean_cm_bound());
    }
}
