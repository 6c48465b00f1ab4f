#![warn(missing_docs)]

//! CNN model zoo and synthetic workload generation for the ESCALATE
//! reproduction.
//!
//! The paper evaluates six networks: VGG16, ResNet18, ResNet152 and
//! MobileNetV2 on CIFAR-10, plus ResNet50 and MobileNet on ImageNet. The
//! accelerator simulators consume only *layer shapes*, *weight sparsity
//! structure* and *activation sparsity* — not trained parameters — so this
//! crate provides:
//!
//! - [`layer`] — layer-shape descriptions and arithmetic (MACs, parameter
//!   counts, output sizes),
//! - [`zoo`] — exact layer tables for all six evaluated networks,
//! - [`synth`] — seeded synthetic weight tensors with controllable
//!   effective kernel rank, and ReLU-like sparse activations,
//! - [`profiles`] — per-model calibration targets transcribed from Table 1
//!   of the paper (sparsity levels, reference compression ratios and
//!   accuracies) used to drive the synthetic generators and to print
//!   paper-vs-measured comparisons,
//! - [`netdesc`] — the `escalate-network/v1` description format, so
//!   workloads can be loaded from (and saved to) text files,
//! - [`generate`] — parametric generators for shapes the zoo lacks
//!   (grouped/dilated conv, bottleneck stages, ViT-style blocks),
//! - [`hash`] — the one FNV-1a hash and splitmix64 mixer every crate
//!   derives seeds and fingerprints from,
//! - [`resolve`] — the single front door mapping a spec string (zoo name,
//!   `@file`, `gen:...`) to a [`ModelProfile`].

pub mod analysis;
pub mod generate;
pub mod hash;
pub mod layer;
pub mod netdesc;
pub mod profiles;
pub mod resolve;
pub mod synth;
pub mod zoo;

pub use layer::{LayerKind, LayerShape};
pub use netdesc::{NetworkError, NETWORK_FORMAT_VERSION};
pub use profiles::{Dataset, ModelProfile};
pub use resolve::{resolve, zoo_names, ResolveError};
pub use zoo::Model;
