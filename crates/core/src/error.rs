//! Error type for the ESCALATE algorithm crate.

use escalate_tensor::TensorError;

/// Errors produced by decomposition, quantization and the compression
/// pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EscalateError {
    /// A numerical routine in the tensor substrate failed.
    Numeric(TensorError),
    /// The requested basis count is outside `1..=rs` for the layer.
    InvalidBasisCount {
        /// Requested number of basis kernels.
        m: usize,
        /// Kernel area `R*S` bounding it.
        rs: usize,
    },
    /// A compression was configured with no basis kernels (`m = 0`),
    /// which no layer can decompose into.
    NoBasisKernels,
    /// The layer kind cannot be decomposed (e.g. an FC layer).
    NotDecomposable {
        /// Name of the offending layer.
        layer: String,
    },
    /// A quantization parameter is out of range.
    InvalidQuantization {
        /// Description of the invalid parameter.
        what: String,
    },
    /// A simulation was handed an invalid workload or feature map
    /// (converted from `escalate_sim`'s `SimError`).
    Simulation {
        /// Description of the invalid input.
        what: String,
    },
}

impl std::fmt::Display for EscalateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscalateError::Numeric(e) => write!(f, "numeric failure: {e}"),
            EscalateError::InvalidBasisCount { m, rs } => {
                write!(
                    f,
                    "basis count {m} is outside 1..={rs} (the kernel area R*S)"
                )
            }
            EscalateError::NoBasisKernels => {
                write!(f, "basis count 0: m must be at least 1")
            }
            EscalateError::NotDecomposable { layer } => {
                write!(f, "layer {layer} cannot be decomposed")
            }
            EscalateError::InvalidQuantization { what } => {
                write!(f, "invalid quantization parameter: {what}")
            }
            EscalateError::Simulation { what } => {
                write!(f, "invalid simulation input: {what}")
            }
        }
    }
}

impl std::error::Error for EscalateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EscalateError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for EscalateError {
    fn from(e: TensorError) -> Self {
        EscalateError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errs: Vec<EscalateError> = vec![
            EscalateError::InvalidBasisCount { m: 10, rs: 9 },
            EscalateError::NoBasisKernels,
            EscalateError::NotDecomposable { layer: "fc".into() },
            EscalateError::InvalidQuantization {
                what: "bits=0".into(),
            },
            EscalateError::Simulation {
                what: "dense workload".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn a_bad_basis_count_states_the_valid_range() {
        let e = EscalateError::InvalidBasisCount { m: 0, rs: 9 };
        assert_eq!(
            e.to_string(),
            "basis count 0 is outside 1..=9 (the kernel area R*S)"
        );
    }

    #[test]
    fn numeric_errors_chain_source() {
        use std::error::Error;
        let e = EscalateError::from(TensorError::NoConvergence {
            routine: "jacobi",
            iterations: 3,
        });
        assert!(e.source().is_some());
    }
}
