//! One front door for turning a network spec string into a profile.
//!
//! Every by-name network lookup in the workspace (CLI, sweep, serve jobs)
//! routes through [`resolve`], so the accepted spellings and the
//! unknown-name error are identical everywhere. A spec is one of:
//!
//! - a zoo model name (`ResNet18`),
//! - `@path/to/file.network` — an `escalate-network/v1` description file
//!   (see [`crate::netdesc`]),
//! - `gen:NAME[:key=value,...]` — a parametric generator (see
//!   [`crate::generate`]).

use std::fs::File;
use std::path::Path;

use crate::generate;
use crate::netdesc::NetworkError;
use crate::profiles::ModelProfile;
use crate::zoo::Model;

/// Typed errors from [`resolve`].
#[derive(Debug)]
pub enum ResolveError {
    /// The spec names neither a zoo model nor a file/generator form.
    UnknownModel {
        /// The spec as given.
        name: String,
    },
    /// A `gen:` spec that the generators rejected.
    BadGenerator {
        /// The spec as given.
        spec: String,
        /// The generator's complaint.
        msg: String,
    },
    /// An `@file` spec whose file failed to open or parse.
    BadNetworkFile {
        /// The path as given.
        path: String,
        /// The underlying parse or I/O error.
        err: NetworkError,
    },
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::UnknownModel { name } => write!(
                f,
                "unknown model {name:?}; known models: {} (or use @FILE for a \
                 network description, gen:NAME[:key=value,...] to generate one)",
                zoo_names().join(", ")
            ),
            ResolveError::BadGenerator { spec, msg } => {
                write!(f, "bad generator spec {spec:?}: {msg}")
            }
            ResolveError::BadNetworkFile { path, err } => {
                write!(f, "network file {path:?}: {err}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// Names of the six zoo models, in the paper's order.
pub fn zoo_names() -> Vec<String> {
    ModelProfile::all().into_iter().map(|p| p.name).collect()
}

/// Resolves a network spec (zoo name, `@file`, or `gen:` spec) to a
/// profile ready for compression and simulation.
///
/// # Errors
///
/// Returns a [`ResolveError`] naming the spec and, for files and
/// generators, the underlying problem.
///
/// # Examples
///
/// ```
/// use escalate_models::resolve;
///
/// assert_eq!(resolve::resolve("ResNet18").unwrap().name, "ResNet18");
/// assert!(resolve::resolve("gen:grouped:groups=8").is_ok());
/// assert!(resolve::resolve("LeNet").is_err());
/// ```
pub fn resolve(spec: &str) -> Result<ModelProfile, ResolveError> {
    let spec = spec.trim();
    if let Some(path) = spec.strip_prefix('@') {
        let model = load_network(Path::new(path)).map_err(|err| ResolveError::BadNetworkFile {
            path: path.to_string(),
            err,
        })?;
        return Ok(ModelProfile::synthetic(model));
    }
    if let Some(gen_spec) = spec.strip_prefix("gen:") {
        let model = generate::generate(gen_spec).map_err(|msg| ResolveError::BadGenerator {
            spec: spec.to_string(),
            msg,
        })?;
        return Ok(ModelProfile::synthetic(model));
    }
    ModelProfile::for_model(spec).ok_or_else(|| ResolveError::UnknownModel {
        name: spec.to_string(),
    })
}

fn load_network(path: &Path) -> Result<Model, NetworkError> {
    let file = File::open(path)?;
    Model::from_reader(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn zoo_names_resolve_to_zoo_profiles() {
        for name in zoo_names() {
            let p = resolve(&name).unwrap();
            assert_eq!(p.name, name);
            assert!(p.custom.is_none());
        }
    }

    #[test]
    fn generator_specs_resolve_to_synthetic_profiles() {
        let p = resolve("gen:vit:blocks=1").unwrap();
        assert_eq!(p.name, "vit-d64x1");
        assert!(p.custom.is_some());
    }

    #[test]
    fn file_specs_round_trip_through_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join("escalate_resolve_test.network");
        let model = generate::generate("grouped:blocks=2").unwrap();
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(model.to_description().unwrap().as_bytes())
            .unwrap();
        drop(f);
        let p = resolve(&format!("@{}", path.display())).unwrap();
        assert_eq!(p.model(), model);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_names_list_the_zoo_and_escape_hatches() {
        let e = resolve("LeNet").unwrap_err().to_string();
        assert!(e.contains("unknown model \"LeNet\""), "{e}");
        assert!(e.contains("VGG16") && e.contains("MobileNet"), "{e}");
        assert!(e.contains("@FILE") && e.contains("gen:NAME"), "{e}");
    }

    #[test]
    fn bad_file_and_generator_specs_carry_context() {
        let e = resolve("@/no/such/file.network").unwrap_err().to_string();
        assert!(e.contains("/no/such/file.network"), "{e}");
        let e = resolve("gen:warp").unwrap_err().to_string();
        assert!(e.contains("unknown generator"), "{e}");
    }
}
