//! Reference outputs recorded with the benchmark (`expected.txt`, built
//! into the binary) and the `record` mode that regenerates them through
//! the one-shot library path.

use crate::{oneshot, serve, sweep};
use escalate_bench::experiments::ReportOptions;
use escalate_bench::{compress_cached, render, run_model};
use escalate_core::pipeline::CompressionConfig;
use escalate_core::ModelCompression;
use escalate_serve::Request;
use std::collections::BTreeMap;
use std::sync::OnceLock;

const RECORDED: &str = include_str!("../expected.txt");

/// The recorded reference values.
#[derive(Debug, Default)]
pub struct Expected {
    /// `(network spec, accelerator)` → bit patterns of mean cycles, DRAM
    /// bytes and energy.
    pub oneshot: BTreeMap<(String, String), [String; 3]>,
    /// Sweep grid index → (points, FNV-1a digest of the JSONL stream).
    pub sweep: BTreeMap<u64, (usize, u64)>,
    /// Serve request line → FNV-1a digest of the one-shot output text.
    pub serve: BTreeMap<String, u64>,
}

/// The parsed reference table.
pub fn expected() -> &'static Expected {
    static TABLE: OnceLock<Expected> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut e = Expected::default();
        for line in RECORDED.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["oneshot", spec, accel, c, d, en] => {
                    e.oneshot.insert(
                        (spec.to_string(), accel.to_string()),
                        [c.to_string(), d.to_string(), en.to_string()],
                    );
                }
                ["sweep", grid, points, digest] => {
                    e.sweep.insert(
                        grid.parse().expect("sweep grid index"),
                        (
                            points.parse().expect("sweep point count"),
                            u64::from_str_radix(digest, 16).expect("sweep digest"),
                        ),
                    );
                }
                ["serve", digest, ..] => {
                    let request = line.splitn(3, ' ').nth(2).expect("serve request");
                    e.serve.insert(
                        request.to_string(),
                        u64::from_str_radix(digest, 16).expect("serve digest"),
                    );
                }
                _ => {}
            }
        }
        e
    })
}

/// Prints a fresh `expected.txt` computed through the one-shot library
/// path: `run_model` per network, `run_sweep` per grid, and the CLI
/// renderers for every request the serve workload can send.
pub fn record(work_dir: &std::path::Path) -> Result<(), String> {
    println!(
        "# Reference outputs for perfbench; regenerate with `python3 perfbench/run.py --record`."
    );
    escalate_core::par::configure_threads(0);
    for spec in oneshot::NETWORKS {
        let p = escalate_models::resolve(spec).map_err(|e| e.to_string())?;
        let run = run_model(&p, &oneshot::sim_config(), oneshot::INPUT_SEEDS)
            .map_err(|e| e.to_string())?;
        for a in [&run.eyeriss, &run.scnn, &run.sparten, &run.escalate] {
            println!(
                "oneshot {spec} {} {}",
                a.name,
                oneshot::value_bits(a.cycles, a.dram_bytes, a.energy_pj)
            );
        }
    }
    for grid in 0..sweep::GRIDS {
        let (points, digest) = sweep::reference_run(grid, work_dir)?;
        println!("sweep {grid} {points} {digest:016x}");
    }
    for req in serve::catalogue() {
        let text = one_shot_output(&req)?;
        println!(
            "serve {:016x} {}",
            crate::common::fnv64(text.as_bytes()),
            req.to_line()
        );
    }
    Ok(())
}

/// What the one-shot CLI prints for a serve request.
fn one_shot_output(req: &Request) -> Result<String, String> {
    let resolve = |model: &str| escalate_models::resolve(model).map_err(|e| e.to_string());
    match req {
        Request::Simulate {
            model,
            m,
            seeds,
            schedule,
        } => {
            let p = resolve(model)?;
            let mut cfg = if *m == 6 {
                escalate_sim::SimConfig::default()
            } else {
                escalate_sim::SimConfig::default().with_m(*m)
            };
            cfg.schedule = escalate_sim::ScheduleKind::parse(schedule)?;
            let run = run_model(&p, &cfg, *seeds).map_err(|e| e.to_string())?;
            Ok(render::render_simulate(&run, &cfg))
        }
        Request::Compress {
            model,
            m,
            qat,
            seed,
            layers,
        } => {
            let p = resolve(model)?;
            let cfg = CompressionConfig {
                m: *m,
                qat_epochs: *qat,
                seed: *seed,
                ..CompressionConfig::default()
            };
            let artifacts = compress_cached(&p, &cfg).map_err(|e| e.to_string())?;
            let result = ModelCompression {
                model_name: p.name.clone(),
                layers: artifacts.iter().map(|a| a.stats.clone()).collect(),
            };
            Ok(render::render_compress(
                &p.name,
                p.baseline_top1,
                cfg.m,
                &result,
                *layers,
            ))
        }
        Request::Report { experiment } => {
            let opts = ReportOptions::parse([experiment.clone()])?;
            let mut buf = Vec::new();
            escalate_bench::experiments::run_report(&opts, &mut buf).map_err(|e| e.to_string())?;
            String::from_utf8(buf).map_err(|e| e.to_string())
        }
        other => Err(format!("{:?} is not a job", other.verb())),
    }
}
