//! `sweep_dense`: `escalate_bench::sweep::run_sweep` on MobileNet and
//! MobileNetV2 at a single M with the Halton sampler. Each sweep runs in a
//! fresh worker process whose set-up compresses both networks, so the
//! timed phase is the CA kernel, the derived-state caches, the energy and
//! area fold and the streaming frontier. The traced worker replays every
//! streamed point through the layer calls under the benchmark's spans and
//! checks that the replay reproduces the stream byte for byte.

use crate::common::{
    fnv64, median, ns_per_position, obs_layer_metrics, percentile, ObsView, Outcome, Tracer, Worker,
};
use crate::expected::expected;
use escalate_bench::sweep::{run_sweep, Sampler, SweepOptions, SweepRecord};
use escalate_bench::{artifact_cache_evictions, artifact_cache_len, compress_cached};
use escalate_core::pipeline::CompressionConfig;
use escalate_energy::{chip_area_mm2, model_energy, BufferCaps, UnitEnergy};
use escalate_sim::{Accelerator, Escalate, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The swept networks.
pub const NETWORKS: [&str; 2] = ["MobileNet", "MobileNetV2"];

/// Design points per network (128 in all).
pub const SAMPLES: usize = 64;

/// Recorded sweep grids; `--seed` picks one.
pub const GRIDS: u64 = 8;

/// The basis-kernel count every point uses.
const M: usize = 6;

/// The sweep's options for grid `grid`, streaming to `out`.
fn options(grid: u64, out: PathBuf) -> SweepOptions {
    SweepOptions {
        networks: NETWORKS.iter().map(|s| s.to_string()).collect(),
        samples: SAMPLES,
        master_seed: 1000 + grid,
        input_seeds: 1,
        threads: 0,
        out,
        m_range: (M, M),
        sampler: Sampler::Halton,
        ..SweepOptions::default()
    }
}

/// The compression config the sweep asks the artifact cache for.
fn compression() -> CompressionConfig {
    CompressionConfig {
        m: M,
        reuse_units: true,
        ..CompressionConfig::default()
    }
}

/// Runs grid `grid` once in this process (the `record` mode) and returns
/// its point count and stream digest.
pub fn reference_run(grid: u64, work_dir: &Path) -> Result<(usize, u64), String> {
    let path = work_dir.join(format!("record-sweep-{grid}.jsonl"));
    let _ = std::fs::remove_file(&path);
    run_sweep(&options(grid, path.clone()), &mut std::io::sink()).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    Ok((bytes.iter().filter(|&&b| b == b'\n').count(), fnv64(&bytes)))
}

/// What one sweep worker reported.
struct SweepRun {
    traced: bool,
    setup_s: f64,
    /// Spawn to exit.
    total_ms: f64,
    sweep_ms: f64,
    points: usize,
    rss_mb: f64,
    layers: BTreeMap<String, f64>,
}

/// Parent side: sweep workers until `seconds` have been measured.
pub fn run(seed: u64, seconds: f64, trace: bool, work_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let grid = seed % GRIDS;
    out.notes
        .push(format!("sweep grid {grid} (master seed {})", 1000 + grid));
    let started = Instant::now();
    let mut runs = Vec::new();
    for i in 0.. {
        let more = if trace {
            i < 2
        } else {
            i < 3 || started.elapsed().as_secs_f64() < seconds
        };
        if !more {
            break;
        }
        out.attempted += 1;
        // A fresh stream path per sweep: a reused one would resume and do
        // no work.
        let path = work_dir.join(format!("sweep-{}-{i}.jsonl", std::process::id()));
        let traced = trace && i == 1;
        match sweep_worker(grid, traced, &path, &mut out) {
            Ok(r) => runs.push(r),
            Err(e) => out.fail(format!("sweep: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }
    if runs.is_empty() {
        return out;
    }
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    out.set_sampled("setup_s", median(&setups), setups.len());
    if trace {
        let plain = runs.iter().find(|r| !r.traced);
        let traced = runs.iter().find(|r| r.traced);
        if let (Some(plain), Some(traced)) = (plain, traced) {
            for (k, v) in &traced.layers {
                out.set(k, *v);
            }
            out.set(
                "trace.overhead_frac",
                traced.sweep_ms / plain.sweep_ms - 1.0,
            );
        }
        return out;
    }
    let sweep_ms: Vec<f64> = runs.iter().map(|r| r.sweep_ms).collect();
    let total_ms: Vec<f64> = runs.iter().map(|r| r.total_ms).collect();
    let pps: Vec<f64> = runs
        .iter()
        .map(|r| r.points as f64 / (r.sweep_ms / 1e3))
        .collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    out.set_sampled("wall_s", median(&sweep_ms) / 1e3, runs.len());
    out.set_sampled("points_per_s", median(&pps), runs.len());
    out.set_sampled("p50_ms.light", percentile(&sweep_ms, 50.0), runs.len());
    out.set_sampled("p90_ms.light", percentile(&sweep_ms, 90.0), runs.len());
    out.set_sampled("p50_ms.busy", percentile(&total_ms, 50.0), runs.len());
    out.set_sampled("p90_ms.busy", percentile(&total_ms, 90.0), runs.len());
    out.set(
        "max_rate_jps",
        runs.len() as f64 / (total_ms.iter().sum::<f64>() / 1e3),
    );
    out.set_sampled("peak_rss_mb", median(&rss), rss.len());
    out
}

/// Runs one sweep worker and checks what it reports.
fn sweep_worker(
    grid: u64,
    traced: bool,
    path: &Path,
    out: &mut Outcome,
) -> Result<SweepRun, String> {
    let mut w = Worker::spawn(&[
        "sweep".into(),
        "--grid".into(),
        grid.to_string(),
        "--trace".into(),
        if traced { "1" } else { "0" }.into(),
        "--out".into(),
        path.display().to_string(),
    ])?;
    let (line, at) = w.next_line().ok_or("worker printed nothing")?;
    if line != "ready" {
        return Err(format!("worker said {line:?}"));
    }
    let (lines, took) = w.finish()?;
    let mut r = SweepRun {
        traced,
        setup_s: at.as_secs_f64(),
        total_ms: took.as_secs_f64() * 1e3,
        sweep_ms: 0.0,
        points: 0,
        rss_mb: 0.0,
        layers: BTreeMap::new(),
    };
    let (want_points, want_digest) = expected().sweep.get(&grid).copied().unwrap_or((0, 0));
    for line in &lines {
        let f: Vec<&str> = line.split(' ').collect();
        match f.as_slice() {
            ["sweep", ms, points, digest] => {
                r.sweep_ms = ms.parse().map_err(|_| "bad sweep line")?;
                r.points = points.parse().map_err(|_| "bad sweep line")?;
                out.check(
                    r.points == want_points && *digest == format!("{want_digest:016x}"),
                    || {
                        format!(
                            "grid {grid}: {points} points with digest {digest}, recorded \
                             {want_points} with {want_digest:016x}"
                        )
                    },
                );
            }
            ["guard", grew, evicted, misses] => {
                // Intent guard: both networks were compressed in set-up,
                // so the timed phase never misses the artifact cache.
                out.check(*grew == "0" && *evicted == "0" && *misses == "0", || {
                    format!(
                        "timed phase added {grew} cache entries, evicted {evicted}, \
                         missed {misses} times; expected none"
                    )
                });
            }
            ["replay", mismatched] => {
                out.check(*mismatched == "0", || {
                    format!("{mismatched} replayed points differ from the stream")
                });
            }
            ["rss", kb] => r.rss_mb = kb.parse::<f64>().map_err(|_| "bad rss line")? / 1024.0,
            ["layer", name, v] => {
                r.layers
                    .insert(name.to_string(), v.parse().map_err(|_| "bad layer line")?);
            }
            _ => return Err(format!("unexpected worker line {line:?}")),
        }
    }
    if r.points == 0 {
        return Err("worker reported no sweep".into());
    }
    Ok(r)
}

/// Worker side: set-up (compress both networks), one timed sweep, and in
/// the traced run a replay of the stream under the benchmark's spans.
pub fn worker(grid: u64, trace: bool, path: &Path) -> Result<(), String> {
    if path.exists() {
        return Err(format!(
            "{} exists; a sweep must start a fresh stream",
            path.display()
        ));
    }
    let registry = trace.then(|| {
        let r = Arc::new(escalate_obs::Registry::new());
        escalate_obs::install(Arc::clone(&r));
        r
    });
    let snap = || {
        registry
            .as_ref()
            .map(|r| ObsView::from_snapshot(&r.snapshot()))
            .unwrap_or_default()
    };
    let tracer = Tracer::default();
    escalate_core::par::configure_threads(0);
    let mut profiles = BTreeMap::new();
    for spec in NETWORKS {
        let p = tracer
            .time("models.resolve", || escalate_models::resolve(spec))
            .map_err(|e| e.to_string())?;
        tracer
            .time("core.compress", || compress_cached(&p, &compression()))
            .map_err(|e| e.to_string())?;
        profiles.insert(spec.to_string(), p);
    }
    println!("ready");
    let (len0, ev0, obs0) = (artifact_cache_len(), artifact_cache_evictions(), snap());
    let t = Instant::now();
    tracer
        .time("sweep.run_sweep", || {
            run_sweep(&options(grid, path.to_path_buf()), &mut std::io::sink())
        })
        .map_err(|e| e.to_string())?;
    let sweep_ms = t.elapsed().as_secs_f64() * 1e3;
    let timed = snap().since(&obs0);
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read the stream: {e}"))?;
    let points = bytes.iter().filter(|&&b| b == b'\n').count();
    println!("sweep {sweep_ms} {points} {:016x}", fnv64(&bytes));
    println!(
        "guard {} {} {}",
        artifact_cache_len() - len0,
        artifact_cache_evictions() - ev0,
        timed.counter("bench.cache_misses")
    );
    if trace {
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mismatched = replay(&text, &profiles, &tracer)?;
        let replay_ms = t.elapsed().as_secs_f64() * 1e3;
        println!("replay {mismatched}");
        let mut layers = BTreeMap::new();
        obs_layer_metrics(&timed, &mut layers);
        // Set-up compression is where this workload's core time goes.
        let setup = obs0;
        for (metric, span) in [
            ("core.synth_ms", "pipeline.synth"),
            ("core.decompose_ms", "pipeline.decompose"),
            ("core.quant_ms", "pipeline.quant"),
            ("core.reconstruct_ms", "pipeline.reconstruct"),
        ] {
            layers.insert(metric.into(), setup.span(span));
        }
        layers.insert("core.units".into(), setup.counter("pipeline.units") as f64);
        let replayed = ["sim.workload", "sim.escalate", "energy.fold"];
        for (metric, span) in [
            ("models.resolve_ms", "models.resolve"),
            ("core.compress_ms", "core.compress"),
            ("sim.workload_ms", "sim.workload"),
            ("sim.escalate_ms", "sim.escalate"),
            ("energy.fold_ms", "energy.fold"),
        ] {
            layers.insert(metric.into(), tracer.ms(span));
        }
        let covered: f64 = replayed.iter().map(|s| tracer.ms(s)).sum();
        layers.insert(
            "sim.ns_per_position".into(),
            ns_per_position(tracer.ms("sim.escalate"), layers["sim.positions_walked"]),
        );
        layers.insert("trace.coverage".into(), covered / replay_ms);
        eprintln!(
            "sweep trace: sweep {sweep_ms:.1} ms; replay layer spans {covered:.1} ms of \
             {replay_ms:.1} ms (remainder {:.1} ms)",
            replay_ms - covered
        );
        for (k, v) in layers {
            println!("layer {k} {v}");
        }
    }
    let rss = crate::common::peak_rss_kb(std::process::id()).unwrap_or(0);
    println!("rss {rss}");
    Ok(())
}

/// Recomputes every streamed point through the public layer calls the
/// sweep makes (workload, ESCALATE simulation, energy fold, chip area) and
/// counts records whose re-rendered line differs from the stream.
fn replay(
    stream: &str,
    profiles: &BTreeMap<String, escalate_models::ModelProfile>,
    tr: &Tracer,
) -> Result<usize, String> {
    let units = UnitEnergy::table3();
    let mut workloads = BTreeMap::new();
    let mut mismatched = 0;
    for line in stream.lines() {
        let rec = SweepRecord::from_json_line(line).ok_or("unparseable stream record")?;
        let p = &profiles[&rec.network];
        if !workloads.contains_key(&rec.network) {
            let artifacts = compress_cached(p, &compression()).map_err(|e| e.to_string())?;
            let wl = tr.time("sim.workload", || {
                Workload::from_artifacts(&p.name, &artifacts, p)
            });
            workloads.insert(rec.network.clone(), wl);
        }
        let workload = &workloads[&rec.network];
        let mut cfg = rec.point.to_config();
        cfg.threads = 0;
        cfg.share_derived = true;
        let caps = BufferCaps::from_config(&cfg);
        let (mut cycles, mut dram, mut energy) = (0.0, 0.0, 0.0);
        for seed in 0..rec.input_seeds {
            let stats = tr.time("sim.escalate", || {
                Escalate::new(workload, &cfg).simulate(seed, cfg.threads)
            });
            let e = tr.time("energy.fold", || model_energy(&stats, &caps, &units));
            cycles += stats.schedule_cycles() as f64;
            dram += stats.total_dram().total() as f64;
            energy += e.total_pj();
        }
        let n = rec.input_seeds as f64;
        let area = tr.time("energy.fold", || chip_area_mm2(&cfg));
        let again = SweepRecord {
            cycles: cycles / n,
            dram_mb: dram / n / 1e6,
            energy_mj: energy / n / 1e9,
            area_mm2: area,
            ..rec.clone()
        };
        if again.to_json_line() != line {
            mismatched += 1;
        }
    }
    Ok(mismatched)
}
