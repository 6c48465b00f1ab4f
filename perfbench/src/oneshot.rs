//! `oneshot_cold`: cold four-accelerator `simulate` jobs, one per network
//! of a fixed list, each pass in a fresh worker process so every network
//! compresses exactly once. Untraced passes take the CLI's path
//! (`models::resolve`, then `escalate_bench::run_model`); the traced pass
//! makes the same layer calls one by one under the benchmark's own spans.

use crate::common::{
    median, ns_per_position, obs_layer_metrics, percentile, ObsView, Outcome, Tracer, Worker,
};
use crate::expected::expected;
use escalate_baselines::{BaselineSim, BaselineWorkload, Eyeriss, LayerModel, Scnn, SparTen};
use escalate_bench::{artifact_cache_evictions, artifact_cache_len, compress_cached, run_model};
use escalate_core::pipeline::CompressionConfig;
use escalate_energy::{model_energy, BufferCaps, EnergyBreakdown, UnitEnergy};
use escalate_sim::{Accelerator, Escalate, ModelStats, SimConfig, Workload};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The fixed network list: a deep CIFAR net, an ImageNet net of DSC
/// pairs, a wide synthesis-heavy net and a generated bottleneck net large
/// enough to matter.
pub const NETWORKS: [&str; 4] = [
    "ResNet152",
    "MobileNet",
    "VGG16",
    "gen:bottleneck:blocks=8,width=128",
];

/// Input seeds averaged per job.
pub const INPUT_SEEDS: u64 = 2;

/// Probe workers started only to time set-up, besides one per pass.
const PROBES: usize = 9;

/// The CLI's `simulate` configuration: defaults, all host threads.
pub fn sim_config() -> SimConfig {
    SimConfig::default()
}

/// The recorded form of one accelerator's means: their bit patterns.
pub fn value_bits(cycles: f64, dram: f64, energy: f64) -> String {
    let bits = |v: f64| format!("{:016x}", v.to_bits());
    format!("{} {} {}", bits(cycles), bits(dram), bits(energy))
}

/// Parent side: probes and passes until `seconds` have been measured.
pub fn run(seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for _ in 0..PROBES {
        match probe() {
            Ok(s) => setups.push(s),
            Err(e) => out.fail(format!("probe: {e}")),
        }
    }
    // A traced run makes one untraced and one traced pass (their ratio is
    // the tracing overhead); an untraced run passes until `seconds` are up.
    let started = Instant::now();
    let mut passes = Vec::new();
    for i in 0.. {
        let more = if trace {
            i < 2
        } else {
            i == 0 || started.elapsed().as_secs_f64() < seconds
        };
        if !more {
            break;
        }
        let traced = trace && i == 1;
        out.attempted += NETWORKS.len() as u64;
        match pass(traced, &mut out) {
            Ok(p) => {
                setups.push(p.setup_s);
                passes.push(p);
            }
            Err(e) => {
                out.fail(format!("pass: {e}"));
                out.failed += NETWORKS.len() as u64 - 1;
            }
        }
    }
    if passes.is_empty() {
        return out;
    }
    out.set_sampled("setup_s", median(&setups), setups.len());
    if trace {
        let plain = passes.iter().find(|p| !p.traced);
        let traced = passes.iter().find(|p| p.traced);
        if let (Some(plain), Some(traced)) = (plain, traced) {
            for (k, v) in &traced.layers {
                out.set(k, *v);
            }
            out.set("trace.overhead_frac", traced.wall_ms / plain.wall_ms - 1.0);
            out.notes.push(format!(
                "trace: untraced pass {:.1} ms, traced pass {:.1} ms",
                plain.wall_ms, traced.wall_ms
            ));
        }
        return out;
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms / 1e3).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    let jobs = passes.len() * NETWORKS.len();
    let wall = median(&walls);
    out.set_sampled("wall_s", wall, walls.len());
    out.set("points_per_s", (NETWORKS.len() * 4) as f64 / wall);
    // Each pass runs the same four jobs, so a percentile is taken per pass
    // and the median over passes reported: pooling would pick single
    // extreme jobs at the boundary between two networks' times.
    let per_pass = |p: f64, times: fn(&Pass) -> &[f64]| {
        median(
            &passes
                .iter()
                .map(|x| percentile(times(x), p))
                .collect::<Vec<_>>(),
        )
    };
    out.set_sampled("p50_ms.light", per_pass(50.0, |x| &x.job_ms), jobs);
    out.set_sampled("p90_ms.light", per_pass(90.0, |x| &x.job_ms), jobs);
    out.set_sampled("p50_ms.busy", per_pass(50.0, |x| &x.done_ms), jobs);
    out.set_sampled("p90_ms.busy", per_pass(90.0, |x| &x.done_ms), jobs);
    out.set("max_rate_jps", jobs as f64 / walls.iter().sum::<f64>());
    out.set_sampled("peak_rss_mb", median(&rss), rss.len());
    out
}

/// Times one worker's start-up: spawn until it reports ready.
fn probe() -> Result<f64, String> {
    let mut w = Worker::spawn(&["oneshot".into(), "--probe".into()])?;
    let (line, at) = w.next_line().ok_or("probe printed nothing")?;
    if line != "ready" {
        return Err(format!("probe said {line:?}"));
    }
    w.finish()?;
    Ok(at.as_secs_f64())
}

/// What one pass worker reported.
struct Pass {
    traced: bool,
    setup_s: f64,
    wall_ms: f64,
    /// Each job's own duration.
    job_ms: Vec<f64>,
    /// Each job's completion, from the pass start.
    done_ms: Vec<f64>,
    rss_mb: f64,
    layers: BTreeMap<String, f64>,
}

/// Runs one pass worker and checks what it reports.
fn pass(traced: bool, out: &mut Outcome) -> Result<Pass, String> {
    let flag = if traced { "1" } else { "0" };
    let mut w = Worker::spawn(&["oneshot".into(), "--trace".into(), flag.into()])?;
    let (line, at) = w.next_line().ok_or("worker printed nothing")?;
    if line != "ready" {
        return Err(format!("worker said {line:?}"));
    }
    let (lines, _) = w.finish()?;
    let mut p = Pass {
        traced,
        setup_s: at.as_secs_f64(),
        wall_ms: 0.0,
        job_ms: Vec::new(),
        done_ms: Vec::new(),
        rss_mb: 0.0,
        layers: BTreeMap::new(),
    };
    let table = &expected().oneshot;
    let mut values = 0;
    for line in &lines {
        let f: Vec<&str> = line.split(' ').collect();
        match f.as_slice() {
            ["job", own, done] => {
                p.job_ms.push(own.parse().map_err(|_| "bad job line")?);
                p.done_ms.push(done.parse().map_err(|_| "bad job line")?);
            }
            ["value", spec, accel, rest @ ..] => {
                values += 1;
                let want = table.get(&(spec.to_string(), accel.to_string()));
                let got = rest.join(" ");
                out.check(want.is_some_and(|w| w.join(" ") == got), || {
                    format!("{spec} {accel}: means {got} differ from the recorded {want:?}")
                });
            }
            ["cache", len, evictions, hits, misses] => {
                // Intent guard: a cold pass compresses every network once
                // and never hits the artifact cache.
                let n = NETWORKS.len().to_string();
                out.check(*len == n && *evictions == "0", || {
                    format!(
                        "cache holds {len} entries after {evictions} evictions, expected {n} and 0"
                    )
                });
                if traced {
                    out.check(*misses == n && *hits == "0", || {
                        format!("{misses} cache misses and {hits} hits, expected {n} and 0")
                    });
                }
            }
            ["wall", ms] => p.wall_ms = ms.parse().map_err(|_| "bad wall line")?,
            ["rss", kb] => p.rss_mb = kb.parse::<f64>().map_err(|_| "bad rss line")? / 1024.0,
            ["layer", name, v] => {
                p.layers
                    .insert(name.to_string(), v.parse().map_err(|_| "bad layer line")?);
            }
            _ => return Err(format!("unexpected worker line {line:?}")),
        }
    }
    out.check(values == NETWORKS.len() * 4, || {
        format!(
            "worker reported {values} accelerator results, expected {}",
            NETWORKS.len() * 4
        )
    });
    Ok(p)
}

/// Worker side of a pass (or a bare start-up probe).
pub fn worker(trace: bool, probe: bool) -> Result<(), String> {
    let cfg = sim_config();
    escalate_core::par::configure_threads(cfg.threads);
    println!("ready");
    if probe {
        return Ok(());
    }
    let registry = trace.then(|| {
        let r = Arc::new(escalate_obs::Registry::new());
        escalate_obs::install(Arc::clone(&r));
        r
    });
    let tracer = Tracer::default();
    let start = Instant::now();
    for spec in NETWORKS {
        let t = Instant::now();
        let runs = if trace {
            traced_job(spec, &cfg, &tracer)?
        } else {
            let p = escalate_models::resolve(spec).map_err(|e| e.to_string())?;
            let run = run_model(&p, &cfg, INPUT_SEEDS).map_err(|e| e.to_string())?;
            [run.eyeriss, run.scnn, run.sparten, run.escalate]
                .map(|a| (a.name, a.cycles, a.dram_bytes, a.energy_pj))
        };
        let own = t.elapsed().as_secs_f64() * 1e3;
        let done = start.elapsed().as_secs_f64() * 1e3;
        println!("job {own} {done}");
        for (name, c, d, e) in runs {
            println!("value {spec} {name} {}", value_bits(c, d, e));
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let obs = registry.map(|r| ObsView::from_snapshot(&r.snapshot()));
    let (hits, misses) = obs.as_ref().map_or((0, 0), |o| {
        (
            o.counter("bench.cache_hits"),
            o.counter("bench.cache_misses"),
        )
    });
    println!(
        "cache {} {} {hits} {misses}",
        artifact_cache_len(),
        artifact_cache_evictions()
    );
    println!("wall {wall_ms}");
    if let Some(obs) = obs {
        let mut layers = BTreeMap::new();
        obs_layer_metrics(&obs, &mut layers);
        let own = [
            ("models.resolve_ms", "models.resolve"),
            ("core.compress_ms", "core.compress"),
            ("sim.workload_ms", "sim.workload"),
            ("sim.escalate_ms", "sim.escalate"),
            ("baselines.ms", "baselines"),
            ("energy.fold_ms", "energy.fold"),
        ];
        let mut covered = 0.0;
        for (metric, span) in own {
            layers.insert(metric.to_string(), tracer.ms(span));
            covered += tracer.ms(span);
        }
        layers.insert(
            "sim.ns_per_position".into(),
            ns_per_position(tracer.ms("sim.escalate"), layers["sim.positions_walked"]),
        );
        layers.insert("trace.coverage".into(), covered / wall_ms);
        eprintln!(
            "oneshot trace: layer spans {covered:.1} ms of {wall_ms:.1} ms wall (remainder {:.1} ms; parallel spans are CPU-summed)",
            wall_ms - covered
        );
        for (k, v) in layers {
            println!("layer {k} {v}");
        }
    }
    let rss = crate::common::peak_rss_kb(std::process::id()).unwrap_or(0);
    println!("rss {rss}");
    Ok(())
}

type AccelMeans = (String, f64, f64, f64);

/// `run_model`, one layer call at a time under the benchmark's spans: the
/// same calls, the same thread structure and the same seed-ordered folds,
/// so the means are bit-identical to the untraced path.
fn traced_job(spec: &str, cfg: &SimConfig, tr: &Tracer) -> Result<[AccelMeans; 4], String> {
    let p = tr
        .time("models.resolve", || escalate_models::resolve(spec))
        .map_err(|e| e.to_string())?;
    let ccfg = CompressionConfig {
        m: cfg.m,
        ..CompressionConfig::default()
    };
    let artifacts = tr
        .time("core.compress", || compress_cached(&p, &ccfg))
        .map_err(|e| e.to_string())?;
    let units = UnitEnergy::table3();
    let seeds = |acc: &dyn Accelerator, caps: &BufferCaps, span: &'static str| {
        let per_seed: Vec<(ModelStats, EnergyBreakdown)> = (0..INPUT_SEEDS)
            .into_par_iter()
            .map(|s| {
                let stats = tr.time(span, || acc.simulate(s, cfg.threads));
                let e = tr.time("energy.fold", || model_energy(&stats, caps, &units));
                (stats, e)
            })
            .collect();
        means(acc.name(), &per_seed)
    };
    let escalate = || {
        let workload = tr.time("sim.workload", || {
            Workload::from_artifacts(&p.name, &artifacts, &p)
        });
        seeds(
            &Escalate::new(&workload, cfg),
            &BufferCaps::from_config(cfg),
            "sim.escalate",
        )
    };
    let bw = tr.time("baselines", || BaselineWorkload::for_profile(&p));
    let caps = BufferCaps::baseline(64 * 1024);
    let base = |model: &dyn LayerModel| seeds(&BaselineSim::new(model, &bw), &caps, "baselines");
    let (eyeriss, scnn, sparten) = (Eyeriss::default(), Scnn::default(), SparTen::default());
    let (esc, (eye, (sc, sp))) = rayon::join(escalate, || {
        rayon::join(
            || base(&eyeriss),
            || rayon::join(|| base(&scnn), || base(&sparten)),
        )
    });
    Ok([eye, sc, sp, esc])
}

/// The seed-ordered mean fold `escalate_bench` uses.
fn means(name: &str, per_seed: &[(ModelStats, EnergyBreakdown)]) -> AccelMeans {
    let n = per_seed.len() as f64;
    let (mut c, mut d, mut e) = (0.0, 0.0, 0.0);
    for (stats, energy) in per_seed {
        c += stats.schedule_cycles() as f64;
        d += stats.total_dram().total() as f64;
        e += energy.total_pj();
    }
    (name.to_string(), c / n, d / n, e / n)
}
