//! Job compilation and execution: each accepted request becomes a
//! [`RunPlan`] executed through the shared run-plan layer
//! ([`execute`]), so served work reuses exactly the code paths
//! — artifact cache, accelerator runners, renderers — of the one-shot
//! CLI, which is what makes a served job's output bit-identical to it.

use crate::proto::Request;
use crate::proto::MANIFEST_SCHEMA;
use escalate_bench::experiments::{ExpError, ReportOptions, Table};
use escalate_bench::plan::{execute, unit_seed, RunPlan, UnitOutput, UnitSink, WorkUnit};
use escalate_bench::{
    compress_cached, render, run_accelerator_by_name, AccelRun, ModelRun, ACCELERATOR_NAMES,
};
use escalate_core::pipeline::CompressionConfig;
use escalate_core::ModelCompression;
use escalate_models::ModelProfile;
use escalate_obs::JsonWriter;
use escalate_sim::{ScheduleKind, SimConfig};
use std::sync::Mutex;

/// A validated, ready-to-run job.
pub enum CompiledJob {
    /// Four-accelerator comparison: one work unit per design.
    Simulate(SimulatePlan),
    /// Compression pipeline: one work unit.
    Compress(CompressPlan),
    /// One registered experiment: one work unit.
    Report(ReportPlan),
}

impl CompiledJob {
    /// Validates a job request (model exists, experiment is registered)
    /// and compiles it into its plan. Control verbs are not jobs.
    ///
    /// # Errors
    ///
    /// Returns the user-facing message for the `error` frame.
    pub fn compile(req: &Request) -> Result<CompiledJob, String> {
        // One resolver for every model spec the daemon accepts — the same
        // zoo-name / `@FILE` / `gen:` grammar as the CLI. The profile is
        // resolved once at compile time (a network file is read here, not
        // re-read per work unit).
        let resolve = |spec: &str| escalate_models::resolve(spec).map_err(|e| e.to_string());
        match req {
            Request::Simulate {
                model,
                m,
                seeds,
                schedule,
            } => Ok(CompiledJob::Simulate(SimulatePlan {
                profile: resolve(model)?,
                cfg: SimConfig {
                    schedule: ScheduleKind::parse(schedule)?,
                    ..SimConfig::default().with_m(positive_m(*m)?)
                },
                seeds: *seeds,
                results: Mutex::new((0..ACCELERATOR_NAMES.len()).map(|_| None).collect()),
            })),
            Request::Compress {
                model,
                m,
                qat,
                seed,
                layers,
            } => Ok(CompiledJob::Compress(CompressPlan {
                profile: resolve(model)?,
                cfg: CompressionConfig {
                    m: *m,
                    qat_epochs: *qat,
                    seed: *seed,
                    ..CompressionConfig::default()
                },
                layers: *layers,
                output: Mutex::new(None),
            })),
            Request::Report { experiment } => {
                if escalate_bench::experiments::find(experiment).is_none() {
                    return Err(format!(
                        "unknown experiment {experiment:?} (see `escalate report --list`)"
                    ));
                }
                Ok(CompiledJob::Report(ReportPlan {
                    experiment: experiment.clone(),
                    output: Mutex::new(None),
                }))
            }
            other => Err(format!("{:?} is not a job verb", other.verb())),
        }
    }

    /// The coalescing identity: two submissions with equal keys request
    /// bit-identical work (every config field participates, floats by
    /// their `Debug` form, which prints f64s losslessly enough to never
    /// merge distinct configs — serve only ever sets whole-valued
    /// knobs). The queue uses this to fan one execution out to every
    /// client waiting on the same work.
    pub fn coalesce_key(&self) -> String {
        // Custom networks make the model *name* an insufficient identity —
        // two `@FILE` submissions can share a name but describe different
        // layers — so the profile fingerprint joins the key. The `{:?}` of
        // the config covers every knob, the schedule included.
        match self {
            CompiledJob::Simulate(p) => format!(
                "simulate|{}#{:016x}|{:?}|{}",
                p.profile.name,
                p.profile.fingerprint(),
                p.cfg,
                p.seeds
            ),
            CompiledJob::Compress(p) => format!(
                "compress|{}#{:016x}|{:?}|{}",
                p.profile.name,
                p.profile.fingerprint(),
                p.cfg,
                p.layers
            ),
            CompiledJob::Report(p) => format!("report|{}", p.experiment),
        }
    }

    /// The verb label jobs are counted/timed under.
    pub fn verb(&self) -> &'static str {
        match self {
            CompiledJob::Simulate(_) => "simulate",
            CompiledJob::Compress(_) => "compress",
            CompiledJob::Report(_) => "report",
        }
    }

    /// Runs the job, streaming unit records through `sink`, and returns
    /// the rendered output text (what the one-shot CLI prints).
    ///
    /// # Errors
    ///
    /// Returns the first unit failure in unit order, or the sink's write
    /// failure (a disconnected client aborts the run early).
    pub fn run(&self, sink: &mut dyn UnitSink) -> Result<String, ExpError> {
        match self {
            CompiledJob::Simulate(plan) => {
                execute(plan, sink)?;
                plan.render()
            }
            CompiledJob::Compress(plan) => {
                execute(plan, sink)?;
                plan.take_output()
            }
            CompiledJob::Report(plan) => {
                execute(plan, sink)?;
                plan.take_output()
            }
        }
    }
}

/// Rejects `m = 0` (no basis kernels) before [`SimConfig::with_m`] would
/// assert on it.
fn positive_m(m: usize) -> Result<usize, String> {
    if m == 0 {
        return Err("m must be positive, got 0".into());
    }
    Ok(m)
}

fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One unit per accelerator design; units stream a manifest-style record
/// each, and the typed results assemble into the comparison table.
pub struct SimulatePlan {
    profile: ModelProfile,
    cfg: SimConfig,
    seeds: u64,
    /// One slot per design, filled by `run_unit` (units run on worker
    /// threads; the plan is shared by reference).
    results: Mutex<Vec<Option<AccelRun>>>,
}

impl SimulatePlan {
    /// Assembles the four unit results and renders the comparison table.
    fn render(&self) -> Result<String, ExpError> {
        let mut slots = lock_recover(&self.results);
        let mut take = |i: usize| {
            slots[i]
                .take()
                .ok_or_else(|| ExpError::Msg("simulate unit produced no result".into()))
        };
        let run = ModelRun {
            model: self.profile.name.clone(),
            eyeriss: take(0)?,
            scnn: take(1)?,
            sparten: take(2)?,
            escalate: take(3)?,
        };
        Ok(render::render_simulate(&run, &self.cfg))
    }
}

impl RunPlan for SimulatePlan {
    fn name(&self) -> &str {
        "serve/simulate"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok(ACCELERATOR_NAMES
            .iter()
            .enumerate()
            .map(|(i, accel)| WorkUnit {
                key: format!("simulate/{}/{accel}", self.profile.name),
                seed: unit_seed(self.seeds, i as u64),
                index: i,
            })
            .collect())
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let accel = ACCELERATOR_NAMES[unit.index];
        let run = run_accelerator_by_name(accel, &self.profile, &self.cfg, self.seeds)
            .map_err(ExpError::Pipeline)?;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("key", &unit.key);
        w.field_str("schema", MANIFEST_SCHEMA);
        w.field_str("name", &run.name);
        w.field_f64("mean_cycles", run.cycles);
        w.field_f64("mean_dram_bytes", run.dram_bytes);
        w.field_f64("mean_energy_pj", run.energy_pj);
        w.end_object();
        let record = w.finish();
        lock_recover(&self.results)[unit.index] = Some(run);
        Ok(UnitOutput {
            table: Table::default(),
            jsonl: vec![record],
        })
    }
}

/// One-unit plan running the compression pipeline through the artifact
/// cache (identical configs in flight dedupe via its single-flight
/// slots).
pub struct CompressPlan {
    profile: ModelProfile,
    cfg: CompressionConfig,
    layers: bool,
    output: Mutex<Option<String>>,
}

impl CompressPlan {
    fn take_output(&self) -> Result<String, ExpError> {
        lock_recover(&self.output)
            .take()
            .ok_or_else(|| ExpError::Msg("compress unit produced no output".into()))
    }
}

impl RunPlan for CompressPlan {
    fn name(&self) -> &str {
        "serve/compress"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok(vec![WorkUnit {
            key: format!("compress/{}/m{}", self.profile.name, self.cfg.m),
            seed: self.cfg.seed,
            index: 0,
        }])
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let p = &self.profile;
        let artifacts = compress_cached(p, &self.cfg).map_err(ExpError::Pipeline)?;
        let result = ModelCompression {
            model_name: p.name.clone(),
            layers: artifacts.iter().map(|a| a.stats.clone()).collect(),
        };
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("key", &unit.key);
        w.field_str("schema", MANIFEST_SCHEMA);
        w.field_str("model", &p.name);
        w.field_f64("compression_ratio", result.compression_ratio());
        w.field_f64("compressed_mb", result.compressed_size_mb());
        w.field_f64("coeff_sparsity", result.coeff_sparsity());
        w.end_object();
        let record = w.finish();
        let text =
            render::render_compress(&p.name, p.baseline_top1, self.cfg.m, &result, self.layers);
        *lock_recover(&self.output) = Some(text);
        Ok(UnitOutput {
            table: Table::default(),
            jsonl: vec![record],
        })
    }
}

/// One-unit plan running a registered experiment through the report
/// runner (same parser and renderer as `escalate report <NAME>`).
pub struct ReportPlan {
    experiment: String,
    output: Mutex<Option<String>>,
}

impl ReportPlan {
    fn take_output(&self) -> Result<String, ExpError> {
        lock_recover(&self.output)
            .take()
            .ok_or_else(|| ExpError::Msg("report unit produced no output".into()))
    }
}

impl RunPlan for ReportPlan {
    fn name(&self) -> &str {
        "serve/report"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok(vec![WorkUnit {
            key: format!("report/{}", self.experiment),
            seed: 0,
            index: 0,
        }])
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let opts = ReportOptions::parse([self.experiment.clone()]).map_err(ExpError::Msg)?;
        let mut buf = Vec::new();
        escalate_bench::experiments::run_report(&opts, &mut buf)?;
        let text = String::from_utf8(buf)
            .map_err(|e| ExpError::Msg(format!("report produced non-UTF-8 output: {e}")))?;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("key", &unit.key);
        w.field_str("schema", MANIFEST_SCHEMA);
        w.field_str("experiment", &self.experiment);
        w.end_object();
        let record = w.finish();
        *lock_recover(&self.output) = Some(text);
        Ok(UnitOutput {
            table: Table::default(),
            jsonl: vec![record],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects streamed records in memory.
    #[derive(Default)]
    struct MemSink {
        records: Vec<String>,
    }

    impl UnitSink for MemSink {
        fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
            self.records.extend(out.jsonl);
            Ok(())
        }
    }

    #[test]
    fn compile_validates_models_and_experiments() {
        let bad = Request::Simulate {
            model: "LeNet".into(),
            m: 6,
            seeds: 1,
            schedule: "serial".into(),
        };
        let Err(e) = CompiledJob::compile(&bad) else {
            panic!("unknown model must not compile")
        };
        assert!(e.contains("LeNet"), "{e}");
        let bad = Request::Simulate {
            model: "MobileNet".into(),
            m: 6,
            seeds: 1,
            schedule: "warp-speed".into(),
        };
        let Err(e) = CompiledJob::compile(&bad) else {
            panic!("unknown schedule must not compile")
        };
        assert!(e.contains("warp-speed"), "{e}");
        let bad = Request::Report {
            experiment: "fig99".into(),
        };
        let Err(e) = CompiledJob::compile(&bad) else {
            panic!("unknown experiment must not compile")
        };
        assert!(e.contains("fig99"), "{e}");
        assert!(CompiledJob::compile(&Request::Ping).is_err());
    }

    #[test]
    fn simulate_job_streams_four_manifest_records_and_renders_the_table() {
        let job = CompiledJob::compile(&Request::Simulate {
            model: "MobileNet".into(),
            m: 6,
            seeds: 1,
            schedule: "serial".into(),
        })
        .unwrap();
        let mut sink = MemSink::default();
        let out = job.run(&mut sink).unwrap();
        assert_eq!(sink.records.len(), 4, "one record per design");
        for (record, accel) in sink.records.iter().zip(ACCELERATOR_NAMES) {
            assert_eq!(
                escalate_obs::jsonl::json_string_field(record, "schema").as_deref(),
                Some(MANIFEST_SCHEMA)
            );
            assert_eq!(
                escalate_obs::jsonl::json_string_field(record, "name").as_deref(),
                Some(accel)
            );
            assert!(escalate_obs::jsonl::json_f64_field(record, "mean_cycles").unwrap() > 0.0);
        }
        assert!(out.contains("vs Eyeriss"), "{out}");
        assert!(out.contains("ESCALATE"), "{out}");
    }

    #[test]
    fn generator_specs_compile_and_schedules_separate_coalesce_keys() {
        let req = |schedule: &str| Request::Simulate {
            model: "gen:grouped:blocks=1,c=16,x=8".into(),
            m: 6,
            seeds: 1,
            schedule: schedule.into(),
        };
        let serial = CompiledJob::compile(&req("serial")).unwrap();
        let pipelined = CompiledJob::compile(&req("pipelined")).unwrap();
        assert_ne!(
            serial.coalesce_key(),
            pipelined.coalesce_key(),
            "a pipelined run is different work; it must not coalesce with a serial one"
        );
        // Same spec twice is the same work.
        assert_eq!(
            serial.coalesce_key(),
            CompiledJob::compile(&req("serial")).unwrap().coalesce_key()
        );
    }

    #[test]
    fn compress_job_renders_the_cli_report() {
        let job = CompiledJob::compile(&Request::Compress {
            model: "MobileNet".into(),
            m: 6,
            qat: 0,
            seed: 42,
            layers: false,
        })
        .unwrap();
        let mut sink = MemSink::default();
        let out = job.run(&mut sink).unwrap();
        assert_eq!(sink.records.len(), 1);
        assert!(out.starts_with("MobileNet (M=6):"), "{out}");
    }
}
