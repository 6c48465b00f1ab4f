//! Shared plumbing: statistics, the benchmark's own span recorder, the
//! view of escalate-obs snapshots, worker processes and the metric tables.

use escalate_obs::Snapshot;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports in its untraced run, with
/// units. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("p50_ms.light", "ms"),
    ("p90_ms.light", "ms"),
    ("p50_ms.busy", "ms"),
    ("p90_ms.busy", "ms"),
    ("max_rate_jps", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports in its traced run. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("models.resolve_ms", "ms"),
    ("core.compress_ms", "ms"),
    ("core.units", "count"),
    ("core.synth_ms", "ms_cpu"),
    ("core.decompose_ms", "ms_cpu"),
    ("core.quant_ms", "ms_cpu"),
    ("core.reconstruct_ms", "ms_cpu"),
    ("bench.artifact_hit_rate", "ratio"),
    ("bench.cache_evictions", "count"),
    ("sim.workload_ms", "ms"),
    ("sim.escalate_ms", "ms_cpu"),
    ("sim.positions_walked", "count"),
    ("sim.ns_per_position", "ns"),
    ("sim.ca_kernel_ms", "ms_cpu"),
    ("sim.plan_reuse_rate", "ratio"),
    ("sim.derived_hit_rate", "ratio"),
    ("sim.walk_hits", "count"),
    ("baselines.ms", "ms_cpu"),
    ("energy.fold_ms", "ms_cpu"),
    ("sweep.frontier_comparisons", "count"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.retries", "count"),
    ("serve.gen_late_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, sweeps, served requests).
    pub attempted: u64,
    /// Operations that failed, were refused for good or produced wrong
    /// output, plus failed workload-intent guards.
    pub failed: u64,
    /// Why each failure counted, for the log.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample count behind each percentile or median.
    pub samples: BTreeMap<String, usize>,
    /// Free-form provenance notes.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed operation or guard with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Records a check: a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    /// Sets a percentile/median metric and the sample count behind it.
    pub fn set_sampled(&mut self, name: &str, v: f64, n: usize) {
        self.set(name, v);
        self.samples.insert(name.to_string(), n);
    }
}

/// Percentile (`p` in 0..=100) of unsorted samples by linear
/// interpolation between closest ranks; 0 when there are none. The 50th
/// percentile is the median.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of unsorted samples; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// 64-bit FNV-1a digest of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A splitmix64 stream: the benchmark's only source of randomness.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's own spans: wall time of each call it makes into a
/// layer, summed per name. Calls made from several threads at once sum
/// their durations, so such totals are CPU-summed, not wall.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<BTreeMap<&'static str, Duration>>,
}

impl Tracer {
    /// Runs `f`, adding its wall time to span `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let took = t.elapsed();
        *self
            .spans
            .lock()
            .expect("tracer lock poisoned by a panicking layer call")
            .entry(name)
            .or_default() += took;
        out
    }

    /// Total milliseconds recorded under `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking layer call")
            .get(name)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }
}

/// Counters and span totals of an escalate-obs registry, as deltas or
/// absolute values.
#[derive(Debug, Default, Clone)]
pub struct ObsView {
    counters: BTreeMap<String, u64>,
    span_ms: BTreeMap<String, f64>,
}

impl ObsView {
    /// Copies a snapshot taken in this process.
    pub fn from_snapshot(s: &Snapshot) -> ObsView {
        ObsView {
            counters: s.counters.clone(),
            span_ms: s
                .spans
                .iter()
                .map(|(k, v)| (k.clone(), v.total_ms()))
                .collect(),
        }
    }

    /// Parses the registry JSON a daemon's `metrics` frame embeds
    /// (`{"counters": {...}, "histograms": {...}, "spans": {...}}`).
    pub fn from_registry_json(json: &str) -> Option<ObsView> {
        let section = |name: &str| -> Option<&str> {
            let key = format!("\"{name}\": {{");
            Some(&json[json.find(&key)? + key.len()..])
        };
        let mut view = ObsView::default();
        let counters = section("counters")?;
        let counters = &counters[..counters.find('}')?];
        for pair in counters.split(", ").filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once(": ")?;
            view.counters
                .insert(k.trim_matches('"').to_string(), v.parse().ok()?);
        }
        // Each span is `"name": {"count": N, "total_ms": X, "max_ms": Y}`.
        let mut rest = section("spans")?;
        while let Some(open) = rest.find("\": {\"count\": ") {
            let name_start = rest[..open].rfind('"')? + 1;
            let name = &rest[name_start..open];
            let body = &rest[open..];
            let close = body.find('}')?;
            let total = escalate_obs::json_f64_field(&body[..=close], "total_ms")?;
            view.span_ms.insert(name.to_string(), total);
            rest = &body[close..];
        }
        Some(view)
    }

    /// `self - earlier`, metric by metric.
    pub fn since(&self, earlier: &ObsView) -> ObsView {
        ObsView {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.counter(k).min(*v)))
                .collect(),
            span_ms: self
                .span_ms
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.span(k)))
                .collect(),
        }
    }

    /// A counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A span total in ms (0 when never recorded).
    pub fn span(&self, name: &str) -> f64 {
        self.span_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span named `prefix` or `prefix/<label>`.
    pub fn span_family(&self, prefix: &str) -> f64 {
        self.span_ms
            .iter()
            .filter(|(k, _)| *k == prefix || k.starts_with(&format!("{prefix}/")))
            .map(|(_, v)| v)
            .sum()
    }
}

/// `hits / (hits + misses)`, 0 when neither happened.
pub fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer metrics read from escalate-obs counters and spans: the
/// compression pipeline, the artifact and derived-state caches, the CA
/// kernel and the sweep frontier.
pub fn obs_layer_metrics(obs: &ObsView, out: &mut BTreeMap<String, f64>) {
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put("core.units", obs.counter("pipeline.units") as f64);
    put("core.synth_ms", obs.span("pipeline.synth"));
    put("core.decompose_ms", obs.span("pipeline.decompose"));
    put("core.quant_ms", obs.span("pipeline.quant"));
    put("core.reconstruct_ms", obs.span("pipeline.reconstruct"));
    put(
        "bench.artifact_hit_rate",
        rate(
            obs.counter("bench.cache_hits"),
            obs.counter("bench.cache_misses"),
        ),
    );
    put(
        "bench.cache_evictions",
        obs.counter("bench.cache_evictions") as f64,
    );
    put(
        "sim.positions_walked",
        obs.counter("sim.positions_walked") as f64,
    );
    put("sim.ca_kernel_ms", obs.span("ca.kernel"));
    put(
        "sim.plan_reuse_rate",
        rate(
            obs.counter("ca.plan_reuses"),
            obs.counter("ca.plan_compiles"),
        ),
    );
    put(
        "sim.derived_hit_rate",
        rate(
            obs.counter("sweep.derived_hits"),
            obs.counter("sweep.derived_misses"),
        ),
    );
    put("sim.walk_hits", obs.counter("sweep.walk_hits") as f64);
    put(
        "sweep.frontier_comparisons",
        obs.counter("sweep.frontier_comparisons") as f64,
    );
}

/// Nanoseconds of simulation per walked position (0 without positions).
pub fn ns_per_position(escalate_ms: f64, positions: f64) -> f64 {
    if positions > 0.0 {
        escalate_ms * 1e6 / positions
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A child copy of this benchmark running one unit of a batch workload.
/// It reports on stdout, one `key value...` line per fact.
pub struct Worker {
    child: Child,
    lines: BufReader<ChildStdout>,
    spawned: Instant,
}

impl Worker {
    /// Starts `perfbench worker <args...>`.
    pub fn spawn(args: &[String]) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(exe)
            .arg("worker")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start worker: {e}"))?;
        let stdout = child.stdout.take().expect("worker stdout is piped");
        Ok(Worker {
            child,
            lines: BufReader::new(stdout),
            spawned,
        })
    }

    /// The next report line, and the time since spawn when it arrived;
    /// `None` at end of output.
    pub fn next_line(&mut self) -> Option<(String, Duration)> {
        let mut line = String::new();
        match self.lines.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some((line.trim_end().to_string(), self.spawned.elapsed())),
        }
    }

    /// Reads every remaining line, then waits for the worker to exit.
    pub fn finish(mut self) -> Result<(Vec<String>, Duration), String> {
        let mut rest = Vec::new();
        while let Some((line, _)) = self.next_line() {
            rest.push(line);
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for worker: {e}"))?;
        let took = self.spawned.elapsed();
        if !status.success() {
            return Err(format!("worker exited with {status}"));
        }
        Ok((rest, took))
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // A worker abandoned on an error path must not outlive the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
