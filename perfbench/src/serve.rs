//! `serve_open`: a seeded open-loop arrival schedule sent to an
//! `escalate serve` daemon (2 workers) by a single-threaded generator.
//!
//! Jobs are pipelined over one connection and matched to their replies
//! by job id: `accepted`/`rejected` frames answer the requests in send
//! order, later frames carry the id. Each job is
//! timed from its due time, so a late generator or a stalled daemon shows
//! in the latency of every job behind it. The run sets up three daemons
//! (start plus artifact-cache warm-up; the last one serves the schedule),
//! then plays a light and a busy fixed-rate phase and a closed saturation
//! phase that measures the highest sustainable rate.

use crate::common::{
    fnv64, median, ns_per_position, obs_layer_metrics, percentile, rate, ObsView, Outcome, SplitMix,
};
use crate::expected::expected;
use escalate_obs::{json_f64_field, json_string_field, json_u64_field};
use escalate_serve::Request;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The generated network every run keeps warm beside two zoo nets.
const GEN: &str = "gen:bottleneck:blocks=8,width=128";

/// Networks whose artifacts set-up puts in the daemon's cache.
const WARM: [&str; 3] = ["MobileNet", "MobileNetV2", GEN];

/// Compression seeds cold jobs draw from, each a distinct cache key
/// (the warm entries use the default seed, 42).
const COLD_SEEDS: std::ops::Range<u64> = 1000..1048;

/// Daemon job workers.
const WORKERS: usize = 2;

/// Daemon queue capacity.
const QUEUE: usize = 32;

/// Artifact-cache capacity: the warm set plus eight cold entries. Cold
/// jobs evict each other once eight are resident, while every warm entry
/// is used again within any eight consecutive cold jobs and stays.
const CACHE: usize = WARM.len() + 8;

/// Arrival rate of the light phase (jobs/s).
const LIGHT_RATE: f64 = 4.0;

/// Arrival rate of the busy phase (jobs/s).
const BUSY_RATE: f64 = 7.0;

/// Jobs in the closed saturation phase (six cycles of its variants) and
/// how many it keeps in flight.
const FLOOD_JOBS: usize = 72;
const FLOOD_IN_FLIGHT: usize = 4;

/// Set-ups per run (daemon start plus warm-up); the median is reported.
const SETUPS: usize = 3;

fn simulate(model: &str, m: usize, seeds: u64, schedule: &str) -> Request {
    Request::Simulate {
        model: model.into(),
        m,
        seeds,
        schedule: schedule.into(),
    }
}

fn warm_reqs() -> Vec<Request> {
    WARM.iter().map(|n| simulate(n, 6, 1, "serial")).collect()
}

/// Distinct warm variants the saturation phase cycles through, heaviest
/// first (MobileNet, then MobileNetV2, then the generated net; two input
/// seeds before one; pipelined before serial), so no two requests in
/// flight coalesce and each cycle ends with its lightest jobs.
fn flood_reqs() -> Vec<Request> {
    let mut v = Vec::new();
    for n in WARM {
        for seeds in [2, 1] {
            for schedule in ["pipelined", "serial"] {
                v.push(simulate(n, 6, seeds, schedule));
            }
        }
    }
    v
}

/// Requests that miss the warm cache: compressions of the generated net
/// under fresh seeds, all of like cost.
fn cold_reqs() -> Vec<Request> {
    COLD_SEEDS
        .map(|seed| Request::Compress {
            model: GEN.into(),
            m: 6,
            qat: 0,
            seed,
            layers: false,
        })
        .collect()
}

fn report_req() -> Request {
    Request::Report {
        experiment: "table4".into(),
    }
}

/// Every request the workload can send (the reference outputs cover
/// exactly these).
pub fn catalogue() -> Vec<Request> {
    let mut all = flood_reqs();
    all.extend(cold_reqs());
    all.push(report_req());
    all
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Warm,
    Duplicate,
    Cold,
    Report,
}

/// One scheduled job and what happened to it (times in seconds from its
/// phase start).
#[derive(Debug, Clone)]
struct Job {
    req: Request,
    class: Class,
    due: f64,
    sent: Option<f64>,
    admitted: Option<f64>,
    done: Option<f64>,
    exec_ms: f64,
    retry_at: Option<f64>,
    failed: bool,
}

impl Job {
    fn new(req: Request, class: Class, due: f64) -> Job {
        Job {
            req,
            class,
            due,
            sent: None,
            admitted: None,
            done: None,
            exec_ms: 0.0,
            retry_at: None,
            failed: false,
        }
    }

    fn finished(&self) -> bool {
        self.done.is_some() || self.failed
    }

    fn latency_ms(&self) -> Option<f64> {
        Some((self.done? - self.due) * 1e3)
    }
}

/// Plans one open-loop phase: `rate` jobs/s for `seconds`. Arrival slots
/// come in blocks of 19: 9 MobileNet, 3 MobileNetV2 and 2 generated-net
/// warm jobs and one `report table4` in seeded order, with a cold job
/// (while any are left) in every fifth slot. One MobileNet job per block
/// has an exact duplicate arriving with it. Slots are evenly spaced with
/// a seeded jitter of a fifth of a slot either way.
///
/// Latency classes are sized so that the percentiles fall inside them,
/// not on a boundary: reports and small warm jobs take the lowest 30%,
/// MobileNet (half the jobs) holds the median and cold jobs (the top 20%)
/// hold the 90th percentile.
fn open_schedule(rng: &mut SplitMix, rate: f64, seconds: f64, cold: &mut Vec<Request>) -> Vec<Job> {
    let slots = (rate * seconds).round().max(1.0) as usize;
    let warm = warm_reqs();
    let mut jobs = Vec::new();
    let mut slot = 0;
    while slot < slots {
        let mut block: Vec<(Request, Class)> = Vec::new();
        for (req, n) in warm.iter().zip([9, 3, 2]) {
            block.extend(std::iter::repeat_n((req.clone(), Class::Warm), n));
        }
        block.push((report_req(), Class::Report));
        rng.shuffle(&mut block);
        let dup = rng.below(block.len());
        let dup = (dup..block.len())
            .chain(0..dup)
            .find(|&i| block[i].0 == warm[0])
            .expect("every block holds MobileNet jobs");
        let mut arrivals: Vec<(Request, Class, bool)> = Vec::new();
        for (i, (req, class)) in block.into_iter().enumerate() {
            if i % 4 == 0 {
                arrivals.push(match cold.pop() {
                    Some(c) => (c, Class::Cold, false),
                    None => (warm[0].clone(), Class::Warm, false),
                });
            }
            arrivals.push((req, class, i == dup));
        }
        for (req, class, duplicated) in arrivals {
            if slot == slots {
                break;
            }
            let due = (slot as f64 + 0.3 + 0.4 * rng.unit()) / rate;
            if duplicated {
                jobs.push(Job::new(req.clone(), Class::Duplicate, due));
            }
            jobs.push(Job::new(req, class, due));
            slot += 1;
        }
    }
    jobs.sort_by(|a, b| a.due.total_cmp(&b.due));
    jobs
}

/// The generator's connection: a read buffer and the requests still
/// waiting for their `accepted`/`rejected` answer, in send order.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    admits: VecDeque<usize>,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            buf: Vec::new(),
            admits: VecDeque::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .set_nonblocking(false)
            .and_then(|()| self.stream.write_all(format!("{line}\n").as_bytes()))
            .map_err(|e| format!("send: {e}"))
    }

    /// Waits up to about `wait` for data, then returns the complete frame
    /// lines received so far and whether the daemon has closed the
    /// connection. Socket read timeouts round up to whole kernel ticks
    /// (several ms), so the read blocks only while the wait is long and
    /// the last stretch before a due time is polled in short sleeps.
    fn frames(&mut self, wait: Duration) -> Result<(Vec<String>, bool), String> {
        const TICK_SLACK: Duration = Duration::from_millis(10);
        let block = wait > TICK_SLACK + Duration::from_millis(1);
        let io = |e: std::io::Error| format!("socket: {e}");
        self.stream.set_nonblocking(!block).map_err(io)?;
        if block {
            self.stream
                .set_read_timeout(Some(wait - TICK_SLACK))
                .map_err(io)?;
        }
        let mut chunk = [0u8; 65536];
        let closed = match self.stream.read(&mut chunk) {
            Ok(0) => true,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                false
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !block {
                    std::thread::sleep(wait.min(Duration::from_micros(500)));
                }
                false
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let mut lines = Vec::new();
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=end).collect();
            lines.push(String::from_utf8_lossy(&line[..end]).into_owned());
        }
        Ok((lines, closed))
    }
}

fn fail_job(job: &mut Job, why: String, out: &mut Outcome) {
    job.failed = true;
    out.fail(why);
}

/// The generator: one thread, one connection (so never more of either
/// than `nproc`), blocking on the socket until the next frame or the next
/// due time.
struct Gen {
    conn: Conn,
    retries: u64,
}

impl Gen {
    fn connect(port: u16) -> Result<Gen, String> {
        Ok(Gen {
            conn: Conn::open(port)?,
            retries: 0,
        })
    }

    fn send(&mut self, jobs: &mut [Job], i: usize, now: f64) -> Result<(), String> {
        self.conn.send(&jobs[i].req.to_line())?;
        self.conn.admits.push_back(i);
        jobs[i].sent.get_or_insert(now);
        jobs[i].retry_at = None;
        Ok(())
    }

    /// Plays `jobs` (sorted by due time) and returns the phase wall time
    /// in seconds (start to the last reply). With `closed = Some(k)` the
    /// phase is closed-loop instead: each job is due as soon as fewer than
    /// `k` are in flight.
    fn play(&mut self, jobs: &mut [Job], closed: Option<usize>, out: &mut Outcome) -> f64 {
        let table = &expected().serve;
        let limit = jobs.last().map_or(0.0, |j| j.due) + 90.0;
        let t0 = Instant::now();
        let mut next = 0;
        let mut in_flight = 0;
        let mut finished = 0;
        let mut last = 0.0f64;
        let mut ids: HashMap<u64, usize> = HashMap::new();
        out.attempted += jobs.len() as u64;
        while finished < jobs.len() {
            let now = t0.elapsed().as_secs_f64();
            if now > limit {
                for job in jobs.iter_mut().filter(|j| !j.finished()) {
                    fail_job(job, format!("{} timed out", job.req.to_line()), out);
                }
                break;
            }
            while next < jobs.len() {
                match closed {
                    Some(k) if in_flight < k => jobs[next].due = now,
                    Some(_) => break,
                    None if jobs[next].due <= now => {}
                    None => break,
                }
                if let Err(e) = self.send(jobs, next, now) {
                    fail_job(&mut jobs[next], e, out);
                    finished += 1;
                } else {
                    in_flight += 1;
                }
                next += 1;
            }
            for i in 0..next {
                if jobs[i].retry_at.is_some_and(|t| t <= now) {
                    if let Err(e) = self.send(jobs, i, now) {
                        fail_job(&mut jobs[i], e, out);
                        finished += 1;
                        in_flight -= 1;
                    }
                }
            }
            // Sleep on the socket until a frame arrives or the next job or
            // retry falls due.
            let wake = jobs[..next]
                .iter()
                .filter_map(|j| j.retry_at)
                .chain(jobs.get(next).filter(|_| closed.is_none()).map(|j| j.due))
                .fold(now + 0.05, f64::min);
            let frames = match self
                .conn
                .frames(Duration::from_secs_f64((wake - now).max(0.0)))
            {
                Ok((f, false)) => f,
                Ok((_, true)) | Err(_) => {
                    for job in jobs.iter_mut().filter(|j| !j.finished()) {
                        let why =
                            format!("{}: the daemon closed the connection", job.req.to_line());
                        fail_job(job, why, out);
                    }
                    return t0.elapsed().as_secs_f64();
                }
            };
            let now = t0.elapsed().as_secs_f64();
            for frame in frames {
                let kind = json_string_field(&frame, "type").unwrap_or_default();
                let id = json_u64_field(&frame, "job");
                let job_index = match (kind.as_str(), id) {
                    ("accepted" | "rejected", _) | ("error", None) => self.conn.admits.pop_front(),
                    (_, Some(id)) => ids.get(&id).copied(),
                    _ => None,
                };
                let Some(i) = job_index else {
                    out.fail(format!("unmatched frame {frame:.120}"));
                    continue;
                };
                let job = &mut jobs[i];
                match kind.as_str() {
                    "accepted" => {
                        job.admitted.get_or_insert(now);
                        ids.insert(id.unwrap_or(0), i);
                    }
                    "rejected" => {
                        self.retries += 1;
                        let wait = json_u64_field(&frame, "retry_after_ms").unwrap_or(250);
                        job.retry_at = Some(now + wait as f64 / 1e3);
                    }
                    "unit" => {}
                    "done" => {
                        job.done = Some(now);
                        job.exec_ms = json_f64_field(&frame, "ms").unwrap_or(0.0);
                        let output = json_string_field(&frame, "output").unwrap_or_default();
                        if table.get(&job.req.to_line()) != Some(&fnv64(output.as_bytes())) {
                            let why = format!(
                                "{}: served output differs from the one-shot output",
                                job.req.to_line()
                            );
                            fail_job(job, why, out);
                        }
                        finished += 1;
                        in_flight -= 1;
                        last = now;
                    }
                    _ => {
                        fail_job(job, format!("{}: {frame:.200}", job.req.to_line()), out);
                        finished += 1;
                        in_flight -= 1;
                    }
                }
            }
        }
        last
    }

    /// Sends one control request and waits for the frame of type `kind`.
    fn control(&mut self, verb: &str, kind: &str) -> Result<String, String> {
        self.conn.send(&format!("{{\"verb\": \"{verb}\"}}"))?;
        let deadline = Instant::now() + Duration::from_secs(120);
        while Instant::now() < deadline {
            let (frames, closed) = self.conn.frames(Duration::from_millis(50))?;
            if let Some(frame) = frames
                .into_iter()
                .find(|f| json_string_field(f, "type").as_deref() == Some(kind))
            {
                return Ok(frame);
            }
            if closed {
                break;
            }
        }
        Err(format!("no {kind} frame"))
    }

    fn metrics(&mut self) -> Result<ObsView, String> {
        let frame = self.control("metrics", "metrics")?;
        ObsView::from_registry_json(&frame).ok_or_else(|| "unparseable metrics frame".to_string())
    }
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    fn start(escalate: &Path, work_dir: &Path, tag: usize) -> Result<Daemon, String> {
        let port_file: PathBuf = work_dir.join(format!("serve-{}-{tag}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut child = Command::new(escalate)
            .args([
                "serve",
                "--workers",
                &WORKERS.to_string(),
                "--queue",
                &QUEUE.to_string(),
            ])
            .args(["--cache", &CACHE.to_string(), "--port-file"])
            // One thread per job: the two workers then each own a core and
            // a job's run time does not depend on what the other runs.
            .env("ESCALATE_THREADS", "1")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", escalate.display()))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                return Ok(Daemon { child, port });
            }
            if Instant::now() > deadline || matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the daemon did not start".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks for a drain and waits for the process to exit.
    fn shutdown(mut self, gen: &mut Gen) -> Result<(), String> {
        gen.control("shutdown", "shutdown")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts a daemon and fills its artifact cache with the warm set.
fn set_up(
    escalate: &Path,
    work_dir: &Path,
    tag: usize,
    out: &mut Outcome,
) -> Result<(Daemon, Gen, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(escalate, work_dir, tag)?;
    let mut gen = Gen::connect(daemon.port)?;
    let mut jobs: Vec<Job> = warm_reqs()
        .into_iter()
        .map(|r| Job::new(r, Class::Warm, 0.0))
        .collect();
    gen.play(&mut jobs, None, out);
    Ok((daemon, gen, t.elapsed().as_secs_f64()))
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs the workload: set-ups, light, busy and saturation phases.
pub fn run(seed: u64, seconds: f64, escalate: &Path, work_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(seed, seconds, escalate, work_dir, &mut out) {
        out.fail(e);
    }
    out
}

fn run_into(
    seed: u64,
    seconds: f64,
    escalate: &Path,
    work_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut live = None;
    for tag in 0..SETUPS {
        let (daemon, mut gen, s) = set_up(escalate, work_dir, tag, out)?;
        setups.push(s);
        if tag + 1 < SETUPS {
            daemon.shutdown(&mut gen)?;
        } else {
            live = Some((daemon, gen));
        }
    }
    let (daemon, mut gen) = live.expect("SETUPS is at least 1");
    out.set_sampled("setup_s", median(&setups), setups.len());

    let mut rng = SplitMix(seed ^ 0x5e7e_0be7);
    let mut cold = cold_reqs();
    rng.shuffle(&mut cold);
    let mut light = open_schedule(&mut rng, LIGHT_RATE, seconds / 2.0, &mut cold);
    let mut busy = open_schedule(&mut rng, BUSY_RATE, seconds / 2.0, &mut cold);
    let planned_cold = light
        .iter()
        .chain(&busy)
        .filter(|j| j.class == Class::Cold)
        .count();
    let mut flood: Vec<Job> = flood_reqs()
        .iter()
        .cycle()
        .take(FLOOD_JOBS)
        .map(|r| Job::new(r.clone(), Class::Warm, 0.0))
        .collect();

    let before = gen.metrics()?;
    let retries0 = gen.retries;
    let light_wall = gen.play(&mut light, None, out);
    let busy_wall = gen.play(&mut busy, None, out);
    let timed = gen.metrics()?.since(&before);
    gen.play(&mut flood, Some(FLOOD_IN_FLIGHT), out);
    let after = gen.metrics()?.since(&before);
    let rss_kb = crate::common::peak_rss_kb(daemon.child.id()).unwrap_or(0);
    daemon.shutdown(&mut gen)?;

    // Intent guard: only the planned cold jobs miss the artifact cache.
    let misses = after.counter("bench.cache_misses");
    out.check(misses == planned_cold as u64, || {
        format!("{misses} artifact-cache misses, but the schedule planned {planned_cold} cold jobs")
    });

    let lat = |jobs: &[Job]| -> Vec<f64> { jobs.iter().filter_map(Job::latency_ms).collect() };
    let (l, b) = (lat(&light), lat(&busy));
    out.set_sampled("p50_ms.light", percentile(&l, 50.0), l.len());
    out.set_sampled("p90_ms.light", percentile(&l, 90.0), l.len());
    out.set_sampled("p50_ms.busy", percentile(&b, 50.0), b.len());
    out.set_sampled("p90_ms.busy", percentile(&b, 90.0), b.len());
    let wall = light_wall + busy_wall;
    out.set("wall_s", wall);
    let simulated = light
        .iter()
        .chain(&busy)
        .filter(|j| j.done.is_some() && matches!(j.req, Request::Simulate { .. }))
        .count();
    out.set("points_per_s", simulated as f64 / wall);
    // Saturation throughput: both workers stay busy until the queue runs
    // dry, and each cycle ends with its lightest jobs, so the drain tail
    // is short.
    let flood_wall = flood.iter().filter_map(|j| j.done).fold(0.0, f64::max);
    out.set_sampled("max_rate_jps", flood.len() as f64 / flood_wall, flood.len());
    out.set("peak_rss_mb", rss_kb as f64 / 1024.0);

    class_notes(&light, &busy, out);
    // Backlog check for the busy phase: a growing queue shows as later
    // jobs waiting longer than earlier ones.
    let half = busy.len() / 2;
    out.notes.push(format!(
        "busy backlog: p50 {:.1} ms over the first half, {:.1} ms over the second",
        percentile(&lat(&busy[..half]), 50.0),
        percentile(&lat(&busy[half..]), 50.0)
    ));
    out.notes.push(format!(
        "schedule: {} light jobs at {LIGHT_RATE}/s, {} busy jobs at {BUSY_RATE}/s, {planned_cold} cold, \
         {} saturation jobs ({FLOOD_IN_FLIGHT} in flight)",
        light.len(),
        busy.len(),
        flood.len()
    ));

    layer_metrics(&light, &busy, &timed, gen.retries - retries0, out);
    Ok(())
}

/// Per-class median latency and run time of each open-loop phase, for
/// the log.
fn class_notes(light: &[Job], busy: &[Job], out: &mut Outcome) {
    for (name, jobs) in [("light", light), ("busy", busy)] {
        let by_class = |class: Class, model: &str| -> String {
            let (lat, exec): (Vec<f64>, Vec<f64>) = jobs
                .iter()
                .filter(|j| j.class == class && j.req.to_line().contains(model))
                .filter_map(|j| Some((j.latency_ms()?, j.exec_ms)))
                .unzip();
            format!(
                "{} p50 {:.0}/{:.0} ms (n={})",
                if model.is_empty() {
                    format!("{class:?}")
                } else {
                    model.split(':').next().unwrap_or(model).to_string()
                },
                percentile(&lat, 50.0),
                percentile(&exec, 50.0),
                lat.len()
            )
        };
        out.notes.push(format!(
            "{name} latency/exec: {}; {}; {}; {}; {}; {}",
            by_class(Class::Warm, "\"MobileNet\""),
            by_class(Class::Warm, "MobileNetV2"),
            by_class(Class::Warm, "gen:"),
            by_class(Class::Cold, ""),
            by_class(Class::Duplicate, ""),
            by_class(Class::Report, "")
        ));
    }
}

/// Per-layer numbers over the light and busy phases: the generator's frame
/// timestamps and the daemon's counters and spans (`timed`).
fn layer_metrics(light: &[Job], busy: &[Job], timed: &ObsView, retries: u64, out: &mut Outcome) {
    let timed_jobs: Vec<&Job> = light
        .iter()
        .chain(busy)
        .filter(|j| j.done.is_some())
        .collect();
    let phase = |f: &dyn Fn(&Job) -> Option<f64>| -> Vec<f64> {
        timed_jobs.iter().filter_map(|j| f(j)).collect()
    };
    let admit = phase(&|j| Some((j.admitted? - j.sent?) * 1e3));
    let queue = phase(&|j| Some((j.done? - j.admitted?) * 1e3 - j.exec_ms));
    let exec = phase(&|j| Some(j.exec_ms));
    let late: Vec<f64> = light
        .iter()
        .chain(busy)
        .filter_map(|j| Some((j.sent? - j.due) * 1e3))
        .collect();
    let total_latency: f64 = phase(&|j| j.latency_ms()).iter().sum();
    let covered: f64 = admit.iter().chain(&queue).chain(&exec).sum();
    let mut layers = BTreeMap::new();
    obs_layer_metrics(timed, &mut layers);
    let escalate_ms = timed.span("bench.accelerator/ESCALATE");
    for (k, v) in [
        ("models.resolve_ms", 0.0),
        (
            "core.compress_ms",
            timed.span_family("pipeline.compress_model"),
        ),
        ("sim.workload_ms", 0.0),
        ("sim.escalate_ms", escalate_ms),
        (
            "sim.ns_per_position",
            ns_per_position(escalate_ms, layers["sim.positions_walked"]),
        ),
        (
            "baselines.ms",
            ["Eyeriss", "SCNN", "SparTen"]
                .iter()
                .map(|a| timed.span(&format!("bench.accelerator/{a}")))
                .sum(),
        ),
        ("energy.fold_ms", 0.0),
        ("serve.admit_ms", mean(&admit)),
        ("serve.queue_ms", mean(&queue)),
        ("serve.exec_ms", mean(&exec)),
        (
            "serve.coalesced_frac",
            rate(
                timed.counter("serve.jobs_coalesced"),
                timed.counter("serve.jobs_accepted") - timed.counter("serve.jobs_coalesced"),
            ),
        ),
        ("serve.retries", retries as f64),
        (
            "serve.gen_late_ms",
            late.iter().copied().fold(0.0, f64::max),
        ),
        ("trace.overhead_frac", 0.0),
        (
            "trace.coverage",
            if total_latency > 0.0 {
                covered / total_latency
            } else {
                0.0
            },
        ),
    ] {
        layers.insert(k.to_string(), v);
    }
    out.notes.push(format!(
        "serve trace: admit+queue+exec cover {covered:.1} ms of {total_latency:.1} ms job latency \
         (remainder {:.1} ms: generator lateness and frame I/O); daemon rejected {} submissions",
        total_latency - covered,
        timed.counter("serve.jobs_rejected")
    ));
    for (k, v) in layers {
        out.set(&k, v);
    }
}
