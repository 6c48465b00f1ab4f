//! The daemon: a TCP accept loop, a bounded job queue, and a pool of
//! worker threads draining it through the run-plan layer.
//!
//! One thread per connection parses frames and answers control verbs
//! inline; job verbs compile ([`CompiledJob::compile`]) and enqueue.
//! The queue is bounded — a full queue answers `rejected` with a
//! `retry_after_ms` hint instead of buffering unboundedly. Identical
//! submissions still waiting in the queue coalesce: the work executes
//! once and its frame stream fans out to every waiting client under
//! each client's own job id (`serve.jobs_coalesced` counts the riders). `shutdown`
//! stops the accept loop, drains every queued job, then confirms to the
//! requester. A long-running daemon refuses to start on malformed
//! tuning env vars (`ESCALATE_THREADS`/`ESCALATE_SEEDS`): a
//! warn-and-fall-back default that would be a one-shot papercut silently
//! misconfigures every job the daemon ever serves.

use crate::job::CompiledJob;
use crate::proto::{
    frame_accepted, frame_done, frame_error, frame_metrics, frame_pong, frame_rejected,
    frame_shutdown, frame_unit, parse_request, read_frame, write_frame, Request, RETRY_AFTER_MS,
};
use escalate_bench::experiments::ExpError;
use escalate_bench::plan::{UnitOutput, UnitSink, WorkUnit};
use escalate_bench::SEEDS_ENV;
use escalate_core::par::{strict_positive_env, THREADS_ENV};
use escalate_obs::Registry;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How the daemon is configured (CLI flags map onto this 1:1).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Port to bind on 127.0.0.1; 0 picks an ephemeral port.
    pub port: u16,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Job queue capacity; a full queue rejects with backpressure.
    pub queue: usize,
    /// Artifact cache capacity override (entries); `None` keeps the
    /// process default.
    pub cache: Option<usize>,
    /// When set, the bound port is written here (as one decimal line) —
    /// how scripts find an ephemerally-bound daemon.
    pub port_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: 0,
            workers: 2,
            queue: 8,
            cache: None,
            port_file: None,
        }
    }
}

/// What a completed daemon run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs that finished with a `done` frame.
    pub jobs_done: u64,
    /// Jobs that failed with an `error` frame.
    pub jobs_failed: u64,
}

fn lock_recover<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Refuses to start when a tuning env var is set but malformed.
fn audit_env() -> Result<(), String> {
    for var in [THREADS_ENV, SEEDS_ENV] {
        strict_positive_env(var).map_err(|e| format!("refusing to start: {e}"))?;
    }
    Ok(())
}

/// One client waiting on a queued job: its own job id plus the
/// submitting connection. The mutex serializes frame writes with the
/// connection thread (the `accepted` frame is written under this lock
/// *before* the job becomes poppable, so no unit frame can precede it).
struct Client {
    id: u64,
    stream: Arc<Mutex<TcpStream>>,
}

/// One accepted job waiting for (or on) a worker. Identical submissions
/// that arrive while it is still queued attach as extra clients
/// (coalescing): the work executes once and every frame fans out to all
/// of them, each under its own job id.
struct QueuedJob {
    job: CompiledJob,
    /// [`CompiledJob::coalesce_key`], precomputed at submission.
    key: String,
    clients: Vec<Client>,
}

/// How [`JobQueue::try_push`] disposed of a submission.
enum Push {
    /// A new queue entry, at this depth.
    Queued(usize),
    /// Attached to an identical entry still in the queue (depth of the
    /// queue it joined); the work will run once for both.
    Coalesced(usize),
    /// Queue full or closed — the submitter retries later.
    Rejected,
}

/// A bounded MPMC queue: `try_push` fails fast when full (backpressure),
/// `pop` blocks until a job or close. A popped job is sealed: later
/// identical submissions start a fresh entry rather than racing the
/// in-flight execution's frame stream.
struct JobQueue {
    inner: Mutex<(VecDeque<QueuedJob>, bool)>,
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> Self {
        JobQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues or coalesces; a full (or closed) queue consumes the job
    /// and returns [`Push::Rejected`] — the caller answers `rejected`
    /// and the submitter retries with a fresh submission. Coalesced
    /// submissions never consume a queue slot (their work is already
    /// queued), so identical clients cannot be rejected behind their own
    /// job.
    fn try_push(&self, mut candidate: QueuedJob) -> Push {
        let mut inner = lock_recover(&self.inner);
        if inner.1 {
            return Push::Rejected;
        }
        if let Some(entry) = inner.0.iter_mut().find(|j| j.key == candidate.key) {
            entry.clients.append(&mut candidate.clients);
            return Push::Coalesced(inner.0.len());
        }
        if inner.0.len() >= self.cap {
            return Push::Rejected;
        }
        inner.0.push_back(candidate);
        let depth = inner.0.len();
        drop(inner);
        self.ready.notify_one();
        Push::Queued(depth)
    }

    /// Blocks for the next job; `None` once closed *and* drained.
    fn pop(&self) -> Option<QueuedJob> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops accepting; blocked `pop`s return once the backlog drains.
    fn close(&self) {
        lock_recover(&self.inner).1 = true;
        self.ready.notify_all();
    }
}

/// Streams one `unit` frame per record down every waiting connection,
/// each under that client's own job id. A client whose write fails
/// (client gone) is dropped from the fan-out and counted as failed; only
/// once *every* client is gone does the failure surface as
/// [`ExpError::Io`], aborting the job early in `plan::execute` — the
/// daemon itself survives either way.
struct SocketSink {
    clients: Vec<Client>,
    /// Parallel to `clients`: set once a write to that client failed.
    dead: Vec<bool>,
    units: u64,
}

impl SocketSink {
    fn new(clients: Vec<Client>) -> SocketSink {
        let dead = vec![false; clients.len()];
        SocketSink {
            clients,
            dead,
            units: 0,
        }
    }

    /// Writes one frame to every live client, rendered per client id.
    /// `Err` only when no live client remains.
    fn broadcast(&mut self, render: impl Fn(&Client) -> String) -> Result<(), ExpError> {
        let mut last_err = None;
        for (client, dead) in self.clients.iter().zip(self.dead.iter_mut()) {
            if *dead {
                continue;
            }
            let mut s = lock_recover(&client.stream);
            if let Err(e) = write_frame(&mut *s, &render(client)) {
                *dead = true;
                last_err = Some(e);
            }
        }
        match last_err {
            Some(e) if self.dead.iter().all(|d| *d) => Err(ExpError::Io(e)),
            _ => Ok(()),
        }
    }

    fn live_count(&self) -> u64 {
        self.dead.iter().filter(|d| !**d).count() as u64
    }
}

impl UnitSink for SocketSink {
    fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        for record in &out.jsonl {
            self.broadcast(|client| frame_unit(client.id, record))?;
        }
        self.units += 1;
        Ok(())
    }
}

struct Shared {
    queue: JobQueue,
    registry: Arc<Registry>,
    shutting_down: AtomicBool,
    next_job: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    /// The connection that requested shutdown; it gets the final
    /// `shutdown` frame after the queue drains.
    shutdown_stream: Mutex<Option<Arc<Mutex<TcpStream>>>>,
    port: u16,
}

/// A running daemon started in-process by [`start`].
pub struct Handle {
    port: u16,
    thread: std::thread::JoinHandle<Result<ServeSummary, String>>,
}

impl Handle {
    /// The bound port (useful with `ServeOptions::port == 0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Waits for the daemon to exit (something must send `shutdown`).
    ///
    /// # Errors
    ///
    /// Returns the daemon's startup/runtime error message.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the daemon thread.
    pub fn join(self) -> Result<ServeSummary, String> {
        self.thread.join().expect("serve thread panicked")
    }
}

/// Binds and runs the daemon on a background thread — the in-process
/// form behind the load generator and the integration tests.
///
/// # Errors
///
/// Returns the bind/startup failure message.
pub fn start(opts: ServeOptions) -> Result<Handle, String> {
    audit_env()?;
    let listener = TcpListener::bind(("127.0.0.1", opts.port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?
        .port();
    let thread = std::thread::Builder::new()
        .name("escalate-serve".into())
        .spawn(move || serve_on(listener, &opts))
        .map_err(|e| format!("cannot spawn serve thread: {e}"))?;
    Ok(Handle { port, thread })
}

/// Runs the daemon on an already-bound listener until a `shutdown`
/// request drains it. Installs a fresh metrics registry for the run
/// (restoring whatever was installed before on exit) and honours
/// `opts.cache` / `opts.port_file`.
///
/// # Errors
///
/// Returns startup failures (env audit, port file) as messages; runtime
/// per-connection failures are reported to that client and survived.
pub fn serve_on(listener: TcpListener, opts: &ServeOptions) -> Result<ServeSummary, String> {
    audit_env()?;
    if let Some(cap) = opts.cache {
        escalate_bench::set_artifact_cache_capacity(cap);
    }
    let port = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?
        .port();
    if let Some(path) = &opts.port_file {
        std::fs::write(path, format!("{port}\n"))
            .map_err(|e| format!("cannot write port file {}: {e}", path.display()))?;
    }

    let registry = Arc::new(Registry::new());
    let previous = escalate_obs::install(Arc::clone(&registry));

    let shared = Arc::new(Shared {
        queue: JobQueue::new(opts.queue),
        registry: Arc::clone(&registry),
        shutting_down: AtomicBool::new(false),
        next_job: AtomicU64::new(1),
        jobs_done: AtomicU64::new(0),
        jobs_failed: AtomicU64::new(0),
        shutdown_stream: Mutex::new(None),
        port,
    });

    let workers: Vec<_> = (0..opts.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("escalate-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| format!("cannot spawn worker: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("escalate-serve-conn".into())
            .spawn(move || handle_connection(stream, &shared))
        {
            conns.push(h);
        }
        conns.retain(|h| !h.is_finished());
    }

    // Drain: no new connections; finish every queued job, then confirm.
    for h in conns {
        let _ = h.join();
    }
    shared.queue.close();
    for w in workers {
        let _ = w.join();
    }
    let summary = ServeSummary {
        jobs_done: shared.jobs_done.load(Ordering::SeqCst),
        jobs_failed: shared.jobs_failed.load(Ordering::SeqCst),
    };
    if let Some(stream) = lock_recover(&shared.shutdown_stream).take() {
        let mut s = lock_recover(&stream);
        let _ = write_frame(&mut *s, &frame_shutdown(summary.jobs_done));
    }

    escalate_obs::uninstall();
    if let Some(prev) = previous {
        escalate_obs::install(prev);
    }
    if let Some(path) = &opts.port_file {
        let _ = std::fs::remove_file(path);
    }
    Ok(summary)
}

/// Reads frames off one connection until EOF (or shutdown).
fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Bound how long an idle connection can pin its thread once a drain
    // starts; sub-second so shutdown isn't held hostage by idle clients.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let stream = Arc::new(Mutex::new(stream));

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(None) => break,
            Ok(Some(f)) => f,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Oversized line: the stream is desynchronized; report
                // and drop the connection.
                let mut s = lock_recover(&stream);
                let _ = write_frame(&mut *s, &frame_error(None, &e.to_string()));
                break;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        escalate_obs::counter_add("serve.frames", 1);
        let req = match parse_request(&frame) {
            Ok(req) => req,
            Err(msg) => {
                escalate_obs::counter_add("serve.bad_requests", 1);
                let mut s = lock_recover(&stream);
                if write_frame(&mut *s, &frame_error(None, &msg)).is_err() {
                    break;
                }
                continue;
            }
        };
        match req {
            Request::Ping => {
                let mut s = lock_recover(&stream);
                if write_frame(&mut *s, &frame_pong()).is_err() {
                    break;
                }
            }
            Request::Metrics => {
                let json = shared.registry.to_json();
                let mut s = lock_recover(&stream);
                if write_frame(&mut *s, &frame_metrics(&json)).is_err() {
                    break;
                }
            }
            Request::Shutdown => {
                *lock_recover(&shared.shutdown_stream) = Some(Arc::clone(&stream));
                shared.shutting_down.store(true, Ordering::SeqCst);
                // Wake the accept loop so it notices the flag.
                let _ = TcpStream::connect(("127.0.0.1", shared.port));
                break;
            }
            req => submit_job(&req, &stream, shared),
        }
    }
}

/// Compiles and enqueues one job verb, answering `accepted`, `rejected`,
/// or `error` on the submitting connection.
fn submit_job(req: &Request, stream: &Arc<Mutex<TcpStream>>, shared: &Shared) {
    debug_assert!(req.is_job());
    if shared.shutting_down.load(Ordering::SeqCst) {
        let mut s = lock_recover(stream);
        let _ = write_frame(&mut *s, &frame_rejected("shutting down", RETRY_AFTER_MS));
        return;
    }
    let job = match CompiledJob::compile(req) {
        Ok(job) => job,
        Err(msg) => {
            escalate_obs::counter_add("serve.bad_requests", 1);
            let mut s = lock_recover(stream);
            let _ = write_frame(&mut *s, &frame_error(None, &msg));
            return;
        }
    };
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let key = job.coalesce_key();
    let queued = QueuedJob {
        job,
        key,
        clients: vec![Client {
            id,
            stream: Arc::clone(stream),
        }],
    };
    // Hold the stream lock across enqueue + accepted-frame write: the
    // worker's first unit frame needs this lock, so `accepted` always
    // reaches the wire first even though the job is already visible
    // (coalesced submissions included — a worker popping the shared
    // entry blocks on this lock before it can fan a frame here).
    let mut s = lock_recover(stream);
    match shared.queue.try_push(queued) {
        Push::Queued(depth) => {
            escalate_obs::counter_add("serve.jobs_accepted", 1);
            let _ = write_frame(&mut *s, &frame_accepted(id, depth));
        }
        Push::Coalesced(depth) => {
            escalate_obs::counter_add("serve.jobs_accepted", 1);
            escalate_obs::counter_add("serve.jobs_coalesced", 1);
            let _ = write_frame(&mut *s, &frame_accepted(id, depth));
        }
        Push::Rejected => {
            escalate_obs::counter_add("serve.jobs_rejected", 1);
            let _ = write_frame(&mut *s, &frame_rejected("queue full", RETRY_AFTER_MS));
        }
    }
}

/// One worker: pop (sealing the popped entry's client set), run once,
/// fan the stream out, report per client — until the queue closes.
fn worker_loop(shared: &Shared) {
    while let Some(queued) = shared.queue.pop() {
        let verb = queued.job.verb();
        let submissions = queued.clients.len() as u64;
        escalate_obs::counter_add("serve.jobs_executed", 1);
        let started = Instant::now();
        let mut sink = SocketSink::new(queued.clients);
        let result = {
            let _span = escalate_obs::span_labeled("serve.job", verb);
            queued.job.run(&mut sink)
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(output) => {
                // Every client whose stream survived the unit frames
                // gets its own complete `done`; ones that hung up
                // mid-stream failed *their* submission without failing
                // the shared work. Counted before the frames go out so a
                // client that reads its `done` always sees it reflected
                // in the metrics.
                let done = sink.live_count();
                if done > 0 {
                    shared.jobs_done.fetch_add(done, Ordering::SeqCst);
                    escalate_obs::counter_add("serve.jobs_done", done);
                }
                let failed = submissions - done;
                if failed > 0 {
                    shared.jobs_failed.fetch_add(failed, Ordering::SeqCst);
                    escalate_obs::counter_add("serve.jobs_failed", failed);
                }
                let units = sink.units;
                let _ = sink.broadcast(|client| frame_done(client.id, units, ms, &output));
            }
            Err(e) => {
                shared.jobs_failed.fetch_add(submissions, Ordering::SeqCst);
                escalate_obs::counter_add("serve.jobs_failed", submissions);
                let msg = e.to_string();
                let _ = sink.broadcast(|client| frame_error(Some(client.id), &msg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_stream() -> Arc<Mutex<TcpStream>> {
        // A connected pair via a throwaway listener.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let c = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let _ = l.accept().unwrap();
        Arc::new(Mutex::new(c))
    }

    fn test_job(id: u64, experiment: &str) -> QueuedJob {
        let job = CompiledJob::compile(&Request::Report {
            experiment: experiment.into(),
        })
        .unwrap();
        QueuedJob {
            key: job.coalesce_key(),
            job,
            clients: vec![Client {
                id,
                stream: test_stream(),
            }],
        }
    }

    #[test]
    fn the_queue_bounds_depth_and_drains_on_close() {
        let q = JobQueue::new(1);
        // Distinct experiments: distinct coalesce keys, so the second
        // push contends for a queue slot instead of attaching.
        assert!(matches!(q.try_push(test_job(1, "table4")), Push::Queued(1)));
        assert!(
            matches!(q.try_push(test_job(2, "fig7")), Push::Rejected),
            "cap 1 rejects the second distinct job"
        );
        q.close();
        assert!(
            matches!(q.try_push(test_job(3, "fig7")), Push::Rejected),
            "closed queue rejects"
        );
        let popped = q.pop().expect("backlog drains");
        assert_eq!(popped.clients[0].id, 1);
        assert!(q.pop().is_none(), "then closed");
    }

    #[test]
    fn identical_submissions_coalesce_until_popped() {
        let q = JobQueue::new(1);
        assert!(matches!(q.try_push(test_job(1, "table4")), Push::Queued(1)));
        // An identical submission attaches instead of being rejected,
        // even though the queue is at capacity.
        assert!(matches!(
            q.try_push(test_job(2, "table4")),
            Push::Coalesced(1)
        ));
        let popped = q.pop().expect("one sealed entry");
        assert_eq!(
            popped.clients.iter().map(|c| c.id).collect::<Vec<_>>(),
            [1, 2],
            "both clients ride the one execution, submission order kept"
        );
        // The entry is sealed: the next identical submission starts a
        // fresh one rather than racing the in-flight stream.
        assert!(matches!(q.try_push(test_job(3, "table4")), Push::Queued(1)));
    }

    #[test]
    fn env_audit_refuses_malformed_tuning_vars() {
        // Serialized via a unique var name to avoid cross-test races.
        std::env::set_var(THREADS_ENV, "zero");
        let err = audit_env().unwrap_err();
        std::env::remove_var(THREADS_ENV);
        assert!(err.contains(THREADS_ENV), "{err}");
        assert!(audit_env().is_ok());
    }
}
