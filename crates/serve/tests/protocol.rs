//! Protocol robustness: strict request fields, malformed frames, oversized requests,
//! mid-stream disconnects, backpressure, single-flight dedupe of
//! identical in-flight jobs, and shutdown-while-draining.
//!
//! Server lifecycles share the process-global metrics slot, so every
//! test that starts a daemon holds [`SERVER_LOCK`].

use escalate_obs::jsonl::{json_string_field, json_u64_field};
use escalate_serve::proto::{parse_request, read_frame, write_frame, MAX_FRAME};
use escalate_serve::{start, submit, Request, ServeOptions};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERVER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERVER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn frame_type(frame: &str) -> String {
    json_string_field(frame, "type").unwrap_or_default()
}

/// A raw connection speaking arbitrary bytes (the well-behaved path is
/// [`submit`]).
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(port: u16) -> Raw {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Raw { stream, reader }
    }

    fn send(&mut self, line: &str) {
        write_frame(&mut self.stream, line).expect("send");
    }

    fn recv(&mut self) -> Option<String> {
        read_frame(&mut self.reader).expect("recv")
    }
}

fn shutdown(port: u16) -> u64 {
    let frames = submit(port, &Request::Shutdown).expect("shutdown");
    let last = frames.last().expect("shutdown frame");
    assert_eq!(frame_type(last), "shutdown", "{last}");
    json_u64_field(last, "jobs_done").expect("jobs_done")
}

/// Polls the daemon's metrics until `counter` reaches `at_least`.
fn wait_for_counter(port: u16, counter: &str, at_least: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let frames = submit(port, &Request::Metrics).expect("metrics");
        let v = json_u64_field(frames.last().expect("metrics frame"), counter).unwrap_or(0);
        if v >= at_least || Instant::now() > deadline {
            return v;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn compact_frames_parse_like_spaced_ones() {
    let compact = parse_request("{\"verb\":\"compress\",\"model\":\"MobileNet\",\"layers\":true}");
    let spaced =
        parse_request("{\"verb\": \"compress\", \"model\": \"MobileNet\", \"layers\": true}");
    assert_eq!(compact, spaced);
    assert!(
        matches!(compact, Ok(Request::Compress { layers: true, .. })),
        "{compact:?}"
    );
}

#[test]
fn present_but_malformed_fields_are_errors_naming_the_field() {
    for (fields, name) in [
        ("\"m\":\"7\"", "m"),
        ("\"m\":-1", "m"),
        ("\"m\": 6.0", "m"),
        ("\"seeds\":1.5", "seeds"),
        ("\"seeds\": null", "seeds"),
        ("\"schedule\": 5", "schedule"),
    ] {
        let line = format!("{{\"verb\":\"simulate\",\"model\":\"MobileNet\",{fields}}}");
        let e = parse_request(&line).expect_err(&line);
        assert!(e.contains(&format!("\"{name}\"")), "{line}: {e}");
    }
    for (fields, name) in [
        ("\"qat\":-2", "qat"),
        ("\"seed\":\"42\"", "seed"),
        ("\"layers\":\"yes\"", "layers"),
        ("\"layers\": 1", "layers"),
    ] {
        let line = format!("{{\"verb\":\"compress\",\"model\":\"MobileNet\",{fields}}}");
        let e = parse_request(&line).expect_err(&line);
        assert!(e.contains(&format!("\"{name}\"")), "{line}: {e}");
    }
}

#[test]
fn malformed_frames_get_errors_and_the_connection_stays_usable() {
    let _guard = lock();
    let handle = start(ServeOptions::default()).expect("start");
    let port = handle.port();

    let mut conn = Raw::connect(port);
    for (bad, names) in [
        ("not json at all", "verb"),
        ("{\"verb\": \"frobnicate\"}", "frobnicate"),
        ("{\"verb\": \"simulate\"}", "model"),
        ("{\"verb\": \"simulate\", \"model\": \"LeNet\"}", "LeNet"),
        ("{\"verb\": \"report\", \"experiment\": \"fig99\"}", "fig99"),
        (
            "{\"verb\":\"simulate\",\"model\":\"MobileNet\",\"m\":0}",
            "m must be positive",
        ),
        (
            "{\"verb\":\"simulate\",\"model\":\"MobileNet\",\"m\":\"7\"}",
            "\"m\"",
        ),
        (
            "{\"verb\": \"simulate\", \"model\": \"MobileNet\", \"seeds\": 1.5}",
            "\"seeds\"",
        ),
    ] {
        conn.send(bad);
        let reply = conn.recv().expect("reply");
        assert_eq!(frame_type(&reply), "error", "{reply}");
        assert!(
            json_string_field(&reply, "message")
                .unwrap_or_default()
                .contains(names),
            "{reply}"
        );
    }
    // The same connection still answers well-formed requests.
    conn.send(&Request::Ping.to_line());
    let reply = conn.recv().expect("pong");
    assert_eq!(frame_type(&reply), "pong", "{reply}");
    drop(conn);

    shutdown(port);
    handle.join().expect("clean exit");
}

#[test]
fn oversized_requests_are_rejected_without_buffering_them() {
    let _guard = lock();
    let handle = start(ServeOptions::default()).expect("start");
    let port = handle.port();

    let mut conn = Raw::connect(port);
    conn.send(&format!(
        "{{\"verb\": \"simulate\", \"model\": \"{}\"}}",
        "x".repeat(MAX_FRAME)
    ));
    let reply = conn.recv().expect("error frame");
    assert_eq!(frame_type(&reply), "error", "{reply}");
    assert!(
        json_string_field(&reply, "message")
            .unwrap_or_default()
            .contains("exceeds"),
        "{reply}"
    );
    // The desynchronized connection is dropped (a clean EOF, or a reset
    // if the unread tail of the oversized line still sat in the socket)...
    let eof = read_frame(&mut conn.reader);
    assert!(
        matches!(eof, Ok(None) | Err(_)),
        "connection closed after oversize: {eof:?}"
    );
    // ...but the daemon keeps serving new ones.
    let frames = submit(port, &Request::Ping).expect("ping");
    assert_eq!(frame_type(frames.last().unwrap()), "pong");

    shutdown(port);
    handle.join().expect("clean exit");
}

#[test]
fn a_mid_stream_disconnect_aborts_the_job_but_not_the_daemon() {
    let _guard = lock();
    let handle = start(ServeOptions::default()).expect("start");
    let port = handle.port();

    let mut conn = Raw::connect(port);
    conn.send(
        &Request::Simulate {
            model: "MobileNet".into(),
            m: 6,
            seeds: 1,
            schedule: "serial".into(),
        }
        .to_line(),
    );
    let accepted = conn.recv().expect("accepted");
    assert_eq!(frame_type(&accepted), "accepted", "{accepted}");
    let unit = conn.recv().expect("first unit");
    assert_eq!(frame_type(&unit), "unit", "{unit}");
    // Hang up with three units still to stream.
    drop(conn);

    // The worker hits the broken pipe, fails the job, and moves on.
    assert!(wait_for_counter(port, "serve.jobs_failed", 1) >= 1);
    let frames = submit(port, &Request::Ping).expect("daemon survives");
    assert_eq!(frame_type(frames.last().unwrap()), "pong");

    shutdown(port);
    handle.join().expect("clean exit");
}

#[test]
fn identical_in_flight_jobs_share_one_artifact_computation() {
    let _guard = lock();
    let handle = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    })
    .expect("start");
    let port = handle.port();

    // A config no other test uses, so this server sees a cold cache key.
    let req = Request::Compress {
        model: "MobileNet".into(),
        m: 5,
        qat: 0,
        seed: 42,
        layers: false,
    };
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let req = req.clone();
            std::thread::spawn(move || submit(port, &req).expect("submit"))
        })
        .collect();
    let outputs: Vec<String> = threads
        .into_iter()
        .map(|t| {
            let frames = t.join().expect("client thread");
            let done = frames.last().expect("done frame").clone();
            assert_eq!(frame_type(&done), "done", "{done}");
            json_string_field(&done, "output").expect("output")
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "both clients get identical output");

    let frames = submit(port, &Request::Metrics).expect("metrics");
    let metrics = frames.last().expect("metrics frame").clone();
    let misses = json_u64_field(&metrics, "bench.cache_misses").unwrap_or(0);
    let hits = json_u64_field(&metrics, "bench.cache_hits").unwrap_or(0);
    let coalesced = json_u64_field(&metrics, "serve.jobs_coalesced").unwrap_or(0);
    assert_eq!(
        misses, 1,
        "one computation for two identical jobs: {metrics}"
    );
    // Which dedupe layer fired depends on the race between the two
    // submissions and the two workers: both queued together coalesce
    // into one execution; otherwise the second execution rides the
    // first's single-flight artifact slot.
    assert_eq!(
        hits + coalesced,
        1,
        "the second job rides the first's work: {metrics}"
    );

    shutdown(port);
    handle.join().expect("clean exit");
}

#[test]
fn identical_queued_submissions_coalesce_into_one_execution() {
    let _guard = lock();
    let handle = start(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("start");
    let port = handle.port();

    // Occupy the single worker with a distinct job (a cold compression
    // config no other test warms) so the identical submissions below all
    // sit in the queue together while it runs.
    let mut occupier = Raw::connect(port);
    occupier.send(
        &Request::Compress {
            model: "MobileNet".into(),
            m: 7,
            qat: 0,
            seed: 42,
            layers: false,
        }
        .to_line(),
    );
    assert_eq!(frame_type(&occupier.recv().expect("reply")), "accepted");
    // Only submit the identical batch once the worker has provably
    // sealed (popped) the occupier — otherwise the first identical job
    // could be popped alone and the other two coalesce separately.
    assert!(wait_for_counter(port, "serve.jobs_executed", 1) >= 1);

    let req = Request::Simulate {
        model: "MobileNet".into(),
        m: 6,
        seeds: 1,
        schedule: "serial".into(),
    };
    let mut conns: Vec<Raw> = (0..3)
        .map(|_| {
            let mut conn = Raw::connect(port);
            conn.send(&req.to_line());
            conn
        })
        .collect();

    // Every client gets a complete stream: accepted, one unit frame per
    // accelerator design, and a done — all tagged with its own job id.
    let mut job_ids = Vec::new();
    let mut outputs = Vec::new();
    for conn in &mut conns {
        let accepted = conn.recv().expect("accepted");
        assert_eq!(frame_type(&accepted), "accepted", "{accepted}");
        let id = json_u64_field(&accepted, "job").expect("job id");
        let mut units = 0;
        loop {
            let frame = conn.recv().expect("stream");
            assert_eq!(json_u64_field(&frame, "job"), Some(id), "{frame}");
            match frame_type(&frame).as_str() {
                "unit" => units += 1,
                "done" => {
                    outputs.push(json_string_field(&frame, "output").expect("output"));
                    break;
                }
                other => panic!("unexpected {other}: {frame}"),
            }
        }
        assert_eq!(units, 4, "one unit frame per design for every client");
        job_ids.push(id);
    }
    job_ids.dedup();
    assert_eq!(job_ids.len(), 3, "three distinct job ids");
    outputs.dedup();
    assert_eq!(outputs.len(), 1, "one rendered output fanned to all");

    // One execution served all three submissions (plus the occupier).
    let frames = submit(port, &Request::Metrics).expect("metrics");
    let metrics = frames.last().expect("metrics frame").clone();
    assert_eq!(
        json_u64_field(&metrics, "serve.jobs_executed"),
        Some(2),
        "occupier + one coalesced batch: {metrics}"
    );
    assert_eq!(
        json_u64_field(&metrics, "serve.jobs_coalesced"),
        Some(2),
        "two riders on the batch: {metrics}"
    );
    assert_eq!(
        json_u64_field(&metrics, "serve.jobs_done"),
        Some(4),
        "every submission completed: {metrics}"
    );

    let jobs_done = shutdown(port);
    assert_eq!(jobs_done, 4);
    handle.join().expect("clean exit");
}

#[test]
fn a_full_queue_answers_rejected_with_a_retry_hint() {
    let _guard = lock();
    let handle = start(ServeOptions {
        workers: 1,
        queue: 1,
        ..ServeOptions::default()
    })
    .expect("start");
    let port = handle.port();

    // Saturate: one job running, one queued, then the queue is full.
    // Submissions race the worker, so flood until a rejection shows up.
    // Distinct seed counts keep the coalescer out of the way (identical
    // queued submissions would attach without consuming a slot).
    let mut conns = Vec::new();
    let mut rejected = None;
    for i in 0..8 {
        let mut conn = Raw::connect(port);
        conn.send(
            &Request::Simulate {
                model: "MobileNet".into(),
                m: 6,
                seeds: i + 1,
                schedule: "serial".into(),
            }
            .to_line(),
        );
        let reply = conn.recv().expect("reply");
        match frame_type(&reply).as_str() {
            "accepted" => conns.push(conn),
            "rejected" => {
                rejected = Some(reply);
                break;
            }
            other => panic!("unexpected {other}: {reply}"),
        }
    }
    let rejected = rejected.expect("a rejection before 8 submissions");
    assert!(
        json_u64_field(&rejected, "retry_after_ms").unwrap_or(0) > 0,
        "{rejected}"
    );
    // Accepted jobs still complete.
    for mut conn in conns {
        loop {
            let frame = conn.recv().expect("stream");
            if frame_type(&frame) == "done" {
                break;
            }
        }
    }

    shutdown(port);
    handle.join().expect("clean exit");
}

#[test]
fn shutdown_drains_accepted_jobs_before_confirming() {
    let _guard = lock();
    let handle = start(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("start");
    let port = handle.port();

    // Three accepted jobs, then an immediate shutdown request.
    let mut conns: Vec<Raw> = (0..3)
        .map(|_| {
            let mut conn = Raw::connect(port);
            conn.send(
                &Request::Report {
                    experiment: "table4".into(),
                }
                .to_line(),
            );
            let reply = conn.recv().expect("reply");
            assert_eq!(frame_type(&reply), "accepted", "{reply}");
            conn
        })
        .collect();
    let jobs_done = shutdown(port);
    assert_eq!(jobs_done, 3, "every accepted job drained before the ack");
    for conn in &mut conns {
        loop {
            let frame = conn.recv().expect("each client still got its frames");
            if frame_type(&frame) == "done" {
                break;
            }
        }
    }
    let summary = handle.join().expect("clean exit");
    assert_eq!(summary.jobs_done, 3);
    assert_eq!(summary.jobs_failed, 0);
}
