//! The served output must be byte-identical to the one-shot CLI's: a
//! `simulate` job's `done.output` is exactly what `escalate simulate`
//! prints, and the streamed unit records carry the same numbers.

use escalate_bench::{render, run_model, ACCELERATOR_NAMES};
use escalate_models::ModelProfile;
use escalate_obs::Json;
use escalate_serve::{start, submit, Request, ServeOptions};
use escalate_sim::SimConfig;

#[test]
fn served_simulate_is_bit_identical_to_the_one_shot_cli() {
    let model = "MobileNet";
    let seeds = 2u64;

    // The one-shot path: exactly what `escalate simulate MobileNet
    // --seeds 2` renders (cmd_simulate = run_model + render_simulate).
    let profile = ModelProfile::for_model(model).expect("model");
    let cfg = SimConfig::default();
    let expected_run = run_model(&profile, &cfg, seeds).expect("one-shot run");
    let expected = render::render_simulate(&expected_run, &cfg);

    // The served path.
    let handle = start(ServeOptions::default()).expect("start");
    let port = handle.port();
    let frames = submit(
        port,
        &Request::Simulate {
            model: model.into(),
            m: 6,
            seeds,
            schedule: "serial".into(),
        },
    )
    .expect("submit");
    let shutdown = submit(port, &Request::Shutdown);
    handle.join().expect("clean exit");
    assert!(shutdown.is_ok());

    let frames: Vec<Json> = frames
        .iter()
        .map(|f| Json::parse(f).unwrap_or_else(|e| panic!("{e}: {f}")))
        .collect();
    let kind = |frame: &Json| frame.get("type").and_then(Json::as_str).map(str::to_string);
    let done = frames.last().expect("done frame");
    assert_eq!(kind(done).as_deref(), Some("done"), "{done:?}");
    let output = done.get("output").and_then(Json::as_str).expect("output");
    assert_eq!(
        output, expected,
        "served output must be byte-identical to the one-shot table"
    );

    // The streamed unit records carry the same numbers, in design order.
    let units: Vec<&Json> = frames
        .iter()
        .filter(|f| kind(f).as_deref() == Some("unit"))
        .collect();
    assert_eq!(units.len(), ACCELERATOR_NAMES.len());
    let runs = [
        &expected_run.eyeriss,
        &expected_run.scnn,
        &expected_run.sparten,
        &expected_run.escalate,
    ];
    for (frame, run) in units.iter().zip(runs) {
        let unit = frame.get("record").expect("record");
        let f64_member = |key: &str| unit.get(key).and_then(Json::as_f64).expect(key);
        assert_eq!(
            unit.get("name").and_then(Json::as_str),
            Some(run.name.as_str()),
            "{unit:?}"
        );
        assert_eq!(
            f64_member("mean_cycles").to_bits(),
            run.cycles.to_bits(),
            "{unit:?}"
        );
        assert_eq!(
            f64_member("mean_energy_pj").to_bits(),
            run.energy_pj.to_bits(),
            "{unit:?}"
        );
    }
}
