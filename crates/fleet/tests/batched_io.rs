//! The fleet hop's batched socket I/O, observed through its counters on
//! a one-worker fleet (a real worker process: this test binary,
//! re-executed):
//!
//! * a lone query never waits to be batched: sequential queries cost
//!   one router write per frame and one worker write per answer;
//! * a pipelined burst is coalesced on both ends: fewer router writes
//!   than frames, fewer worker writes than answers;
//! * either way every value is bitwise the in-process singleton
//!   evaluation.

use std::sync::Arc;

use neurofail_data::rng::rng;
use neurofail_fleet::{reexec_spawner, FleetConfig, FleetRouter, FleetStats, WireWorkerStats};
use neurofail_inject::{InjectionPlan, PlanRegistry};
use neurofail_nn::activation::Activation;
use neurofail_nn::builder::MlpBuilder;
use neurofail_nn::BatchWorkspace;
use neurofail_tensor::init::Init;
use rand::Rng;

/// The worker process. Ignored under a normal test run; the fleet below
/// re-invokes this binary with the `NEUROFAIL_FLEET_*` environment set,
/// which routes execution here.
#[test]
#[ignore = "fleet worker child, spawned by the test below"]
fn fleet_worker_child() {
    if std::env::var(neurofail_fleet::ENV_ADDR).is_ok() {
        std::process::exit(neurofail_fleet::run_worker_from_env());
    }
}

fn worker(stats: &FleetStats) -> WireWorkerStats {
    stats.workers[0].expect("the worker reports its stats")
}

#[test]
fn lone_queries_flush_at_once_and_bursts_coalesce() {
    let net = Arc::new(
        MlpBuilder::new(4)
            .dense(8, Activation::Sigmoid { k: 1.0 })
            .dense(6, Activation::Tanh { k: 0.9 })
            .init(Init::Uniform { a: 0.7 })
            .build(&mut rng(0xBA7C)),
    );
    let plans = [
        InjectionPlan::crash([(0, 1)]),
        InjectionPlan::crash([(1, 0), (1, 5)]),
    ];
    let mut r = rng(0x10);
    let queries: Vec<(usize, Vec<f64>)> = (0..512)
        .map(|q| (q % 2, (0..4).map(|_| r.gen_range(-1.0..=1.0)).collect()))
        .collect();
    let mut registry = PlanRegistry::new();
    let local: Vec<_> = plans
        .iter()
        .map(|p| registry.register(Arc::clone(&net), p, 1.0).unwrap())
        .collect();
    let mut ws = BatchWorkspace::default();
    let expect: Vec<u64> = queries
        .iter()
        .map(|(p, x)| {
            let plan = registry.get(local[*p]).unwrap();
            plan.eval_singleton(x, &mut ws).to_bits()
        })
        .collect();

    let fleet = FleetRouter::start(
        FleetConfig::default(),
        1,
        reexec_spawner(vec![
            "fleet_worker_child".into(),
            "--ignored".into(),
            "--exact".into(),
        ]),
    )
    .unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register(&net, p, 1.0).unwrap())
        .collect();
    // Warm-up: the first query of each plan rides with its plan's
    // Register frame (and the first with the connection's Configure).
    for (k, (p, x)) in queries.iter().enumerate().take(2) {
        let got = fleet.query(ids[*p], x).unwrap();
        assert_eq!(got.to_bits(), expect[k], "warm-up query {k} diverged");
    }

    // 64 sequential queries: one frame and one write each, both ways.
    let before = fleet.stats();
    for (k, (p, x)) in queries.iter().enumerate().take(64) {
        let got = fleet.query(ids[*p], x).unwrap();
        assert_eq!(got.to_bits(), expect[k], "sequential query {k} diverged");
    }
    let after = fleet.stats();
    let frames = after.frames_sent - before.frames_sent;
    let writes = after.socket_writes - before.socket_writes;
    assert_eq!(
        writes, frames,
        "a lone query waited to be batched at the router"
    );
    let w = worker(&after);
    assert_eq!(w.answer_frames, 66);
    assert_eq!(
        w.answer_writes, w.answer_frames,
        "a lone answer waited to be batched at the worker"
    );

    // A pipelined burst of 512: coalesced on both ends.
    let handles: Vec<_> = queries
        .iter()
        .map(|(p, x)| fleet.submit(ids[*p], x.clone()))
        .collect();
    for (k, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait().unwrap().to_bits(), expect[k], "query {k} diverged");
    }
    let burst = fleet.stats();
    let frames = burst.frames_sent - after.frames_sent;
    let writes = burst.socket_writes - after.socket_writes;
    assert!(
        writes < frames,
        "router: {writes} writes for {frames} frames"
    );
    let (w0, w1) = (worker(&after), worker(&burst));
    let answers = w1.answer_frames - w0.answer_frames;
    let answer_writes = w1.answer_writes - w0.answer_writes;
    assert_eq!(answers, 512);
    assert!(
        answer_writes < answers,
        "worker: {answer_writes} writes for {answers} answers"
    );
    assert!(fleet.audit().clean(), "the log replays bitwise");
    let end = fleet.shutdown();
    assert_eq!(
        (end.requeues, end.respawns, end.protocol_errors),
        (0, 0, 0),
        "a healthy run trips no recovery"
    );
}
