//! Fleet/single-process equivalence — ARCHITECTURE contract 15, checked
//! with *real* worker processes (re-invocations of this test binary):
//!
//! * every fleet-served value is **bitwise** identical to the same query
//!   against a single-process `CertServer` over the same plans — for
//!   N ∈ {1, 2, 4} workers, cold and hot (input-partitioned) plans, and
//!   shuffled arrival orders;
//! * a fleet-sharded campaign reproduces a single-process
//!   `run_campaign` bit for bit, for every worker count;
//! * a mid-run membership change (SIGKILL of a worker while its queries
//!   and campaign shards are in flight) changes *nothing* about the
//!   answers: unanswered rows requeue to the respawned process, no
//!   request is lost or double-answered, and every surviving worker's
//!   request log replay-verifies bitwise;
//! * a worker replays its log for an audit off its frame loop, so an
//!   audit lasting many heartbeats neither gets it killed nor comes back
//!   incomplete;
//! * a worker whose serving queue is full refuses rows instead of
//!   blocking its frame loop, and the router re-sends them: callers see
//!   plain backpressure, every answer stays bitwise;
//! * the serving config reaches the workers: with `coalesce_plans` on,
//!   answers stay bitwise and logs replay clean.

use std::sync::Arc;
use std::time::{Duration, Instant};

use neurofail::data::rng::rng;
use neurofail::fleet::{reexec_spawner, FleetConfig, FleetError, FleetRouter, WorkerSpawner};
use neurofail::inject::{
    run_campaign, ByzantineStrategy, CampaignConfig, FaultSpec, InjectionPlan, PlanId,
    PlanRegistry, TrialKind,
};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp};
use neurofail::par::Parallelism;
use neurofail::serve::{CertServer, ServeConfig};
use neurofail::tensor::init::Init;
use proptest::prelude::*;
use rand::Rng;

/// The worker process. Ignored under a normal test run; fleets spawned
/// by the tests below re-invoke this binary with the `NEUROFAIL_FLEET_*`
/// environment set, which routes execution here.
#[test]
#[ignore = "fleet worker child, spawned by the tests below"]
fn fleet_worker_child() {
    if std::env::var(neurofail::fleet::ENV_ADDR).is_ok() {
        std::process::exit(neurofail::fleet::run_worker_from_env());
    }
}

fn spawner() -> WorkerSpawner {
    reexec_spawner(vec![
        "fleet_worker_child".into(),
        "--ignored".into(),
        "--exact".into(),
    ])
}

fn build_net(seed: u64, depth: usize, width: usize) -> Mlp {
    let mut b = MlpBuilder::new(3);
    for i in 0..depth {
        let act = if i % 2 == 0 {
            Activation::Sigmoid { k: 1.1 }
        } else {
            Activation::Tanh { k: 0.9 }
        };
        b = b.dense(width + (i % 2), act);
    }
    b.init(Init::Uniform { a: 0.7 }).build(&mut rng(seed))
}

/// The plan family both deployments serve, in registration order.
fn plan_family(net: &Mlp, seed: u64) -> Vec<InjectionPlan> {
    let widths = net.widths();
    vec![
        InjectionPlan::none(),
        InjectionPlan::crash([(0, 0), (0, widths[0] - 1)]),
        InjectionPlan::byzantine([(0, 1)], ByzantineStrategy::Random { seed }),
        InjectionPlan::stuck_at([((0, 0), -0.4)]),
    ]
}

/// Deterministically shuffled `(plan index, input)` pairs.
fn request_mix(seed: u64, n: usize, plans: usize) -> Vec<(usize, Vec<f64>)> {
    let mut r = rng(seed ^ 0xF1EE7);
    let mut mix: Vec<(usize, Vec<f64>)> = (0..n)
        .map(|i| {
            let input: Vec<f64> = (0..3).map(|_| r.gen_range(-1.0..=1.0)).collect();
            (i % plans, input)
        })
        .collect();
    for i in (1..mix.len()).rev() {
        let j = r.gen_range(0..=i as u64) as usize;
        mix.swap(i, j);
    }
    mix
}

/// Single-process reference: serve the same mix through one `CertServer`.
fn single_process_reference(
    net: &Arc<Mlp>,
    plans: &[InjectionPlan],
    mix: &[(usize, Vec<f64>)],
) -> Vec<f64> {
    let mut registry = PlanRegistry::new();
    let ids: Vec<PlanId> = plans
        .iter()
        .map(|p| registry.register(Arc::clone(net), p, 1.0).unwrap())
        .collect();
    let server = CertServer::start(&registry, ServeConfig::default());
    let out = mix
        .iter()
        .map(|(p, input)| server.query(ids[*p], input).unwrap())
        .collect();
    server.shutdown();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The differential property: N real worker processes serve the same
    /// shuffled mix bitwise identically to one in-process server, for
    /// N ∈ {1, 2, 4}, cold and hot plan registration alike.
    #[test]
    fn fleet_serves_bitwise_equal_to_single_process(
        seed in 0u64..500,
        depth in 1usize..4,
        width in 3usize..8,
        hot in proptest::bool::ANY,
    ) {
        let net = Arc::new(build_net(seed, depth, width));
        let plans = plan_family(&net, seed);
        let mix = request_mix(seed, 20, plans.len());
        let expect = single_process_reference(&net, &plans, &mix);

        for n_workers in [1usize, 2, 4] {
            let fleet = FleetRouter::start(FleetConfig::default(), n_workers, spawner()).unwrap();
            let ids: Vec<_> = plans
                .iter()
                .map(|p| {
                    if hot {
                        fleet.register_hot(&net, p, 1.0).unwrap()
                    } else {
                        fleet.register(&net, p, 1.0).unwrap()
                    }
                })
                .collect();
            // Submit the whole mix asynchronously, then resolve: answers
            // may interleave across workers but must match per-request.
            let handles: Vec<_> = mix
                .iter()
                .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
                .collect();
            for (k, h) in handles.into_iter().enumerate() {
                let got = h.wait().expect("fleet answers every accepted query");
                prop_assert_eq!(
                    got.to_bits(),
                    expect[k].to_bits(),
                    "query {} diverged under N={} (hot={})", k, n_workers, hot
                );
            }
            let audit = fleet.audit();
            prop_assert!(audit.clean(), "request logs must replay bitwise");
            prop_assert_eq!(audit.entries(), mix.len() as u64);
            fleet.shutdown();
        }
    }
}

/// A fleet-sharded campaign merges to the exact bits of a single-process
/// run, for every worker count.
#[test]
fn fleet_campaign_is_bitwise_equal_to_single_process() {
    let net = build_net(0xCA3, 2, 6);
    let counts = [2usize, 1];
    let cfg = CampaignConfig {
        trials: 23,
        inputs_per_trial: 6,
        ..CampaignConfig::default()
    };
    let whole = run_campaign(
        &net,
        &counts,
        TrialKind::Neurons(FaultSpec::Crash),
        &cfg,
        Parallelism::Sequential,
    );
    for n_workers in [1usize, 2, 4] {
        let fleet = FleetRouter::start(FleetConfig::default(), n_workers, spawner()).unwrap();
        let got = fleet
            .run_campaign(&net, &counts, TrialKind::Neurons(FaultSpec::Crash), &cfg)
            .expect("fleet campaign completes");
        assert_eq!(got.stats.mean.to_bits(), whole.stats.mean.to_bits());
        assert_eq!(got.stats.std_dev.to_bits(), whole.stats.std_dev.to_bits());
        assert_eq!(got.stats.min.to_bits(), whole.stats.min.to_bits());
        assert_eq!(got.stats.max.to_bits(), whole.stats.max.to_bits());
        assert_eq!(got.evaluations, whole.evaluations);
        assert_eq!(
            got.worst, whole.worst,
            "worst case diverged at N={n_workers}"
        );
        fleet.shutdown();
    }
}

/// Contract 15's membership clause: killing a worker mid-run (queries in
/// flight *and* campaign shards outstanding) loses nothing and changes
/// no answer — the dead process's rows requeue to its respawn.
#[test]
fn mid_run_membership_change_preserves_every_answer() {
    let net = Arc::new(build_net(0xD0D0, 2, 6));
    let plans = plan_family(&net, 0xD0D0);
    let mix = request_mix(0xD0D0, 40, plans.len());
    let expect = single_process_reference(&net, &plans, &mix);
    let counts = [2usize, 1];
    let camp_cfg = CampaignConfig {
        trials: 16,
        inputs_per_trial: 5,
        ..CampaignConfig::default()
    };
    let camp_whole = run_campaign(
        &net,
        &counts,
        TrialKind::Neurons(FaultSpec::Crash),
        &camp_cfg,
        Parallelism::Sequential,
    );

    let fleet = FleetRouter::start(FleetConfig::default(), 2, spawner()).unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register_hot(&net, p, 1.0).unwrap())
        .collect();

    // First half in flight…
    let first: Vec<_> = mix[..20]
        .iter()
        .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
        .collect();
    // …kick off a sharded campaign…
    let camp = std::thread::scope(|s| {
        let fleet = &fleet;
        let net = Arc::clone(&net);
        let camp = s.spawn(move || {
            fleet.run_campaign(
                &net,
                &counts,
                TrialKind::Neurons(FaultSpec::Crash),
                &camp_cfg,
            )
        });
        // …and kill a worker while both are outstanding.
        assert!(fleet.kill_worker(0), "worker 0 should be alive to kill");
        let second: Vec<_> = mix[20..]
            .iter()
            .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
            .collect();
        for (k, h) in first.into_iter().chain(second).enumerate() {
            let got = h.wait().expect("no accepted query is lost to the kill");
            assert_eq!(
                got.to_bits(),
                expect[k].to_bits(),
                "query {k} diverged across the membership change"
            );
        }
        camp.join().expect("campaign thread")
    })
    .expect("campaign survives the kill");
    assert_eq!(camp.stats.mean.to_bits(), camp_whole.stats.mean.to_bits());
    assert_eq!(camp.evaluations, camp_whole.evaluations);
    assert_eq!(camp.worst, camp_whole.worst);

    // Typed refusals still work across the boundary.
    match fleet.query(ids[0], &[0.1, 0.2]) {
        Err(FleetError::DimensionMismatch {
            expected: 3,
            got: 2,
        }) => {}
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(
            fleet.query(ids[0], &[0.1, bad, 0.3]),
            Err(FleetError::NonFiniteInput)
        );
    }
    match fleet.query(neurofail::fleet::FleetPlanId(999), &[0.1, 0.2, 0.3]) {
        Err(FleetError::UnknownPlan) => {}
        other => panic!("expected UnknownPlan, got {other:?}"),
    }

    let stats = fleet.stats();
    assert!(stats.respawns >= 1, "the killed worker must respawn");
    assert!(
        stats.requeues >= 1,
        "the killed worker's in-flight rows must requeue"
    );
    let audit = fleet.audit();
    assert!(
        audit.clean(),
        "surviving logs replay bitwise after the kill"
    );
    fleet.shutdown();
}

/// A worker replays its request log off its frame loop: an audit that
/// takes many heartbeats still comes back clean and complete, with the
/// worker answering pings throughout instead of being heartbeat-killed.
#[test]
fn long_audit_does_not_starve_heartbeats() {
    let net = Arc::new(build_net(0xA0D1, 3, 192));
    let plans = plan_family(&net, 0xA0D1);
    let cfg = FleetConfig {
        heartbeat: Duration::from_millis(25),
        max_missed_pings: 3,
        ..FleetConfig::default()
    };
    let patience = cfg.heartbeat * (cfg.max_missed_pings + 1);

    // Size the log so its replay lasts about eight patiences on this
    // build and host: the worker is this binary, so one in-process
    // singleton evaluation costs what one replayed entry does.
    let mut registry = PlanRegistry::new();
    let probe = registry.register(Arc::clone(&net), &plans[1], 1.0).unwrap();
    let probe = registry.get(probe).unwrap();
    let mut ws = BatchWorkspace::default();
    let t0 = Instant::now();
    for i in 0..32 {
        probe.eval_singleton(&[0.03 * i as f64, 0.2, -0.4], &mut ws);
    }
    let per_entry = t0.elapsed().as_secs_f64() / 32.0;
    let n = ((8.0 * patience.as_secs_f64() / per_entry).ceil() as usize).clamp(64, 50_000);

    let fleet = FleetRouter::start(cfg, 1, spawner()).unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register(&net, p, 1.0).unwrap())
        .collect();
    let mix = request_mix(0xA0D1, n, plans.len());
    // Waves well under the worker's queue capacity, so its frame loop
    // never blocks on backpressure.
    for wave in mix.chunks(256) {
        let handles: Vec<_> = wave
            .iter()
            .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
            .collect();
        for h in handles {
            h.wait().expect("served");
        }
    }

    let t0 = Instant::now();
    let audit = fleet.audit();
    let took = t0.elapsed();
    let stats = fleet.stats();
    fleet.shutdown();
    assert_eq!(stats.heartbeat_kills, 0, "the audit starved the heartbeat");
    assert!(
        matches!(audit.workers[..], [Some(_)]),
        "the worker died during its audit: {audit:?}"
    );
    assert!(audit.clean(), "the log replays bitwise: {audit:?}");
    assert_eq!(audit.entries(), n as u64);
    assert!(
        took > patience,
        "the audit of {n} entries ({took:?}) must outlast the heartbeat patience ({patience:?})"
    );
}

/// A full worker queue is backpressure, not a stall: with a 4-row queue
/// per plan, 2000 pipelined queries are refused and re-sent many times
/// over, yet every one is answered bitwise, the worker keeps answering
/// pings through a 25 ms heartbeat, and its log replays clean.
#[test]
fn full_worker_queue_is_backpressure_not_a_stall() {
    let net = Arc::new(build_net(0xB0B, 2, 6));
    let plans = plan_family(&net, 0xB0B);
    let mix = request_mix(0xB0B, 2000, plans.len());
    let expect = single_process_reference(&net, &plans, &mix);
    let cfg = FleetConfig {
        heartbeat: Duration::from_millis(25),
        serve: ServeConfig {
            queue_capacity: 4,
            record_log: true,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    };
    let fleet = FleetRouter::start(cfg, 1, spawner()).unwrap();
    let ids: Vec<_> = plans
        .iter()
        .map(|p| fleet.register(&net, p, 1.0).unwrap())
        .collect();
    let handles: Vec<_> = mix
        .iter()
        .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
        .collect();
    for (k, h) in handles.into_iter().enumerate() {
        let got = h.wait().expect("a full worker queue never fails a query");
        assert_eq!(got.to_bits(), expect[k].to_bits(), "query {k} diverged");
    }
    let stats = fleet.stats();
    let audit = fleet.audit();
    fleet.shutdown();
    assert_eq!(stats.heartbeat_kills, 0, "the frame loop stopped reading");
    assert!(
        stats.queue_full_retries > 0,
        "a 4-row queue must have refused some of 2000 pipelined rows"
    );
    assert_eq!(stats.answers, mix.len() as u64);
    assert!(audit.clean(), "the log replays bitwise: {audit:?}");
    assert_eq!(audit.entries(), mix.len() as u64);
}

/// `coalesce_plans` crosses the wire: plans over one network share a
/// serving shard on each worker, and every answer is still bitwise the
/// single-process reference, with a clean audit.
#[test]
fn coalesced_plans_serve_bitwise_over_the_wire() {
    let net = Arc::new(build_net(0xC0A1, 2, 5));
    let plans = plan_family(&net, 0xC0A1);
    let mix = request_mix(0xC0A1, 200, plans.len());
    let expect = single_process_reference(&net, &plans, &mix);
    for n_workers in [1usize, 2] {
        let cfg = FleetConfig {
            serve: ServeConfig {
                coalesce_plans: true,
                record_log: true,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        };
        let fleet = FleetRouter::start(cfg, n_workers, spawner()).unwrap();
        let ids: Vec<_> = plans
            .iter()
            .map(|p| fleet.register_hot(&net, p, 1.0).unwrap())
            .collect();
        let handles: Vec<_> = mix
            .iter()
            .map(|(p, input)| fleet.submit(ids[*p], input.clone()))
            .collect();
        for (k, h) in handles.into_iter().enumerate() {
            let got = h.wait().expect("served");
            assert_eq!(
                got.to_bits(),
                expect[k].to_bits(),
                "query {k} diverged under N={n_workers}"
            );
        }
        let audit = fleet.audit();
        assert!(audit.clean(), "request logs must replay bitwise");
        assert_eq!(audit.entries(), mix.len() as u64);
        fleet.shutdown();
    }
}
