//! `serve_query` and `fleet_query`: one seeded stream of certification
//! queries, sent through an in-process `CertServer` or through a
//! `FleetRouter` with one re-executed worker process.
//!
//! Latency comes from a closed loop: one caller, one query at a time.
//! Throughput comes from a saturation phase that keeps [`IN_FLIGHT`]
//! queries outstanding from one thread, counted per 50 ms window. The
//! traced mode adds an open loop: seeded Poisson arrivals at
//! [`OPEN_RATE`] from one generator thread that sleeps until each due
//! time and then submits whatever is due, with latency counted from the
//! due time; on a host that stalls the benchmark's threads for
//! milliseconds at a time, its tail measures the stalls, so it is a
//! diagnostic rather than an end-to-end metric. Every answer is held
//! bitwise to `RegisteredPlan::eval_singleton`.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use neurofail_data::rng::rng;
use neurofail_fleet::{reexec_spawner, FleetConfig, FleetHandle, FleetPlanId, FleetRouter};
use neurofail_inject::{InjectionPlan, PlanId, PlanRegistry};
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_serve::{CertServer, ResponseHandle, ServeConfig};
use rand::Rng;

use crate::common::{ms, sigmoid_net, Segments, Tally, Windows};
use crate::trace::Tracer;

/// Open-loop offered load, queries per second: about a quarter of what
/// the fleet path saturates at on a 2-vCPU host.
pub const OPEN_RATE: f64 = 20_000.0;
/// Queries the saturation phase keeps outstanding.
pub const IN_FLIGHT: usize = 64;
/// Saturation throughput is measured per window of this length.
const SATURATION_WINDOW: Duration = Duration::from_millis(50);
/// Distinct input rows the queries draw from.
const POOL: usize = 1024;

/// The seeded traffic: an L4 w32 sigmoid net over 8 inputs, 16 crash
/// plans (4 neurons in each of the 4 layers), an input pool, the
/// bitwise reference of every (plan, input) pair, and the order in
/// which queries pick them.
pub struct Traffic {
    pub net: Arc<Mlp>,
    pub plans: Vec<InjectionPlan>,
    pub inputs: Vec<Vec<f64>>,
    /// `refs[plan][input]`, from `RegisteredPlan::eval_singleton`.
    pub refs: Vec<Vec<f64>>,
    picks: Vec<(u16, u16)>,
}

impl Traffic {
    pub fn new(seed: u64) -> Traffic {
        let net = sigmoid_net(4, 32, 8, seed ^ 0x5E57);
        let mut r = rng(seed);
        let mut plans = Vec::new();
        for layer in 0..4 {
            let mut neurons: Vec<usize> = Vec::new();
            while neurons.len() < 4 {
                let n = r.gen_range(0..32usize);
                if !neurons.contains(&n) {
                    neurons.push(n);
                }
            }
            plans.extend(
                neurons
                    .into_iter()
                    .map(|n| InjectionPlan::crash([(layer, n)])),
            );
        }
        let inputs: Vec<Vec<f64>> = (0..POOL)
            .map(|_| (0..8).map(|_| r.gen_range(0.0..=1.0)).collect())
            .collect();
        let mut registry = PlanRegistry::new();
        let mut ws = BatchWorkspace::default();
        let refs = plans
            .iter()
            .map(|p| {
                let id = registry
                    .register(Arc::clone(&net), p, 1.0)
                    .expect("sampled crash plans fit the network");
                let plan = registry.get(id).expect("just registered");
                inputs
                    .iter()
                    .map(|x| plan.eval_singleton(x, &mut ws))
                    .collect()
            })
            .collect();
        let picks = (0..1 << 16)
            .map(|_| (r.gen_range(0..16u16), r.gen_range(0..POOL as u16)))
            .collect();
        Traffic {
            net,
            plans,
            inputs,
            refs,
            picks,
        }
    }

    /// The `(plan, input)` of query `k`.
    fn pick(&self, k: usize) -> (usize, usize) {
        let (p, i) = self.picks[k % self.picks.len()];
        (p as usize, i as usize)
    }

    /// Submit query `k`, recording its submit span.
    fn submit<C: Client>(
        &self,
        client: &C,
        k: usize,
        tr: &Tracer,
        parent: u32,
    ) -> Result<C::Handle, String> {
        let (p, i) = self.pick(k);
        let start = Instant::now();
        let h = client.submit(p, self.inputs[i].clone());
        tr.record(tr.id(), C::SUBMIT, parent, k as u64, start, Instant::now());
        h
    }

    fn check(&self, k: usize, got: Result<f64, String>, tally: &mut Tally) {
        let (p, i) = self.pick(k);
        tally.check(got, self.refs[p][i]);
    }
}

/// A serving front end the traffic can be sent through.
pub trait Client: Sync + Sized {
    type Handle: Send;
    /// Span names of the submit call and of the whole request.
    const SUBMIT: &'static str;
    const REQUEST: &'static str;
    /// Bring the front end up over the traffic's plans.
    fn start(t: &Traffic) -> Result<Self, String>;
    fn submit(&self, plan: usize, input: Vec<f64>) -> Result<Self::Handle, String>;
    /// The answer and, where the server reports it, its own
    /// submit-to-answer latency.
    fn wait(&self, h: Self::Handle) -> Result<(f64, Option<Duration>), String>;
    /// Tear down, after checking what the front end can check about
    /// itself, and add its counters.
    fn finish(self, counters: &mut Counters, tally: &mut Tally);
}

/// Counters summed over every front end a run brought up. Recovery
/// counters are all zero on a healthy run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub flushes: u64,
    pub rows_served: u64,
    pub max_queue_depth: usize,
    pub worker_restarts: u64,
    pub rows_requeued: u64,
    pub answers: u64,
    pub audited: u64,
    pub requeues: u64,
    pub respawns: u64,
    pub worker_quarantines: u64,
    pub heartbeat_kills: u64,
    pub protocol_errors: u64,
}

impl Counters {
    pub fn mean_batch(&self) -> f64 {
        self.rows_served as f64 / self.flushes.max(1) as f64
    }
}

/// In-process server: all 16 plans coalesced onto one shard, the default
/// `ServeConfig` otherwise.
pub struct Serve {
    server: CertServer,
    ids: Vec<PlanId>,
}

impl Client for Serve {
    type Handle = ResponseHandle;
    const SUBMIT: &'static str = "serve.submit";
    const REQUEST: &'static str = "serve.request";

    fn start(t: &Traffic) -> Result<Serve, String> {
        let mut registry = PlanRegistry::new();
        let ids = t
            .plans
            .iter()
            .map(|p| registry.register(Arc::clone(&t.net), p, 1.0))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("admission: {e}"))?;
        let cfg = ServeConfig {
            coalesce_plans: true,
            ..ServeConfig::default()
        };
        Ok(Serve {
            server: CertServer::start(&registry, cfg),
            ids,
        })
    }

    fn submit(&self, plan: usize, input: Vec<f64>) -> Result<ResponseHandle, String> {
        self.server
            .submit(self.ids[plan], input)
            .map_err(|e| format!("submit: {e:?}"))
    }

    fn wait(&self, h: ResponseHandle) -> Result<(f64, Option<Duration>), String> {
        h.wait_response()
            .map(|r| (r.value, Some(r.latency)))
            .map_err(|e| format!("answer: {e:?}"))
    }

    fn finish(self, c: &mut Counters, _: &mut Tally) {
        // Every route shares the one coalesced shard: its stats are the
        // first route's.
        let s = self.server.shutdown().swap_remove(0);
        c.flushes += s.flushes;
        c.rows_served += s.rows_served;
        c.max_queue_depth = c.max_queue_depth.max(s.max_queue_depth);
        c.worker_restarts += s.worker_restarts;
        c.rows_requeued += s.rows_requeued;
    }
}

/// One worker process behind a `FleetRouter`, unix transport, default
/// `FleetConfig`. The worker is this binary, re-executed.
pub struct Fleet {
    router: FleetRouter,
    ids: Vec<FleetPlanId>,
}

impl Client for Fleet {
    type Handle = FleetHandle;
    const SUBMIT: &'static str = "fleet.submit";
    const REQUEST: &'static str = "fleet.request";

    fn start(t: &Traffic) -> Result<Fleet, String> {
        let router = FleetRouter::start(FleetConfig::default(), 1, reexec_spawner(Vec::new()))
            .map_err(|e| format!("fleet start: {e}"))?;
        let ids = t
            .plans
            .iter()
            .map(|p| router.register(&t.net, p, 1.0))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("fleet register: {e}"))?;
        Ok(Fleet { router, ids })
    }

    fn submit(&self, plan: usize, input: Vec<f64>) -> Result<FleetHandle, String> {
        Ok(self.router.submit(self.ids[plan], input))
    }

    fn wait(&self, h: FleetHandle) -> Result<(f64, Option<Duration>), String> {
        h.wait().map(|v| (v, None)).map_err(|e| format!("{e}"))
    }

    /// The worker replays its whole request log bitwise before the fleet
    /// shuts down.
    fn finish(self, c: &mut Counters, tally: &mut Tally) {
        let audit = self.router.audit();
        if audit.clean() && audit.entries() > 0 {
            tally.attempted += 1;
        } else {
            tally.wrong(&format!("fleet audit failed: {audit:?}"));
        }
        c.audited += audit.entries();
        let s = self.router.shutdown();
        c.answers += s.answers;
        c.requeues += s.requeues;
        c.respawns += s.respawns;
        c.worker_quarantines += s.worker_quarantines;
        c.heartbeat_kills += s.heartbeat_kills;
        c.protocol_errors += s.protocol_errors;
    }
}

/// What one serving run measured.
#[derive(Default)]
pub struct QueryRun {
    /// Seconds from nothing to the first answered query, per bring-up.
    pub setup_s: Vec<f64>,
    /// Closed-loop latency, submit to answer, ms, per cycle.
    pub latency_ms: Segments,
    /// The server's own submit-to-answer latency, ms (in-process only).
    pub server_ms: Vec<f64>,
    /// Open-loop latency from each request's due time, ms.
    pub open_ms: Vec<f64>,
    /// How late the generator submitted each open-loop request, ms.
    pub late_ms: Vec<f64>,
    /// Saturation throughput per window, answered rows per second.
    pub window_rates: Vec<f64>,
    pub counters: Counters,
    pub tally: Tally,
}

/// How much traffic a serving run sends. The traffic comes in cycles,
/// each on a front end of its own: a timed bring-up, warm-up, a
/// closed-loop segment, an open-loop segment, a saturation segment and
/// tear-down. Short cycles keep each fleet worker's request log small
/// enough to audit, and spread every phase over the whole run.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Closed-loop queries per cycle.
    pub closed: usize,
    /// Open-loop arrivals per cycle.
    pub arrivals: usize,
    /// How each cycle's saturation segment stops.
    pub saturation: Stop,
    /// How many cycles: until this much time has passed, or a count.
    pub cycles: Stop,
}

#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Answered(usize),
}

impl Stop {
    /// Whether to go on after `done` units, `since` the start.
    pub fn more(self, done: usize, since: Instant) -> bool {
        match self {
            Stop::After(d) => since.elapsed() < d,
            Stop::Answered(n) => done < n,
        }
    }
}

/// Send the traffic in cycles. Each cycle opens with a timed bring-up,
/// from nothing to the first answered query, whose front end then
/// carries the cycle's traffic: set-up samples spread over the run like
/// the traffic does.
pub fn run<C: Client>(t: &Traffic, seed: u64, plan: Plan, tr: &Tracer) -> Result<QueryRun, String> {
    let mut out = QueryRun::default();
    let mut windows = Windows::new(SATURATION_WINDOW);
    let t_run = Instant::now();
    let mut cycle = 0;
    while cycle == 0 || plan.cycles.more(cycle, t_run) {
        let base = cycle << 22;
        let t0 = Instant::now();
        let client = C::start(t)?;
        let got = t
            .submit(&client, base, tr, 0)
            .and_then(|h| client.wait(h))
            .map(|(v, _)| v);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        t.check(base, got, &mut out.tally);
        // Warm-up: lazily sized buffers fill and the planner settles
        // before anything is timed.
        let mut warm = Windows::new(Duration::MAX);
        saturate(
            &client,
            t,
            base + 1,
            Stop::Answered(2048),
            tr,
            &mut warm,
            &mut out.tally,
        );
        out.latency_ms.start();
        closed_loop(&client, t, base + (1 << 12), plan.closed, tr, &mut out);
        let (first, seed) = (base + (1 << 20), seed + cycle as u64);
        open_loop(&client, t, seed, first, plan.arrivals, tr, &mut out);
        windows.restart();
        let first = base + (1 << 21);
        saturate(
            &client,
            t,
            first,
            plan.saturation,
            tr,
            &mut windows,
            &mut out.tally,
        );
        client.finish(&mut out.counters, &mut out.tally);
        cycle += 1;
    }
    out.window_rates = windows.rates;
    Ok(out)
}

/// One query at a time from this thread, numbered from `first`: a lone
/// caller's latency. A host stall delays the one query in flight, not
/// every query that arrives during it, so the percentiles measure the
/// serving path rather than the host's scheduling.
fn closed_loop<C: Client>(
    client: &C,
    t: &Traffic,
    first: usize,
    queries: usize,
    tr: &Tracer,
    out: &mut QueryRun,
) {
    for k in first..first + queries {
        let span = tr.id();
        let start = Instant::now();
        let got = t.submit(client, k, tr, span).and_then(|h| client.wait(h));
        let done = Instant::now();
        tr.record(span, C::REQUEST, 0, k as u64, start, done);
        if let Ok((_, server)) = &got {
            out.latency_ms.push(ms(done - start));
            out.server_ms.extend(server.map(ms));
        }
        t.check(k, got.map(|(v, _)| v), &mut out.tally);
    }
}

/// The open-loop phase: one sleeping generator thread submits queries
/// `first..first + arrivals` at seeded Poisson times, this thread
/// collects the answers in submission order.
fn open_loop<C: Client>(
    client: &C,
    t: &Traffic,
    seed: u64,
    first: usize,
    arrivals: usize,
    tr: &Tracer,
    out: &mut QueryRun,
) {
    let mut r = rng(seed ^ 0x09E4_100F);
    let mut at = 0.0f64;
    let due: Vec<Duration> = (0..arrivals)
        .map(|_| {
            at += -(1.0 - r.gen::<f64>()).ln() / OPEN_RATE;
            Duration::from_secs_f64(at)
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let late = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let start = Instant::now() + Duration::from_millis(2);
            let mut late = Vec::with_capacity(due.len());
            for (k, d) in due.iter().enumerate() {
                let due_at = start + *d;
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                late.push(ms(Instant::now().saturating_duration_since(due_at)));
                let h = t.submit(client, first + k, tr, 0);
                if tx.send((first + k, due_at, h)).is_err() {
                    break;
                }
            }
            late
        });
        for (k, due_at, h) in rx {
            let got = h.and_then(|h| client.wait(h));
            if got.is_ok() {
                out.open_ms.push(ms(due_at.elapsed()));
            }
            t.check(k, got.map(|(v, _)| v), &mut out.tally);
        }
        generator.join().expect("load generator panicked")
    });
    out.late_ms.extend(late);
}

/// Keep [`IN_FLIGHT`] queries outstanding from this thread, numbering
/// them from `first`, until `stop`; every answer counts into `windows`.
fn saturate<C: Client>(
    client: &C,
    t: &Traffic,
    first: usize,
    stop: Stop,
    tr: &Tracer,
    windows: &mut Windows,
    tally: &mut Tally,
) {
    let t0 = Instant::now();
    let mut queue = VecDeque::with_capacity(IN_FLIGHT);
    let mut k = first;
    while queue.len() < IN_FLIGHT && stop.more(k - first, t0) {
        queue.push_back((k, t.submit(client, k, tr, 0)));
        k += 1;
    }
    while let Some((q, h)) = queue.pop_front() {
        let got = h.and_then(|h| client.wait(h)).map(|(v, _)| v);
        if got.is_ok() {
            windows.add(1.0);
        }
        t.check(q, got, tally);
        if stop.more(k - first, t0) {
            queue.push_back((k, t.submit(client, k, tr, 0)));
            k += 1;
        }
    }
}
