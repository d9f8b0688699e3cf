//! `recert`: a restarted certifier re-verifies a 16-plan family against
//! the `ArtifactStore` a predecessor populated.
//!
//! Bring-up is `ArtifactStore::open`, warm admission of the family
//! through `register_with_store`, attaching the store to a 2-entry
//! `CheckpointCache`, and the first answered call. Traffic is a fixed
//! sequence of [`SWEEPS`] sweeps of `eval_many_cached` calls per round.
//! A sweep re-verifies the family against each of the [`WORKING_SET`]
//! probe sets of [`ROWS`] rows; the working set is larger than the
//! memory tier, so every repeat is a verified disk-tier read. After each
//! sweep one fresh probe set misses, computes and publishes. A sweep is
//! the unit of latency and throughput; the publishes are timed on their
//! own, because publish latency on the shared virtual disk of a 2-vCPU
//! machine moved 2x between runs of unchanged code and would have made
//! the end-to-end numbers measure the disk. The sequence is fixed
//! because every publish rewrites the whole store index: the store's
//! final size must not depend on host speed. Every result is held
//! bitwise to an uncached `eval_many`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neurofail_data::rng::rng;
use neurofail_inject::{
    AdmissionStats, ArtifactStore, CacheStats, CheckpointCache, InjectionPlan, PlanId,
    PlanRegistry, StoreStats,
};
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_tensor::Matrix;
use rand::Rng;

use crate::common::{ms, sigmoid_net, unit_matrix, RunDir, Segments, Tally};
use crate::trace::Tracer;
use crate::traffic::Stop;

const PLANS: usize = 16;
const WORKING_SET: usize = 8;
const ROWS: usize = 32;
/// Sweeps per round.
const SWEEPS: usize = 32;
/// Checkpoints the memory tier holds.
const MEMORY_TIER: usize = 2;

/// The seeded family, probe sets and their uncached references.
struct Family {
    net: Arc<Mlp>,
    plans: Vec<InjectionPlan>,
    working: Vec<Matrix>,
    fresh: Vec<Matrix>,
    /// Extra never-seen sets, for the traced publish probe.
    spare: Vec<Matrix>,
    refs_working: Vec<Vec<Vec<f64>>>,
    refs_fresh: Vec<Vec<Vec<f64>>>,
}

impl Family {
    fn new(seed: u64) -> Family {
        let net = sigmoid_net(4, 32, 8, seed ^ 0x7EC);
        let mut r = rng(seed ^ 0x7ED);
        // Four distinct neurons in each of the four layers: no two plans
        // coincide, so the store and admission counts are the same for
        // every seed.
        let mut plans = Vec::new();
        for layer in 0..4 {
            let mut neurons: Vec<usize> = Vec::new();
            while neurons.len() < PLANS / 4 {
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
        let mut sets = |n| {
            (0..n)
                .map(|_| unit_matrix(&mut r, ROWS, 8))
                .collect::<Vec<_>>()
        };
        let working = sets(WORKING_SET);
        let fresh = sets(SWEEPS);
        let spare = sets(32);
        let mut registry = PlanRegistry::new();
        let ids: Vec<PlanId> = plans
            .iter()
            .map(|p| registry.register(Arc::clone(&net), p, 1.0))
            .collect::<Result<_, _>>()
            .expect("sampled crash plans fit the network");
        let refs = |sets: &[Matrix]| -> Vec<Vec<Vec<f64>>> {
            sets.iter().map(|xs| registry.eval_many(&ids, xs)).collect()
        };
        Family {
            refs_working: refs(&working),
            refs_fresh: refs(&fresh),
            net,
            plans,
            working,
            fresh,
            spare,
        }
    }
}

/// A certifier over a store: registry, its ids and the cache the store
/// is attached to.
struct Certifier {
    registry: PlanRegistry,
    ids: Vec<PlanId>,
    cache: CheckpointCache,
    scratch: BatchWorkspace,
}

impl Certifier {
    /// Open the store, admit the family through it, attach it to a fresh
    /// cache. Traced as `store.open` and one `store.warm_admit` per plan
    /// under `parent`.
    fn start(f: &Family, dir: &Path, tr: &Tracer, parent: u32) -> Result<Certifier, String> {
        let mut store = tr
            .time("store.open", parent, || ArtifactStore::open(dir))
            .map_err(|e| format!("store open: {e}"))?;
        let mut registry = PlanRegistry::new();
        let ids = f
            .plans
            .iter()
            .map(|p| {
                tr.time("store.warm_admit", parent, || {
                    registry.register_with_store(Arc::clone(&f.net), p, 1.0, &mut store)
                })
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("admission: {e}"))?;
        let mut cache = CheckpointCache::new(MEMORY_TIER);
        cache.attach_store(store);
        Ok(Certifier {
            registry,
            ids,
            cache,
            scratch: BatchWorkspace::default(),
        })
    }

    fn eval(&mut self, xs: &Matrix) -> Vec<Vec<f64>> {
        self.registry
            .eval_many_cached(&self.ids, xs, &mut self.cache, &mut self.scratch)
    }
}

/// The predecessor: populate `dir` with the family's compiled plans and
/// the working set's checkpoints, then go away.
fn populate(f: &Family, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut c = Certifier::start(f, dir, &Tracer::new(false), 0)?;
    for xs in &f.working {
        c.eval(xs);
    }
    Ok(())
}

/// One timed bring-up over a populated store: seconds to the first
/// answered call, and the live certifier.
fn bringup(
    f: &Family,
    dir: &Path,
    tr: &Tracer,
    tally: &mut Tally,
) -> Result<(f64, Certifier), String> {
    let parent = tr.id();
    let t0 = Instant::now();
    let mut c = Certifier::start(f, dir, tr, parent)?;
    // The working set's last probe set: the first sweep then finds none
    // of its repeats in the memory tier.
    let last = WORKING_SET - 1;
    let got = tr.time("recert.first_call", parent, || c.eval(&f.working[last]));
    let end = Instant::now();
    tr.record(parent, "recert.bringup", 0, 0, t0, end);
    tally.check_all(&got, &f.refs_working[last]);
    Ok(((end - t0).as_secs_f64(), c))
}

/// What one recert run measured.
#[derive(Default)]
pub struct RecertRun {
    pub setup_s: Vec<f64>,
    /// Sweep times, ms, per round.
    pub sweep_ms: Segments,
    /// The calls that missed, computed and published, ms.
    pub miss_ms: Vec<f64>,
    /// Plan-rows per second over each round's sweeps.
    pub window_rates: Vec<f64>,
    pub tally: Tally,
    /// Counters of the last round, read before any probe touched the
    /// store.
    pub cache: CacheStats,
    pub store: StoreStats,
    pub admission: AdmissionStats,
}

/// Fixed rounds of [`SWEEPS`] sweeps until `stop`, each over a freshly
/// populated private store and opened by a timed bring-up.
pub fn run(seed: u64, stop: Stop, dirs: &RunDir, tr: &Tracer) -> Result<RecertRun, String> {
    let f = Family::new(seed);
    let mut out = RecertRun::default();
    let mut rounds = 0usize;
    let t_run = Instant::now();
    while rounds == 0 || stop.more(rounds, t_run) {
        let dir = dirs.join(&format!("store-{rounds}"));
        populate(&f, &dir)?;
        let (setup_s, mut c) = bringup(&f, &dir, tr, &mut out.tally)?;
        out.setup_s.push(setup_s);
        out.sweep_ms.start();
        let mut busy = Duration::ZERO;
        for sweep in 0..SWEEPS {
            // The sweep: every working-set probe set re-verified from the
            // disk tier.
            let span = tr.id();
            let start = Instant::now();
            for (xs, want) in f.working.iter().zip(&f.refs_working) {
                let got = tr.time("recert.hit_call", span, || c.eval(xs));
                out.tally.check_all(&got, want);
            }
            let end = Instant::now();
            tr.record(span, "recert.sweep", 0, sweep as u64, start, end);
            out.sweep_ms.push(ms(end - start));
            busy += end - start;
            // Then one fresh probe set, which misses, computes and
            // publishes: timed on its own.
            let t0 = Instant::now();
            let got = tr.time("recert.miss_call", 0, || c.eval(&f.fresh[sweep]));
            out.miss_ms.push(ms(t0.elapsed()));
            out.tally.check_all(&got, &f.refs_fresh[sweep]);
        }
        let rows = SWEEPS * WORKING_SET * PLANS * ROWS;
        out.window_rates.push(rows as f64 / busy.as_secs_f64());
        out.cache = c.cache.stats();
        out.store = c.cache.store_stats().expect("store attached");
        out.admission = c.registry.admission_stats();
        if tr.enabled() {
            probe_store(&f, &dir, tr)?;
        }
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
        rounds += 1;
    }
    Ok(out)
}

/// Traced probes straight into the store: verified loads of the working
/// set, and publishes of never-seen checkpoints.
fn probe_store(f: &Family, dir: &Path, tr: &Tracer) -> Result<(), String> {
    let mut store = ArtifactStore::open(dir).map_err(|e| format!("store open: {e}"))?;
    let mut ws = BatchWorkspace::default();
    for _ in 0..8 {
        for xs in &f.working {
            if tr
                .time("store.load", 0, || {
                    store.load_checkpoint(&f.net, xs, &mut ws)
                })
                .is_none()
            {
                return Err("store probe: working-set checkpoint missing".into());
            }
        }
    }
    for xs in &f.spare {
        let y = f.net.forward_batch(xs, &mut ws);
        tr.time("store.publish", 0, || {
            store.publish_checkpoint(&f.net, xs, &ws, &y)
        })
        .map_err(|e| format!("store publish: {e}"))?;
    }
    Ok(())
}
