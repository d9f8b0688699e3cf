//! Cross-engine differential fuzzing: one generator, every engine.
//!
//! The workspace now has four bitwise-equivalent ways to evaluate a
//! compiled plan's disturbance over an input set:
//!
//! 1. **singleton batches** — each row as its own `output_error_batch`
//!    call (the serving engine's reference path);
//! 2. **whole-batch** `output_error_batch` (the PR 1 engine, and the
//!    reference implementation the others are stated against);
//! 3. **multi-plan suffix** `output_error_many` (PR 4's shared nominal
//!    checkpoint + per-plan resume);
//! 4. **streaming extend** — the input set pushed in chunks through
//!    `StreamingEvaluator` (appendable checkpoint + per-chunk resumes).
//!
//! One proptest generator drives random networks, random fault plans
//! (every kind: crash / stuck-at / Byzantine neurons, crash / Byzantine
//! hidden and output synapses) and random inputs through all four and
//! asserts **pairwise bitwise agreement** — so when a fifth engine
//! arrives (or one of these four drifts), the disagreement is pinned to
//! an engine pair and a concrete `(net, plan, input)` witness instead of
//! surfacing as a distant downstream diff. The scalar per-input engine
//! (`output_error`) is held to the documented ≤ 1e-12 batch/scalar
//! envelope rather than bitwise — it accumulates dot products in a
//! different order and uses `libm` transcendentals.
//!
//! A **checkpoint-source sweep** rides on the same generator: the plans
//! are registered in a [`neurofail::inject::PlanRegistry`] and evaluated
//! with the nominal checkpoint supplied by each source in turn — a fresh
//! pass, a cold and a warm [`neurofail::inject::CheckpointCache`], and an
//! [`neurofail::inject::ArtifactStore`] populated by an earlier cache —
//! each held bitwise to the whole-batch reference. With the streaming
//! extend above, that is the executable form of ARCHITECTURE contract 14
//! (the checkpoint source is bitwise-invisible).
//!
//! A **compute-backend sweep** rides on the same generator: the
//! whole-batch engine is re-run under every supported
//! [`neurofail::tensor::backend`] kind and held to its per-backend
//! determinism contract against a forced-portable reference (AVX2
//! bitwise, other SIMD backends ≤ 1e-12).

use std::sync::Arc;

use neurofail::data::rng::rng;
use neurofail::inject::plan::{
    InjectionPlan, NeuronFault, NeuronSite, SynapseFault, SynapseSite, SynapseTarget,
};
use neurofail::inject::{ByzantineStrategy, CompiledPlan, StreamingEvaluator};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp, Workspace};
use neurofail::tensor::backend::{self, BackendKind};
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

fn build_net(seed: u64, depth: usize, width: usize, tanh: bool, bias: bool) -> Mlp {
    let act = if tanh {
        Activation::Tanh { k: 0.9 }
    } else {
        Activation::Sigmoid { k: 1.1 }
    };
    let mut b = MlpBuilder::new(3);
    for i in 0..depth {
        b = b.dense(width + (i % 2), act);
    }
    b.init(Init::Uniform { a: 0.6 })
        .bias(bias)
        .build(&mut rng(seed))
}

/// A random plan over `net`: up to three neuron sites and two synapse
/// sites, kinds and positions drawn from the seeded stream — the same
/// site space the plan-family suites enumerate by hand, sampled instead.
fn random_plan(net: &Mlp, seed: u64) -> InjectionPlan {
    let widths = net.widths();
    let depth = widths.len();
    let mut r = rng(seed ^ 0xF022);
    let mut neurons = Vec::new();
    let mut used: Vec<(usize, usize)> = Vec::new();
    for _ in 0..r.gen_range(0..=3usize) {
        let layer = r.gen_range(0..depth);
        let neuron = r.gen_range(0..widths[layer]);
        if used.contains(&(layer, neuron)) {
            continue; // compiled plans reject duplicate neuron sites
        }
        used.push((layer, neuron));
        let fault = match r.gen_range(0..4u8) {
            0 => NeuronFault::Crash,
            1 => NeuronFault::StuckAt(r.gen_range(-2.0..2.0)),
            2 => NeuronFault::Byzantine(match r.gen_range(0..4u8) {
                0 => ByzantineStrategy::MaxPositive,
                1 => ByzantineStrategy::MaxNegative,
                2 => ByzantineStrategy::OpposeNominal,
                _ => ByzantineStrategy::Random { seed: seed ^ 0x9 },
            }),
            _ => NeuronFault::Crash,
        };
        neurons.push(NeuronSite {
            layer,
            neuron,
            fault,
        });
    }
    let mut synapses = Vec::new();
    for _ in 0..r.gen_range(0..=2usize) {
        let fault = if r.gen_range(0..2u8) == 0 {
            SynapseFault::Crash
        } else {
            SynapseFault::Byzantine(r.gen_range(-3.0..3.0))
        };
        let target = if r.gen_range(0..3u8) == 0 {
            SynapseTarget::Output {
                from: r.gen_range(0..widths[depth - 1]),
            }
        } else {
            let layer = r.gen_range(0..depth);
            let fan_in = if layer == 0 {
                net.input_dim()
            } else {
                widths[layer - 1]
            };
            SynapseTarget::Hidden {
                layer,
                to: r.gen_range(0..widths[layer]),
                from: r.gen_range(0..fan_in),
            }
        };
        synapses.push(SynapseSite { target, fault });
    }
    InjectionPlan { neurons, synapses }
}

fn random_inputs(seed: u64, batch: usize, d: usize) -> Matrix {
    let mut r = rng(seed ^ 0xD1FF);
    Matrix::from_fn(batch, d, |_, _| r.gen_range(-1.0..=1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_engines_agree_bitwise(
        seed in 0u64..5000,
        depth in 1usize..5,
        width in 3usize..9,
        batch in 0usize..11,
        chunk_size in 1usize..5,
        plan_count in 1usize..4,
        tanh in proptest::bool::ANY,
        bias in proptest::bool::ANY,
    ) {
        let net = Arc::new(build_net(seed, depth, width, tanh, bias));
        let plans: Vec<CompiledPlan> = (0..plan_count)
            .map(|p| {
                let plan = random_plan(&net, seed.wrapping_add(p as u64 * 7919));
                CompiledPlan::compile(&plan, &net, 1.0).expect("generator stays in range")
            })
            .collect();
        let xs = random_inputs(seed, batch, 3);

        // Engine 2 (reference): whole-batch evaluation, per plan.
        let mut ws = BatchWorkspace::default();
        let whole: Vec<Vec<f64>> = plans
            .iter()
            .map(|p| p.output_error_batch(&net, &xs, &mut ws))
            .collect();

        // Engine 1: every row as its own singleton batch.
        let mut one = Matrix::zeros(1, 3);
        for (pi, plan) in plans.iter().enumerate() {
            for (b, wv) in whole[pi].iter().enumerate() {
                one.row_mut(0).copy_from_slice(xs.row(b));
                let single = plan.output_error_batch(&net, &one, &mut ws)[0];
                prop_assert_eq!(
                    single.to_bits(), wv.to_bits(),
                    "singleton vs whole-batch: plan {}, row {}", pi, b
                );
            }
        }

        // Engine 3: multi-plan suffix sharing one nominal checkpoint.
        let many = neurofail::inject::output_error_many(&net, &xs, &plans);
        for (pi, (m, w)) in many.iter().zip(&whole).enumerate() {
            prop_assert_eq!(m.len(), w.len());
            for (b, (mv, wv)) in m.iter().zip(w).enumerate() {
                prop_assert_eq!(
                    mv.to_bits(), wv.to_bits(),
                    "suffix vs whole-batch: plan {}, row {}", pi, b
                );
            }
        }

        // Engine 4: streaming extend, the input set arriving in chunks.
        let mut stream = StreamingEvaluator::new(Arc::clone(&net), plans.clone());
        let mut streamed: Vec<Vec<f64>> = vec![Vec::new(); plans.len()];
        let mut start = 0;
        while start < batch {
            let rows = chunk_size.min(batch - start);
            let chunk = Matrix::from_fn(rows, 3, |r, c| xs.get(start + r, c));
            for (p, errs) in stream.push_chunk(&chunk).into_iter().enumerate() {
                streamed[p].extend(errs);
            }
            start += rows;
        }
        for (pi, (s, w)) in streamed.iter().zip(&whole).enumerate() {
            prop_assert_eq!(s.len(), w.len());
            for (b, (sv, wv)) in s.iter().zip(w).enumerate() {
                prop_assert_eq!(
                    sv.to_bits(), wv.to_bits(),
                    "streaming vs whole-batch: plan {}, row {}", pi, b
                );
            }
        }

        // Checkpoint-source sweep (ARCHITECTURE contract 14): the same
        // plans through a registry, the nominal checkpoint supplied by a
        // fresh pass, a cold cache, a warm cache and a store a previous
        // cache populated — each bitwise the whole-batch reference.
        {
            use neurofail::inject::{ArtifactStore, CheckpointCache, PlanRegistry};
            let mut registry = PlanRegistry::new();
            let ids: Vec<_> = plans
                .iter()
                .map(|p| registry.register_compiled(Arc::clone(&net), p.clone()))
                .collect();
            let dir = std::env::temp_dir()
                .join(format!("nf-engine-fuzz-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut scratch = BatchWorkspace::default();
            let mut cache = CheckpointCache::new(2);
            cache.attach_store(ArtifactStore::open(&dir).expect("open store"));
            let mut sources = vec![("fresh", registry.eval_many(&ids, &xs))];
            for source in ["cold cache", "warm cache"] {
                sources.push((source, registry.eval_many_cached(&ids, &xs, &mut cache, &mut scratch)));
            }
            prop_assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
            drop(cache); // flushes the store index
            let mut stored = CheckpointCache::new(2);
            stored.attach_store(ArtifactStore::open(&dir).expect("reopen store"));
            sources.push(("store", registry.eval_many_cached(&ids, &xs, &mut stored, &mut scratch)));
            let store_hits = stored.store_stats().expect("store attached").hits;
            let store_misses = stored.stats().misses;
            drop(stored);
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(store_hits > 0, "store leg never hit the store");
            prop_assert_eq!(store_misses, 0, "store leg ran a nominal pass");
            for (source, got) in &sources {
                for (pi, (g, w)) in got.iter().zip(&whole).enumerate() {
                    prop_assert_eq!(g.len(), w.len());
                    for (b, (gv, wv)) in g.iter().zip(w).enumerate() {
                        prop_assert_eq!(
                            gv.to_bits(), wv.to_bits(),
                            "{} vs whole-batch: plan {}, row {}", source, pi, b
                        );
                    }
                }
            }
        }

        // Backend sweep: the same whole-batch evaluation under every
        // supported compute backend, against a forced-portable reference.
        // AVX2 is bitwise by the documented contract; any other SIMD
        // backend rides at the ≤ 1e-12 per-backend envelope. Mixed32 is
        // opt-in reduced precision with its own (wider) envelope and is
        // exercised by the dedicated backend suites instead.
        let portable: Vec<Vec<f64>> = backend::with_backend(BackendKind::Portable, || {
            plans
                .iter()
                .map(|p| p.output_error_batch(&net, &xs, &mut ws))
                .collect()
        });
        for kind in backend::supported_kinds() {
            if kind == BackendKind::Mixed32 {
                continue;
            }
            let got: Vec<Vec<f64>> = backend::with_backend(kind, || {
                plans
                    .iter()
                    .map(|p| p.output_error_batch(&net, &xs, &mut ws))
                    .collect()
            });
            for (pi, (g, p)) in got.iter().zip(&portable).enumerate() {
                prop_assert_eq!(g.len(), p.len());
                for (b, (gv, pv)) in g.iter().zip(p).enumerate() {
                    if matches!(kind, BackendKind::Portable | BackendKind::Avx2) {
                        prop_assert_eq!(
                            gv.to_bits(), pv.to_bits(),
                            "{} vs portable: plan {}, row {}", kind.name(), pi, b
                        );
                    } else {
                        prop_assert!(
                            (gv - pv).abs() <= 1e-12 * pv.abs().max(1.0),
                            "{} vs portable: plan {}, row {}: {:e} vs {:e}",
                            kind.name(), pi, b, gv, pv
                        );
                    }
                }
            }
        }
        // The forced-portable reference itself agrees bitwise with the
        // ambient-backend `whole` evaluation only when the ambient GEMM
        // order is order-identical; what the engines guarantee pairwise
        // is agreement *under a fixed ambient backend*, checked above.

        // The scalar engine rides along at its documented ≤ 1e-12
        // batch/scalar envelope (different accumulation order + libm).
        let mut sws = Workspace::for_net(&net);
        for (pi, plan) in plans.iter().enumerate() {
            for (b, wv) in whole[pi].iter().enumerate() {
                let scalar = plan.output_error(&net, xs.row(b), &mut sws);
                prop_assert!(
                    (scalar - wv).abs() <= 1e-12,
                    "scalar vs batch: plan {}, row {}: {:e} vs {:e}",
                    pi, b, scalar, wv
                );
            }
        }
    }
}
