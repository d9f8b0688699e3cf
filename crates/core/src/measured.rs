//! Measured tolerance thresholds — the empirical counterpart of
//! [`crate::tolerance`], routed through the checkpoint cache.
//!
//! The analytic searches in [`crate::tolerance`] ask how many faults fit
//! inside the slack `ε − ε'` *according to the bound*. The measured
//! searches here ask the same question of the **observed** disturbance
//! `|F_neu(X) − F_fail(X)|` over a fixed probe set (Halton/grid points,
//! a held-out dataset) — the quantity the paper's experiments price the
//! bound against. These searches share one expensive shape: across ε′
//! candidates, capacity candidates and repeated invocations, the *same*
//! probe set is re-evaluated against plan families on the *same*
//! network, so the nominal pass is identical every time. Both entry
//! points therefore take a
//! [`CheckpointCache`]: the first
//! evaluation of a `(net, probe set)` pair pays the one nominal pass,
//! and every later iteration — within a search and across searches —
//! resumes per-plan faulty suffixes against the cached checkpoint,
//! skipping the nominal pass entirely (observable through
//! [`CacheStats`](neurofail_inject::cache::CacheStats)).
//!
//! Values are **bitwise** independent of the cache (hit or miss, evicted
//! or resident): the cache only memoises a checkpoint the cold path
//! would recompute identically (contract 14: the checkpoint source is
//! bitwise-invisible).

use std::sync::Arc;

use neurofail_inject::exhaustive::Combinations;
use neurofail_inject::{CheckpointCache, CompiledPlan, InjectionPlan};
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_tensor::Matrix;

use crate::budget::EpsilonBudget;

/// One ε′ candidate's measured crash threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredThreshold {
    /// The ε′ candidate this row answers for.
    pub eps_prime: f64,
    /// Largest `k` such that **every** `j ≤ k`-subset crash family at the
    /// probed layer keeps the measured worst disturbance within
    /// `ε − ε′`.
    pub max_faults: usize,
    /// The measured worst disturbance at `max_faults` (0 for
    /// `max_faults == 0`).
    pub worst_error: f64,
}

/// Measured worst disturbance of the exhaustive `k`-crash family at
/// `layer`, evaluated over `xs` by resuming every subset's faulty suffix
/// from the cached nominal checkpoint (one nominal pass per distinct
/// `(net, xs)`, ever).
fn worst_crash_error(
    net: &Arc<Mlp>,
    layer: usize,
    k: usize,
    xs: &Matrix,
    capacity: f64,
    cache: &mut CheckpointCache,
    scratch: &mut BatchWorkspace,
) -> f64 {
    let width = net.widths()[layer];
    // One cache resolution (hash + bitwise witness check) for the whole
    // family; every subset then resumes against the borrowed checkpoint.
    let ck = cache.checkpoint(net, xs);
    let mut worst = 0.0f64;
    for subset in Combinations::new(width, k) {
        let plan = InjectionPlan::crash(subset.iter().map(|&n| (layer, n)));
        let compiled = CompiledPlan::compile(&plan, net, capacity).expect("in-range subset");
        for e in compiled.output_error_checkpointed(net, xs, ck.ws, ck.nominal_y, scratch) {
            worst = worst.max(e);
        }
    }
    worst
}

/// For each ε′ candidate, the largest crash count at `layer` whose
/// measured worst-case disturbance over the probe set `xs` stays within
/// the slack `ε − ε′` — the inverse tolerance question of
/// [`crate::tolerance::greedy_max_faults`], answered by measurement
/// instead of the Theorem 1 bound (the measured threshold is never
/// smaller: the bound is sound).
///
/// The per-`k` worst disturbances are ε′-independent, so they are
/// evaluated lazily once and shared across every candidate; the nominal
/// pass over `xs` is shared across *everything* through `cache` —
/// repeated calls (e.g. re-running the sweep as the probe set version
/// changes or with refined ε′ grids) skip it entirely.
///
/// ε′ candidates that do not form a valid budget with `eps`
/// (non-positive, or ≥ ε) report a threshold of 0 faults.
///
/// # Panics
/// If `layer` is out of range for `net` (via `widths()` indexing).
pub fn measured_crash_thresholds(
    net: &Arc<Mlp>,
    layer: usize,
    xs: &Matrix,
    eps: f64,
    eps_primes: &[f64],
    capacity: f64,
    cache: &mut CheckpointCache,
) -> Vec<MeasuredThreshold> {
    let width = net.widths()[layer];
    let mut scratch = BatchWorkspace::default();
    // Lazily memoised worst-per-k, shared across all ε′ candidates.
    let mut worsts: Vec<Option<f64>> = vec![None; width + 1];
    worsts[0] = Some(0.0);
    eps_primes
        .iter()
        .map(|&eps_prime| {
            let Ok(budget) = EpsilonBudget::new(eps, eps_prime) else {
                return MeasuredThreshold {
                    eps_prime,
                    max_faults: 0,
                    worst_error: 0.0,
                };
            };
            let slack = budget.slack();
            let mut max_faults = 0;
            let mut worst_error = 0.0;
            for (k, slot) in worsts.iter_mut().enumerate().skip(1) {
                let w = *slot.get_or_insert_with(|| {
                    worst_crash_error(net, layer, k, xs, capacity, cache, &mut scratch)
                });
                if w > slack {
                    break;
                }
                max_faults = k;
                worst_error = w;
            }
            MeasuredThreshold {
                eps_prime,
                max_faults,
                worst_error,
            }
        })
        .collect()
}

/// One capacity candidate's measured admissibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// The synaptic capacity `C` the plan was compiled under.
    pub capacity: f64,
    /// Measured worst disturbance of the plan over the probe set.
    pub worst_error: f64,
    /// Whether the worst disturbance stays within the slack `ε − ε'`.
    pub admissible: bool,
}

/// Measured admissibility of one fault plan across a capacity sweep: for
/// each candidate `C`, compile `plan` under `C`, evaluate its worst
/// disturbance over the probe set `xs`, and compare against the budget's
/// slack. No monotonicity is assumed (squashing layers can shrink a
/// larger intermediate deviation), so the whole candidate list is
/// evaluated — which is exactly why the cache matters: every iteration
/// re-evaluates the same `(net, xs)` pair, and all but the first resume
/// from the cached nominal checkpoint.
///
/// # Panics
/// If `plan` does not compile against `net` (out-of-range sites), or a
/// candidate capacity is ≤ 0 (the [`CompiledPlan::compile`] contract).
pub fn measured_capacity_sweep(
    net: &Arc<Mlp>,
    plan: &InjectionPlan,
    xs: &Matrix,
    budget: EpsilonBudget,
    capacities: &[f64],
    cache: &mut CheckpointCache,
) -> Vec<CapacityPoint> {
    let slack = budget.slack();
    let mut scratch = BatchWorkspace::default();
    capacities
        .iter()
        .map(|&capacity| {
            let compiled = CompiledPlan::compile(plan, net, capacity).expect("plan fits net");
            let errors = cache
                .output_error_many(net, xs, std::slice::from_ref(&compiled), &mut scratch)
                .swap_remove(0);
            let worst_error = errors.iter().fold(0.0f64, |a, &e| a.max(e));
            CapacityPoint {
                capacity,
                worst_error,
                admissible: worst_error <= slack,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_data::rng::rng;
    use neurofail_inject::ByzantineStrategy;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;

    fn probe_net() -> Arc<Mlp> {
        Arc::new(
            MlpBuilder::new(2)
                .dense(4, Activation::Sigmoid { k: 1.0 })
                .dense(3, Activation::Sigmoid { k: 1.0 })
                .init(Init::Uniform { a: 0.6 })
                .build(&mut rng(23)),
        )
    }

    fn probe_points() -> Matrix {
        Matrix::from_fn(12, 2, |r, c| 0.08 * r as f64 + 0.05 * c as f64)
    }

    #[test]
    fn thresholds_decrease_as_eps_prime_grows() {
        let net = probe_net();
        let xs = probe_points();
        let mut cache = CheckpointCache::new(2);
        // Slack 4.99 exceeds any disturbance this net can produce
        // (|F| ≤ Σ|w_out| ≤ 1.8, so |F_neu − F_fail| ≤ 3.6): the widest
        // budget must tolerate crashing the whole layer.
        let rows =
            measured_crash_thresholds(&net, 1, &xs, 5.0, &[0.01, 4.0, 4.9, 4.999], 1.0, &mut cache);
        assert_eq!(rows.len(), 4);
        // Shrinking slack can only shrink the measured threshold.
        for pair in rows.windows(2) {
            assert!(pair[0].max_faults >= pair[1].max_faults);
        }
        assert_eq!(rows[0].max_faults, 3);
        // An invalid budget (ε′ ≥ ε would be caught too) reports 0.
        let bad = measured_crash_thresholds(&net, 1, &xs, 5.0, &[-0.5], 1.0, &mut cache);
        assert_eq!(bad[0].max_faults, 0);
        // One nominal pass total: everything after the first family
        // evaluation hit the cache.
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.hits > 0);
    }

    #[test]
    fn repeated_searches_skip_the_nominal_pass() {
        let net = probe_net();
        let xs = probe_points();
        let mut cache = CheckpointCache::new(2);
        let first = measured_crash_thresholds(&net, 0, &xs, 0.8, &[0.1, 0.4], 1.0, &mut cache);
        let misses_after_first = cache.stats().misses;
        let second = measured_crash_thresholds(&net, 0, &xs, 0.8, &[0.1, 0.4], 1.0, &mut cache);
        assert_eq!(first, second);
        assert_eq!(
            cache.stats().misses,
            misses_after_first,
            "the re-run must not pay a nominal pass"
        );
    }

    #[test]
    fn capacity_sweep_prices_byzantine_clamps() {
        let net = probe_net();
        let xs = probe_points();
        let plan = InjectionPlan::byzantine([(1, 0)], ByzantineStrategy::MaxPositive);
        let budget = EpsilonBudget::new(0.6, 0.1).unwrap();
        let mut cache = CheckpointCache::new(2);
        let capacities = [0.05, 0.5, 2.0, 8.0];
        let sweep = measured_capacity_sweep(&net, &plan, &xs, budget, &capacities, &mut cache);
        assert_eq!(sweep.len(), 4);
        // Every point is bitwise what the cold (uncached) engine reports,
        // and admissibility is exactly the slack comparison.
        let mut ws = BatchWorkspace::default();
        for (point, &capacity) in sweep.iter().zip(&capacities) {
            let compiled = CompiledPlan::compile(&plan, &net, capacity).unwrap();
            let direct = compiled
                .output_error_batch(&net, &xs, &mut ws)
                .iter()
                .fold(0.0f64, |a, &e| a.max(e));
            assert_eq!(point.worst_error.to_bits(), direct.to_bits());
            assert_eq!(point.admissible, direct <= budget.slack());
        }
        // A clamp far above the nominal activation range dominates one
        // barely above it: the C = 8 deviation |C − y| is ≥ 7 against the
        // C = 2 deviation's ≤ 2 through the same output weight.
        assert!(sweep[3].worst_error > sweep[2].worst_error);
        // All four candidates shared one nominal pass.
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }
}
