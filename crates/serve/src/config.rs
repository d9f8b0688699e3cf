//! Serving-engine configuration.

use std::time::Duration;

use neurofail_par::Parallelism;

/// Tuning knobs of the micro-batching scheduler.
///
/// The two flush triggers mirror every production batcher: a shard worker
/// flushes as soon as it holds [`max_batch`](ServeConfig::max_batch) rows,
/// or once [`max_wait`](ServeConfig::max_wait) has elapsed since it started
/// waiting on the current batch — whichever comes first. `max_wait` is the
/// most latency the engine is willing to *spend* on coalescing, and it is
/// spent only where there is evidence it gains rows (see `max_wait`):
/// under heavy concurrent load batches fill before the deadline, and a
/// lone closed-loop client is answered without waiting at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Flush a batch once it holds this many rows (≥ 1). `1` disables
    /// coalescing entirely — every request is served as its own flush (the
    /// baseline the `serve_throughput` bench compares against).
    pub max_batch: usize,
    /// Upper bound on how long a short batch waits for more rows. After
    /// the greedy drain, a batch still below `max_batch` waits — until it
    /// fills or `max_wait` passes — only on evidence that waiting gains
    /// rows: the queue already held a request when the worker came back
    /// for work, the drain took more than the first row, or the worker's
    /// previous wait gained at least one row (a fresh worker starts
    /// willing to wait). Otherwise it flushes at once: a lone closed-loop
    /// caller is blocked on its own answer, so a wait could never gain it
    /// a row. `Duration::ZERO` means "flush whatever the queue currently
    /// holds" (greedy drain, no waiting). The decisions are counted in
    /// [`ServeStats::waits`](crate::ServeStats::waits),
    /// [`waits_skipped`](crate::ServeStats::waits_skipped) and
    /// [`wait_rows`](crate::ServeStats::wait_rows).
    pub max_wait: Duration,
    /// Bound of each plan shard's request queue. A full queue makes
    /// [`submit`](crate::CertServer::submit) block and
    /// [`try_submit`](crate::CertServer::try_submit) fail — backpressure,
    /// rather than unbounded memory growth, under overload.
    pub queue_capacity: usize,
    /// How many worker threads each plan shard runs. Responses are bitwise
    /// identical for every policy (per-row batch independence); more
    /// workers only change how flushes interleave in time.
    pub workers: Parallelism,
    /// Record every served request into an in-memory log retrievable with
    /// [`take_log`](crate::CertServer::take_log) (for deterministic
    /// replay/audit). Off by default: the log grows with traffic.
    pub record_log: bool,
    /// Coalesce requests for **different plans** sharing one network into
    /// shared-net shards: plans registered against the same `Arc<Mlp>` get
    /// one queue and worker pool, and each flush runs a *single* nominal
    /// pass over every queued row plus one resumed faulty **suffix** per
    /// plan present in the flush (the multi-plan engine of
    /// `neurofail_inject::multi` at the serving layer). Served values stay
    /// bitwise identical to per-plan serving; the saving is the per-plan
    /// faulty prefix, reported as
    /// [`ServeStats::nominal_rows_saved`](crate::ServeStats). Off by
    /// default (per-plan shards, PR 3's layout).
    pub coalesce_plans: bool,
    /// Streaming-ingest mode: each shard worker keeps its previous
    /// flush's nominal checkpoint and, when the next flush's staged rows
    /// **start with** the previous flush's rows bitwise (the shape of
    /// streaming re-certification traffic: clients resubmit a probe set
    /// plus newly arrived inputs, in order), *extends* the checkpoint
    /// with only the new suffix rows instead of rerunning the nominal
    /// pass over everything — an identical flush reuses it outright.
    /// Served values stay bitwise identical (the appendable-checkpoint
    /// contract of `Mlp::extend_batch`); reuse is reported as
    /// [`ServeStats::checkpoint_hits`](crate::ServeStats) /
    /// [`ServeStats::checkpoint_rows_reused`](crate::ServeStats). Off by
    /// default: the per-flush prefix comparison only pays for itself
    /// under prefix-sharing traffic.
    pub streaming_ingest: bool,
    /// Overload-shedding budget: when set, a submission whose estimated
    /// queue wait — current queue depth × the shard's EWMA per-row flush
    /// cost — exceeds the budget is rejected newest-first with a typed
    /// [`SubmitError::Overloaded`](crate::SubmitError) (counted in
    /// [`ServeStats::requests_shed`](crate::ServeStats)) instead of being
    /// queued behind work it would miss any latency target under. `None`
    /// (the default) never sheds; `Some(Duration::ZERO)` sheds whenever
    /// the queue is non-empty (useful in tests).
    pub shed_budget: Option<Duration>,
    /// Deadline applied to every [`submit`](crate::CertServer::submit) /
    /// [`query`](crate::CertServer::query) that does not carry its own
    /// (via [`submit_within`](crate::CertServer::submit_within)): a
    /// request still queued when its deadline passes is failed with a
    /// typed [`RequestError::Deadline`](crate::RequestError) at the next
    /// flush staging instead of being served late. `None` (the default)
    /// means requests wait indefinitely.
    pub default_deadline: Option<Duration>,
    /// How many flush panics *attributed to one plan's faulty suffix* a
    /// shard tolerates before it quarantines the plan (submissions then
    /// fail fast with
    /// [`SubmitError::Quarantined`](crate::SubmitError); other plans on
    /// the shard keep serving). Attribution is per-plan, so one poison
    /// plan cannot crash-loop a coalesced shard. Panics outside a plan's
    /// suffix resume (queue recv, nominal pass) are never attributed.
    /// Must be ≥ 1; default 3.
    pub max_plan_strikes: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(100),
            queue_capacity: 1024,
            workers: Parallelism::Sequential,
            record_log: false,
            coalesce_plans: false,
            streaming_ingest: false,
            shed_budget: None,
            default_deadline: None,
            max_plan_strikes: 3,
        }
    }
}

impl ServeConfig {
    /// Panic on nonsensical settings (zero batch or queue capacity).
    pub(crate) fn validate(&self) {
        assert!(self.max_batch >= 1, "ServeConfig: max_batch must be >= 1");
        assert!(
            self.queue_capacity >= 1,
            "ServeConfig: queue_capacity must be >= 1"
        );
        assert!(
            self.max_plan_strikes >= 1,
            "ServeConfig: max_plan_strikes must be >= 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let cfg = ServeConfig::default();
        cfg.validate();
        assert_eq!(cfg.max_batch, 64);
        assert!(!cfg.record_log);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        }
        .validate();
    }
}
