//! `campaign`: repeated `run_campaign` calls under
//! `Parallelism::Sequential` on an L3 w64 sigmoid net, 64 trials × 32
//! inputs with crash counts `[2, 1, 1]`. Only the kernels (`tensor`), the
//! forward and resume passes (`nn`) and the executor and sampler
//! (`inject`) run; no serve, cache, store or fleet code does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use neurofail_inject::{run_campaign, CampaignConfig, CampaignResult, FaultSpec, TrialKind};
use neurofail_nn::Mlp;
use neurofail_par::Parallelism;

use crate::common::{ms, sigmoid_net, Segments, Tally, Windows};
use crate::trace::Tracer;
use crate::traffic::Stop;

pub const COUNTS: [usize; 3] = [2, 1, 1];
pub const KIND: TrialKind = TrialKind::Neurons(FaultSpec::Crash);
/// Timed calls between two bring-ups.
const BRINGUP_EVERY: usize = 32;

pub fn net(seed: u64) -> Arc<Mlp> {
    sigmoid_net(3, 64, 8, seed ^ 0xCA)
}

pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials: 64,
        inputs_per_trial: 32,
        seed: seed ^ 0xFA117,
        capacity: 1.0,
    }
}

fn call(net: &Mlp, cfg: &CampaignConfig) -> CampaignResult {
    run_campaign(net, &COUNTS, KIND, cfg, Parallelism::Sequential)
}

/// Bitwise equality of two campaign results.
fn same(a: &CampaignResult, b: &CampaignResult) -> bool {
    let bits = |r: &CampaignResult| {
        let s = r.stats;
        [s.mean, s.std_dev, s.min, s.max, r.max_error()].map(f64::to_bits)
    };
    a.evaluations == b.evaluations
        && a.stats.count == b.stats.count
        && bits(a) == bits(b)
        && a.worst == b.worst
}

/// What one campaign run measured.
#[derive(Default)]
pub struct CampaignRun {
    /// Seconds from nothing (building the net) to the first finished
    /// campaign, per bring-up.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed call, ms, per run of calls between two
    /// bring-ups.
    pub call_ms: Segments,
    /// (plan, input) evaluations per second, per window of calls.
    pub window_rates: Vec<f64>,
    pub tally: Tally,
}

/// Run campaigns until `stop` says so: a duration, or a call count.
pub fn run(seed: u64, stop: Stop, tr: &Tracer) -> CampaignRun {
    let mut out = CampaignRun::default();
    let cfg = config(seed);
    // The untimed reference every timed call must reproduce bitwise.
    let reference = call(&net(seed), &cfg);
    let check = |got: &CampaignResult, tally: &mut Tally| {
        if same(got, &reference) {
            tally.attempted += 1;
        } else {
            tally.wrong("campaign result differs from the reference run");
        }
    };
    let net = net(seed);
    let mut windows = Windows::new(Duration::from_millis(100));
    let t_run = Instant::now();
    let mut calls = 0;
    while calls == 0 || stop.more(calls, t_run) {
        // A bring-up every so many calls, so set-up samples spread over
        // the run.
        if calls % BRINGUP_EVERY == 0 {
            let t0 = Instant::now();
            let got = self::call(&self::net(seed), &cfg);
            out.setup_s.push(t0.elapsed().as_secs_f64());
            check(&got, &mut out.tally);
            windows.restart();
            out.call_ms.start();
        }
        let t0 = Instant::now();
        let got = tr.time("campaign.call", 0, || call(&net, &cfg));
        out.call_ms.push(ms(t0.elapsed()));
        calls += 1;
        windows.add(got.evaluations as f64);
        check(&got, &mut out.tally);
    }
    out.window_rates = windows.rates;
    out
}
