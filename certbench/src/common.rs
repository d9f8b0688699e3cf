//! Pieces every workload shares: seeded inputs, the run directory,
//! order statistics, the host reference loop and the result report.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neurofail_data::rng::{rng, DetRng};
use neurofail_nn::activation::Activation;
use neurofail_nn::builder::MlpBuilder;
use neurofail_nn::Mlp;
use neurofail_tensor::init::Init;
use neurofail_tensor::Matrix;
use rand::Rng;

/// A sigmoid MLP of `depth` hidden layers of `width` neurons over
/// `inputs` inputs, weights drawn from `seed`.
pub fn sigmoid_net(depth: usize, width: usize, inputs: usize, seed: u64) -> Arc<Mlp> {
    let mut b = MlpBuilder::new(inputs);
    for _ in 0..depth {
        b = b.dense(width, Activation::Sigmoid { k: 1.0 });
    }
    Arc::new(b.init(Init::Xavier).build(&mut rng(seed)))
}

/// `rows × cols` inputs uniform in `[0, 1]`.
pub fn unit_matrix(r: &mut DetRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| r.gen_range(0.0..=1.0))
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (sorted in place).
/// 0 for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency samples grouped by segment of a run: a serving cycle, a
/// recert round, the campaign calls between two bring-ups. A percentile
/// is the median over segments of each segment's percentile, so a host
/// slow phase that covers a minority of the segments does not move it,
/// while a change to the program moves every segment.
#[derive(Default)]
pub struct Segments(Vec<Vec<f64>>);

impl Segments {
    /// Open a new segment.
    pub fn start(&mut self) {
        self.0.push(Vec::new());
    }

    pub fn push(&mut self, v: f64) {
        if self.0.is_empty() {
            self.start();
        }
        self.0.last_mut().expect("a segment is open").push(v);
    }

    pub fn quantile(&self, q: f64) -> f64 {
        let mut per: Vec<f64> = self
            .0
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(&mut s.clone(), q))
            .collect();
        median(&mut per)
    }

    pub fn samples(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// Throughput over consecutive windows of at least a given length: one
/// rate per full window, a partial window dropped. The median of the
/// rates is robust to host stalls, which hit a few windows, where a
/// run-long average counts every one.
pub struct Windows {
    span: Duration,
    start: Instant,
    units: f64,
    pub rates: Vec<f64>,
}

impl Windows {
    pub fn new(span: Duration) -> Windows {
        Windows {
            span,
            start: Instant::now(),
            units: 0.0,
            rates: Vec::new(),
        }
    }

    /// Start a fresh window now, dropping the partial one.
    pub fn restart(&mut self) {
        self.start = Instant::now();
        self.units = 0.0;
    }

    /// Count `units` of work finished now.
    pub fn add(&mut self, units: f64) {
        self.units += units;
        let elapsed = self.start.elapsed();
        if elapsed >= self.span {
            self.rates.push(self.units / elapsed.as_secs_f64());
            self.restart();
        }
    }
}

/// Median wall time, in milliseconds, of a fixed integer-and-float loop
/// that touches nothing but registers: a reference for how fast this
/// host ran while the benchmark did, so drift between sets of runs can
/// be told apart from a change in the program.
pub fn host_ref_ms() -> f64 {
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut acc = 0.0f64;
            for i in 0..1_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += (x >> 11) as f64 * 1e-16 + i as f64 * 1e-12;
            }
            std::hint::black_box(acc);
            ms(t0.elapsed())
        })
        .collect();
    median(&mut samples)
}

/// The run's private scratch directory, `.bench_run/<pid>` under the
/// working directory, removed again on drop. The process's `TMPDIR`
/// points into it, so the fleet's unix socket lives there as well.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        // Relative on purpose: a unix socket path must stay short, and
        // the re-executed fleet worker shares this working directory.
        let path = PathBuf::from(".bench_run").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        std::env::set_var("TMPDIR", &path);
        Ok(RunDir { path })
    }

    /// A path inside the run directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_run` itself behind only if another run still
        // uses it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Operation outcomes: attempted, failed (typed errors and wrong values)
/// and wrong values alone, which also fail the command.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Count one operation whose result is `got` and must be bitwise
    /// `want`; a typed error is a failure but not a wrong value.
    pub fn check<E: std::fmt::Debug>(&mut self, got: Result<f64, E>, want: f64) {
        self.attempted += 1;
        match got {
            Ok(v) if v.to_bits() == want.to_bits() => {}
            Ok(v) => {
                self.failed += 1;
                self.wrong += 1;
                if self.wrong <= 3 {
                    eprintln!("certbench: wrong value {v:e}, reference {want:e}");
                }
            }
            Err(e) => {
                self.failed += 1;
                if self.failed - self.wrong <= 3 {
                    eprintln!("certbench: operation failed: {e:?}");
                }
            }
        }
    }

    /// Count one operation whose outputs must all be bitwise `want`.
    pub fn check_all(&mut self, got: &[Vec<f64>], want: &[Vec<f64>]) {
        let same = got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
            });
        if same {
            self.attempted += 1;
        } else {
            self.wrong("outputs differ from the uncached reference");
        }
    }

    /// Count a failed check that is not tied to one value (an audit).
    pub fn wrong(&mut self, what: &str) {
        eprintln!("certbench: {what}");
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Metrics of one run, in emission order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // Full precision; a non-finite value cannot be JSON.
                let v = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.wrong == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
