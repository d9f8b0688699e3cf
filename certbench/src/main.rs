//! The certification benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path certbench/Cargo.toml -- \
//!     --workload <serve_query|fleet_query|campaign|recert> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one workload runs untraced for about `--seconds` and
//! the end-to-end metrics are printed: `setup_s` (median of the run's
//! complete bring-ups), `latency_p50_ms` and `latency_p90_ms` (of single
//! calls or closed-loop queries, each the median over the run's segments
//! of that segment's percentile) and `rows_per_s` (the median over short
//! windows). A shared virtual machine can stall and slow the benchmark's
//! threads in phases of up to seconds; medians over segments and windows
//! keep a phase that covers a minority of the run from moving the result.
//! With `--trace 1` every workload runs a fixed amount of traffic with
//! spans recorded around the benchmark's calls into each layer, the layer
//! probes run, and the per-layer metrics are printed; the named workload
//! also runs untraced, traced and untraced again to report the tracing
//! overhead. Spans are written to `.bench_trace/`. Every output is held
//! bitwise to a reference computed before timing. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

mod campaign;
mod common;
mod probes;
mod recert;
mod trace;
mod traffic;

use std::path::PathBuf;
use std::time::Duration;

use common::{host_ref_ms, median, quantile, Report, RunDir};
use trace::Tracer;
use traffic::{Fleet, Plan, QueryRun, Serve, Stop, Traffic, OPEN_RATE};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    ServeQuery,
    FleetQuery,
    Campaign,
    Recert,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "serve_query" => Workload::ServeQuery,
            "fleet_query" => Workload::FleetQuery,
            "campaign" => Workload::Campaign,
            "recert" => Workload::Recert,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let num = |flag: &str| -> Result<u64, String> {
            get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let workload = get("--workload")?;
        let args = Args {
            workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
            seed: num("--seed")?,
            seconds: num("--seconds")?,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
        };
        if !(1..=600).contains(&args.seconds) {
            return Err("--seconds must be between 1 and 600".into());
        }
        Ok(args)
    }
}

fn main() {
    // Fleet worker mode: the router re-executes this binary with the
    // fleet environment set.
    if std::env::var(neurofail_fleet::ENV_ADDR).is_ok() {
        std::process::exit(neurofail_fleet::run_worker_from_env());
    }
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("certbench: {e}");
            eprintln!(
                "usage: certbench --workload <serve_query|fleet_query|campaign|recert> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = RunDir::create()
        .map_err(|e| format!("run directory: {e}"))
        .and_then(|dir| {
            if args.trace {
                traced(&args, &dir)
            } else {
                untraced(&args, &dir)
            }
        });
    match result {
        Ok(mut report) => {
            for (name, value, _) in &report.metrics {
                if !value.is_finite() {
                    report.tally.wrong(&format!("metric {name} is not finite"));
                }
            }
            println!("{}", report.json());
            if report.tally.wrong > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("certbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The serving traffic of an untraced run of `seconds`: cycles of 4000
/// closed-loop queries and a 0.5 s saturation segment.
fn timed_plan(seconds: f64) -> Plan {
    Plan {
        closed: 4000,
        arrivals: 0,
        saturation: Stop::After(Duration::from_millis(500)),
        cycles: Stop::After(Duration::from_secs_f64(seconds * 0.9)),
    }
}

/// Recert rounds of the traced mode; the counters are the last round's.
const TRACED_ROUNDS: usize = 4;

/// The fixed-count serving traffic of the traced mode.
fn traced_plan(scale: f64) -> Plan {
    Plan {
        closed: (4000.0 * scale) as usize,
        arrivals: (OPEN_RATE * 0.5 * scale) as usize,
        saturation: Stop::Answered((50_000.0 * scale) as usize),
        cycles: Stop::Answered(2),
    }
}

/// The end-to-end metrics of one workload, untraced.
fn untraced(args: &Args, dirs: &RunDir) -> Result<Report, String> {
    let tr = Tracer::new(false);
    let host_ms = host_ref_ms();
    let seconds = args.seconds as f64;
    let mut rep = Report::default();
    let (mut setup, latency, mut rates) = match args.workload {
        Workload::ServeQuery | Workload::FleetQuery => {
            let t = Traffic::new(args.seed);
            let run = query_run(args.workload, &t, args.seed, timed_plan(seconds), &tr)?;
            println!("counters: {:?}", run.counters);
            rep.tally.add(run.tally);
            (run.setup_s, run.latency_ms, run.window_rates)
        }
        Workload::Campaign => {
            let run = campaign::run(
                args.seed,
                Stop::After(Duration::from_secs_f64(seconds * 0.9)),
                &tr,
            );
            rep.tally.add(run.tally);
            (run.setup_s, run.call_ms, run.window_rates)
        }
        Workload::Recert => {
            let mut run = recert::run(
                args.seed,
                Stop::After(Duration::from_secs_f64(seconds * 0.9)),
                dirs,
                &tr,
            )?;
            let m = &mut run.miss_ms;
            println!(
                "recert misses: p25 {:.4} p50 {:.4} p75 {:.4} ms",
                quantile(m, 0.25),
                quantile(m, 0.5),
                quantile(m, 0.75)
            );
            println!(
                "counters: store {:?} cache {:?} admission {:?}",
                run.store, run.cache, run.admission
            );
            rep.tally.add(run.tally);
            (run.setup_s, run.sweep_ms, run.window_rates)
        }
    };
    println!(
        "host.ref_ms {host_ms:.4} (now {:.4}), {} cpus; {} latency samples, {} bring-ups",
        host_ref_ms(),
        std::thread::available_parallelism().map_or(0, usize::from),
        latency.samples(),
        setup.len()
    );
    rep.put("setup_s", median(&mut setup), "s");
    rep.put("latency_p50_ms", latency.quantile(0.5), "ms");
    rep.put("latency_p90_ms", latency.quantile(0.9), "ms");
    rep.put("rows_per_s", median(&mut rates), "rows/s");
    Ok(rep)
}

/// The serving traffic through the in-process server or the fleet.
fn query_run(
    w: Workload,
    t: &Traffic,
    seed: u64,
    plan: Plan,
    tr: &Tracer,
) -> Result<QueryRun, String> {
    if w == Workload::ServeQuery {
        traffic::run::<Serve>(t, seed, plan, tr)
    } else {
        traffic::run::<Fleet>(t, seed, plan, tr)
    }
}

/// The per-layer metrics: every workload's traffic at fixed counts with
/// spans on, plus the layer probes.
fn traced(args: &Args, dirs: &RunDir) -> Result<Report, String> {
    let tr = Tracer::new(true);
    // Fixed counts, sized for about `--seconds` = 30 on a 2-vCPU host.
    let scale = args.seconds as f64 / 30.0;
    let reps = ((400.0 * scale) as usize).max(16);
    let mut rep = Report::default();
    let host_ms = host_ref_ms();

    let t = Traffic::new(args.seed);
    let mut serve = query_run(Workload::ServeQuery, &t, args.seed, traced_plan(scale), &tr)?;
    let fleet = query_run(Workload::FleetQuery, &t, args.seed, traced_plan(scale), &tr)?;
    let (ss, fs) = (serve.counters, fleet.counters);
    let camp = campaign::run(args.seed, Stop::Answered((100.0 * scale) as usize), &tr);
    let rc = recert::run(args.seed, Stop::Answered(TRACED_ROUNDS), dirs, &tr)?;
    let flops = probes::campaign_layers(&tr, args.seed, reps);
    probes::serving_layers(&tr, &t, args.seed, ss.mean_batch().round() as usize, reps);
    let frame_bytes = probes::fleet_layers(&tr, &t, reps)?;
    for tally in [serve.tally, fleet.tally, camp.tally, rc.tally] {
        rep.tally.add(tally);
    }

    // Tracing overhead: the named workload's fixed traffic untraced,
    // traced (into a tracer of its own), and untraced again; the traced
    // median against the mean of the two untraced ones, so a host phase
    // that spans the block cancels.
    let mut named_p50 = |tr: &Tracer| -> Result<f64, String> {
        let (p50, tally) = match args.workload {
            Workload::ServeQuery | Workload::FleetQuery => {
                let run = query_run(args.workload, &t, args.seed, traced_plan(scale), tr)?;
                (run.latency_ms.quantile(0.5), run.tally)
            }
            Workload::Campaign => {
                let stop = Stop::Answered((100.0 * scale) as usize);
                let run = campaign::run(args.seed, stop, tr);
                (run.call_ms.quantile(0.5), run.tally)
            }
            Workload::Recert => {
                let run = recert::run(args.seed, Stop::Answered(TRACED_ROUNDS), dirs, tr)?;
                (run.sweep_ms.quantile(0.5), run.tally)
            }
        };
        rep.tally.add(tally);
        Ok(p50)
    };
    let before = named_p50(&Tracer::new(false))?;
    let traced_p50 = named_p50(&Tracer::new(true))?;
    let untraced_p50 = (before + named_p50(&Tracer::new(false))?) / 2.0;

    let p50 = |name: &str| median(&mut tr.durations_us(name));
    let server_p50 = quantile(&mut serve.server_ms, 0.5);
    rep.put("tensor.matmul_nt_us", p50("tensor.matmul_nt"), "us");
    rep.put("tensor.matmul_nt_flops", flops, "flop");
    rep.put("nn.forward_batch_us", p50("nn.forward_batch"), "us");
    rep.put("nn.resume_batch_us", p50("nn.resume_batch"), "us");
    rep.put("inject.compile_us", p50("inject.compile"), "us");
    rep.put("inject.trial_us", p50("inject.trial"), "us");
    rep.put("inject.admit_us", p50("inject.admit"), "us");
    let flush_eval_us = p50("inject.flush_eval");
    rep.put("inject.flush_eval_us", flush_eval_us, "us");
    rep.put("store.open_ms", p50("store.open") / 1e3, "ms");
    rep.put("store.warm_admit_us", p50("store.warm_admit"), "us");
    rep.put("store.load_us", p50("store.load"), "us");
    rep.put("store.publish_us", p50("store.publish"), "us");
    rep.put("recert.hit_call_ms", p50("recert.hit_call") / 1e3, "ms");
    rep.put("recert.miss_call_ms", p50("recert.miss_call") / 1e3, "ms");
    rep.put("serve.submit_us", p50("serve.submit"), "us");
    rep.put("serve.server_latency_p50_ms", server_p50, "ms");
    rep.put(
        "serve.server_latency_p90_ms",
        quantile(&mut serve.server_ms, 0.9),
        "ms",
    );
    rep.put(
        "serve.wait_share",
        1.0 - flush_eval_us / 1e3 / server_p50,
        "ratio",
    );
    rep.put("fleet.submit_us", p50("fleet.submit"), "us");
    rep.put("fleet.encode_us", p50("fleet.encode"), "us");
    rep.put("fleet.decode_us", p50("fleet.decode"), "us");
    rep.put("fleet.frame_bytes", frame_bytes, "bytes");
    rep.put("fleet.socket_rtt_us", p50("fleet.socket_rtt"), "us");
    rep.put(
        "fleet.hop_ms",
        fleet.latency_ms.quantile(0.5) - serve.latency_ms.quantile(0.5),
        "ms",
    );

    let st = &rc.store;
    rep.put("store.hits", st.hits as f64, "count");
    rep.put("store.misses", st.misses as f64, "count");
    rep.put("store.verify_rejects", st.verify_rejects as f64, "count");
    rep.put("store.entries", st.entries as f64, "count");
    rep.put("store.bytes", st.bytes as f64, "bytes");
    rep.put(
        "store.hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
        "ratio",
    );
    rep.put("cache.hits", rc.cache.hits as f64, "count");
    rep.put("cache.misses", rc.cache.misses as f64, "count");
    rep.put("cache.evictions", rc.cache.evictions as f64, "count");
    rep.put(
        "admission.bodies_compiled",
        rc.admission.bodies_compiled as f64,
        "count",
    );
    rep.put(
        "admission.warm_admissions",
        rc.admission.warm_admissions as f64,
        "count",
    );
    rep.put("serve.mean_batch_rows", ss.mean_batch(), "rows");
    rep.put("serve.flushes", ss.flushes as f64, "count");
    rep.put("serve.max_queue_depth", ss.max_queue_depth as f64, "count");
    rep.put("serve.worker_restarts", ss.worker_restarts as f64, "count");
    rep.put("serve.rows_requeued", ss.rows_requeued as f64, "count");
    rep.put("fleet.answers", fs.answers as f64, "count");
    rep.put("fleet.requeues", fs.requeues as f64, "count");
    rep.put("fleet.respawns", fs.respawns as f64, "count");
    rep.put(
        "fleet.worker_quarantines",
        fs.worker_quarantines as f64,
        "count",
    );
    rep.put("fleet.protocol_errors", fs.protocol_errors as f64, "count");

    rep.put("gen.late_p50_ms", quantile(&mut serve.late_ms, 0.5), "ms");
    rep.put("gen.late_p99_ms", quantile(&mut serve.late_ms, 0.99), "ms");
    // The open loop's tail and sample count: a diagnostic of host
    // stalls, next to how late the generator ran.
    rep.put(
        "gen.latency_p99_ms",
        quantile(&mut serve.open_ms, 0.99),
        "ms",
    );
    rep.put("gen.latency_samples", serve.open_ms.len() as f64, "count");
    rep.put("host.ref_ms", host_ms, "ms");
    rep.put(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    );
    rep.put("trace.spans", tr.len() as f64, "count");

    println!("span summary (count, total ms, self ms):");
    for (name, (count, total, own)) in tr.summary() {
        println!(
            "  {name:<22} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let name = format!(".bench_trace/{:?}.tsv", args.workload);
    tr.write(&PathBuf::from(&name))
        .map_err(|e| format!("writing {name}: {e}"))?;
    println!("spans written to {name}");
    Ok(rep)
}
