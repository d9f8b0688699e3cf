//! Traced probes: the benchmark's own calls into single layers, each
//! inside a span, at the shapes the workloads use.

use std::sync::Arc;
use std::time::Instant;

use neurofail_data::rng::rng;
use neurofail_fleet::proto::{encode_frame, read_frame, read_message, write_message};
use neurofail_fleet::{FleetListener, FleetStream, Message, ProtocolError, Transport};
use neurofail_inject::sampler::sample_neuron_plan;
use neurofail_inject::{run_campaign_trials, CompiledPlan, FaultSpec, PlanId, PlanRegistry};
use neurofail_nn::BatchWorkspace;
use neurofail_par::Parallelism;
use neurofail_tensor::Matrix;
use rand::Rng;

use crate::campaign::{self, COUNTS, KIND};
use crate::common::unit_matrix;
use crate::trace::Tracer;
use crate::traffic::Traffic;

/// Rows of one campaign trial's batch.
const TRIAL_ROWS: usize = 32;

/// Kernel, engine and executor probes at the campaign's shapes: the
/// L3 w64 net, one trial's 32-row batch. Returns the flops of one
/// `matmul_nt_into` call.
pub fn campaign_layers(tr: &Tracer, seed: u64, reps: usize) -> f64 {
    let net = campaign::net(seed);
    let mut r = rng(seed ^ 0x9E0B);
    let width = 64;
    let a = unit_matrix(&mut r, TRIAL_ROWS, width);
    let w = unit_matrix(&mut r, width, width);
    let mut out = Matrix::zeros(TRIAL_ROWS, width);
    for _ in 0..reps {
        tr.time("tensor.matmul_nt", 0, || a.matmul_nt_into(&w, &mut out));
        std::hint::black_box(out.get(0, 0));
    }
    let xs = unit_matrix(&mut r, TRIAL_ROWS, net.input_dim());
    let mut ws = BatchWorkspace::for_net(&net, TRIAL_ROWS);
    let mut ws_scratch = BatchWorkspace::for_net(&net, TRIAL_ROWS);
    let plan = sample_neuron_plan(&net, &COUNTS, FaultSpec::Crash, &mut r);
    let compiled = CompiledPlan::compile(&plan, &net, 1.0).expect("sampled plan compiles");
    for _ in 0..reps {
        std::hint::black_box(tr.time("nn.forward_batch", 0, || net.forward_batch(&xs, &mut ws)));
        std::hint::black_box(tr.time("nn.resume_batch", 0, || {
            compiled.output_error_resumed(&net, &xs, &mut ws, &mut ws_scratch)
        }));
        let recompiled = tr.time("inject.compile", 0, || {
            CompiledPlan::compile(&plan, &net, 1.0)
        });
        std::hint::black_box(recompiled.expect("sampled plan compiles"));
    }
    let cfg = campaign::config(seed);
    for t in 0..reps / 4 {
        std::hint::black_box(tr.time("inject.trial", 0, || {
            run_campaign_trials(
                &net,
                &COUNTS,
                KIND,
                &cfg,
                Parallelism::Sequential,
                t % 64,
                1,
            )
        }));
    }
    (2 * TRIAL_ROWS * width * width) as f64
}

/// Admission and flush-evaluation probes on the serving traffic's net:
/// `PlanRegistry::register` into fresh registries, and the engine work
/// of one coalesced flush of `flush_rows` rows (each plan present in the
/// flush evaluated over its own rows through `eval_many`).
pub fn serving_layers(tr: &Tracer, t: &Traffic, seed: u64, flush_rows: usize, reps: usize) {
    for _ in 0..reps / 16 {
        let mut registry = PlanRegistry::new();
        for p in &t.plans {
            tr.time("inject.admit", 0, || {
                registry.register(Arc::clone(&t.net), p, 1.0)
            })
            .expect("traffic plans fit the network");
        }
    }
    let mut registry = PlanRegistry::new();
    let ids: Vec<PlanId> = t
        .plans
        .iter()
        .map(|p| registry.register(Arc::clone(&t.net), p, 1.0))
        .collect::<Result<_, _>>()
        .expect("traffic plans fit the network");
    let mut r = rng(seed ^ 0xF1u64);
    for _ in 0..reps {
        let mut by_plan: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
        for _ in 0..flush_rows.max(1) {
            let plan = r.gen_range(0..ids.len());
            by_plan[plan].extend(&t.inputs[r.gen_range(0..t.inputs.len())]);
        }
        let batches: Vec<(PlanId, Matrix)> = by_plan
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(p, rows)| (ids[p], Matrix::from_vec(rows.len() / 8, 8, rows)))
            .collect();
        tr.time("inject.flush_eval", 0, || {
            for (id, xs) in &batches {
                std::hint::black_box(registry.eval_many(&[*id], xs));
            }
        });
    }
}

/// Fleet wire probes: encode and decode of one request's Query and
/// Answer frames, and a ping-pong over a unix `FleetListener` /
/// `FleetStream` pair. Returns the wire bytes of one request.
pub fn fleet_layers(tr: &Tracer, t: &Traffic, reps: usize) -> Result<f64, String> {
    let query = Message::Query {
        seq: 12345,
        plan: 7,
        input: t.inputs[0].clone(),
    };
    let answer = Message::Answer {
        seq: 12345,
        value: t.refs[7][0],
    };
    let frame = |m: &Message| {
        let (kind, payload) = m.encode();
        encode_frame(kind, &payload)
    };
    let unframe = |bytes: &[u8]| -> Result<Message, ProtocolError> {
        let (kind, payload) = read_frame(&mut &bytes[..])?;
        Message::decode(kind, &payload)
    };
    let frames = (frame(&query), frame(&answer));
    for _ in 0..reps {
        std::hint::black_box(tr.time("fleet.encode", 0, || (frame(&query), frame(&answer))));
        let decoded = tr.time("fleet.decode", 0, || {
            (unframe(&frames.0), unframe(&frames.1))
        });
        if decoded != (Ok(query.clone()), Ok(answer.clone())) {
            return Err("fleet frames do not round-trip".into());
        }
    }

    // Dial before the echo side accepts (the connection waits in the
    // backlog): a failed dial then returns before any thread exists, and
    // any later failure drops `stream`, which ends the echo loop.
    let listener = FleetListener::bind(Transport::Unix).map_err(|e| format!("socket bind: {e}"))?;
    let mut stream = FleetStream::connect(&listener.addr()).map_err(|e| format!("connect: {e}"))?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), String> {
            let mut peer = listener.accept().map_err(|e| format!("accept: {e}"))?;
            loop {
                match read_message(&mut peer) {
                    Ok(Message::Ping { nonce }) => {
                        write_message(&mut peer, &Message::Pong { nonce })
                            .map_err(|e| format!("pong: {e}"))?
                    }
                    Ok(_) | Err(ProtocolError::Closed) => return Ok(()),
                    Err(e) => return Err(format!("echo read: {e:?}")),
                }
            }
        });
        let pinged = (|| {
            for nonce in 0..reps as u64 {
                let start = Instant::now();
                write_message(&mut stream, &Message::Ping { nonce })
                    .map_err(|e| format!("ping: {e}"))?;
                let reply = read_message(&mut stream);
                tr.record(tr.id(), "fleet.socket_rtt", 0, nonce, start, Instant::now());
                if reply != Ok(Message::Pong { nonce }) {
                    return Err(format!("socket probe: unexpected reply {reply:?}"));
                }
            }
            write_message(&mut stream, &Message::Bye { code: 0 }).map_err(|e| format!("bye: {e}"))
        })();
        drop(stream);
        let echoed = echo.join().expect("echo thread panicked");
        pinged.and(echoed)
    })?;
    Ok((frames.0.len() + frames.1.len()) as f64)
}
