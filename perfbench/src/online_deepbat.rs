//! `online_deepbat`: the paper's online loop, zero-shot. Set-up labels a
//! dataset from the first hour of an Azure-like trace and trains a
//! `seq_len` 128 surrogate; the run replays an unseen Twitter-like trace
//! through `VirtualGateway::replay_controlled` with `DeepBatController`
//! deciding every 10 s on the fast path. Set-up and two passes over the
//! replay alternate three times, all on one CPU.

use crate::common::{
    chunk_bounds, derive_seed, horizon_s, pin_to_one_cpu, scaled, set_tail, timed, RunCfg,
    SpannedController,
};
use crate::metrics::Report;
use crate::spans::{SpanId, Tracer};
use crate::stats;
use dbat_core::{
    generate_dataset, train, DeepBatController, DeepBatOptimizer, Surrogate, SurrogateConfig,
    TrainConfig, TrainReport,
};
use dbat_serve::{ServeCounts, VirtualGateway};
use dbat_sim::{ConfigGrid, DecisionRecord, IntervalMeasurement, SimConfig, SimParams};
use dbat_workload::{window_at_time, Trace, TraceKind, HOUR};
use std::sync::Arc;

const SLO_S: f64 = 0.1;
const INTERVAL_S: f64 = 10.0;
const SEQ_LEN: usize = 128;
/// Seed of the training inputs (trace, labels, initial weights). They do
/// not depend on the run's seed: every run trains the same surrogate and
/// the seed draws the unseen trace it is evaluated on.
const TRAIN_SEED: u64 = 0x7EA1;
/// Labelled (window, config) samples and training epochs: a small
/// schedule, so that set-up can be repeated within one run.
const DATASET: usize = 300;
const EPOCHS: usize = 5;
/// Simulated trace seconds per second of run and pass: a decision, one
/// per 10 s of trace, took 0.65 to 1.1 ms on a shared 2-vCPU AVX2 host.
const TRACE_S_PER_RUN_S: f64 = 900.0;
/// The replay is driven in this many consecutive chunks of the trace.
const CHUNKS: usize = 24;
/// Set-ups in a run; each is followed by [`PASSES_PER_SETUP`] passes
/// over the whole replay, so that the passes spread over the run.
const SETUP_REPS: usize = 3;
/// Throughput counts each chunk at its fastest pass and decision latency
/// each decision at its fastest pass: the host ran the decisions at two
/// speeds, about 1.6× apart, in spells of 0.1 to 20 s, and the slow
/// spells drop out.
const PASSES_PER_SETUP: usize = 2;
const PASSES: usize = SETUP_REPS * PASSES_PER_SETUP;
/// Decisions re-driven layer by layer in a traced run: enough for a
/// supported p99.
const REDRIVE_DECISIONS: usize = 1000;

struct Setup {
    model: Arc<Surrogate>,
    report: TrainReport,
    eval: Trace,
    label_s: f64,
    generate_s: f64,
}

fn setup(seed: u64, horizon: f64, tracer: &Tracer, grid: &ConfigGrid) -> Setup {
    let params = SimParams::default();
    let root = tracer.enter("bench.setup", None, None);
    let azure = tracer.in_span("workload.generate", root, None, |_| {
        TraceKind::AzureLike.generate_for(derive_seed(TRAIN_SEED, 2), HOUR)
    });
    let (data, label_s) = timed(|| {
        tracer.in_span("core.generate_dataset", root, None, |_| {
            generate_dataset(
                &azure,
                grid,
                &params,
                DATASET,
                SEQ_LEN,
                SLO_S,
                derive_seed(TRAIN_SEED, 3),
            )
        })
    });
    let surrogate = SurrogateConfig {
        seq_len: SEQ_LEN,
        ..SurrogateConfig::default()
    };
    let mut model = Surrogate::new(surrogate, derive_seed(TRAIN_SEED, 4));
    let tc = TrainConfig {
        epochs: EPOCHS,
        lr: 3e-3,
        seed: derive_seed(TRAIN_SEED, 5),
        ..TrainConfig::default()
    };
    let report = tracer.in_span("nn.train", root, None, |_| train(&mut model, &data, &tc));
    let (eval, generate_s) = timed(|| {
        tracer.in_span("workload.generate", root, None, |_| {
            TraceKind::TwitterLike.generate_for(derive_seed(seed, 6), horizon)
        })
    });
    tracer.exit(root);
    Setup {
        model: Arc::new(model),
        report,
        eval,
        label_s,
        generate_s,
    }
}

/// The replay of every chunk, joined in interval order.
struct Replay {
    /// Decision records re-indexed across chunks.
    records: Vec<DecisionRecord>,
    measurements: Vec<IntervalMeasurement>,
    counts: ServeCounts,
    total_cost: f64,
    batches: usize,
    latencies: Vec<f64>,
    /// Wall time of each chunk's replay, decisions included.
    chunk_s: Vec<f64>,
    wall_s: f64,
}

fn replay(
    tr: &Tracer,
    model: &Arc<Surrogate>,
    trace: &Trace,
    grid: &ConfigGrid,
    horizon: f64,
) -> Replay {
    let opts = SimConfig::builder()
        .slo(SLO_S)
        .decision_interval(INTERVAL_S)
        .build()
        .expect("valid sim config");
    let mut all = Replay {
        records: Vec::new(),
        measurements: Vec::new(),
        counts: ServeCounts::default(),
        total_cost: 0.0,
        batches: 0,
        latencies: Vec::with_capacity(trace.len()),
        chunk_s: Vec::with_capacity(CHUNKS),
        wall_s: 0.0,
    };
    let root = tr.enter("bench.replay", None, None);
    for (t0, t1) in chunk_bounds(horizon, INTERVAL_S, CHUNKS) {
        let first = all.records.len();
        let (out, secs) = tr.in_span("serve.replay_controlled", root, None, |span| {
            let mut inner = DeepBatController::new(grid.clone(), SLO_S).with_model(model.clone());
            inner.decision_interval = INTERVAL_S;
            let mut ctl = SpannedController::new(inner, tr, "core.decide", span, first);
            let mut gw = VirtualGateway::from_params(&SimParams::default());
            timed(|| gw.replay_controlled(&mut ctl, trace, t0, t1, &opts))
        });
        all.chunk_s.push(secs);
        all.wall_s += secs;
        let c = out.counts;
        all.counts.submitted += c.submitted;
        all.counts.accepted += c.accepted;
        all.counts.rejected += c.rejected;
        all.counts.completed += c.completed;
        all.total_cost += out.total_cost;
        all.batches += out.batches.len();
        all.latencies
            .extend(out.requests.iter().map(|q| q.latency()));
        all.measurements.extend(out.measurements);
        all.records.extend(out.records.into_iter().map(|mut rec| {
            rec.index += first;
            rec
        }));
    }
    tr.exit(root);
    all
}

pub fn run(cfg: &RunCfg, tracer: &Tracer, r: &mut Report) {
    // Pinned, set-up and every decision run on one CPU, so the rayon
    // stand-in runs them sequentially. On both CPUs of a shared host each
    // parallel call waits for its slower thread, and replay throughput
    // spread by a quarter or more between runs.
    match pin_to_one_cpu() {
        Some(cpu) => r.note(format!("pinned to cpu {cpu} with every thread it starts")),
        None => r.note("could not pin to one cpu; running unpinned"),
    }
    let horizon = horizon_s(cfg.seconds, TRACE_S_PER_RUN_S, INTERVAL_S);
    let grid = ConfigGrid::paper_default();
    r.note(format!(
        "train on 1 h Azure-like ({DATASET} samples, {EPOCHS} epochs), replay {horizon} s Twitter-like {PASSES} times in {CHUNKS} chunks, {INTERVAL_S} s intervals"
    ));

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut passes = Vec::with_capacity(PASSES);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (s, secs) = timed(|| setup(cfg.seed, horizon, tracer, &grid));
        setups.push(secs);
        for _ in 0..PASSES_PER_SETUP {
            passes.push(replay(
                &Tracer::new(false),
                &s.model,
                &s.eval,
                &grid,
                horizon,
            ));
        }
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    r.set("setup_s", stats::median(&setups));
    r.set(
        "workload.generate.ns_per_arrival",
        s.generate_s * 1e9 / s.eval.len().max(1) as f64,
    );
    r.set("core.label.samples_per_s", DATASET as f64 / s.label_s);
    r.set("nn.train.s_per_epoch", s.report.secs_per_epoch);
    let train_rows = DATASET - (DATASET as f64 * TrainConfig::default().val_fraction) as usize;
    r.set(
        "nn.train.samples_per_s",
        train_rows as f64 / s.report.secs_per_epoch,
    );
    r.set("nn.train.val_mape_pct", s.report.final_val_mape);

    let model = &s.model;
    let trace = &s.eval;
    let out = &passes[0];
    r.check(
        format!("{SETUP_REPS} set-ups and {PASSES} passes cost and decide the same, bit for bit"),
        passes.iter().all(|p| {
            p.total_cost.to_bits() == out.total_cost.to_bits()
                && p.records.len() == out.records.len()
                && p.records
                    .iter()
                    .zip(&out.records)
                    .all(|(a, b)| a.config == b.config)
        }),
    );
    let fastest_chunk_s: Vec<f64> = (0..out.chunk_s.len())
        .map(|c| fastest(passes.iter().filter_map(|p| p.chunk_s.get(c).copied())))
        .collect();
    let best_s: f64 = fastest_chunk_s.iter().sum();
    r.set("throughput_per_s", out.counts.submitted as f64 / best_s);
    let fastest_decide_ms: Vec<f64> = (0..out.records.len())
        .map(|i| {
            let times = passes.iter().filter_map(|p| p.records.get(i));
            fastest(times.map(|rec| rec.decide_s)) * 1e3
        })
        .collect();
    r.set("latency_p50_ms", stats::median(&fastest_decide_ms));
    for (i, p) in passes.iter().enumerate() {
        r.note(format!(
            "pass {i}: {} requests and {} decisions replayed in {:.3} s",
            p.counts.submitted,
            p.records.len(),
            p.wall_s
        ));
    }
    r.note(format!(
        "the fastest pass of each of {CHUNKS} chunks sum to {best_s:.3} s"
    ));
    check_outcome(r, out, trace, horizon, &grid);
    record_outcome(r, out);

    if tracer.enabled() {
        let traced = replay(tracer, model, trace, &grid, horizon);
        r.set(
            "bench.trace_overhead_pct",
            100.0 * (traced.wall_s / out.wall_s - 1.0),
        );
        r.check(
            "traced replay costs the same, bit for bit",
            traced.total_cost.to_bits() == out.total_cost.to_bits(),
        );
        drop(traced);
        let root = tracer.enter("bench.redrive", None, None);
        redrive(tracer, root, r, model, trace, out, &grid);
        tracer.exit(root);
    }
}

fn check_outcome(r: &mut Report, out: &Replay, trace: &Trace, horizon: f64, grid: &ConfigGrid) {
    let c = out.counts;
    r.attempted = c.submitted;
    r.failed = c.rejected + (c.accepted - c.completed.min(c.accepted));
    r.check(
        format!("served == offered ({} of {})", c.completed, trace.len()),
        c.completed as usize == trace.len() && c.submitted as usize == trace.len(),
    );
    r.check(
        "submitted == accepted + rejected and completed == accepted",
        c.submitted == c.accepted + c.rejected && c.completed == c.accepted,
    );
    let intervals = (horizon / INTERVAL_S).round() as usize;
    let configs = grid.configs();
    r.check(
        format!(
            "one decision record per interval ({} of {intervals})",
            out.records.len()
        ),
        out.records.len() == intervals
            && out
                .records
                .iter()
                .enumerate()
                .all(|(i, rec)| rec.index == i),
    );
    r.check(
        "every decision picks a config in the grid",
        out.records.iter().all(|rec| configs.contains(&rec.config)),
    );
}

fn record_outcome(r: &mut Report, out: &Replay) {
    let served = out.counts.completed.max(1) as f64;
    r.set("cost_per_req_uusd", out.total_cost / served * 1e6);
    let all = stats::with_misses(&out.latencies, out.counts.rejected);
    if let Some(a) = stats::attainment_pct(&all, SLO_S) {
        r.set("slo_attain_pct", a);
    }

    let decide_s: Vec<f64> = out.records.iter().map(|rec| rec.decide_s).collect();
    let decide_ms = scaled(decide_s.iter().copied(), 1e3);
    set_tail(r, "core.decide.ms.p99", &decide_ms, 99.0);
    let requests = out.counts.submitted.max(1) as f64;
    r.set(
        "serve.replay.ns_per_request",
        (out.wall_s - decide_s.iter().sum::<f64>()) * 1e9 / requests,
    );
    r.set(
        "serve.replay.mean_batch",
        served / out.batches.max(1) as f64,
    );

    let scored: Vec<_> = out.records.iter().filter(|rec| !rec.bootstrap).collect();
    let fallbacks = scored.iter().filter(|rec| rec.fallback).count();
    r.set(
        "core.decide.fallback_pct",
        100.0 * fallbacks as f64 / scored.len().max(1) as f64,
    );
    r.set(
        "core.decide.bootstrap",
        (out.records.len() - scored.len()) as f64,
    );
    r.set("core.decide.vcr_pct", dbat_sim::vcr_of(&out.measurements));
    let cost_pairs = scored.iter().filter_map(|rec| {
        Some((
            rec.predicted_cost_micro?,
            rec.measured_cost_per_request? * 1e6,
        ))
    });
    let p95_pairs = scored
        .iter()
        .filter_map(|rec| Some((rec.predicted_percentiles?[2], rec.measured?.p95)));
    if let Some(e) = stats::mean_ape_pct(cost_pairs) {
        r.set("core.surrogate.cost_ape_pct", e);
    }
    if let Some(e) = stats::mean_ape_pct(p95_pairs) {
        r.set("core.surrogate.p95_ape_pct", e);
    }
}

/// The smallest of `values`.
fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Multiply-adds of one `predict_all` over `configs`, counted from the
/// model's dimensions (matrix products only; softmax, norms and
/// activations left out), at 2 flops each.
pub fn predict_all_flops(cfg: &SurrogateConfig, configs: usize) -> f64 {
    let (l, d, f) = (cfg.seq_len as f64, cfg.dim as f64, cfg.ff_hidden as f64);
    let embed = l * d;
    let attention = 4.0 * l * d * d + 2.0 * l * l * d;
    let feed_forward = 2.0 * l * d * f;
    let encoder = cfg.n_layers as f64 * (attention + feed_forward);
    let pool = 4.0 * d * d;
    let per_config = cfg.n_features as f64 * d + 2.0 * d * f + f * cfg.n_outputs as f64;
    2.0 * (embed + encoder + pool + configs as f64 * per_config)
}

/// Re-drive up to [`REDRIVE_DECISIONS`] scored decisions through the
/// public calls the controller makes, one span each, and check that each
/// picks the config the replay applied.
fn redrive(
    tracer: &Tracer,
    root: Option<SpanId>,
    r: &mut Report,
    model: &Surrogate,
    trace: &Trace,
    out: &Replay,
    grid: &ConfigGrid,
) {
    let opt = DeepBatOptimizer::new(grid.clone(), SLO_S);
    let scored: Vec<_> = out.records.iter().filter(|rec| !rec.bootstrap).collect();
    let step = scored.len().div_ceil(REDRIVE_DECISIONS).max(1);
    let (mut window_us, mut encode_us, mut score_us, mut choose_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut agree = true;
    for rec in scored.iter().step_by(step) {
        let id = Some(rec.index as u64);
        let (w, secs) = timed(|| {
            tracer.in_span("workload.window_at_time", root, id, |_| {
                window_at_time(trace, rec.start, SEQ_LEN, 1.0)
            })
        });
        window_us.push(secs * 1e6);
        let Some(w) = w else {
            agree = false;
            continue;
        };
        let (_, secs) = timed(|| {
            tracer.in_span("core.encode_window_fast", root, id, |_| {
                std::hint::black_box(model.encode_window_fast(&w.interarrivals))
            })
        });
        encode_us.push(secs * 1e6);
        let (_, secs) = timed(|| {
            tracer.in_span("core.predict_all", root, id, |_| {
                std::hint::black_box(opt.predict_all(model, &w.interarrivals))
            })
        });
        score_us.push(secs * 1e6);
        let (decision, secs) = timed(|| {
            tracer.in_span("core.choose", root, id, |_| {
                opt.choose(model, &w.interarrivals)
            })
        });
        choose_us.push(secs * 1e6);
        agree &= decision.chosen.config == rec.config;
    }
    r.check(
        format!(
            "{} re-driven decisions pick the replayed config",
            window_us.len()
        ),
        agree,
    );
    if let Some(t) = stats::tail(&window_us, 50.0) {
        r.set("workload.window.us", t.value);
    }
    set_tail(r, "core.encode.us.p50", &encode_us, 50.0);
    set_tail(r, "core.encode.us.p99", &encode_us, 99.0);
    set_tail(r, "core.score.us.p50", &score_us, 50.0);
    set_tail(r, "core.score.us.p99", &score_us, 99.0);
    set_tail(r, "core.choose.us.p50", &choose_us, 50.0);
    if let Some(t) = stats::tail(&score_us, 50.0) {
        let flops = predict_all_flops(&model.cfg, grid.len());
        r.set("linalg.score.gflops", flops / (t.value * 1e-6) / 1e9);
        r.note(format!(
            "linalg.score.gflops is computed: {flops:.0} flops per predict_all counted from the model dimensions, over its median time"
        ));
    }
}
