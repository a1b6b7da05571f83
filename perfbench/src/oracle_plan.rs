//! `oracle_plan`: the clairvoyant ground-truth planner. `OracleController`
//! driven by `sim::run_controller` over an Azure-like trace, 60 s
//! intervals, the 216-config paper grid, SLO 0.1 s at p95. Almost all of
//! its time is batch formation and execution in `sim`.

use crate::common::{
    chunk_bounds, derive_seed, horizon_s, set_tail, timed, RunCfg, SpannedController,
};
use crate::metrics::Report;
use crate::spans::Tracer;
use crate::stats;
use dbat_sim::{
    ground_truth, run_controller, simulate_batching, ConfigGrid, FaultCounts, OracleController,
    RunOutcome, SimConfig, SimParams,
};
use dbat_workload::{Trace, TraceKind};

const SLO_S: f64 = 0.1;
const PERCENTILE: f64 = 95.0;
const INTERVAL_S: f64 = 60.0;
/// Simulated trace seconds per second of run: planning took 1.2 to 2.2 s
/// per simulated hour on a shared 2-vCPU AVX2 host, whose speed drifts.
const TRACE_S_PER_RUN_S: f64 = 2600.0;
/// The plan is driven in this many consecutive chunks of the trace;
/// throughput and latency are medians over chunks.
const CHUNKS: usize = 8;
const SETUP_REPS: usize = 5;

/// The plan of every chunk, joined in interval order.
struct Plan {
    out: RunOutcome,
    /// Arrival-configs simulated per wall-second, per chunk.
    rates: Vec<f64>,
    /// Median wall time of one interval's decision, per chunk (ms).
    p50_ms: Vec<f64>,
    wall_s: f64,
}

fn plan(tr: &Tracer, trace: &Trace, grid: &ConfigGrid, opts: &SimConfig, horizon: f64) -> Plan {
    let mut out = RunOutcome {
        measurements: Vec::new(),
        records: Vec::new(),
        counts: FaultCounts::default(),
        goodput: None,
    };
    let (mut rates, mut p50_ms, mut wall_s) = (Vec::new(), Vec::new(), 0.0);
    let root = tr.enter("bench.plan", None, None);
    for (t0, t1) in chunk_bounds(horizon, INTERVAL_S, CHUNKS) {
        let first = out.records.len();
        let (chunk, secs) = tr.in_span("sim.run_controller", root, None, |span| {
            let oracle = OracleController::new(grid.clone(), SLO_S);
            let mut ctl = SpannedController::new(oracle, tr, "sim.oracle.decide", span, first);
            timed(|| run_controller(&mut ctl, trace, t0, t1, opts))
        });
        rates.push((trace.count_in(t0, t1) * (grid.len() + 1)) as f64 / secs);
        wall_s += secs;
        let decide_ms: Vec<f64> = chunk.records.iter().map(|rec| rec.decide_s * 1e3).collect();
        p50_ms.push(stats::median(&decide_ms));
        out.measurements.extend(chunk.measurements);
        out.records.extend(chunk.records.into_iter().map(|mut rec| {
            rec.index += first;
            rec
        }));
    }
    tr.exit(root);
    Plan {
        out,
        rates,
        p50_ms,
        wall_s,
    }
}

pub fn run(cfg: &RunCfg, tracer: &Tracer, r: &mut Report) {
    let horizon = horizon_s(cfg.seconds, TRACE_S_PER_RUN_S, INTERVAL_S);
    let trace_seed = derive_seed(cfg.seed, 1);
    r.note(format!(
        "horizon {horizon} s of Azure-like trace, {INTERVAL_S} s intervals, {CHUNKS} chunks"
    ));

    // Set-up: generate the trace.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut generated = None;
    for _ in 0..SETUP_REPS {
        let (t, secs) = timed(|| {
            tracer.in_span("workload.generate", None, None, |_| {
                TraceKind::AzureLike.generate_for(trace_seed, horizon)
            })
        });
        generated = Some(t);
        setups.push(secs);
    }
    let trace = generated.expect("at least one set-up");
    let setup_s = stats::median(&setups);
    r.set("setup_s", setup_s);
    r.set(
        "workload.generate.ns_per_arrival",
        setup_s * 1e9 / trace.len().max(1) as f64,
    );

    let grid = ConfigGrid::paper_default();
    let params = SimParams::default();
    let opts = SimConfig::builder()
        .slo(SLO_S)
        .percentile(PERCENTILE)
        .decision_interval(INTERVAL_S)
        .build()
        .expect("valid sim config");

    // The measured pass runs untraced; the traced run repeats it with
    // spans for the overhead, then re-drives every interval.
    let Plan {
        out,
        rates,
        p50_ms,
        wall_s,
    } = plan(&Tracer::new(false), &trace, &grid, &opts, horizon);
    let arrivals = trace.len();
    r.set("throughput_per_s", stats::median(&rates));
    r.note(format!(
        "{arrivals} arrivals x {} configs (sweep + chosen) in {wall_s:.3} s",
        grid.len() + 1
    ));
    r.set("cost_per_req_uusd", out.cost_per_request() * 1e6);
    r.set("sim.oracle.vcr_pct", out.vcr());
    // The planner's latency: the wall time of each interval's decision.
    r.set("latency_p50_ms", stats::median(&p50_ms));
    let plan_ms: Vec<f64> = out.records.iter().map(|rec| rec.decide_s * 1e3).collect();
    set_tail(r, "sim.plan.ms.p99", &plan_ms, 99.0);

    let served: usize = out.measurements.iter().map(|m| m.requests - m.lost).sum();
    r.attempted = arrivals as u64;
    r.failed = (arrivals - served) as u64;
    r.check(
        format!("served == offered ({served} of {arrivals})"),
        served == arrivals,
    );
    r.check(
        "one decision record per interval",
        out.records.len() == (horizon / INTERVAL_S).round() as usize,
    );

    if tracer.enabled() {
        let traced = plan(tracer, &trace, &grid, &opts, horizon);
        r.set(
            "bench.trace_overhead_pct",
            100.0 * (stats::median(&rates) / stats::median(&traced.rates) - 1.0),
        );
        r.check(
            "traced plan costs the same, bit for bit",
            traced.out.cost_per_request().to_bits() == out.cost_per_request().to_bits(),
        );
    }
    redrive(tracer, r, &trace, &out, &grid, &params);
}

/// Re-run each interval's execution with `simulate_batching` (and, when
/// traced, its planning with `ground_truth`): the request latencies and
/// batch shapes, and the bitwise cross-check against `run_controller`.
fn redrive(
    tracer: &Tracer,
    r: &mut Report,
    trace: &Trace,
    out: &RunOutcome,
    grid: &ConfigGrid,
    params: &SimParams,
) {
    let mut latencies = Vec::with_capacity(trace.len());
    let (mut cost, mut served) = (0.0, 0usize);
    let (mut batches, mut timeouts) = (0usize, 0usize);
    let (mut sweep_s, mut execute_s, mut swept) = (0.0, 0.0, 0usize);
    let mut same_config = true;
    let root = tracer.enter("bench.redrive", None, None);
    for rec in &out.records {
        let slice = trace.slice(rec.start, rec.end.min(trace.horizon()));
        if slice.is_empty() {
            continue;
        }
        let id = Some(rec.index as u64);
        if tracer.enabled() {
            let (best, secs) = timed(|| {
                tracer.in_span("sim.ground_truth", root, id, |_| {
                    ground_truth(slice.timestamps(), grid, params, SLO_S, PERCENTILE)
                })
            });
            same_config &= best.is_some_and(|e| e.config == rec.config);
            sweep_s += secs;
            swept += slice.len();
        }
        let (sim, secs) = timed(|| {
            tracer.in_span("sim.simulate_batching", root, id, |_| {
                simulate_batching(slice.timestamps(), &rec.config, params, None)
            })
        });
        execute_s += secs;
        // The same request-weighted fold as `RunOutcome::cost_per_request`.
        cost += sim.cost_per_request() * sim.requests.len() as f64;
        served += sim.requests.len();
        batches += sim.batches.len();
        timeouts += sim
            .batches
            .iter()
            .filter(|b| b.size < rec.config.batch_size)
            .count();
        latencies.extend(sim.requests.iter().map(|q| q.latency()));
    }
    tracer.exit(root);

    let redriven = if served == 0 {
        0.0
    } else {
        cost / served as f64
    };
    r.check(
        "re-driven intervals cost the same as run_controller, bit for bit",
        redriven.to_bits() == out.cost_per_request().to_bits(),
    );
    if tracer.enabled() {
        r.check("ground_truth re-picks every planned config", same_config);
        r.set("sim.sweep.busy_s", sweep_s);
        r.set(
            "sim.sweep.ns_per_arrival_cfg",
            sweep_s * 1e9 / (swept as f64 * grid.len() as f64),
        );
    }
    r.set(
        "sim.execute.ns_per_arrival",
        execute_s * 1e9 / served.max(1) as f64,
    );
    r.set("sim.batches", batches as f64);
    r.set("sim.mean_batch", served as f64 / batches.max(1) as f64);
    r.set(
        "sim.flush_timeout_pct",
        100.0 * timeouts as f64 / batches.max(1) as f64,
    );
    if let Some(a) = stats::attainment_pct(&latencies, SLO_S) {
        r.set("slo_attain_pct", a);
    }
}
