//! `tokens_long_decode`: the LLM-shaped path. Long-decode lognormal token
//! specs over an Azure-like trace, TTFT SLO 50 ms and TPOT SLO 12 ms,
//! served three ways: continuous batching (4096 MB, B=16, 16 replicas),
//! windowed batching at the token-blind incumbent (3008 MB, B=16, 50 ms),
//! and a `ContinuousBackend` replay of the continuous config on a virtual
//! clock.

use crate::common::{chunk_bounds, derive_seed, horizon_s, scaled, set_tail, timed, RunCfg};
use crate::metrics::Report;
use crate::spans::{SpanId, Tracer};
use crate::stats;
use dbat_serve::{ContinuousBackend, VirtualClock};
use dbat_sim::{simulate_tokens_continuous, simulate_tokens_windowed, LambdaConfig, TokenParams};
use dbat_workload::{LognormalTokens, TokenMix, TokenSlo, TokenizedTrace, TraceKind};

const TTFT_SLO_S: f64 = 0.05;
const TPOT_SLO_S: f64 = 0.012;
const REPLICAS: usize = 16;
/// Simulated trace seconds per second of run: the three runs took 3 to
/// 5 s per simulated hour on a shared 2-vCPU AVX2 host.
const TRACE_S_PER_RUN_S: f64 = 1000.0;
/// The trace is served in consecutive chunks of this many trace seconds,
/// one after the other, so memory stays bounded; throughput is the median
/// over chunks. A chunk's decode-step records stay under 16 MB: larger,
/// the allocator's choice between heap and mapping made peak memory
/// differ by a quarter between runs.
const CHUNK_S: f64 = 120.0;
const SETUP_REPS: usize = 5;

/// What the three runs over all chunks add up to.
#[derive(Default)]
struct Served {
    offered: usize,
    /// Continuous-batching run: served, rejected, cost, latencies, SLO
    /// hits, decode steps and the cohort sizes summed over them.
    served: usize,
    rejected: usize,
    cost: f64,
    latencies: Vec<f64>,
    ok: usize,
    steps: usize,
    active: u64,
    /// Requests rejected by the other two runs.
    rejected_other: usize,
    /// Wall seconds of the continuous, windowed and replay runs.
    walls: [f64; 3],
    /// Tokenized requests through the three runs per wall-second, per
    /// chunk.
    rates: Vec<f64>,
    conserved: bool,
    replay_matches: bool,
}

fn serve_chunk(
    tr: &Tracer,
    root: Option<SpanId>,
    id: u64,
    chunk: &TokenizedTrace,
    params: &TokenParams,
    all: &mut Served,
) {
    let continuous_cfg = LambdaConfig::new(4096, 16, 0.0);
    let windowed_cfg = LambdaConfig::new(3008, 16, 0.05);
    let (arrivals, specs) = (chunk.arrivals(), chunk.specs());
    let id = Some(id);
    let (continuous, c) = timed(|| {
        tr.in_span("sim.simulate_tokens_continuous", root, id, |_| {
            simulate_tokens_continuous(arrivals, specs, &continuous_cfg, params, REPLICAS)
        })
    });
    let (windowed, w) = timed(|| {
        tr.in_span("sim.simulate_tokens_windowed", root, id, |_| {
            simulate_tokens_windowed(arrivals, specs, &windowed_cfg, params)
        })
    });
    let (replay, s) = timed(|| {
        tr.in_span("serve.continuous_backend", root, id, |_| {
            ContinuousBackend::new(*params, REPLICAS).serve(
                &VirtualClock::new(),
                chunk,
                &continuous_cfg,
            )
        })
    });
    let n = chunk.len();
    all.offered += n;
    all.rates.push(3.0 * n as f64 / (c + w + s));
    for (i, secs) in [c, w, s].into_iter().enumerate() {
        all.walls[i] += secs;
    }
    all.conserved &= [&continuous, &windowed, &replay]
        .iter()
        .all(|o| o.conserved() && o.offered == n);
    all.replay_matches &= replay.total_cost.to_bits() == continuous.total_cost.to_bits();
    let slo = TokenSlo::new(TTFT_SLO_S, TPOT_SLO_S);
    all.served += continuous.served.len();
    all.rejected += continuous.rejected;
    all.rejected_other += windowed.rejected + replay.rejected;
    all.cost += continuous.total_cost;
    all.ok += continuous.served.iter().filter(|q| q.slo_ok(&slo)).count();
    all.latencies
        .extend(continuous.served.iter().map(|q| q.latency()));
    all.steps += continuous.invocations.len();
    all.active += continuous
        .invocations
        .iter()
        .map(|i| i.size as u64)
        .sum::<u64>();
}

fn serve_all(tr: &Tracer, chunks: &[TokenizedTrace], params: &TokenParams) -> Served {
    let mut all = Served {
        conserved: true,
        replay_matches: true,
        ..Served::default()
    };
    let root = tr.enter("bench.serve", None, None);
    for (i, chunk) in chunks.iter().enumerate() {
        serve_chunk(tr, root, i as u64, chunk, params, &mut all);
    }
    tr.exit(root);
    all
}

/// Set-up: the trace, its token specs, and its chunks; with the seconds
/// spent generating and tokenizing.
fn setup(seed: u64, horizon: f64, tracer: &Tracer) -> (Vec<TokenizedTrace>, f64, f64) {
    let root = tracer.enter("bench.setup", None, None);
    let (trace, generate_s) = timed(|| {
        tracer.in_span("workload.generate", root, None, |_| {
            TraceKind::AzureLike.generate_for(derive_seed(seed, 7), horizon)
        })
    });
    let mix = TokenMix::Lognormal(LognormalTokens::long_decode());
    let (tokenized, tokenize_s) = timed(|| {
        tracer.in_span("workload.tokenize", root, None, |_| {
            TokenizedTrace::sample(trace, &mix, derive_seed(seed, 8))
        })
    });
    let n_chunks = (horizon / CHUNK_S).ceil() as usize;
    let chunks = chunk_bounds(horizon, 60.0, n_chunks)
        .into_iter()
        .map(|(t0, t1)| {
            let (lo, hi) = tokenized.index_range(t0, t1);
            let slice = tokenized.trace().slice(t0, t1);
            TokenizedTrace::new(slice, tokenized.specs()[lo..hi].to_vec())
                .expect("one spec per arrival")
        })
        .collect();
    tracer.exit(root);
    (chunks, generate_s, tokenize_s)
}

pub fn run(cfg: &RunCfg, tracer: &Tracer, r: &mut Report) {
    let horizon = horizon_s(cfg.seconds, TRACE_S_PER_RUN_S, 60.0);
    r.note(format!(
        "horizon {horizon} s of Azure-like trace with long-decode token specs, {CHUNK_S} s chunks"
    ));

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (mut generate_s, mut tokenize_s) = (Vec::new(), Vec::new());
    let mut chunks = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((c, gen_s, tok_s), secs) = timed(|| setup(cfg.seed, horizon, tracer));
        setups.push(secs);
        generate_s.push(gen_s);
        tokenize_s.push(tok_s);
        chunks = c;
    }
    let params = TokenParams::llm_like();
    let all = serve_all(&Tracer::new(false), &chunks, &params);
    let offered = all.offered;
    r.set("setup_s", stats::median(&setups));
    r.set(
        "workload.generate.ns_per_arrival",
        stats::median(&generate_s) * 1e9 / offered.max(1) as f64,
    );
    r.set(
        "workload.tokenize.ns_per_request",
        stats::median(&tokenize_s) * 1e9 / offered.max(1) as f64,
    );
    r.set("throughput_per_s", stats::median(&all.rates));
    r.note(format!(
        "3 x {offered} tokenized requests in {:.3} s",
        all.walls.iter().sum::<f64>()
    ));
    if tracer.enabled() {
        let traced = serve_all(tracer, &chunks, &params);
        r.set(
            "bench.trace_overhead_pct",
            100.0 * (stats::median(&all.rates) / stats::median(&traced.rates) - 1.0),
        );
        r.check(
            "traced runs cost the same, bit for bit",
            traced.cost.to_bits() == all.cost.to_bits(),
        );
    }

    r.attempted = 3 * offered as u64;
    r.failed = (all.rejected + all.rejected_other) as u64;
    r.check(
        format!("each run: served + rejected == offered ({offered} per run)"),
        all.conserved,
    );
    r.check(
        "ContinuousBackend replay costs the same as simulate_tokens_continuous, bit for bit",
        all.replay_matches,
    );

    r.set(
        "cost_per_req_uusd",
        all.cost / all.served.max(1) as f64 * 1e6,
    );
    let with_misses = stats::with_misses(&all.latencies, all.rejected as u64);
    let ms = scaled(with_misses.iter().copied(), 1e3);
    set_tail(r, "latency_p50_ms", &ms, 50.0);
    set_tail(r, "sim.tokens.latency.ms.p99", &ms, 99.0);
    r.set(
        "slo_attain_pct",
        100.0 * all.ok as f64 / offered.max(1) as f64,
    );
    r.note(format!(
        "continuous goodput {:.3} req/s over {horizon} s",
        all.ok as f64 / horizon
    ));

    let per_req = |secs: f64| secs * 1e9 / offered.max(1) as f64;
    r.set(
        "sim.tokens.continuous.ns_per_request",
        per_req(all.walls[0]),
    );
    r.set("sim.tokens.windowed.ns_per_request", per_req(all.walls[1]));
    r.set("serve.tokens.replay.ns_per_request", per_req(all.walls[2]));
    r.set("sim.tokens.continuous.invocations", all.steps as f64);
    r.set(
        "sim.tokens.continuous.mean_active",
        all.active as f64 / all.steps.max(1) as f64,
    );
    r.set(
        "sim.tokens.rejected_oversize",
        (all.rejected + all.rejected_other) as f64,
    );
}
