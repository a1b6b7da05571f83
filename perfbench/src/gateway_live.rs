//! `gateway_live`: the threaded `Gateway` on an unscaled `WallClock`
//! with `ProfiledBackend` at a fixed config (3008 MB, B=8, T=10 ms;
//! 65 ms of service). Three phases: an open loop from one generator
//! thread at 2,000 req/s, the same at 8,000 req/s, then a saturation
//! phase with one producer, `BackpressurePolicy::Block`, a zero-cost
//! backend and a fixed request count. Paced requests are submitted as
//! `Request::at(due)`, so latency counts from when each was due.

use crate::common::{derive_seed, pin_to_one_cpu, scaled, set_tail, timed, RunCfg};
use crate::metrics::Report;
use crate::spans::{SpanId, Tracer};
use crate::stats;
use dbat_serve::{
    Admission, BackpressurePolicy, BatchPlan, Clock, DrainMode, FormedBatch, Gateway,
    GatewayConfig, InferenceBackend, ProfiledBackend, Request, ServeOutcome, WallClock,
};
use dbat_sim::LambdaConfig;
use dbat_workload::{Map, Rng};
use std::sync::Arc;
use std::time::Instant;

const SLO_S: f64 = 0.1;
const LOW_RPS: f64 = 2_000.0;
const HIGH_RPS: f64 = 8_000.0;
/// Each paced phase lasts this share of the run.
const PACED_SHARE: f64 = 0.2;
/// Saturation-phase requests per second of run (about 1.7 M req/s
/// complete on one CPU, so the phase takes about half of the run).
const SATURATION_REQS_PER_RUN_S: f64 = 800_000.0;
/// The saturation phase is this many bursts, each on a fresh gateway;
/// throughput is the median over bursts.
const BURSTS: usize = 10;
/// Every this many saturation submits gets a span in a traced run.
const SATURATION_SPAN_EVERY: u64 = 1024;
const SETUP_REPS: usize = 3;
/// Lead between reading the clock and the first due time.
const LEAD_S: f64 = 0.005;

fn fixed_config() -> LambdaConfig {
    LambdaConfig::new(3008, 8, 0.010)
}

/// A backend that plans and executes nothing: the saturation phase
/// measures the admission plane, not the model.
struct NullBackend;

impl InferenceBackend for NullBackend {
    fn name(&self) -> &'static str {
        "null"
    }

    fn plan(&self, _config: &LambdaConfig, _batch_size: u32) -> BatchPlan {
        BatchPlan {
            service_s: 0.0,
            cost: 0.0,
        }
    }

    fn execute(&self, _clock: &dyn Clock, _plan: &BatchPlan, _batch: &FormedBatch) {}
}

/// A paced gateway whose worker pool holds at least twice the batches
/// expected in flight at `rate`, so the pool never limits the rate.
fn paced_gateway(rate: f64) -> (Gateway, Arc<WallClock>) {
    let cfg = fixed_config();
    let backend = ProfiledBackend::default();
    let service = backend.plan(&cfg, cfg.batch_size).service_s;
    let in_flight = rate / cfg.batch_size as f64 * service;
    let clock = Arc::new(WallClock::new());
    let gw = Gateway::start(
        GatewayConfig {
            initial: cfg,
            queue_capacity: 1 << 20,
            backpressure: BackpressurePolicy::Reject {
                retry_after_s: 0.05,
            },
            lanes: 1,
            workers: (2.0 * in_flight).ceil() as usize + 2,
            ..GatewayConfig::default()
        },
        clock.clone(),
        Arc::new(backend),
    );
    (gw, clock)
}

fn saturation_gateway() -> Gateway {
    Gateway::start(
        GatewayConfig {
            initial: LambdaConfig::new(2048, 64, 0.005),
            queue_capacity: 1 << 16,
            backpressure: BackpressurePolicy::Block,
            lanes: 1,
            workers: 1,
            record_outcome: false,
            ..GatewayConfig::default()
        },
        Arc::new(WallClock::new()),
        Arc::new(NullBackend),
    )
}

struct Gateways {
    low: (Gateway, Arc<WallClock>),
    high: (Gateway, Arc<WallClock>),
    saturation: Vec<Gateway>,
}

impl Gateways {
    fn start() -> Self {
        Gateways {
            low: paced_gateway(LOW_RPS),
            high: paced_gateway(HIGH_RPS),
            saturation: (0..BURSTS).map(|_| saturation_gateway()).collect(),
        }
    }

    /// Stop the gateways of a discarded set-up.
    fn shutdown_idle(self) {
        let paced = [self.low.0, self.high.0];
        for gw in paced.into_iter().chain(self.saturation) {
            gw.shutdown(DrainMode::Immediate);
        }
    }
}

struct Schedules {
    low: Vec<f64>,
    high: Vec<f64>,
}

fn schedules(seed: u64, phase_s: f64, tracer: &Tracer, root: Option<SpanId>) -> Schedules {
    tracer.in_span("workload.generate", root, None, |_| {
        let mut rng = Rng::new(derive_seed(seed, 9));
        Schedules {
            low: Map::poisson(LOW_RPS).simulate(&mut rng, 0.0, phase_s),
            high: Map::poisson(HIGH_RPS).simulate(&mut rng, 0.0, phase_s),
        }
    })
}

struct Paced {
    out: ServeOutcome,
    refused: u64,
    lag_s: Vec<f64>,
}

/// Submit `offsets` open-loop from this thread, each at its due time.
fn paced_phase(
    (gw, clock): (Gateway, Arc<WallClock>),
    offsets: &[f64],
    tracer: &Tracer,
    name: &'static str,
) -> Paced {
    let root = tracer.enter(name, None, None);
    let mut lag_s = Vec::with_capacity(offsets.len());
    let mut refused = 0;
    let start = clock.now() + LEAD_S;
    for (i, &offset) in offsets.iter().enumerate() {
        let due = start + offset;
        clock.sleep_until(due);
        lag_s.push(clock.now() - due);
        let span = tracer.enter("serve.submit", root, Some(i as u64));
        let admission = gw.submit(Request::at(due));
        tracer.exit(span);
        if !matches!(admission, Admission::Accepted { .. }) {
            refused += 1;
        }
    }
    let out = tracer.in_span("serve.shutdown", root, None, |_| {
        gw.shutdown(DrainMode::Graceful)
    });
    tracer.exit(root);
    Paced {
        out,
        refused,
        lag_s,
    }
}

struct Saturation {
    out: ServeOutcome,
    wall_s: f64,
    drain_s: f64,
    submit_ns: Vec<f64>,
}

/// Submit `n` requests flat out from this thread; the traced run times
/// every submit and keeps a span for one in [`SATURATION_SPAN_EVERY`].
fn saturation_phase(gw: Gateway, n: u64, tracer: &Tracer) -> Saturation {
    let root = tracer.enter("bench.saturation", None, None);
    let mut submit_ns = Vec::new();
    let t0 = Instant::now();
    if tracer.enabled() {
        submit_ns.reserve(n as usize);
        for i in 0..n {
            let span = (i % SATURATION_SPAN_EVERY == 0)
                .then(|| tracer.enter("serve.submit", root, Some(i)))
                .flatten();
            let ts = Instant::now();
            std::hint::black_box(gw.submit(Request::default()));
            submit_ns.push(ts.elapsed().as_nanos() as f64);
            tracer.exit(span);
        }
    } else {
        for _ in 0..n {
            std::hint::black_box(gw.submit(Request::default()));
        }
    }
    let (out, drain_s) = timed(|| {
        tracer.in_span("serve.shutdown", root, None, |_| {
            gw.shutdown(DrainMode::Graceful)
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.exit(root);
    Saturation {
        out,
        wall_s,
        drain_s,
        submit_ns,
    }
}

fn check_counts(r: &mut Report, phase: &str, out: &ServeOutcome, offered: u64) {
    let c = out.counts;
    r.attempted += c.submitted;
    r.failed += c.rejected + (c.accepted - c.completed.min(c.accepted));
    r.check(
        format!(
            "{phase}: submitted ({}) == accepted ({}) + rejected ({}) and completed ({}) == accepted",
            c.submitted, c.accepted, c.rejected, c.completed
        ),
        c.submitted == offered && c.submitted == c.accepted + c.rejected && c.completed == c.accepted,
    );
}

/// Run the saturation bursts, one per gateway; each submits `n`.
fn saturation_bursts(
    gws: Vec<Gateway>,
    n: u64,
    tracer: &Tracer,
    r: &mut Report,
) -> Vec<Saturation> {
    let bursts: Vec<Saturation> = gws
        .into_iter()
        .map(|gw| saturation_phase(gw, n, tracer))
        .collect();
    for (i, b) in bursts.iter().enumerate() {
        check_counts(r, &format!("saturation burst {i}"), &b.out, n);
    }
    bursts
}

fn burst_rates(bursts: &[Saturation]) -> Vec<f64> {
    bursts
        .iter()
        .map(|b| b.out.counts.completed as f64 / b.wall_s)
        .collect()
}

pub fn run(cfg: &RunCfg, tracer: &Tracer, r: &mut Report) {
    // Pinned, every gateway thread shares one CPU: left to move between
    // the CPUs of a shared host, lock hand-offs made saturation
    // throughput change from run to run by a third.
    match pin_to_one_cpu() {
        Some(cpu) => r.note(format!("pinned to cpu {cpu} with every thread it starts")),
        None => r.note("could not pin to one cpu; running unpinned"),
    }
    let phase_s = cfg.seconds as f64 * PACED_SHARE;
    let burst_n = (cfg.seconds as f64 * SATURATION_REQS_PER_RUN_S / BURSTS as f64).round() as u64;
    r.note(format!(
        "paced phases of {phase_s} s at {LOW_RPS} and {HIGH_RPS} req/s, then {BURSTS} bursts of {burst_n} requests flat out"
    ));

    // Set-up: the arrival schedules and the gateways (thread pools).
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut generate_s = Vec::with_capacity(SETUP_REPS);
    let mut ready: Option<(Schedules, Gateways)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, gws)) = ready.take() {
            gws.shutdown_idle();
        }
        let ((built, gen_s), secs) = timed(|| {
            let root = tracer.enter("bench.setup", None, None);
            let (s, gen_s) = timed(|| schedules(cfg.seed, phase_s, tracer, root));
            let gws = tracer.in_span("serve.start", root, None, |_| Gateways::start());
            tracer.exit(root);
            ((s, gws), gen_s)
        });
        setups.push(secs);
        generate_s.push(gen_s);
        ready = Some(built);
    }
    let (sched, gws) = ready.expect("at least one set-up");
    r.set("setup_s", stats::median(&setups));
    r.set(
        "workload.generate.ns_per_arrival",
        stats::median(&generate_s) * 1e9 / (sched.low.len() + sched.high.len()).max(1) as f64,
    );

    let low = paced_phase(gws.low, &sched.low, tracer, "bench.paced_low");
    let high = paced_phase(gws.high, &sched.high, tracer, "bench.paced_high");
    check_counts(r, "low", &low.out, sched.low.len() as u64);
    check_counts(r, "high", &high.out, sched.high.len() as u64);
    let bursts = saturation_bursts(gws.saturation, burst_n, &Tracer::new(false), r);
    let rates = burst_rates(&bursts);
    r.note(format!(
        "burst rates (k req/s): {:?}",
        rates.iter().map(|x| (x / 1e3).round()).collect::<Vec<_>>()
    ));
    r.set("throughput_per_s", stats::median(&rates));
    r.note(format!(
        "saturation: {BURSTS} x {burst_n} completed in {:.3} s",
        bursts.iter().map(|b| b.wall_s).sum::<f64>()
    ));
    let drains: Vec<f64> = bursts.iter().map(|b| b.drain_s * 1e3).collect();
    r.set("serve.drain.ms", stats::median(&drains));
    let steals: u64 = bursts.iter().map(|b| b.out.counts.steals).sum();
    r.set("serve.steals", steals as f64);
    if tracer.enabled() {
        let gws = (0..BURSTS).map(|_| saturation_gateway()).collect();
        let traced = saturation_bursts(gws, burst_n, tracer, r);
        r.set(
            "bench.trace_overhead_pct",
            100.0 * (stats::median(&rates) / stats::median(&burst_rates(&traced)) - 1.0),
        );
        let submit_ns: Vec<f64> = traced
            .iter()
            .flat_map(|b| b.submit_ns.iter().copied())
            .collect();
        set_tail(r, "serve.submit.ns.p50", &submit_ns, 50.0);
        set_tail(r, "serve.submit.ns.p99", &submit_ns, 99.0);
    }

    let latencies = |p: &Paced| stats::with_misses(&p.out.latencies(), p.refused);
    let (low_lat, high_lat) = (latencies(&low), latencies(&high));
    set_tail(
        r,
        "latency_p50_ms",
        &scaled(high_lat.iter().copied(), 1e3),
        50.0,
    );
    set_tail(
        r,
        "serve.latency.ms.p99",
        &scaled(high_lat.iter().copied(), 1e3),
        99.0,
    );
    set_tail(
        r,
        "serve.latency_low.ms.p50",
        &scaled(low_lat.iter().copied(), 1e3),
        50.0,
    );
    set_tail(
        r,
        "serve.latency_low.ms.p99",
        &scaled(low_lat.iter().copied(), 1e3),
        99.0,
    );
    let paced: Vec<f64> = low_lat.iter().chain(&high_lat).copied().collect();
    if let Some(a) = stats::attainment_pct(&paced, SLO_S) {
        r.set("slo_attain_pct", a);
    }
    let served = low.out.counts.completed + high.out.counts.completed;
    r.set(
        "cost_per_req_uusd",
        (low.out.total_cost + high.out.total_cost) / served.max(1) as f64 * 1e6,
    );

    let both = [&low, &high];
    let wait_ms: Vec<f64> = both
        .iter()
        .flat_map(|p| {
            p.out
                .requests
                .iter()
                .map(|q| (q.dispatched_at - q.arrival) * 1e3)
        })
        .collect();
    set_tail(r, "serve.window_wait.ms.p50", &wait_ms, 50.0);
    set_tail(r, "serve.window_wait.ms.p99", &wait_ms, 99.0);
    let batches = || both.iter().flat_map(|p| p.out.batches.iter());
    let service_ms: Vec<f64> = batches().map(|b| b.service_s * 1e3).collect();
    set_tail(r, "serve.service.ms.p50", &service_ms, 50.0);
    let overshoot_ms: Vec<f64> = batches()
        .map(|b| (b.completed_at - b.dispatched_at - b.service_s) * 1e3)
        .collect();
    set_tail(r, "serve.exec_overshoot.ms.p99", &overshoot_ms, 99.0);
    let lag_us: Vec<f64> = both
        .iter()
        .flat_map(|p| p.lag_s.iter().map(|l| l * 1e6))
        .collect();
    set_tail(r, "serve.gen_lag.us.p50", &lag_us, 50.0);
    set_tail(r, "serve.gen_lag.us.p99", &lag_us, 99.0);
}
