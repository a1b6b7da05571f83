//! The metric registry (names, units, directions, and for each per-layer
//! metric the end-to-end metric and workload it should move) and the
//! per-run report the workloads fill in.
//!
//! `BENCHMARK.json` lists the same metrics; a test keeps the two equal.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: what it measures on each workload. Per-layer: the
    /// end-to-end metric @ workload it should move.
    pub meaning: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        meaning,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "median wall time of one set-up: inputs generated from the seed, plus labelling and training on online_deepbat and gateway start on gateway_live"),
    m("peak_rss_mb", "MB", Lower, "peak resident memory of the run"),
    m("throughput_per_s", "1/s", Higher, "work per wall-second: arrival-configs simulated (oracle_plan), requests replayed incl. decisions, each chunk at its fastest pass (online_deepbat), completed requests in the saturation phase (gateway_live), tokenized requests through the three runs (tokens_long_decode)"),
    m("cost_per_req_uusd", "uUSD", Lower, "billed cost per served request: planned schedule, DeepBAT schedule, the two paced live phases, the continuous-batching run"),
    m("latency_p50_ms", "ms", Lower, "median latency of the workload's unit of service: planning one interval (oracle_plan), one DeepBAT decision, each at its fastest pass (online_deepbat), a live request from its due time at 8000 req/s (gateway_live), a simulated request to its last token (tokens_long_decode); a refused request counts as a miss"),
    m("slo_attain_pct", "%", Higher, "share of attempted requests meeting the SLO (0.1 s; TTFT 50 ms and TPOT 12 ms on tokens_long_decode); a refused request counts as a miss"),
];

/// Reported by every traced run; 0 where the workload bypasses the layer.
pub const PER_LAYER: &[MetricDef] = &[
    // workload
    m(
        "workload.generate.ns_per_arrival",
        "ns",
        Lower,
        "setup_s@oracle_plan,gateway_live",
    ),
    m(
        "workload.tokenize.ns_per_request",
        "ns",
        Lower,
        "setup_s@tokens_long_decode",
    ),
    m(
        "workload.window.us",
        "us",
        Lower,
        "latency_p50_ms@online_deepbat",
    ),
    m("workload.self_s", "s", Lower, "setup_s@all"),
    // sim
    m(
        "sim.sweep.ns_per_arrival_cfg",
        "ns",
        Lower,
        "throughput_per_s,latency_p50_ms@oracle_plan",
    ),
    m(
        "sim.sweep.busy_s",
        "s",
        Lower,
        "throughput_per_s,latency_p50_ms@oracle_plan",
    ),
    m(
        "sim.execute.ns_per_arrival",
        "ns",
        Lower,
        "throughput_per_s@oracle_plan",
    ),
    m(
        "sim.batches",
        "count",
        Lower,
        "cost_per_req_uusd@oracle_plan",
    ),
    m(
        "sim.mean_batch",
        "count",
        Higher,
        "cost_per_req_uusd@oracle_plan",
    ),
    m(
        "sim.flush_timeout_pct",
        "%",
        Lower,
        "cost_per_req_uusd@oracle_plan",
    ),
    m(
        "sim.oracle.vcr_pct",
        "%",
        Lower,
        "slo_attain_pct@oracle_plan",
    ),
    m(
        "sim.plan.ms.p99",
        "ms",
        Lower,
        "latency_p50_ms@oracle_plan (its tail)",
    ),
    m(
        "sim.tokens.continuous.ns_per_request",
        "ns",
        Lower,
        "throughput_per_s@tokens_long_decode",
    ),
    m(
        "sim.tokens.continuous.invocations",
        "count",
        Lower,
        "cost_per_req_uusd@tokens_long_decode",
    ),
    m(
        "sim.tokens.continuous.mean_active",
        "count",
        Higher,
        "slo_attain_pct,throughput_per_s@tokens_long_decode",
    ),
    m(
        "sim.tokens.windowed.ns_per_request",
        "ns",
        Lower,
        "throughput_per_s@tokens_long_decode",
    ),
    m(
        "sim.tokens.rejected_oversize",
        "count",
        Lower,
        "failed@tokens_long_decode",
    ),
    m(
        "sim.tokens.latency.ms.p99",
        "ms",
        Lower,
        "latency_p50_ms,slo_attain_pct@tokens_long_decode (its tail)",
    ),
    m(
        "sim.self_s",
        "s",
        Lower,
        "throughput_per_s@oracle_plan,tokens_long_decode",
    ),
    // core
    m(
        "core.label.samples_per_s",
        "1/s",
        Higher,
        "setup_s@online_deepbat",
    ),
    m(
        "core.encode.us.p50",
        "us",
        Lower,
        "latency_p50_ms,throughput_per_s@online_deepbat",
    ),
    m(
        "core.encode.us.p99",
        "us",
        Lower,
        "core.decide.ms.p99@online_deepbat",
    ),
    m(
        "core.score.us.p50",
        "us",
        Lower,
        "latency_p50_ms,throughput_per_s@online_deepbat",
    ),
    m(
        "core.score.us.p99",
        "us",
        Lower,
        "core.decide.ms.p99@online_deepbat",
    ),
    m(
        "core.choose.us.p50",
        "us",
        Lower,
        "latency_p50_ms,throughput_per_s@online_deepbat",
    ),
    m(
        "core.decide.ms.p99",
        "ms",
        Lower,
        "latency_p50_ms@online_deepbat (its tail)",
    ),
    m(
        "core.decide.fallback_pct",
        "%",
        Lower,
        "slo_attain_pct@online_deepbat",
    ),
    m(
        "core.decide.bootstrap",
        "count",
        Lower,
        "slo_attain_pct@online_deepbat",
    ),
    m(
        "core.decide.vcr_pct",
        "%",
        Lower,
        "slo_attain_pct@online_deepbat",
    ),
    m(
        "core.surrogate.cost_ape_pct",
        "%",
        Lower,
        "cost_per_req_uusd@online_deepbat",
    ),
    m(
        "core.surrogate.p95_ape_pct",
        "%",
        Lower,
        "slo_attain_pct@online_deepbat",
    ),
    m("core.self_s", "s", Lower, "throughput_per_s@online_deepbat"),
    // nn / linalg
    m("nn.train.s_per_epoch", "s", Lower, "setup_s@online_deepbat"),
    m(
        "nn.train.samples_per_s",
        "1/s",
        Higher,
        "setup_s@online_deepbat",
    ),
    m(
        "nn.train.val_mape_pct",
        "%",
        Lower,
        "cost_per_req_uusd,slo_attain_pct@online_deepbat",
    ),
    m("nn.self_s", "s", Lower, "setup_s@online_deepbat"),
    m(
        "linalg.score.gflops",
        "GFLOP/s",
        Higher,
        "latency_p50_ms@online_deepbat",
    ),
    // serve
    m(
        "serve.replay.ns_per_request",
        "ns",
        Lower,
        "throughput_per_s@online_deepbat",
    ),
    m(
        "serve.replay.mean_batch",
        "count",
        Higher,
        "cost_per_req_uusd@online_deepbat",
    ),
    m(
        "serve.submit.ns.p50",
        "ns",
        Lower,
        "throughput_per_s,serve.latency.ms.p99@gateway_live",
    ),
    m(
        "serve.submit.ns.p99",
        "ns",
        Lower,
        "throughput_per_s,serve.latency.ms.p99@gateway_live",
    ),
    m(
        "serve.window_wait.ms.p50",
        "ms",
        Lower,
        "latency_p50_ms@gateway_live",
    ),
    m(
        "serve.window_wait.ms.p99",
        "ms",
        Lower,
        "serve.latency.ms.p99@gateway_live",
    ),
    m(
        "serve.service.ms.p50",
        "ms",
        Lower,
        "latency_p50_ms@gateway_live",
    ),
    m(
        "serve.exec_overshoot.ms.p99",
        "ms",
        Lower,
        "serve.latency.ms.p99@gateway_live",
    ),
    m(
        "serve.gen_lag.us.p50",
        "us",
        Lower,
        "serve.latency.ms.p99@gateway_live",
    ),
    m(
        "serve.gen_lag.us.p99",
        "us",
        Lower,
        "serve.latency.ms.p99@gateway_live",
    ),
    m(
        "serve.latency.ms.p99",
        "ms",
        Lower,
        "latency_p50_ms,slo_attain_pct@gateway_live (its tail at 8000 req/s)",
    ),
    m(
        "serve.latency_low.ms.p50",
        "ms",
        Lower,
        "slo_attain_pct@gateway_live",
    ),
    m(
        "serve.latency_low.ms.p99",
        "ms",
        Lower,
        "slo_attain_pct@gateway_live",
    ),
    m(
        "serve.drain.ms",
        "ms",
        Lower,
        "throughput_per_s@gateway_live",
    ),
    m(
        "serve.steals",
        "count",
        Lower,
        "throughput_per_s@gateway_live",
    ),
    m(
        "serve.tokens.replay.ns_per_request",
        "ns",
        Lower,
        "throughput_per_s@tokens_long_decode",
    ),
    m(
        "serve.self_s",
        "s",
        Lower,
        "throughput_per_s@online_deepbat,gateway_live",
    ),
    // the benchmark itself
    m(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        "none: traced run against the untraced one",
    ),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (requests refused, lost or
    /// rejected as oversize).
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    /// Human-readable detail lines (sample counts, provenance, ...).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn checks(&self) -> &[(String, bool)] {
        &self.checks
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}
