//! The serverless batching simulation — the paper's ground-truth oracle.
//!
//! Semantics (identical to BATCH and to DeepBAT's Buffer, §III-B):
//! a batch window opens when a request enters an *empty* buffer; the batch
//! dispatches at `min(arrival of the B-th request, open_time + T)`. Each
//! dispatch is one serverless invocation with deterministic service time
//! `s(M, b)` for realised batch size `b`. Autoscaling gives every batch its
//! own function instance, so batches never queue behind each other.
//! A request's latency is `dispatch − arrival + cold_start? + s(M, b)`.
//!
//! Simulation runs in two passes. [`form_batches`] scans the arrivals once,
//! with no event queue, and returns each batch's request range and dispatch
//! time: windows depend only on the arrivals and `(B, T)`. The execution
//! pass then prices a formation at one memory size (service time and cost
//! per realised size, completions, cost folded in dispatch order).
//! [`simulate_batching`] is the two in sequence; [`crate::sweep()`] forms
//! once per `(B, T)` and executes that formation at every memory size.
//!
//! Tie rule: an arrival at exactly `open + T` joins the window that closes
//! at that instant, as in the online `BatcherCore`, which handles an
//! arrival before a timer due at the same time.

use crate::config::{validate_batching, LambdaConfig};
use crate::metrics::LatencySummary;
use crate::pricing::Pricing;
use crate::service::ServiceProfile;
use dbat_telemetry::{Counter, Gauge, Histogram};
use dbat_workload::{DbatError, Rng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Optional cold-start model (an extension over the paper, default off):
/// each invocation independently pays `delay_s` with `probability`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ColdStart {
    pub probability: f64,
    pub delay_s: f64,
}

/// Environment parameters shared across simulations.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimParams {
    pub profile: ServiceProfile,
    pub pricing: Pricing,
    pub cold_start: Option<ColdStart>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            profile: ServiceProfile::ted_lium_like(),
            pricing: Pricing::aws_lambda(),
            cold_start: None,
        }
    }
}

/// One dispatched invocation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Time the batch window opened (first arrival into the empty buffer).
    pub opened_at: f64,
    /// Dispatch time (buffer full or timeout).
    pub dispatched_at: f64,
    /// Realised batch size (1 ..= B).
    pub size: u32,
    /// Service time of the invocation.
    pub service_s: f64,
    /// Cold-start delay paid by this invocation (0 when warm).
    pub cold_start_s: f64,
    /// Invocation cost in USD.
    pub cost: f64,
}

/// One served request.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RequestRecord {
    pub arrival: f64,
    pub dispatch: f64,
    pub completion: f64,
    /// Index into [`SimOutcome::batches`].
    pub batch: usize,
}

impl RequestRecord {
    /// End-to-end latency (completion − arrival).
    pub fn latency(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Buffer wait (dispatch − arrival).
    pub fn wait(&self) -> f64 {
        self.dispatch - self.arrival
    }
}

/// Full simulation output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimOutcome {
    pub requests: Vec<RequestRecord>,
    pub batches: Vec<BatchRecord>,
    pub total_cost: f64,
}

impl SimOutcome {
    pub fn latencies(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.latency()).collect()
    }

    pub fn cost_per_request(&self) -> f64 {
        if self.requests.is_empty() {
            0.0
        } else {
            self.total_cost / self.requests.len() as f64
        }
    }

    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            0.0
        } else {
            self.requests.len() as f64 / self.batches.len() as f64
        }
    }

    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_latencies(&self.latencies())
    }
}

/// One batch formed by the buffer: requests `start..end` of the arrival
/// slice, dispatched together.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchSpan {
    pub start: usize,
    pub end: usize,
    /// Dispatch time on the rebased clock (`arrival − Formation::t0`).
    pub dispatch: f64,
    /// Flushed by the window timer rather than by the B-th arrival.
    pub timed_out: bool,
}

/// The batches a `(B, T)` buffer forms over one arrival sequence. Memory
/// size plays no part in formation, so one formation serves every memory
/// size: execution only re-prices batches that are already formed.
#[derive(Clone, Debug, PartialEq)]
pub struct Formation {
    /// Rebase offset `min(first arrival, 0)`; windows are formed on
    /// `arrival − t0 ≥ 0`, so sliced windows may start at negative times.
    pub t0: f64,
    /// Batches in dispatch order; together they cover every arrival once.
    pub spans: Vec<BatchSpan>,
}

/// Reject arrival sequences the former would silently mis-form: every
/// timestamp must be finite, and the sequence sorted ascending.
pub(crate) fn check_arrivals(arrivals: &[f64]) -> Result<(), DbatError> {
    if let Some(i) = arrivals.iter().position(|a| !a.is_finite()) {
        return Err(DbatError::parameter(format!(
            "arrival {i} is not finite ({})",
            arrivals[i]
        )));
    }
    if let Some(i) = arrivals.windows(2).position(|w| w[0] > w[1]) {
        return Err(DbatError::parameter(format!(
            "arrivals must be sorted ascending: arrival {} ({}) follows {}",
            i + 1,
            arrivals[i + 1],
            arrivals[i]
        )));
    }
    Ok(())
}

/// Form the batches of a `(batch_size, timeout_s)` buffer over sorted
/// arrivals in one forward scan (§III-B semantics, see the module docs).
///
/// A window opens at the first arrival into an empty buffer and closes at
/// its B-th arrival or at `open + T`, whichever comes first; an arrival at
/// exactly `open + T` still joins the window. `B = 1` or `T = 0` sends
/// every request alone.
pub fn form_batches(
    arrivals: &[f64],
    batch_size: u32,
    timeout_s: f64,
) -> Result<Formation, DbatError> {
    validate_batching(batch_size, timeout_s)?;
    check_arrivals(arrivals)?;
    Ok(form(arrivals, batch_size, timeout_s))
}

/// [`form_batches`] on input the caller has already checked.
pub(crate) fn form(arrivals: &[f64], batch_size: u32, timeout_s: f64) -> Formation {
    let t0 = arrivals.first().copied().unwrap_or(0.0).min(0.0);
    let n = arrivals.len();
    let b = batch_size as usize;
    let immediate = batch_size == 1 || timeout_s == 0.0;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < n {
        let open = arrivals[i] - t0;
        // Not the general case with T = 0: that would let simultaneous
        // arrivals share a batch, where B = 1 or T = 0 means no batching.
        if immediate {
            spans.push(BatchSpan {
                start: i,
                end: i + 1,
                dispatch: open,
                timed_out: false,
            });
            i += 1;
            continue;
        }
        let deadline = open + timeout_s;
        let last = n.min(i.saturating_add(b));
        let mut j = i + 1;
        // `<=`: an arrival and the window timer at the same instant resolve
        // arrival first, so that arrival rides in the closing batch.
        while j < last && arrivals[j] - t0 <= deadline {
            j += 1;
        }
        let full = j - i == b;
        spans.push(BatchSpan {
            start: i,
            end: j,
            dispatch: if full { arrivals[j - 1] - t0 } else { deadline },
            timed_out: !full,
        });
        i = j;
    }
    Formation { t0, spans }
}

/// Telemetry handles resolved once per simulation call, so the execution
/// loop never touches the metric registry. `None` when telemetry is
/// disabled, making instrumentation a single branch per use.
pub(crate) struct SimTel {
    events: Arc<Counter>,
    batch_size: Arc<Histogram>,
    flush_timeout: Arc<Counter>,
    flush_capacity: Arc<Counter>,
    cold_starts: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl SimTel {
    pub(crate) fn resolve() -> Option<SimTel> {
        let t = dbat_telemetry::global();
        if !t.is_enabled() {
            return None;
        }
        Some(SimTel {
            events: t.counter("sim.events"),
            batch_size: t.histogram("sim.batch_size"),
            flush_timeout: t.counter("sim.flush.timeout"),
            flush_capacity: t.counter("sim.flush.capacity"),
            cold_starts: t.counter("sim.cold_starts"),
            queue_depth: t.gauge("sim.queue_depth"),
        })
    }

    /// One dispatched batch of `size` requests and its flush reason.
    pub(crate) fn batch(&self, size: usize, timed_out: bool) {
        self.batch_size.record(size as f64);
        if timed_out {
            self.flush_timeout.inc();
        } else {
            self.flush_capacity.inc();
        }
    }

    /// A fully executed formation over `n` arrivals: the events are the
    /// arrivals plus the timer flushes, and the buffer ends empty.
    pub(crate) fn formed(&self, formation: &Formation, n: usize) {
        if n > 0 {
            let timeouts = formation.spans.iter().filter(|s| s.timed_out).count();
            self.events.add((n + timeouts) as u64);
            self.queue_depth.set(0.0);
        }
    }
}

/// Simulate the batching buffer over a finite arrival sequence: form the
/// batches, then execute them at `cfg.memory_mb`.
///
/// `rng` is only consulted when `params.cold_start` is set. Timestamps must
/// be finite and sorted ascending (the usual output of the workload
/// generators); anything else panics, like an invalid `cfg`.
pub fn simulate_batching(
    arrivals: &[f64],
    cfg: &LambdaConfig,
    params: &SimParams,
    rng: Option<&mut Rng>,
) -> SimOutcome {
    cfg.validate().expect("invalid configuration");
    check_arrivals(arrivals).expect("invalid arrivals");
    if params.cold_start.is_some() {
        assert!(rng.is_some(), "cold-start model requires an RNG");
    }
    let formation = form(arrivals, cfg.batch_size, cfg.timeout_s);
    execute(
        arrivals,
        &formation,
        cfg,
        params,
        rng,
        SimTel::resolve().as_ref(),
    )
}

/// Execute a formation at `cfg.memory_mb`: each batch is one invocation
/// with service time `s(M, b)` for its realised size `b`, plus a cold start
/// drawn from `rng` when `params.cold_start` is set (one draw per batch, in
/// dispatch order). Costs are folded in dispatch order.
pub(crate) fn execute(
    arrivals: &[f64],
    formation: &Formation,
    cfg: &LambdaConfig,
    params: &SimParams,
    mut rng: Option<&mut Rng>,
    tel: Option<&SimTel>,
) -> SimOutcome {
    let t0 = formation.t0;
    let mut requests = Vec::with_capacity(arrivals.len());
    let mut batches = Vec::with_capacity(formation.spans.len());
    let mut total_cost = 0.0;
    // (service, cost) per realised size: both depend on nothing else.
    let mut priced: Vec<Option<(f64, f64)>> = Vec::new();
    for (k, span) in formation.spans.iter().enumerate() {
        let size = span.end - span.start;
        if size >= priced.len() {
            priced.resize(size + 1, None);
        }
        let (service, cost) = *priced[size].get_or_insert_with(|| {
            let service = params.profile.service_time(cfg.memory_mb, size as u32);
            (
                service,
                params.pricing.invocation_cost(cfg.memory_mb, service),
            )
        });
        let cold = params
            .cold_start
            .zip(rng.as_deref_mut())
            .map_or(0.0, |(cs, r)| {
                if r.bernoulli(cs.probability) {
                    cs.delay_s
                } else {
                    0.0
                }
            });
        if let Some(tel) = tel {
            tel.batch(size, span.timed_out);
            if cold > 0.0 {
                tel.cold_starts.inc();
            }
        }
        let dispatch = span.dispatch + t0;
        let completion = dispatch + cold + service;
        batches.push(BatchRecord {
            // The window opened on the rebased clock; mapping it back can
            // differ from the raw arrival in the last bit.
            opened_at: (arrivals[span.start] - t0) + t0,
            dispatched_at: dispatch,
            size: size as u32,
            service_s: service,
            cold_start_s: cold,
            cost,
        });
        total_cost += cost;
        requests.extend(
            arrivals[span.start..span.end]
                .iter()
                .map(|&arrival| RequestRecord {
                    arrival,
                    dispatch,
                    completion,
                    batch: k,
                }),
        );
    }
    debug_assert_eq!(requests.len(), arrivals.len(), "every request dispatched");
    if let Some(tel) = tel {
        tel.formed(formation, arrivals.len());
    }
    SimOutcome {
        requests,
        batches,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimParams {
        SimParams::default()
    }

    #[test]
    fn batch_of_one_when_b1() {
        let cfg = LambdaConfig::new(2048, 1, 0.5);
        let out = simulate_batching(&[0.0, 0.1, 0.2], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 3);
        assert!(out.batches.iter().all(|b| b.size == 1));
        // Latency == service time exactly (no wait).
        let s = params().profile.service_time(2048, 1);
        for r in &out.requests {
            assert!((r.latency() - s).abs() < 1e-12);
            assert_eq!(r.wait(), 0.0);
        }
    }

    #[test]
    fn full_batch_dispatches_at_bth_arrival() {
        let cfg = LambdaConfig::new(2048, 3, 10.0);
        let out = simulate_batching(&[0.0, 0.1, 0.2, 0.3], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].size, 3);
        assert!((out.batches[0].dispatched_at - 0.2).abs() < 1e-12);
        // Last request waits for the timeout.
        assert_eq!(out.batches[1].size, 1);
        assert!((out.batches[1].dispatched_at - (0.3 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn timeout_fires_for_partial_batch() {
        let cfg = LambdaConfig::new(2048, 8, 0.05);
        let out = simulate_batching(&[0.0, 0.01], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].size, 2);
        assert!((out.batches[0].dispatched_at - 0.05).abs() < 1e-12);
        // First request waited the full timeout.
        assert!((out.requests[0].wait() - 0.05).abs() < 1e-12);
        assert!((out.requests[1].wait() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn timeout_zero_means_no_batching() {
        let cfg = LambdaConfig::new(2048, 8, 0.0);
        let out = simulate_batching(&[0.0, 0.5, 1.0], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 3);
        assert!(out.batches.iter().all(|b| b.size == 1));
    }

    #[test]
    fn stale_timeout_ignored_after_full_dispatch() {
        // Batch fills before its timeout; the next window must not be cut
        // short by the stale timer.
        let cfg = LambdaConfig::new(2048, 2, 1.0);
        let out = simulate_batching(&[0.0, 0.1, 0.2], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].size, 2);
        // Third request dispatches at its own timeout (0.2 + 1.0), not at 1.0.
        assert!((out.batches[1].dispatched_at - 1.2).abs() < 1e-9);
    }

    #[test]
    fn every_request_served_once() {
        let cfg = LambdaConfig::new(1024, 4, 0.03);
        let arrivals: Vec<f64> = (0..137).map(|i| i as f64 * 0.013).collect();
        let out = simulate_batching(&arrivals, &cfg, &params(), None);
        assert_eq!(out.requests.len(), 137);
        let sizes: u32 = out.batches.iter().map(|b| b.size).sum();
        assert_eq!(sizes, 137);
        for r in &out.requests {
            assert!(r.dispatch >= r.arrival);
            assert!(r.completion > r.dispatch);
        }
    }

    #[test]
    fn cost_accumulates_per_invocation() {
        let cfg = LambdaConfig::new(1024, 2, 0.1);
        let out = simulate_batching(&[0.0, 0.01, 5.0], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 2);
        let expect: f64 = out.batches.iter().map(|b| b.cost).sum();
        assert!((out.total_cost - expect).abs() < 1e-15);
        assert!(out.cost_per_request() > 0.0);
    }

    #[test]
    fn batching_cheaper_than_singles_on_dense_arrivals() {
        let arrivals: Vec<f64> = (0..512).map(|i| i as f64 * 0.002).collect();
        let single =
            simulate_batching(&arrivals, &LambdaConfig::new(2048, 1, 0.0), &params(), None);
        let batched = simulate_batching(
            &arrivals,
            &LambdaConfig::new(2048, 16, 0.1),
            &params(),
            None,
        );
        assert!(
            batched.cost_per_request() < 0.5 * single.cost_per_request(),
            "batched {} vs single {}",
            batched.cost_per_request(),
            single.cost_per_request()
        );
        // ... but latency is worse (Fig. 1 trade-off).
        assert!(batched.summary().p95 > single.summary().p95);
    }

    #[test]
    fn cold_start_adds_latency() {
        let cs = ColdStart {
            probability: 1.0,
            delay_s: 0.4,
        };
        let p = SimParams {
            cold_start: Some(cs),
            ..SimParams::default()
        };
        let mut rng = Rng::new(1);
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_batching(&[0.0], &cfg, &p, Some(&mut rng));
        assert!(
            (out.requests[0].latency() - (0.4 + p.profile.service_time(2048, 1))).abs() < 1e-12
        );
        assert_eq!(out.batches[0].cold_start_s, 0.4);
    }

    #[test]
    fn empty_arrivals_empty_outcome() {
        let cfg = LambdaConfig::new(1024, 4, 0.1);
        let out = simulate_batching(&[], &cfg, &params(), None);
        assert!(out.requests.is_empty());
        assert!(out.batches.is_empty());
        assert_eq!(out.total_cost, 0.0);
        assert_eq!(out.cost_per_request(), 0.0);
    }

    #[test]
    fn form_batches_spans_and_rebase() {
        let f = form_batches(&[-1.0, -0.99, 0.5], 2, 0.05).unwrap();
        assert_eq!(f.t0, -1.0);
        assert_eq!(
            f.spans,
            [
                BatchSpan {
                    start: 0,
                    end: 2,
                    dispatch: -0.99 - -1.0,
                    timed_out: false,
                },
                BatchSpan {
                    start: 2,
                    end: 3,
                    dispatch: (0.5 - -1.0) + 0.05,
                    timed_out: true,
                },
            ]
        );
        assert!(form_batches(&[], 4, 0.1).unwrap().spans.is_empty());
    }

    #[test]
    fn form_batches_rejects_non_finite_arrivals() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = form_batches(&[0.0, bad, 1.0], 2, 0.1).unwrap_err();
            assert!(err.to_string().contains("not finite"), "{err}");
        }
    }

    #[test]
    fn form_batches_rejects_unsorted_arrivals() {
        let err = form_batches(&[0.0, 0.2, 0.1], 2, 0.1).unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");
        // Duplicates are sorted.
        assert!(form_batches(&[0.1, 0.1], 2, 0.1).is_ok());
    }

    #[test]
    fn form_batches_rejects_invalid_batching() {
        assert!(form_batches(&[0.0], 0, 0.1).is_err());
        assert!(form_batches(&[0.0], 2, -0.1).is_err());
        assert!(form_batches(&[0.0], 2, f64::INFINITY).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid arrivals")]
    fn simulate_batching_panics_on_unsorted_arrivals() {
        let cfg = LambdaConfig::new(1024, 2, 0.05);
        simulate_batching(&[0.3, 0.1], &cfg, &params(), None);
    }

    #[test]
    #[should_panic(expected = "invalid arrivals")]
    fn simulate_batching_panics_on_nan_arrival() {
        let cfg = LambdaConfig::new(1024, 2, 0.05);
        simulate_batching(&[0.0, f64::NAN], &cfg, &params(), None);
    }

    #[test]
    fn negative_window_timestamps_supported() {
        // Sliced windows can start at negative offsets after rebasing.
        let cfg = LambdaConfig::new(1024, 2, 0.05);
        let out = simulate_batching(&[-1.0, -0.99], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 1);
        assert!((out.requests[0].arrival - (-1.0)).abs() < 1e-12);
        assert!(out.requests[0].dispatch >= -1.0);
    }
}
