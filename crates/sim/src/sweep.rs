//! Rayon-parallel configuration sweeps: the ground-truth optimizer.
//!
//! The paper's ground truth is "a search across all possible configurations
//! of memory size, batch size, and timeout" driven by simulation (§IV-A).
//! Batch formation depends only on the arrivals and `(B, T)`, so the sweep
//! forms each `(B, T)` once, on its own rayon task, and executes that
//! formation at every memory size of the grid.

use crate::batching::{
    check_arrivals, execute, form, simulate_batching, SimOutcome, SimParams, SimTel,
};
use crate::config::{ConfigGrid, LambdaConfig};
use crate::metrics::LatencySummary;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The outcome of simulating one configuration over one arrival window.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Evaluation {
    pub config: LambdaConfig,
    pub summary: LatencySummary,
    pub cost_per_request: f64,
    pub mean_batch_size: f64,
}

impl Evaluation {
    /// Does this configuration meet `percentile(p) <= slo`?
    pub fn feasible(&self, slo: f64, p: f64) -> bool {
        self.summary.percentile(p) <= slo
    }
}

/// Simulate a single configuration over the given arrivals.
pub fn evaluate(arrivals: &[f64], cfg: &LambdaConfig, params: &SimParams) -> Evaluation {
    evaluation(*cfg, &simulate_batching(arrivals, cfg, params, None))
}

fn evaluation(config: LambdaConfig, out: &SimOutcome) -> Evaluation {
    Evaluation {
        config,
        summary: out.summary(),
        cost_per_request: out.cost_per_request(),
        mean_batch_size: out.mean_batch_size(),
    }
}

/// Simulate every configuration of the grid (deterministic output order:
/// the grid's enumeration order). Each `(B, T)` is formed once and its
/// formation executed at every memory size; the `(B, T)` keys run in
/// parallel. Every result is bitwise what [`evaluate`] gives for that
/// configuration.
///
/// Panics on unsorted or non-finite arrivals, and when `params.cold_start`
/// is set: the sweep evaluates the deterministic model and draws no cold
/// starts.
pub fn sweep(arrivals: &[f64], grid: &ConfigGrid, params: &SimParams) -> Vec<Evaluation> {
    assert!(
        params.cold_start.is_none(),
        "sweep evaluates the deterministic model: params.cold_start must be None \
         (use simulate_batching with an RNG to sample cold starts)"
    );
    check_arrivals(arrivals).expect("invalid arrivals");
    let configs = grid.configs();
    let timeouts = grid.timeouts_s.len();
    let keys = grid.batch_sizes.len() * timeouts;
    let tel = SimTel::resolve();
    let per_key: Vec<Vec<Evaluation>> = (0..keys)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|&k| {
            let formation = form(
                arrivals,
                grid.batch_sizes[k / timeouts],
                grid.timeouts_s[k % timeouts],
            );
            // Memory-major grid order: config `m * keys + k` is (M_m, key k).
            configs
                .iter()
                .skip(k)
                .step_by(keys)
                .map(|cfg| {
                    let out = execute(arrivals, &formation, cfg, params, None, tel.as_ref());
                    evaluation(*cfg, &out)
                })
                .collect()
        })
        .collect();
    (0..configs.len())
        .map(|c| per_key[c % keys][c / keys])
        .collect()
}

/// The optimizer of Eq. (10): cheapest configuration whose `p`-th latency
/// percentile meets the SLO. Falls back to the lowest-latency configuration
/// when nothing is feasible (the least-bad choice, also what BATCH does).
pub fn best_feasible(evals: &[Evaluation], slo: f64, p: f64) -> Option<Evaluation> {
    if evals.is_empty() {
        return None;
    }
    let feasible = evals
        .iter()
        .filter(|e| e.feasible(slo, p))
        .min_by(|a, b| a.cost_per_request.partial_cmp(&b.cost_per_request).unwrap());
    match feasible {
        Some(e) => Some(*e),
        None => evals
            .iter()
            .min_by(|a, b| {
                a.summary
                    .percentile(p)
                    .partial_cmp(&b.summary.percentile(p))
                    .unwrap()
            })
            .copied(),
    }
}

/// Ground truth in one call: sweep the grid and pick the optimum.
pub fn ground_truth(
    arrivals: &[f64],
    grid: &ConfigGrid,
    params: &SimParams,
    slo: f64,
    p: f64,
) -> Option<Evaluation> {
    best_feasible(&sweep(arrivals, grid, params), slo, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_arrivals() -> Vec<f64> {
        (0..600).map(|i| i as f64 * 0.004).collect()
    }

    #[test]
    fn sweep_covers_grid_in_order() {
        let grid = ConfigGrid::tiny();
        let evals = sweep(&dense_arrivals(), &grid, &SimParams::default());
        assert_eq!(evals.len(), grid.len());
        let cfgs: Vec<_> = evals.iter().map(|e| e.config).collect();
        assert_eq!(cfgs, grid.configs());
    }

    #[test]
    fn ground_truth_is_feasible_and_cheapest() {
        let grid = ConfigGrid::paper_default();
        let params = SimParams::default();
        let evals = sweep(&dense_arrivals(), &grid, &params);
        let slo = 0.1;
        let best = best_feasible(&evals, slo, 95.0).unwrap();
        assert!(best.feasible(slo, 95.0), "chosen config violates SLO");
        for e in &evals {
            if e.feasible(slo, 95.0) {
                assert!(best.cost_per_request <= e.cost_per_request + 1e-18);
            }
        }
    }

    #[test]
    fn infeasible_slo_falls_back_to_fastest() {
        let grid = ConfigGrid::tiny();
        let evals = sweep(&dense_arrivals(), &grid, &SimParams::default());
        // SLO of 1 microsecond is unattainable.
        let best = best_feasible(&evals, 1e-6, 95.0).unwrap();
        let min_p95 = evals
            .iter()
            .map(|e| e.summary.p95)
            .fold(f64::INFINITY, f64::min);
        assert!((best.summary.p95 - min_p95).abs() < 1e-15);
    }

    #[test]
    fn batching_wins_under_loose_slo() {
        // With a generous SLO the optimum should exploit batching (B > 1).
        let grid = ConfigGrid::paper_default();
        let best =
            ground_truth(&dense_arrivals(), &grid, &SimParams::default(), 0.5, 95.0).unwrap();
        assert!(
            best.config.batch_size > 1,
            "expected batching at loose SLO, got {}",
            best.config
        );
    }

    #[test]
    fn tight_slo_prefers_fast_configs() {
        let grid = ConfigGrid::paper_default();
        let loose =
            ground_truth(&dense_arrivals(), &grid, &SimParams::default(), 0.5, 95.0).unwrap();
        let tight =
            ground_truth(&dense_arrivals(), &grid, &SimParams::default(), 0.06, 95.0).unwrap();
        assert!(tight.summary.p95 <= 0.06 + 1e-12);
        assert!(
            tight.cost_per_request >= loose.cost_per_request,
            "tight SLO cannot be cheaper than loose"
        );
    }

    #[test]
    fn sweep_is_bitwise_per_config_evaluate() {
        use dbat_workload::TraceKind;
        let trace = TraceKind::AzureLike.generate_for(3, 180.0);
        let shifted: Vec<f64> = trace
            .slice(60.0, 120.0)
            .timestamps()
            .iter()
            .map(|t| t - 30.0)
            .collect();
        assert!(shifted[0] < 0.0, "the shifted window must start before 0");
        let windows = [
            trace.slice(0.0, 60.0).timestamps().to_vec(),
            trace.slice(120.0, 180.0).timestamps().to_vec(),
            shifted,
        ];
        let grid = ConfigGrid::paper_default();
        let params = SimParams::default();
        for arrivals in &windows {
            assert!(arrivals.len() > 500, "window too small to be interesting");
            let evals = sweep(arrivals, &grid, &params);
            assert_eq!(evals.len(), grid.len());
            for (e, cfg) in evals.iter().zip(grid.configs()) {
                let r = evaluate(arrivals, &cfg, &params);
                assert_eq!(e.config, r.config);
                assert_eq!(e.cost_per_request.to_bits(), r.cost_per_request.to_bits());
                assert_eq!(e.mean_batch_size.to_bits(), r.mean_batch_size.to_bits());
                let (a, b) = (e.summary, r.summary);
                for (x, y) in [
                    (a.p50, b.p50),
                    (a.p90, b.p90),
                    (a.p95, b.p95),
                    (a.p99, b.p99),
                    (a.mean, b.mean),
                    (a.max, b.max),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "{cfg}");
                }
                assert_eq!(a.count, b.count);
            }
        }
    }

    #[test]
    #[should_panic(expected = "params.cold_start must be None")]
    fn sweep_rejects_cold_start_params() {
        let params = SimParams {
            cold_start: Some(crate::batching::ColdStart {
                probability: 0.5,
                delay_s: 0.3,
            }),
            ..SimParams::default()
        };
        sweep(&dense_arrivals(), &ConfigGrid::tiny(), &params);
    }

    #[test]
    #[should_panic(expected = "invalid arrivals")]
    fn sweep_rejects_unsorted_arrivals() {
        sweep(&[0.2, 0.1], &ConfigGrid::tiny(), &SimParams::default());
    }

    #[test]
    fn empty_evals_none() {
        assert!(best_feasible(&[], 0.1, 95.0).is_none());
    }
}
