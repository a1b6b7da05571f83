//! Serverless configurations `(M, B, T)`, the search grid over them, and
//! the validated simulation/run settings bundle ([`SimConfig`]).

use crate::batching::SimParams;
use crate::faults::FaultPlan;
use dbat_workload::DbatError;
use serde::{Deserialize, Serialize};

/// AWS Lambda memory bounds (MB), per the paper's Eq. (10e).
pub const MEMORY_MIN_MB: u32 = 128;
pub const MEMORY_MAX_MB: u32 = 10_240;

/// One candidate serverless configuration: memory size, batch size, timeout.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LambdaConfig {
    /// Function memory in MB (drives CPU share and price).
    pub memory_mb: u32,
    /// Maximum number of requests bundled into one invocation (B ≥ 1).
    pub batch_size: u32,
    /// Maximum time (seconds) to wait for the batch to fill (T ≥ 0).
    pub timeout_s: f64,
}

impl LambdaConfig {
    pub fn new(memory_mb: u32, batch_size: u32, timeout_s: f64) -> Self {
        LambdaConfig::try_new(memory_mb, batch_size, timeout_s).expect("invalid configuration")
    }

    /// Fallible constructor: validates Eq. (10c)–(10e) instead of
    /// panicking.
    pub fn try_new(memory_mb: u32, batch_size: u32, timeout_s: f64) -> Result<Self, DbatError> {
        let c = LambdaConfig {
            memory_mb,
            batch_size,
            timeout_s,
        };
        c.validate()?;
        Ok(c)
    }

    /// Check the constraint set of the paper's Eq. (10c)–(10e).
    pub fn validate(&self) -> Result<(), DbatError> {
        validate_batching(self.batch_size, self.timeout_s)?;
        if !(MEMORY_MIN_MB..=MEMORY_MAX_MB).contains(&self.memory_mb) {
            return Err(DbatError::config(format!(
                "memory must be in [{MEMORY_MIN_MB}, {MEMORY_MAX_MB}] MB (Eq. 10e)"
            )));
        }
        Ok(())
    }
}

/// Check the batching half of the constraint set, Eq. (10c)–(10d).
pub(crate) fn validate_batching(batch_size: u32, timeout_s: f64) -> Result<(), DbatError> {
    if batch_size < 1 {
        return Err(DbatError::config("batch size must be >= 1 (Eq. 10c)"));
    }
    if timeout_s < 0.0 || !timeout_s.is_finite() {
        return Err(DbatError::config(
            "timeout must be finite and >= 0 (Eq. 10d)",
        ));
    }
    Ok(())
}

impl std::fmt::Display for LambdaConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "M={}MB B={} T={:.0}ms",
            self.memory_mb,
            self.batch_size,
            self.timeout_s * 1e3
        )
    }
}

/// The exhaustive search grid over `(M, B, T)` shared by the ground-truth
/// oracle, the BATCH baseline and DeepBAT's optimizer (all three must search
/// the same space for the comparison to be meaningful).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConfigGrid {
    pub memories_mb: Vec<u32>,
    pub batch_sizes: Vec<u32>,
    pub timeouts_s: Vec<f64>,
}

impl ConfigGrid {
    /// The grid used throughout the reproduction: memory steps follow the
    /// Lambda console presets, batch sizes are powers of two as in the
    /// paper's Fig. 1b/11, timeouts bracket the 0.1 s SLO regime.
    pub fn paper_default() -> Self {
        ConfigGrid {
            memories_mb: vec![512, 1024, 1536, 2048, 3008, 4096],
            batch_sizes: vec![1, 2, 4, 8, 16, 32],
            timeouts_s: vec![0.0, 0.010, 0.025, 0.050, 0.100, 0.200],
        }
    }

    /// A small grid for fast tests.
    pub fn tiny() -> Self {
        ConfigGrid {
            memories_mb: vec![1024, 2048],
            batch_sizes: vec![1, 4],
            timeouts_s: vec![0.0, 0.050],
        }
    }

    pub fn len(&self) -> usize {
        self.memories_mb.len() * self.batch_sizes.len() * self.timeouts_s.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate every configuration in deterministic order.
    pub fn configs(&self) -> Vec<LambdaConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &m in &self.memories_mb {
            for &b in &self.batch_sizes {
                for &t in &self.timeouts_s {
                    out.push(LambdaConfig::new(m, b, t));
                }
            }
        }
        out
    }
}

/// Everything a closed-loop run needs besides the policy itself: the
/// simulator parameters, the SLO target, the decision cadence, and the
/// fault-injection plan. `Default` is the paper setting (0.1 s SLO on
/// p95, 60 s decisions, no faults); [`SimConfig::builder`] validates.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub params: SimParams,
    /// Latency SLO (seconds) on the constrained percentile.
    pub slo: f64,
    /// The constrained percentile (the paper uses p95).
    pub percentile: f64,
    /// Seconds between controller decisions.
    pub decision_interval: f64,
    /// Fault-injection plan (inert by default).
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            params: SimParams::default(),
            slo: 0.1,
            percentile: 95.0,
            decision_interval: 60.0,
            faults: FaultPlan::default(),
        }
    }
}

impl SimConfig {
    pub fn new(slo: f64) -> Self {
        SimConfig {
            slo,
            ..SimConfig::default()
        }
    }

    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::default(),
        }
    }

    pub fn validate(&self) -> Result<(), DbatError> {
        if !(self.slo > 0.0 && self.slo.is_finite()) {
            return Err(DbatError::config("SLO must be finite and > 0"));
        }
        if !(self.percentile > 0.0 && self.percentile <= 100.0) {
            return Err(DbatError::config("percentile must be in (0, 100]"));
        }
        if !(self.decision_interval > 0.0 && self.decision_interval.is_finite()) {
            return Err(DbatError::config(
                "decision interval must be finite and > 0",
            ));
        }
        self.faults.validate()
    }
}

/// Builder for [`SimConfig`]
/// (`SimConfig::builder().slo(0.1).faults(plan).build()?`).
#[derive(Clone, Debug, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    pub fn params(mut self, params: SimParams) -> Self {
        self.cfg.params = params;
        self
    }

    pub fn slo(mut self, slo: f64) -> Self {
        self.cfg.slo = slo;
        self
    }

    pub fn percentile(mut self, percentile: f64) -> Self {
        self.cfg.percentile = percentile;
        self
    }

    pub fn decision_interval(mut self, seconds: f64) -> Self {
        self.cfg.decision_interval = seconds;
        self
    }

    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    pub fn build(self) -> Result<SimConfig, DbatError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_constructs() {
        let c = LambdaConfig::new(1024, 8, 0.05);
        assert_eq!(c.memory_mb, 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn zero_batch_rejected() {
        LambdaConfig::new(1024, 0, 0.05);
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn memory_out_of_range_rejected() {
        LambdaConfig::new(64, 1, 0.0);
    }

    #[test]
    fn negative_timeout_rejected() {
        let c = LambdaConfig {
            memory_mb: 1024,
            batch_size: 1,
            timeout_s: -1.0,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn grid_enumeration_complete_and_deterministic() {
        let g = ConfigGrid::paper_default();
        let cs = g.configs();
        assert_eq!(cs.len(), g.len());
        assert_eq!(cs, g.configs());
        // All unique.
        for i in 0..cs.len() {
            for j in i + 1..cs.len() {
                assert_ne!(cs[i], cs[j]);
            }
        }
    }

    #[test]
    fn display_readable() {
        let c = LambdaConfig::new(2048, 16, 0.1);
        assert_eq!(format!("{c}"), "M=2048MB B=16 T=100ms");
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        let e = LambdaConfig::try_new(1024, 0, 0.05).unwrap_err();
        assert!(e.to_string().contains("batch size"));
        assert!(LambdaConfig::try_new(1024, 8, 0.05).is_ok());
    }

    #[test]
    fn sim_config_builder_validates() {
        let cfg = SimConfig::builder()
            .slo(0.2)
            .percentile(99.0)
            .decision_interval(30.0)
            .build()
            .unwrap();
        assert_eq!(cfg.slo, 0.2);
        assert!(cfg.faults.is_inert());
        assert!(SimConfig::builder().slo(-1.0).build().is_err());
        assert!(SimConfig::builder().percentile(0.0).build().is_err());
        assert!(SimConfig::builder().decision_interval(0.0).build().is_err());
        let bad = FaultPlan {
            failures: Some(crate::faults::FailureFault {
                probability: 2.0,
                ..Default::default()
            }),
            ..FaultPlan::default()
        };
        assert!(SimConfig::builder().faults(bad).build().is_err());
    }

    #[test]
    fn sim_config_default_matches_paper_setting() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.slo, 0.1);
        assert_eq!(cfg.percentile, 95.0);
        assert_eq!(cfg.decision_interval, 60.0);
        assert!(cfg.validate().is_ok());
    }
}
