//! The repository benchmark: four workloads, each timed through the
//! public calls of the layers it exercises (`workload`, `sim`, `core`,
//! `nn`/`linalg`, `serve`), with the end-to-end metrics from an
//! untraced run and the per-layer metrics from a traced one. See
//! `README.md` in this directory for the metrics and what each should
//! move.

pub mod common;
pub mod gateway_live;
pub mod metrics;
pub mod online_deepbat;
pub mod oracle_plan;
pub mod provenance;
pub mod spans;
pub mod stats;
pub mod tokens_long_decode;

use common::RunCfg;
use metrics::Report;
use spans::Tracer;

/// A workload: runs once under the given settings, filling in the report.
pub type Workload = fn(&RunCfg, &Tracer, &mut Report);

/// The workloads, by name.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("oracle_plan", oracle_plan::run),
    ("online_deepbat", online_deepbat::run),
    ("gateway_live", gateway_live::run),
    ("tokens_long_decode", tokens_long_decode::run),
];
