//! # dbat-sim
//!
//! Discrete-event serverless-batching simulator — the reproduction's
//! ground-truth oracle, mirroring how the paper obtains its ground truth
//! ("by simulation as in \[10\], \[18\]", §IV-A).
//!
//! * [`engine`] — generic future-event-list DES core (faults, concurrency,
//!   and the serve replay);
//! * [`config`] — `(M, B, T)` configurations and the shared search grid;
//! * [`service`] — deterministic profiled service-time surface `s(M, B)`;
//! * [`pricing`] — AWS Lambda pay-as-you-go cost model;
//! * [`batching`] — the buffer/batch/dispatch simulation: a heap-free
//!   linear-scan batch former ([`form_batches`]) plus an execution pass
//!   that prices a formation at one memory size;
//! * [`metrics`] — latency summaries and the VCR metric (Eq. 11);
//! * [`faults`] — seeded fault injection (cold starts, failures + retry,
//!   throttling, stragglers) layered on the batching DES;
//! * [`controller`] — the [`Controller`] trait the closed-loop policies
//!   implement, plus the shared measurement/audit machinery and driver;
//! * [`mod@sweep`] — rayon-parallel exhaustive grid search (Eq. 10 optimum),
//!   forming each `(B, T)` once and sharing it across memory sizes;
//! * [`multi`] — multi-SLO request classes served by heterogeneous
//!   function groups, with the HarmonyBatch-style joint partition/config
//!   decision ([`joint_decide`]);
//! * [`tokens`] — the token-aware two-phase service model (prefill +
//!   per-step decode), KV-capacity-constrained admission, the
//!   continuous-batching discipline ([`ContinuousCore`]), and goodput
//!   under TTFT/TPOT SLOs.

pub mod batching;
pub mod concurrency;
pub mod config;
pub mod controller;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod multi;
pub mod pricing;
pub mod service;
pub mod sweep;
pub mod tokens;

pub use batching::{
    form_batches, simulate_batching, BatchRecord, BatchSpan, ColdStart, Formation, RequestRecord,
    SimOutcome, SimParams,
};
pub use concurrency::{simulate_with_concurrency, ContainerPool};
pub use config::{
    ConfigGrid, LambdaConfig, SimConfig, SimConfigBuilder, MEMORY_MAX_MB, MEMORY_MIN_MB,
};
pub use controller::{
    hourly_vcr, measure_schedule, record_sim_trace, run_controller, vcr_of, Controller,
    DecisionContext, DecisionRecord, IntervalMeasurement, OracleController, RunOutcome,
    ScheduleEntry, StaticController,
};
pub use faults::{
    simulate_faults, ColdStartFault, FailureFault, FaultCounts, FaultEvent, FaultPlan,
    FaultPlanBuilder, FaultSimOutcome, RetryPolicy, StragglerFault, ThrottleFault,
};
pub use metrics::{vcr, LatencySummary, PERCENTILE_KEYS};
pub use multi::{
    joint_decide, simulate_batching_multi, simulate_faults_multi, single_config_baseline,
    ClassAssignment, ClassOutcome, FaultGroupOutcome, FunctionGroup, GroupOutcome, GroupScore,
    GroupScorer, JointDecision, MultiFaultOutcome, MultiSimOutcome, OracleGroupScorer,
};
pub use pricing::Pricing;
pub use service::ServiceProfile;
pub use sweep::{best_feasible, evaluate, ground_truth, sweep, Evaluation};
pub use tokens::{
    ceil_ms, record_token_trace, run_controller_tokens, simulate_tokens_continuous,
    simulate_tokens_windowed, ContinuousCore, Goodput, TokenEvent, TokenInvocation, TokenParams,
    TokenProfile, TokenRequestRecord, TokenSimOutcome,
};
