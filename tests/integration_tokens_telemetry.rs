//! Telemetry parity for the windowed token discipline: it forms its
//! batches with the batch former directly, so it must record the same
//! `sim.batch_size`, `sim.flush.*` and `sim.events` as `simulate_batching`
//! run over the arrivals it admits.
//!
//! The counters live in the process-global telemetry hub, so this test
//! runs alone in its own integration binary to stay deterministic.

use deepbat::sim::{
    simulate_batching, simulate_tokens_windowed, LambdaConfig, SimParams, TokenParams,
};
use deepbat::workload::{LognormalTokens, TokenMix, TokenizedTrace, TraceKind};

#[test]
fn windowed_tokens_record_the_batch_former_counters() {
    let tel = deepbat::telemetry::global();
    tel.enable();
    let snapshot = || {
        let sizes = tel.histogram("sim.batch_size");
        [
            tel.counter("sim.events").get(),
            tel.counter("sim.flush.timeout").get(),
            tel.counter("sim.flush.capacity").get(),
            sizes.count(),
            sizes.sum() as u64,
        ]
    };
    let delta = |a: [u64; 5], b: [u64; 5]| std::array::from_fn::<u64, 5, _>(|k| b[k] - a[k]);

    let trace = TraceKind::AzureLike.generate_for(11, 120.0);
    let tokenized = TokenizedTrace::sample(
        trace,
        &TokenMix::Lognormal(LognormalTokens::long_decode()),
        5,
    );
    let (arrivals, specs) = (tokenized.arrivals(), tokenized.specs());
    let params = TokenParams::llm_like();
    // 640 MB holds 256 resident tokens: long-decode requests above that
    // are rejected, so the admitted arrivals are a strict subset.
    for cfg in [
        LambdaConfig::new(640, 8, 0.05),
        LambdaConfig::new(3008, 16, 0.1),
        LambdaConfig::new(1024, 1, 0.0),
    ] {
        let capacity = params.capacity_tokens(cfg.memory_mb).expect("KV-bounded");
        let admitted: Vec<f64> = arrivals
            .iter()
            .zip(specs)
            .filter(|(_, s)| s.total_tokens() <= capacity)
            .map(|(&a, _)| a)
            .collect();

        let before = snapshot();
        let out = simulate_tokens_windowed(arrivals, specs, &cfg, &params);
        let windowed = delta(before, snapshot());

        let before = snapshot();
        let base = simulate_batching(&admitted, &cfg, &SimParams::default(), None);
        let batching = delta(before, snapshot());

        assert_eq!(windowed, batching, "{cfg}");
        assert_eq!(out.served.len(), admitted.len(), "{cfg}");
        assert_eq!(windowed[3], base.batches.len() as u64, "{cfg}");
        assert_eq!(windowed[4], admitted.len() as u64, "{cfg}");
        if cfg.memory_mb == 640 {
            assert!(out.rejected > 0, "{cfg}: the case must reject");
        }
    }
    let [_, timeouts, capacities, ..] = snapshot();
    assert!(timeouts > 0 && capacities > 0, "both flush reasons seen");
    assert_eq!(tel.gauge("sim.queue_depth").get(), 0.0);
}
