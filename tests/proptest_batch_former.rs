//! Bitwise anchor for the batch former: the offline linear scan behind
//! `simulate_batching` and the online `BatcherCore` driven by a one-lane
//! `VirtualGateway` replay are written separately, so agreeing on every
//! stamp, every batch and the total cost pins the shared batching
//! semantics.
//!
//! Arrivals sit on a 1/64 s grid and timeouts are multiples of 1/64 s, so
//! `open + T` is exact and arrivals regularly land on a window's deadline,
//! where the arrival must join the closing batch. Duplicate timestamps,
//! `B = 1`, `T = 0` and `B` larger than the arrival count are all drawn.

use deepbat::prelude::*;
use proptest::prelude::*;

const TICK: f64 = 1.0 / 64.0;

/// Sorted arrivals on the dyadic grid: gaps of 0..=3 ticks (0 gives
/// duplicate timestamps).
fn dyadic_arrivals() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0u32..=3, 0..120).prop_map(|gaps| {
        let mut k = 0u32;
        gaps.iter()
            .map(|g| {
                k += g;
                k as f64 * TICK
            })
            .collect()
    })
}

fn dyadic_config() -> impl Strategy<Value = LambdaConfig> {
    (
        prop::sample::select(vec![512u32, 1024, 2048, 3008]),
        prop::sample::select(vec![1u32, 2, 3, 4, 8, 1000]),
        0u32..=8,
    )
        .prop_map(|(m, b, ticks)| LambdaConfig::new(m, b, ticks as f64 * TICK))
}

fn assert_replay_matches_simulator(arrivals: &[f64], cfg: &LambdaConfig) {
    let params = SimParams::default();
    let sim = simulate_batching(arrivals, cfg, &params, None);
    let out = VirtualGateway::from_params(&params).replay(arrivals, cfg);
    assert_eq!(out.requests.len(), sim.requests.len(), "{cfg}");
    for (r, s) in out.requests.iter().zip(&sim.requests) {
        assert_eq!(r.arrival.to_bits(), s.arrival.to_bits(), "{cfg}");
        assert_eq!(r.dispatched_at.to_bits(), s.dispatch.to_bits(), "{cfg}");
        assert_eq!(r.completed_at.to_bits(), s.completion.to_bits(), "{cfg}");
        assert_eq!(r.batch, s.batch, "{cfg}");
    }
    assert_eq!(out.batches.len(), sim.batches.len(), "{cfg}");
    for (b, s) in out.batches.iter().zip(&sim.batches) {
        assert_eq!(b.opened_at.to_bits(), s.opened_at.to_bits(), "{cfg}");
        assert_eq!(
            b.dispatched_at.to_bits(),
            s.dispatched_at.to_bits(),
            "{cfg}"
        );
        assert_eq!(b.size, s.size, "{cfg}");
        assert_eq!(b.service_s.to_bits(), s.service_s.to_bits(), "{cfg}");
        assert_eq!(b.cost.to_bits(), s.cost.to_bits(), "{cfg}");
    }
    assert_eq!(out.total_cost.to_bits(), sim.total_cost.to_bits(), "{cfg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_lane_replay_equals_simulate_batching(
        arrivals in dyadic_arrivals(),
        cfg in dyadic_config(),
    ) {
        assert_replay_matches_simulator(&arrivals, &cfg);
    }
}

/// The tie the generator relies on, written out: the window opened at 0
/// closes at `T = 4` ticks, and both arrivals stamped exactly 4 ticks join
/// it before the timer flushes.
#[test]
fn arrivals_on_the_deadline_join_the_closing_window() {
    let arrivals = [0.0, 2.0 * TICK, 4.0 * TICK, 4.0 * TICK, 5.0 * TICK];
    let cfg = LambdaConfig::new(2048, 8, 4.0 * TICK);
    let sim = simulate_batching(&arrivals, &cfg, &SimParams::default(), None);
    let sizes: Vec<u32> = sim.batches.iter().map(|b| b.size).collect();
    assert_eq!(sizes, [4, 1]);
    assert_eq!(sim.batches[0].dispatched_at, 4.0 * TICK);
    assert_replay_matches_simulator(&arrivals, &cfg);
}
