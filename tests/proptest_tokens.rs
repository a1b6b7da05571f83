//! Bitwise anchor for the two token disciplines. Each is checked against
//! a reference written the straightforward way: decode work evaluated
//! with `powf` on every step, a fresh cohort `Vec` per step, and windowed
//! batch members read off `simulate_batching`'s `RequestRecord::batch`
//! with one decode schedule allocated per batch. Every served record,
//! every invocation and the total cost must agree to the bit.
//!
//! Arrivals sit on a 1/64 s grid with duplicates. Half the cases use a
//! profile whose every step lasts exactly 1/8 s (prefill steps 1/4 s), so
//! arrivals land on step ends and exercise the arrival-first tie at a
//! step boundary. KV capacity is drawn small enough to reject oversize
//! requests and to stall admission while the cache is full.

use deepbat::sim::{
    ceil_ms, simulate_batching, simulate_tokens_continuous, simulate_tokens_windowed, LambdaConfig,
    SimParams, TokenInvocation, TokenParams, TokenProfile, TokenRequestRecord, TokenSimOutcome,
};
use deepbat::workload::TokenSpec;
use proptest::prelude::*;
use std::collections::VecDeque;

const TICK: f64 = 1.0 / 64.0;

/// A profile whose steps all bill exactly 125 ms (250 ms with prefill)
/// at `memory_mb`, so step ends stay on the arrival grid; the cohort
/// still moves the unrounded work.
fn eighth_second_profile(memory_mb: u32) -> TokenProfile {
    TokenProfile {
        prefill_w0: 0.1249,
        prefill_w1: 1.0e-9,
        prefill_gamma: 1.0,
        decode_w0: 0.1241,
        decode_w1: 1.0e-5,
        decode_gamma: 0.8,
        ref_memory_mb: memory_mb,
        saturation_mb: 3008,
    }
}

/// Sorted arrivals with gaps of 0..=15 ticks (0 gives duplicates), each
/// with 1..=48 prompt and 1..=24 output tokens.
fn arrivals_and_specs() -> impl Strategy<Value = (Vec<f64>, Vec<TokenSpec>)> {
    prop::collection::vec((0u32..=15, 1u32..=48, 1u32..=24), 0..80).prop_map(|draws| {
        let mut k = 0u32;
        draws
            .iter()
            .map(|&(gap, prompt, output)| {
                k += gap;
                (k as f64 * TICK, TokenSpec::new(prompt, output))
            })
            .unzip()
    })
}

/// `(config, params)`: 544 MB leaves room for 64 resident tokens, so
/// specs above that (they reach 72) are rejected and two mid-size
/// requests already fill the cache; 3008 MB holds 4992.
fn setup() -> impl Strategy<Value = (LambdaConfig, TokenParams)> {
    (
        prop::sample::select(vec![544u32, 640, 1024, 3008]),
        1u32..=16,
        0u32..=8,
        prop::sample::select(vec![false, true]),
        prop::sample::select(vec![false, true]),
    )
        .prop_map(|(m, b, ticks, eighths, kv)| {
            let mut params = TokenParams::llm_like();
            if eighths {
                params.profile = eighth_second_profile(m);
            }
            if !kv {
                params.kv_bytes_per_token = 0.0;
            }
            (LambdaConfig::new(m, b, ticks as f64 * TICK), params)
        })
}

#[derive(Default)]
struct RefEngine {
    queue: VecDeque<usize>,
    /// `(request, outputs left, first token, dispatch)`.
    active: Vec<(usize, u32, Option<f64>, f64)>,
    kv_used: u64,
    step_end: Option<f64>,
}

/// Continuous batching as a plain event loop: the earliest of the next
/// arrival and every engine's step end (arrival first, then lowest id),
/// least-loaded routing, FIFO admission under `B` and the KV cache.
fn reference_continuous(
    arrivals: &[f64],
    specs: &[TokenSpec],
    cfg: &LambdaConfig,
    params: &TokenParams,
    replicas: usize,
) -> TokenSimOutcome {
    let capacity = params.capacity_tokens(cfg.memory_mb);
    let speed = params.profile.speed(cfg.memory_mb);
    let mut engines: Vec<RefEngine> = (0..replicas).map(|_| RefEngine::default()).collect();
    let mut served: Vec<Option<TokenRequestRecord>> = vec![None; arrivals.len()];
    let mut invocations = Vec::new();
    let (mut total_cost, mut rejected, mut next) = (0.0, 0, 0);
    loop {
        let mut event: Option<(f64, Option<usize>)> = arrivals.get(next).map(|&t| (t, None));
        for (e, eng) in engines.iter().enumerate() {
            if let Some(end) = eng.step_end {
                if event.is_none_or(|(t, _)| end < t) {
                    event = Some((end, Some(e)));
                }
            }
        }
        let Some((t, source)) = event else { break };
        let e = match source {
            None => {
                let i = next;
                next += 1;
                if capacity.is_some_and(|c| specs[i].total_tokens() > c) {
                    rejected += 1;
                    continue;
                }
                let mut e = 0;
                for k in 1..replicas {
                    let load = |x: &RefEngine| x.queue.len() + x.active.len();
                    if load(&engines[k]) < load(&engines[e]) {
                        e = k;
                    }
                }
                engines[e].queue.push_back(i);
                if engines[e].step_end.is_some() {
                    continue;
                }
                e
            }
            Some(e) => {
                let eng = &mut engines[e];
                let mut cohort = Vec::new();
                for (i, left, first, dispatch) in eng.active.drain(..) {
                    let first = first.unwrap_or(t);
                    if left == 1 {
                        eng.kv_used -= specs[i].total_tokens();
                        served[i] = Some(TokenRequestRecord {
                            arrival: arrivals[i],
                            dispatch,
                            first_token: first,
                            completion: t,
                            spec: specs[i],
                        });
                    } else {
                        cohort.push((i, left - 1, Some(first), dispatch));
                    }
                }
                eng.active = cohort;
                e
            }
        };
        // Begin the next step on engine `e` at `t`.
        let eng = &mut engines[e];
        let (mut joined, mut prompts) = (0u32, 0u64);
        while eng.active.len() < cfg.batch_size as usize {
            let Some(&i) = eng.queue.front() else { break };
            if capacity.is_some_and(|c| eng.kv_used + specs[i].total_tokens() > c) {
                break;
            }
            eng.queue.pop_front();
            eng.kv_used += specs[i].total_tokens();
            eng.active.push((i, specs[i].output_tokens, None, t));
            joined += 1;
            prompts += specs[i].prompt_tokens as u64;
        }
        if eng.active.is_empty() {
            eng.step_end = None;
            continue;
        }
        let size = eng.active.len() as u32;
        let work = if joined > 0 {
            params.profile.prefill_work(prompts) + params.profile.decode_work(size)
        } else {
            params.profile.decode_work(size)
        };
        let busy = ceil_ms(work / speed);
        let cost = params.pricing.invocation_cost(cfg.memory_mb, busy);
        total_cost += cost;
        invocations.push(TokenInvocation {
            start: t,
            busy_s: busy,
            size,
            joined,
            cost,
            engine: e as u32,
            anchor: eng.active[0].0,
        });
        eng.step_end = Some(t + busy);
    }
    TokenSimOutcome {
        served: served.into_iter().flatten().collect(),
        rejected,
        offered: arrivals.len(),
        invocations,
        total_cost,
    }
}

/// Requests still decoding at each step of a batch with these outputs.
fn decode_schedule(outputs: &[u32]) -> Vec<u32> {
    let max = *outputs.iter().max().expect("non-empty batch");
    (1..=max)
        .map(|k| outputs.iter().filter(|&&o| o >= k).count() as u32)
        .collect()
}

/// Window batching re-costed per batch: members grouped by the batch
/// index `simulate_batching` assigns, one prefill, then a decode step per
/// output token over the members still decoding.
fn reference_windowed(
    arrivals: &[f64],
    specs: &[TokenSpec],
    cfg: &LambdaConfig,
    params: &TokenParams,
) -> TokenSimOutcome {
    let capacity = params.capacity_tokens(cfg.memory_mb);
    let admitted: Vec<usize> = (0..arrivals.len())
        .filter(|&i| capacity.is_none_or(|c| specs[i].total_tokens() <= c))
        .collect();
    let admitted_arrivals: Vec<f64> = admitted.iter().map(|&i| arrivals[i]).collect();
    let base = simulate_batching(&admitted_arrivals, cfg, &SimParams::default(), None);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); base.batches.len()];
    for (a, r) in base.requests.iter().enumerate() {
        members[r.batch].push(admitted[a]);
    }
    let speed = params.profile.speed(cfg.memory_mb);
    let mut served = Vec::new();
    let mut invocations = Vec::new();
    let mut total_cost = 0.0;
    for (batch, m) in base.batches.iter().zip(&members) {
        let dispatch = batch.dispatched_at;
        let prompts: u64 = m.iter().map(|&i| specs[i].prompt_tokens as u64).sum();
        let outputs: Vec<u32> = m.iter().map(|&i| specs[i].output_tokens).collect();
        let mut work = params.profile.prefill_work(prompts);
        let mut step_ends = Vec::new();
        for b in decode_schedule(&outputs) {
            work += params.profile.decode_work(b);
            step_ends.push(dispatch + ceil_ms(work / speed));
        }
        let busy = ceil_ms(work / speed);
        let cost = params.pricing.invocation_cost(cfg.memory_mb, busy);
        total_cost += cost;
        invocations.push(TokenInvocation {
            start: dispatch,
            busy_s: busy,
            size: m.len() as u32,
            joined: m.len() as u32,
            cost,
            engine: 0,
            anchor: m[0],
        });
        for &i in m {
            served.push(TokenRequestRecord {
                arrival: arrivals[i],
                dispatch,
                first_token: step_ends[0],
                completion: step_ends[specs[i].output_tokens as usize - 1],
                spec: specs[i],
            });
        }
    }
    TokenSimOutcome {
        served,
        rejected: arrivals.len() - admitted.len(),
        offered: arrivals.len(),
        invocations,
        total_cost,
    }
}

fn assert_bitwise_equal(got: &TokenSimOutcome, want: &TokenSimOutcome, what: &str) {
    assert_eq!(got.offered, want.offered, "{what}");
    assert_eq!(got.rejected, want.rejected, "{what}");
    assert_eq!(got.served.len(), want.served.len(), "{what}");
    for (k, (g, w)) in got.served.iter().zip(&want.served).enumerate() {
        let stamps = |r: &TokenRequestRecord| {
            [r.arrival, r.dispatch, r.first_token, r.completion].map(f64::to_bits)
        };
        assert_eq!(stamps(g), stamps(w), "{what}: served record {k}");
        assert_eq!(g.spec, w.spec, "{what}: served record {k}");
    }
    assert_eq!(got.invocations.len(), want.invocations.len(), "{what}");
    for (k, (g, w)) in got.invocations.iter().zip(&want.invocations).enumerate() {
        let bits = |v: &TokenInvocation| [v.start, v.busy_s, v.cost].map(f64::to_bits);
        assert_eq!(bits(g), bits(w), "{what}: invocation {k}");
        assert_eq!(
            (g.size, g.joined, g.engine, g.anchor),
            (w.size, w.joined, w.engine, w.anchor),
            "{what}: invocation {k}"
        );
    }
    assert_eq!(
        got.total_cost.to_bits(),
        want.total_cost.to_bits(),
        "{what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn continuous_equals_reference(
        case in arrivals_and_specs(),
        env in setup(),
        replicas in 1usize..=4,
    ) {
        let ((arrivals, specs), (cfg, params)) = (case, env);
        let got = simulate_tokens_continuous(&arrivals, &specs, &cfg, &params, replicas);
        let want = reference_continuous(&arrivals, &specs, &cfg, &params, replicas);
        assert!(got.conserved());
        assert_bitwise_equal(&got, &want, &format!("{cfg} x{replicas}"));
    }

    #[test]
    fn windowed_equals_reference(
        case in arrivals_and_specs(),
        env in setup(),
    ) {
        let ((arrivals, specs), (cfg, params)) = (case, env);
        let got = simulate_tokens_windowed(&arrivals, &specs, &cfg, &params);
        let want = reference_windowed(&arrivals, &specs, &cfg, &params);
        assert!(got.conserved());
        assert_bitwise_equal(&got, &want, &cfg.to_string());
    }
}

/// The step-boundary tie the generator relies on, written out: the first
/// step (with prefill) ends at exactly 1/4 s, where the second request
/// arrives; the arrival is handled first, so it joins the cohort at that
/// boundary.
#[test]
fn arrival_on_a_step_end_joins_at_that_boundary() {
    let cfg = LambdaConfig::new(1792, 4, 0.0);
    let params = TokenParams::unconstrained(eighth_second_profile(1792));
    let arrivals = [0.0, 0.25];
    let specs = [TokenSpec::new(8, 3), TokenSpec::new(8, 2)];
    let got = simulate_tokens_continuous(&arrivals, &specs, &cfg, &params, 1);
    let steps: Vec<(f64, u32, u32)> = got
        .invocations
        .iter()
        .map(|v| (v.start, v.size, v.joined))
        .collect();
    assert_eq!(steps, [(0.0, 1, 1), (0.25, 2, 1), (0.5, 2, 0)]);
    assert_eq!(got.served[1].dispatch, 0.25);
    assert_eq!(got.served[1].completion, 0.625);
    let want = reference_continuous(&arrivals, &specs, &cfg, &params, 1);
    assert_bitwise_equal(&got, &want, "tie");
}
