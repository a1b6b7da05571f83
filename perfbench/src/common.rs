//! Pieces every workload uses: the run settings, seed derivation, timing,
//! the span-recording controller wrapper and peak memory.

use crate::spans::{SpanId, Tracer};
use dbat_sim::{Controller, DecisionContext, DecisionRecord, IntervalMeasurement};
use std::time::Instant;

/// The settings of one run, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// An input seed for one purpose (`tag`), derived from the run's seed
/// (SplitMix64 finaliser), so inputs drawn for different purposes are
/// independent yet fixed by the one seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A trace horizon of `run_s * trace_s_per_run_s` seconds, rounded to
/// whole decision intervals (at least one).
pub fn horizon_s(run_s: u64, trace_s_per_run_s: f64, interval_s: f64) -> f64 {
    let intervals = (run_s as f64 * trace_s_per_run_s / interval_s)
        .round()
        .max(1.0);
    intervals * interval_s
}

/// A controller that records a span around each `decide` of the one it
/// wraps and otherwise delegates.
/// Span ids are the decision index plus `first_index`, so that they stay
/// unique when a run is driven in chunks.
pub struct SpannedController<'t, C> {
    pub inner: C,
    tracer: &'t Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    first_index: u64,
}

impl<'t, C: Controller> SpannedController<'t, C> {
    pub fn new(
        inner: C,
        tracer: &'t Tracer,
        name: &'static str,
        parent: Option<SpanId>,
        first_index: usize,
    ) -> Self {
        SpannedController {
            inner,
            tracer,
            name,
            parent,
            first_index: first_index as u64,
        }
    }
}

impl<C: Controller> Controller for SpannedController<'_, C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        let id = self.first_index + ctx.index as u64;
        let span = self.tracer.enter(self.name, self.parent, Some(id));
        let rec = self.inner.decide(ctx);
        self.tracer.exit(span);
        rec
    }

    fn observe(&mut self, measurement: &IntervalMeasurement) {
        self.inner.observe(measurement);
    }

    fn commit(&mut self, record: DecisionRecord) {
        self.inner.commit(record);
    }

    fn audit(&self) -> &[DecisionRecord] {
        self.inner.audit()
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        self.inner.audit_mut()
    }
}

/// Peak resident memory of this process in MB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Values (seconds) scaled to another unit, for tail percentiles.
pub fn scaled(values: impl IntoIterator<Item = f64>, factor: f64) -> Vec<f64> {
    values.into_iter().map(|v| v * factor).collect()
}

/// Record percentile `wanted` of `samples` under the tail rule, noting
/// which percentile it is and how many samples it came from. A value
/// among missed requests (`+∞`) is reported as `f64::MAX`.
pub fn set_tail(r: &mut crate::metrics::Report, name: &'static str, samples: &[f64], wanted: f64) {
    match crate::stats::tail(samples, wanted) {
        Some(t) => {
            let value = if t.value.is_finite() {
                t.value
            } else {
                f64::MAX
            };
            r.set(name, value);
            r.note(format!("{name} = {value:.6} ({})", t.label()));
        }
        None => r.note(format!("{name}: no samples")),
    }
}

/// Split `[0, horizon)` into `chunks` contiguous pieces whose bounds fall
/// on whole decision intervals (fewer pieces when there are fewer
/// intervals than `chunks`).
pub fn chunk_bounds(horizon: f64, interval_s: f64, chunks: usize) -> Vec<(f64, f64)> {
    let intervals = (horizon / interval_s).round() as usize;
    let chunks = chunks.clamp(1, intervals.max(1));
    (0..chunks)
        .map(|c| {
            let lo = (c * intervals / chunks) as f64 * interval_s;
            let hi = ((c + 1) * intervals / chunks) as f64 * interval_s;
            (lo, hi.min(horizon))
        })
        .collect()
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and so every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// when the affinity could not be read or set (the run then goes on
/// unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t`: 1024 CPUs, one bit each.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: glibc's sched_getaffinity writes at most `size` bytes into
    // `mask`, a live local array of exactly that size; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let cpu = word * 64 + 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: sched_setaffinity reads `size` bytes from `one`, a live
    // local array of exactly that size, and writes no memory of ours.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}
