//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics when `--trace 0`, the per-layer metrics when `--trace 1`.
//! Exits 1 when a correctness check fails and 2 on a usage error.

use perfbench::common::{peak_rss_mb, RunCfg};
use perfbench::metrics::{self, MetricDef, Report, END_TO_END, PER_LAYER};
use perfbench::provenance::{repo_root, Provenance};
use perfbench::spans::{self, Tracer};
use perfbench::{stats, WORKLOADS};
use serde_json::{Map, Value};

const USAGE: &str =
    "usage: perfbench --workload <oracle_plan|online_deepbat|gateway_live|tokens_long_decode> --seed <n> --seconds <1-60> --trace <0|1>";

fn parse_args() -> Result<(&'static str, RunCfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((
        workload,
        RunCfg {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() {
    let (workload, cfg) = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let provenance = Provenance::collect(cfg.seed);
    let tracer = Tracer::new(cfg.trace);
    let mut report = Report::default();
    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == workload)
        .expect("parsed workload exists")
        .1;
    run(&cfg, &tracer, &mut report);
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.note("peak_rss_mb: /proc/self/status has no VmHWM"),
    }
    let spans = tracer.spans();
    for (layer, secs) in spans::layer_self_s(&spans) {
        let name = format!("{layer}.self_s");
        match metrics::find(&name) {
            Some(d) => report.set(d.name, secs),
            None => report.note(format!("{name} = {secs:.6} s")),
        }
    }

    let tag = format!("{workload}-seed{}-trace{}", cfg.seed, cfg.trace as u8);
    let out_dir = repo_root().join("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        report.note(format!("cannot create {}: {e}", out_dir.display()));
    }
    if cfg.trace {
        let path = out_dir.join(format!("{tag}.spans.jsonl"));
        match spans::write_jsonl(&spans, &path) {
            Ok(()) => report.note(format!("{} spans -> {}", spans.len(), path.display())),
            Err(e) => report.note(format!("cannot write {}: {e}", path.display())),
        }
    }

    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = collect(&mut report, defs, cfg.trace);
    let result = result_line(&report, defs, &metrics);
    write_details(
        &out_dir.join(format!("{tag}.json")),
        &provenance,
        &report,
        defs,
        &metrics,
        &result,
    );

    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!(
        "provenance {}",
        serde_json::to_string(&provenance.to_json()).expect("encodable")
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for (what, ok) in report.checks() {
        println!("  check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    if let Some(p) = stats::failed_pct(report.attempted, report.failed) {
        println!(
            "  failed_pct = {p} % ({} of {} attempted)",
            report.failed, report.attempted
        );
    }
    for (d, v) in defs.iter().zip(&metrics) {
        let moves = if cfg.trace {
            format!("  -> {}", d.meaning)
        } else {
            String::new()
        };
        println!("  {:<40} {:>16.6} {:<8}{moves}", d.name, v, d.unit);
    }
    println!("{}", serde_json::to_string(&result).expect("encodable"));
    if !report.correct() {
        std::process::exit(1);
    }
}

/// The value of every metric in `defs`. A per-layer metric the workload
/// did not measure (its layer is bypassed) reads 0; an end-to-end one
/// must be measured, finite and nonzero, or the run fails.
fn collect(report: &mut Report, defs: &[MetricDef], per_layer: bool) -> Vec<f64> {
    let mut values = Vec::with_capacity(defs.len());
    for d in defs {
        let v = report.get(d.name);
        if !per_layer {
            report.check(
                format!("{} measured, finite and nonzero", d.name),
                v.is_some_and(|v| v.is_finite() && v != 0.0),
            );
        }
        values.push(v.unwrap_or(0.0));
    }
    values
}

fn result_line(report: &Report, defs: &[MetricDef], metrics: &[f64]) -> Value {
    let mut ms = Map::new();
    for (d, &v) in defs.iter().zip(metrics) {
        let mut one = Map::new();
        one.insert("value".into(), Value::Number(v));
        one.insert("unit".into(), Value::String(d.unit.into()));
        ms.insert(d.name.into(), Value::Object(one));
    }
    let mut top = Map::new();
    top.insert("correct".into(), Value::Bool(report.correct()));
    top.insert("attempted".into(), Value::Number(report.attempted as f64));
    top.insert("failed".into(), Value::Number(report.failed as f64));
    top.insert("metrics".into(), Value::Object(ms));
    Value::Object(top)
}

/// The full record of a run: provenance, notes, checks, and each metric
/// with what it means or should move.
fn write_details(
    path: &std::path::Path,
    provenance: &Provenance,
    report: &Report,
    defs: &[MetricDef],
    metrics: &[f64],
    result: &Value,
) {
    let mut m = Map::new();
    m.insert("provenance".into(), provenance.to_json());
    let list = |items: Vec<String>| Value::Array(items.into_iter().map(Value::String).collect());
    m.insert("notes".into(), list(report.notes.clone()));
    let checks = report
        .checks()
        .iter()
        .map(|(what, ok)| format!("{}: {what}", if *ok { "ok" } else { "FAILED" }))
        .collect();
    m.insert("checks".into(), list(checks));
    let mut meanings = Map::new();
    for (d, v) in defs.iter().zip(metrics) {
        let mut one = Map::new();
        one.insert("value".into(), Value::Number(*v));
        one.insert("unit".into(), Value::String(d.unit.into()));
        one.insert("better".into(), Value::String(d.better.as_str().into()));
        one.insert("meaning".into(), Value::String(d.meaning.into()));
        meanings.insert(d.name.into(), Value::Object(one));
    }
    m.insert("metrics".into(), Value::Object(meanings));
    m.insert("result".into(), result.clone());
    let text = serde_json::to_string_pretty(&Value::Object(m)).expect("encodable");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
