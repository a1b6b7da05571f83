//! The benchmark's metric arithmetic, and its registry against
//! `BENCHMARK.json`.

use perfbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use perfbench::spans::{self_times, Span};
use perfbench::stats::{
    ape_pct, attainment_pct, failed_pct, mean_ape_pct, supported_percentile, tail, with_misses,
};

#[test]
fn tail_rule_keeps_ten_samples_beyond_the_reported_percentile() {
    // 1000 samples support p99 exactly: ten lie beyond it.
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&xs, 99.0).unwrap();
    assert_eq!(t.percentile, 99.0);
    assert_eq!(t.samples, 1000);
    assert_eq!(t.value, 990.0);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

    // 200 samples do not: the reported percentile drops to 95, again
    // with ten beyond it, and says so.
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    let t = tail(&xs, 99.0).unwrap();
    assert_eq!(t.percentile, 95.0);
    assert_eq!(t.value, 190.0);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    assert_eq!(t.label(), "p95.0 of 200");

    // A median is untouched by the rule once there are 20 samples.
    assert_eq!(tail(&xs, 50.0).unwrap().value, 100.0);
}

#[test]
fn tail_rule_edges() {
    assert!(tail(&[], 50.0).is_none());
    assert_eq!(supported_percentile(99.0, 10), 0.0);
    assert_eq!(supported_percentile(99.0, 11), 100.0 * (1.0 - 10.0 / 11.0));
    // Unsorted input is sorted first.
    let t = tail(&[3.0, 1.0, 2.0], 50.0).unwrap();
    assert_eq!((t.percentile, t.value), (0.0, 1.0));
}

#[test]
fn a_refused_request_counts_as_a_miss() {
    let served = vec![0.05; 98];
    let all = with_misses(&served, 2);
    assert_eq!(all.len(), 100);
    // Every served request meets 0.1 s; the two refused ones do not.
    assert_eq!(attainment_pct(&all, 0.1), Some(98.0));
    // With 2000 attempts of which 30 refused, p99 falls among the misses.
    let all = with_misses(&vec![0.05; 1970], 30);
    assert_eq!(tail(&all, 99.0).unwrap().value, f64::INFINITY);
    assert_eq!(attainment_pct(&[], 0.1), None);
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "sim.test",
        start_ns,
        end_ns,
        parent,
        id: None,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    // root [0, 100) > child [10, 40) > grandchild [20, 30)
    let spans = [
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(20, 30, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![70, 20, 10]);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Children [10, 50) and [30, 70) overlap on [30, 50): together they
    // cover 60 ns of the parent, and one reaching past the parent's end
    // is clipped to it.
    let spans = [
        span(0, 100, None),
        span(10, 50, Some(0)),
        span(30, 70, Some(0)),
        span(90, 120, Some(0)),
    ];
    let own = self_times(&spans);
    assert_eq!(own[0], 100 - 60 - 10);
    assert_eq!(&own[1..], &[40, 40, 30]);
}

#[test]
fn absolute_percentage_error() {
    assert_eq!(ape_pct(110.0, 100.0), Some(10.0));
    assert_eq!(ape_pct(90.0, 100.0), Some(10.0));
    assert_eq!(ape_pct(1.0, 0.0), None);
    assert_eq!(ape_pct(f64::NAN, 1.0), None);
    // The mean skips pairs with no defined error.
    assert_eq!(
        mean_ape_pct([(110.0, 100.0), (1.0, 0.0), (70.0, 100.0)]),
        Some(20.0)
    );
    assert_eq!(mean_ape_pct([(1.0, 0.0)]), None);
}

#[test]
fn failed_share_of_attempted() {
    assert_eq!(failed_pct(200, 3), Some(1.5));
    assert_eq!(failed_pct(10, 0), Some(0.0));
    assert_eq!(failed_pct(0, 0), None);
}

/// The `"name": ..., "unit": ..., "better": ...` entries of one list in
/// `BENCHMARK.json`.
fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn registered(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(listed(&doc, "end_to_end"), registered(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), registered(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    let known: Vec<&str> = perfbench::WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(workloads, known);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.better == Better::Lower));
}
