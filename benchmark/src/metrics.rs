//! Metric names, the percentile rule, and the one-line result.
//!
//! Every run ends with one JSON line: `correct`, `attempted`, `failed`,
//! and `metrics` (name → value and unit). An untraced run reports the
//! [`END_TO_END`] metrics; a traced run reports the [`PER_LAYER`] ones.
//! Both lists are checked here against the metric-name charset and the
//! list caps, and `BENCHMARK.json` is checked against them in the tests.

use std::fmt::Write as _;

/// Most end-to-end metrics one benchmark may declare.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics one benchmark may declare.
pub const MAX_PER_LAYER: usize = 128;

/// End-to-end metrics (tracing off), with units, for every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tests_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units, for every workload. A
/// layer a workload never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("enumerate.s", "s"),
    ("enumerate.candidates", "count"),
    ("enumerate.candidates_per_test", "count"),
    ("enumerate.co_leaves_tested", "count"),
    ("enumerate.useful_ratio", "ratio"),
    ("enumerate.rf_prefixes_pruned", "count"),
    ("enumerate.co_pairs_branched", "count"),
    ("facts.s", "s"),
    ("model.lkmm.s", "s"),
    ("model.lkmm-cat.s", "s"),
    ("model.sc.s", "s"),
    ("model.tso.s", "s"),
    ("model.armv8.s", "s"),
    ("model.power.s", "s"),
    ("model.c11.s", "s"),
    ("model.evals", "count"),
    ("pipeline.s", "s"),
    ("pipeline.batches", "count"),
    ("pipeline.batch_occupancy", "count"),
    ("pipeline.arena_reuse_ratio", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("generator.gen_s", "s"),
    ("generator.tests", "count"),
    ("canon.key_s", "s"),
    ("canon.keys", "count"),
    ("store.lookup_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("litmus.parse_s", "s"),
    ("litmus.parses", "count"),
    ("store.append_s", "s"),
    ("store.appends", "count"),
    ("store.flush_s", "s"),
    ("store.flushes", "count"),
    ("sim.s", "s"),
    ("sim.runs", "count"),
    ("oracle.s", "s"),
    ("oracle.rows", "count"),
    ("shrink.s", "s"),
    ("shrink.rechecks", "count"),
    ("report.s", "s"),
    ("driver.s", "s"),
    ("setup.s", "s"),
    ("server.service_ms_p50", "ms"),
    ("server.queue_ms_p50", "ms"),
    ("server.queue_ms_p90", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` is a legal metric name: starts with a letter or
/// digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check a declared metric list: legal, unique names and units, at most
/// `cap` entries.
pub fn check_list(list: &[(&str, &str)], cap: usize) -> Result<(), String> {
    if list.is_empty() || list.len() > cap {
        return Err(format!("{} metrics, allowed 1..={cap}", list.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in list {
        if !valid_name(name) {
            return Err(format!("bad metric name `{name}`"));
        }
        if !valid_unit(unit) {
            return Err(format!("bad unit `{unit}` on `{name}`"));
        }
        if !seen.insert(*name) {
            return Err(format!("metric `{name}` declared twice"));
        }
    }
    Ok(())
}

/// The percentiles a latency is summarised at.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // In tenths of a percent, so p99.9 of 10,000 samples is rank 9,990
    // exactly rather than one past it through rounding.
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest of [`PERCENTILES`] with at least ten samples beyond it,
/// or `None` when `n` is too small to resolve even the median.
pub fn resolved_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// A latency sample set, summarised.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, or 0 for an empty set.
    pub fn at(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// Percentile `p` if the sample count resolves it, else the highest
    /// percentile it does resolve, else the median: a figure named p90
    /// never reports a tail its samples cannot show.
    pub fn at_resolved(&self, p: f64) -> f64 {
        self.at(resolved_percentile(self.n()).map_or(50.0, |r| r.min(p)))
    }

    /// Sample count and resolved percentile, for the human-readable line.
    pub fn describe(&self) -> String {
        match resolved_percentile(self.n()) {
            Some(p) => format!("n={}, resolved up to p{p}", self.n()),
            None => format!("n={}, no percentile resolved", self.n()),
        }
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec()).at(50.0)
}

/// One run's outcome, printed as the last line of standard output.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// Fill `declared` from `values` (looked up by name) — every declared
    /// metric must be present and finite.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        declared: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) -> Result<RunResult, String> {
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            metrics.push((name, value, unit));
        }
        Ok(RunResult {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics,
        })
    }

    /// The one-line JSON form.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_lists_obey_the_charset_and_caps() {
        check_list(END_TO_END, MAX_END_TO_END).unwrap();
        check_list(PER_LAYER, MAX_PER_LAYER).unwrap();
    }

    #[test]
    fn names_outside_the_charset_are_refused() {
        assert!(valid_name("model.lkmm-cat.s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/inside"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit("a unit"));
    }

    #[test]
    fn list_caps_and_duplicates_are_enforced() {
        let names: Vec<String> = (0..17).map(|i| format!("m{i}")).collect();
        let list: Vec<(&str, &str)> = names.iter().map(|n| (n.as_str(), "s")).collect();
        assert!(check_list(&list[..16], MAX_END_TO_END).is_ok());
        assert!(check_list(&list, MAX_END_TO_END).is_err());
        assert!(check_list(&[], MAX_END_TO_END).is_err());
        assert!(check_list(&[("a", "s"), ("a", "s")], MAX_END_TO_END).is_err());
        let many: Vec<String> = (0..129).map(|i| format!("m{i}")).collect();
        let list: Vec<(&str, &str)> = many.iter().map(|n| (n.as_str(), "s")).collect();
        assert!(check_list(&list[..128], MAX_PER_LAYER).is_ok());
        assert!(check_list(&list, MAX_PER_LAYER).is_err());
    }

    #[test]
    fn the_resolved_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(resolved_percentile(0), None);
        assert_eq!(resolved_percentile(19), None);
        assert_eq!(resolved_percentile(20), Some(50.0));
        assert_eq!(resolved_percentile(99), Some(50.0));
        assert_eq!(resolved_percentile(100), Some(90.0));
        assert_eq!(resolved_percentile(999), Some(90.0));
        assert_eq!(resolved_percentile(1000), Some(99.0));
        assert_eq!(resolved_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = resolved_percentile(n) {
                assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let s = Summary::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.at(50.0), 50.0);
        assert_eq!(s.at(90.0), 90.0);
        assert_eq!(s.at(99.0), 99.0);
        assert_eq!(Summary::new(vec![7.0]).at(90.0), 7.0);
        assert_eq!(Summary::new(vec![]).at(50.0), 0.0);
        assert_eq!(s.describe(), "n=100, resolved up to p90");
        assert_eq!(s.at_resolved(90.0), 90.0);
        assert_eq!(s.at_resolved(99.0), 90.0);
        let few = Summary::new(vec![1.0, 2.0, 3.0, 100.0]);
        assert_eq!(few.at_resolved(90.0), 2.0);
        assert_eq!(few.at_resolved(50.0), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn the_result_line_holds_every_declared_metric() {
        let declared = [("a_s", "s"), ("b", "count")];
        let r = RunResult::new(true, 0, 0, &declared, &[("b", 2.0), ("a_s", 0.5)]).unwrap();
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(RunResult::new(true, 1, 0, &declared, &[("a_s", 0.5)]).is_err());
        assert!(RunResult::new(true, 1, 0, &declared, &[("a_s", f64::NAN), ("b", 1.0)]).is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        use lkmm_service::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_arr).expect("metric list");
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Json::as_str).unwrap(),
                        e.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
    }
}
