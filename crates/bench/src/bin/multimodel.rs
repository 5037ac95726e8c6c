//! Single-enumeration multi-model checking vs N sequential passes.
//!
//! Dependency-free (no criterion): runs the seven-column conformance
//! corpus (library + generated cycles) through
//!
//! * `sequential` — seven dedicated one-column `BatchChecker`s, one cold
//!   pass per column: every column enumerates every supported test itself;
//! * `multi` — one seven-column `BatchChecker` over the same masks:
//!   each test is enumerated **once** and every column's verdict is
//!   decided from that shared pass;
//!
//! asserts the two paths produce identical verdicts cell by cell,
//! asserts the enumeration reduction is at least 3x (the PR's
//! acceptance bar for a seven-column campaign), then writes
//! `BENCH_MULTIMODEL.json` in the working directory and prints a
//! summary table.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin multimodel [-- --iters N] [--max-cycle-len L]
//! ```

use lkmm_conformance::campaign::corpus;
use lkmm_conformance::{CampaignConfig, ModelId};
use lkmm_litmus::ast::Test;
use lkmm_service::{BatchChecker, Column, VerdictStore};
use std::fmt::Write as _;
use std::time::Instant;

struct Measurement {
    config: &'static str,
    seconds: f64,
    enumeration_passes: usize,
    candidates_enumerated: usize,
}

fn main() {
    let mut iters = 3usize;
    let mut max_cycle_len = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--iters needs a positive integer");
            }
            "--max-cycle-len" => {
                max_cycle_len = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-cycle-len needs a non-negative integer");
            }
            "--help" | "-h" => {
                println!(
                    "usage: multimodel [--iters N] [--max-cycle-len L]   \
                     (timed repetitions per config, default 3; cycle length, default 4)"
                );
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    let cfg = CampaignConfig { max_cycle_len, ..CampaignConfig::default() };
    let entries = corpus(&cfg).expect("corpus generation");
    let tests: Vec<Test> = entries.iter().map(|e| e.test.clone()).collect();
    let models: Vec<_> = ModelId::ALL.iter().map(|id| id.instantiate()).collect();
    let mask: Vec<Vec<bool>> = ModelId::ALL
        .iter()
        .map(|id| tests.iter().map(|t| id.supports(t)).collect())
        .collect();
    let salts: Vec<String> =
        ModelId::ALL.iter().map(|id| format!("bench|col:{}", id.column())).collect();

    // Sequential: one cold dedicated pass per column over the tests that
    // column supports.
    let per_column: Vec<Vec<Test>> = mask
        .iter()
        .map(|row| {
            tests
                .iter()
                .zip(row)
                .filter(|(_, &on)| on)
                .map(|(t, _)| t.clone())
                .collect()
        })
        .collect();
    let mut seq_seconds = 0.0;
    let mut seq_candidates = 0usize;
    let mut seq_passes = 0usize;
    let mut seq_verdicts: Vec<Vec<_>> = Vec::new();
    for i in 0..iters {
        let start = Instant::now();
        let mut candidates = 0usize;
        let mut passes = 0usize;
        let mut verdicts = Vec::new();
        for (c, model) in models.iter().enumerate() {
            let mut checker =
                BatchChecker::new(model.as_ref(), VerdictStore::in_memory(), &salts[c])
                    .with_jobs(1);
            let report =
                checker.check_corpus(&per_column[c]).expect("sequential pass").columns.remove(0);
            assert_eq!(report.inconclusive, 0, "unbudgeted pass stopped early");
            candidates += report.candidates_enumerated;
            passes += report.computed;
            verdicts.push(
                report
                    .outcomes
                    .iter()
                    .flatten()
                    .map(|o| o.outcome.result().cloned())
                    .collect::<Vec<_>>(),
            );
        }
        seq_seconds += start.elapsed().as_secs_f64();
        if i == 0 {
            seq_candidates = candidates;
            seq_passes = passes;
            seq_verdicts = verdicts;
        }
    }

    // Multi: one cold shared-enumeration pass over all seven columns.
    let mut multi_seconds = 0.0;
    let mut multi_candidates = 0usize;
    let mut multi_passes = 0usize;
    for i in 0..iters {
        let columns: Vec<Column<'_>> = models
            .iter()
            .zip(&salts)
            .map(|(m, salt)| Column { model: m.as_ref(), salt: salt.clone() })
            .collect();
        let mut checker =
            BatchChecker::new_multi(columns, VerdictStore::in_memory()).with_jobs(1);
        let start = Instant::now();
        let report = checker.check_corpus_masked(&tests, &mask).expect("multi pass");
        multi_seconds += start.elapsed().as_secs_f64();
        if i == 0 {
            multi_candidates = report.candidates_actual;
            multi_passes = report.enumeration_passes;
            // Cell-by-cell identity with the sequential path.
            for (c, col) in report.columns.iter().enumerate() {
                let got: Vec<_> = col
                    .outcomes
                    .iter()
                    .flatten()
                    .map(|o| o.outcome.result().cloned())
                    .collect();
                assert_eq!(
                    got, seq_verdicts[c],
                    "column {} diverges from its dedicated pass",
                    salts[c]
                );
            }
        }
    }

    let reduction = seq_candidates as f64 / multi_candidates.max(1) as f64;
    assert!(
        reduction >= 3.0,
        "single-enumeration saving below the 3x bar: {seq_candidates} -> {multi_candidates} \
         ({reduction:.2}x)"
    );

    let measurements = [
        Measurement {
            config: "sequential",
            seconds: seq_seconds / iters as f64,
            enumeration_passes: seq_passes,
            candidates_enumerated: seq_candidates,
        },
        Measurement {
            config: "multi",
            seconds: multi_seconds / iters as f64,
            enumeration_passes: multi_passes,
            candidates_enumerated: multi_candidates,
        },
    ];

    println!(
        "{:12} {:>10} {:>8} {:>12} {:>10}",
        "config", "secs", "passes", "candidates", "reduction"
    );
    let mut json_entries = String::new();
    for m in &measurements {
        println!(
            "{:12} {:>10.5} {:>8} {:>12} {:>9.2}x",
            m.config,
            m.seconds,
            m.enumeration_passes,
            m.candidates_enumerated,
            seq_candidates as f64 / m.candidates_enumerated.max(1) as f64
        );
        if !json_entries.is_empty() {
            json_entries.push_str(",\n");
        }
        write!(
            json_entries,
            "    {{\"config\": \"{}\", \"seconds\": {:.6}, \"enumeration_passes\": {}, \
             \"candidates_enumerated\": {}}}",
            m.config, m.seconds, m.enumeration_passes, m.candidates_enumerated
        )
        .expect("write to string");
    }
    let json = format!(
        "{{\n  \"bench\": \"multimodel-single-enumeration\",\n  \
         \"max_cycle_len\": {max_cycle_len},\n  \"iters\": {iters},\n  \
         \"columns\": {},\n  \"corpus_tests\": {},\n  \
         \"candidates_reduction\": {reduction:.3},\n  \"measurements\": [\n{json_entries}\n  ]\n}}\n",
        ModelId::ALL.len(),
        tests.len()
    );
    std::fs::write("BENCH_MULTIMODEL.json", &json).expect("write BENCH_MULTIMODEL.json");
    println!("\nwrote BENCH_MULTIMODEL.json");
}
