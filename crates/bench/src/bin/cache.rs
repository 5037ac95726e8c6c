//! Cold-vs-warm throughput micro-bench for the verdict store.
//!
//! Dependency-free (no criterion): times three configurations of the
//! batch checker over two corpora (the paper's litmus library and a
//! generated MP-family sweep, both under the native LKMM) —
//!
//! * `uncached`  — every test checked from scratch, no store;
//! * `cold`      — a fresh on-disk store: canonicalize + hash + check +
//!   append, i.e. the cache's write-path overhead;
//! * `warm`      — the same store reopened: pure replay, zero candidate
//!   enumerations;
//!
//! then writes `BENCH_CACHE.json` in the working directory and prints a
//! summary table. Results are asserted identical across configurations
//! while timing, and the warm pass is asserted to compute nothing, so a
//! bench run doubles as a cache-correctness check.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin cache [-- --iters N]
//! ```

use lkmm::Lkmm;
use lkmm_exec::TestResult;
use lkmm_litmus::ast::Test;
use lkmm_service::{BatchChecker, VerdictStore};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Workload {
    name: &'static str,
    tests: Vec<Test>,
}

fn workloads() -> Vec<Workload> {
    let library: Vec<Test> =
        lkmm_litmus::library::all().iter().map(lkmm_litmus::library::PaperTest::test).collect();
    let mp = lkmm_generator::parse_cycle("PodWW Rfe PodRR Fre").expect("MP cycle parses");
    let family = lkmm_generator::family::family_tests(&mp).expect("MP base is valid");
    vec![
        Workload { name: "table5-library", tests: library },
        Workload { name: "mp-family-sweep", tests: family },
    ]
}

struct Measurement {
    workload: &'static str,
    config: &'static str,
    seconds: f64,
    tests: usize,
    candidates_enumerated: usize,
    hits: usize,
    deduped: usize,
}

/// One timed pass over `tests` through a fresh checker on `store`.
fn run_store_pass(
    store: VerdictStore,
    tests: &[Test],
) -> (f64, usize, usize, usize, Vec<TestResult>) {
    let model = Lkmm::new();
    let mut checker = BatchChecker::new(&model, store, "bench");
    let start = Instant::now();
    let report = checker.check_corpus(tests).expect("corpus checks").columns.remove(0);
    let seconds = start.elapsed().as_secs_f64();
    let results = report.outcomes.iter().flatten().map(|o| o.result().expect("unbudgeted check completes").clone()).collect();
    (seconds, report.candidates_enumerated, report.hits, report.deduped, results)
}

fn bench_workload(w: &Workload, iters: usize, store_path: &Path) -> Vec<Measurement> {
    let mut out = Vec::new();

    // Baseline: no store at all (the pre-cache code path).
    let model = Lkmm::new();
    let herd_results: Vec<TestResult> = {
        let mut checker = BatchChecker::new(&model, VerdictStore::in_memory(), "bench");
        checker.check_corpus(&w.tests).unwrap().columns[0]
            .outcomes
            .iter()
            .flatten()
            .map(|o| o.result().expect("unbudgeted check completes").clone())
            .collect()
    };
    let start = Instant::now();
    for _ in 0..iters {
        let mut checker = BatchChecker::new(&model, VerdictStore::in_memory(), "bench");
        // A throwaway in-memory store per iteration: every test is a miss,
        // so this measures canonicalize + hash + check with no replay.
        let report = checker.check_corpus(&w.tests).unwrap();
        assert_eq!(report.columns[0].hits, 0);
        std::hint::black_box(report);
    }
    out.push(Measurement {
        workload: w.name,
        config: "uncached",
        seconds: start.elapsed().as_secs_f64() / iters as f64,
        tests: w.tests.len(),
        candidates_enumerated: herd_results.iter().map(|r| r.candidates).sum(),
        hits: 0,
        deduped: 0,
    });

    // Cold: fresh on-disk store each iteration (write-path overhead).
    let mut cold_seconds = 0.0;
    let mut cold_results = Vec::new();
    for i in 0..iters {
        let _ = std::fs::remove_file(store_path);
        let store = VerdictStore::open(store_path).expect("store opens");
        let (s, _, hits, _, results) = run_store_pass(store, &w.tests);
        assert_eq!(hits, 0, "{}: cold pass hit a fresh store", w.name);
        cold_seconds += s;
        if i == 0 {
            cold_results = results;
        }
    }
    assert_eq!(cold_results, herd_results, "{}: store changed results", w.name);
    out.push(Measurement {
        workload: w.name,
        config: "cold",
        seconds: cold_seconds / iters as f64,
        tests: w.tests.len(),
        candidates_enumerated: herd_results.iter().map(|r| r.candidates).sum(),
        hits: 0,
        deduped: 0,
    });

    // Warm: reopen the populated store each iteration (pure replay).
    let mut warm_seconds = 0.0;
    let mut warm_hits = 0;
    let mut warm_deduped = 0;
    for _ in 0..iters {
        let store = VerdictStore::open(store_path).expect("store reopens");
        let (s, enumerated, hits, deduped, results) = run_store_pass(store, &w.tests);
        assert_eq!(enumerated, 0, "{}: warm pass enumerated candidates", w.name);
        assert_eq!(results, herd_results, "{}: warm results differ", w.name);
        warm_seconds += s;
        warm_hits = hits;
        warm_deduped = deduped;
    }
    out.push(Measurement {
        workload: w.name,
        config: "warm",
        seconds: warm_seconds / iters as f64,
        tests: w.tests.len(),
        candidates_enumerated: 0,
        hits: warm_hits,
        deduped: warm_deduped,
    });
    let _ = std::fs::remove_file(store_path);
    out
}

fn main() {
    let mut iters = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--iters needs a positive integer");
            }
            "--help" | "-h" => {
                println!("usage: cache [--iters N]   (timed repetitions per config, default 5)");
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    let store_path: PathBuf =
        std::env::temp_dir().join(format!("lkmm-bench-cache-{}.bin", std::process::id()));

    let mut measurements = Vec::new();
    for w in workloads() {
        measurements.extend(bench_workload(&w, iters, &store_path));
    }

    println!(
        "{:18} {:10} {:>10} {:>12} {:>9} {:>7} {:>9}",
        "workload", "config", "secs", "tests/sec", "cands", "hits", "speedup"
    );
    let mut json_entries = String::new();
    for m in &measurements {
        let baseline = measurements
            .iter()
            .find(|b| b.workload == m.workload && b.config == "uncached")
            .expect("uncached baseline exists");
        let speedup = baseline.seconds / m.seconds;
        let throughput = m.tests as f64 / m.seconds;
        println!(
            "{:18} {:10} {:>10.5} {:>12.0} {:>9} {:>7} {:>8.2}x",
            m.workload, m.config, m.seconds, throughput, m.candidates_enumerated, m.hits, speedup
        );
        if !json_entries.is_empty() {
            json_entries.push_str(",\n");
        }
        write!(
            json_entries,
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"seconds\": {:.6}, \
             \"tests\": {}, \"tests_per_sec\": {:.1}, \"candidates_enumerated\": {}, \
             \"hits\": {}, \"deduped\": {}, \"speedup_vs_uncached\": {:.3}}}",
            m.workload,
            m.config,
            m.seconds,
            m.tests,
            throughput,
            m.candidates_enumerated,
            m.hits,
            m.deduped,
            speedup
        )
        .expect("write to string");
    }

    let json = format!(
        "{{\n  \"bench\": \"verdict-cache\",\n  \"model\": \"LKMM\",\n  \
         \"iters\": {iters},\n  \"measurements\": [\n{json_entries}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_CACHE.json", &json).expect("write BENCH_CACHE.json");
    println!("\nwrote BENCH_CACHE.json");
}
