//! Cross-checks for single-enumeration multi-model checking: a model
//! set decided from one pass per test must be *bit-identical* to N
//! sequential single-model runs — same verdicts, same counts, same
//! cache keys — at every job count, on cold and warm stores, and a
//! budget trip must stop every model together with job-count-
//! deterministic partial tallies (PR-3 semantics).

use linux_kernel_memory_model::litmus::{self, ast::Test};
use linux_kernel_memory_model::service::{BatchChecker, Column, VerdictStore};
use linux_kernel_memory_model::{Budget, Herd, ModelChoice, MultiCheckOutcome};
use std::path::PathBuf;

/// Every checker, in conformance-matrix column order.
const ALL: [ModelChoice; 7] = [
    ModelChoice::Lkmm,
    ModelChoice::LkmmCat,
    ModelChoice::Sc,
    ModelChoice::Tso,
    ModelChoice::Armv8,
    ModelChoice::Power,
    ModelChoice::C11,
];

fn library() -> Vec<Test> {
    litmus::library::all().iter().map(|pt| pt.test()).collect()
}

/// A unique temp path per test (concurrent test binaries must not collide).
fn temp_store(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lkmm-multimodel-{}-{tag}.bin", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn library_model_set_matches_sequential_single_model_runs() {
    let tests = library();
    // Sequential baselines: one dedicated single-model Herd per checker.
    let baselines: Vec<Vec<_>> = ALL
        .iter()
        .map(|&choice| {
            let herd = Herd::new(choice);
            tests.iter().map(|t| herd.check(t).unwrap().result).collect()
        })
        .collect();

    for jobs in [1usize, 2, 8] {
        let herd = Herd::new_multi(&ALL).with_jobs(jobs);
        for (ti, t) in tests.iter().enumerate() {
            let reports = herd.check_multi(t).unwrap();
            assert_eq!(reports.len(), ALL.len());
            for (mi, report) in reports.iter().enumerate() {
                assert_eq!(
                    report.result, baselines[mi][ti],
                    "{} under {} diverges from its sequential run at jobs={jobs}",
                    t.name, report.model_name
                );
            }
        }
    }
}

#[test]
fn store_backed_model_set_is_bit_identical_cold_and_warm() {
    let tests = library();
    let path = temp_store("store");
    let models: Vec<_> = ALL.iter().map(|c| c.model()).collect();
    let salts: Vec<String> =
        models.iter().map(|m| format!("mm|col:{}", m.name())).collect();
    let columns = || -> Vec<Column<'_>> {
        models
            .iter()
            .zip(&salts)
            .map(|(m, salt)| Column { model: m.as_ref(), salt: salt.clone() })
            .collect()
    };
    let mask = vec![vec![true; tests.len()]; models.len()];

    let cold = {
        let store = VerdictStore::open(&path).unwrap();
        let mut multi = BatchChecker::new_multi(columns(), store).with_jobs(2);
        multi.check_corpus_masked(&tests, &mask).unwrap()
    };
    assert_eq!(cold.enumeration_passes + cold.columns[0].deduped, tests.len());
    assert!(cold.candidates_actual > 0);

    // Each column, bit for bit, against a dedicated single-model
    // BatchChecker built with the same salt on its own cold store.
    for (c, (model, salt)) in models.iter().zip(&salts).enumerate() {
        let mut single = BatchChecker::new(model.as_ref(), VerdictStore::in_memory(), salt);
        let seq = single.check_corpus(&tests).unwrap().columns.remove(0);
        assert_eq!(cold.columns[c].hits, seq.hits);
        assert_eq!(cold.columns[c].computed, seq.computed);
        assert_eq!(cold.columns[c].deduped, seq.deduped);
        assert_eq!(cold.columns[c].candidates_enumerated, seq.candidates_enumerated);
        for (m, s) in cold.columns[c].outcomes.iter().zip(&seq.outcomes) {
            let (m, s) = (m.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(m.key, s.key, "{}: cache key diverged", s.name);
            assert_eq!(m.outcome.result(), s.outcome.result(), "{}: verdict diverged", s.name);
            assert_eq!(m.provenance, s.provenance, "{}: provenance diverged", s.name);
        }
    }

    // Warm replay from the reopened on-disk store: zero enumeration,
    // every slot answered, results identical to the cold pass.
    let store = VerdictStore::open(&path).unwrap();
    assert_eq!(store.recovery().truncated_bytes(), 0);
    let mut multi = BatchChecker::new_multi(columns(), store).with_jobs(8);
    let warm = multi.check_corpus_masked(&tests, &mask).unwrap();
    assert_eq!(warm.enumeration_passes, 0);
    assert_eq!(warm.candidates_actual, 0);
    for (c, w) in cold.columns.iter().zip(&warm.columns) {
        assert_eq!(w.computed, 0);
        assert_eq!(w.hits + w.deduped, tests.len());
        for (co, wo) in c.outcomes.iter().zip(&w.outcomes) {
            assert_eq!(
                co.as_ref().unwrap().outcome.result(),
                wo.as_ref().unwrap().outcome.result()
            );
        }
    }

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn budget_trip_stops_every_model_with_job_count_deterministic_partials() {
    // SB+mbs enumerates well over two candidates under every model, so a
    // two-candidate fuel allowance must trip mid-enumeration.
    let t = litmus::library::by_name("SB+mbs").unwrap().test();
    let set = [ModelChoice::Lkmm, ModelChoice::Sc, ModelChoice::C11];

    let mut seen = Vec::new();
    for jobs in [1usize, 2, 8] {
        let herd = Herd::new_multi(&set)
            .with_jobs(jobs)
            .with_budget(Budget::default().with_max_candidates(2));
        let governed = herd.check_multi_governed(&t);
        assert!(governed.reports().is_none());
        let MultiCheckOutcome::Inconclusive { reason, partials } = governed.outcome else {
            panic!("a two-candidate budget must be inconclusive on SB+mbs");
        };
        assert_eq!(partials.len(), set.len(), "one partial tally per model");
        // One shared pass: every model saw exactly the same candidates.
        for p in &partials {
            assert_eq!(p.candidates, partials[0].candidates);
            assert!(p.candidates <= 2, "fuel overrun: {}", p.candidates);
        }
        seen.push((format!("{reason}"), partials));
    }
    // PR-3 semantics carry over: the stop reason and the exact partial
    // tallies are identical no matter how many workers ran the check.
    for (reason, partials) in &seen[1..] {
        assert_eq!(reason, &seen[0].0);
        assert_eq!(partials, &seen[0].1);
    }
}
