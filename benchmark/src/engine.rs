//! The traced check: one litmus test against N models, driven through
//! the exec layer's public functions on the calling thread.
//!
//! It mirrors the check pipeline's inline path — one enumeration, one
//! session per model, one shared facts cache, tallies per model — with
//! a span around each stage, so enumeration, facts, and every model
//! column get their own self time. The witness tier of the facts is
//! built eagerly inside the `facts` span; the pipeline builds it lazily
//! on the first model that asks, which would charge it to that model.

use crate::trace::{Layer, Tracer};
use lkmm_exec::{
    open_session, try_for_each_execution, ConsistencyModel, EnumError, EnumOptions, EnumStats,
    FactsCache, TestResult, Verdict,
};
use lkmm_litmus::ast::Test;
use lkmm_litmus::Quantifier;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Counts the traced checks accumulate.
#[derive(Default)]
pub struct ExecCounters {
    /// Tests enumerated.
    pub tests: u64,
    /// Candidate executions enumerated.
    pub candidates: u64,
    /// Model evaluations (candidates × models).
    pub evals: u64,
    /// The enumerator's own pruning counters.
    pub enum_stats: Arc<EnumStats>,
}

#[derive(Clone, Copy, Default)]
struct Tally {
    candidates: usize,
    allowed: usize,
    witnesses: usize,
    saw_non_satisfying: bool,
}

/// Check `test` against `models` (each with its model-layer index),
/// inside spans attributed to `request`.
///
/// # Errors
///
/// The enumerator's error, as the pipeline would report it.
pub fn traced_check(
    models: &[(&dyn ConsistencyModel, usize)],
    test: &Test,
    request: u64,
    tr: &mut Tracer,
    ctr: &mut ExecCounters,
) -> Result<Vec<TestResult>, EnumError> {
    tr.enter(Layer::Pipeline, request);
    let mut sessions: Vec<_> = models.iter().map(|(m, _)| open_session(*m)).collect();
    let mut cache = FactsCache::with_arena(lkmm_relation::shared_arena());
    let opts = EnumOptions {
        stats: Some(ctr.enum_stats.clone()),
        ..EnumOptions::default()
    };
    let mut tallies = vec![Tally::default(); models.len()];
    let mut allows = Vec::with_capacity(models.len());
    tr.exit();

    tr.enter(Layer::Enumerate, request);
    let enumerated = try_for_each_execution(test, &opts, &mut |x| {
        tr.enter(Layer::Facts, request);
        let facts = cache.facts(&x);
        facts.fr();
        facts.com();
        facts.rfi();
        facts.rfe();
        facts.coe();
        facts.fre();
        facts.sc_per_loc_ok();
        facts.atomicity_ok();
        tr.exit();
        allows.clear();
        for (session, &(_, layer)) in sessions.iter_mut().zip(models) {
            tr.enter(Layer::Model(layer), request);
            let allowed = session
                .try_allows_with(&x, &facts)
                .expect("no step fuel is installed");
            tr.exit();
            allows.push(allowed);
        }
        tr.enter(Layer::Pipeline, request);
        let satisfies = allows.contains(&true) && x.satisfies_prop(&test.condition.prop);
        for (t, &a) in tallies.iter_mut().zip(&allows) {
            t.candidates += 1;
            if a {
                t.allowed += 1;
                if satisfies {
                    t.witnesses += 1;
                } else {
                    t.saw_non_satisfying = true;
                }
            }
        }
        tr.exit();
        ControlFlow::Continue(())
    });
    tr.exit();
    let _ = enumerated?;

    let candidates = tallies.first().map_or(0, |t| t.candidates);
    ctr.tests += 1;
    ctr.candidates += candidates as u64;
    ctr.evals += (candidates * models.len()) as u64;
    let quantifier = test.condition.quantifier;
    Ok(tallies
        .into_iter()
        .map(|t| TestResult {
            verdict: if t.witnesses > 0 {
                Verdict::Allowed
            } else {
                Verdict::Forbidden
            },
            condition_holds: match quantifier {
                Quantifier::Exists => t.witnesses > 0,
                Quantifier::NotExists => t.witnesses == 0,
                Quantifier::Forall => !t.saw_non_satisfying,
            },
            candidates: t.candidates,
            allowed: t.allowed,
            witnesses: t.witnesses,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::{check_test, EnumOptions};

    #[test]
    fn traced_check_matches_the_reference_checker_on_the_library() {
        let native = lkmm::Lkmm::new();
        let sc = lkmm_models_sc();
        let mut tr = Tracer::new(0);
        let mut ctr = ExecCounters::default();
        tr.enter(Layer::Run, 0);
        for pt in lkmm_litmus::library::all() {
            let test = pt.test();
            let got = traced_check(
                &[(&native, 0), (sc.as_ref(), 2)],
                &test,
                0,
                &mut tr,
                &mut ctr,
            )
            .unwrap();
            assert_eq!(
                got[0],
                check_test(&native, &test, &EnumOptions::default()).unwrap(),
                "{}",
                pt.name
            );
            assert_eq!(
                got[1],
                check_test(sc.as_ref(), &test, &EnumOptions::default()).unwrap(),
                "{}",
                pt.name
            );
        }
        tr.exit();
        assert_eq!(ctr.tests as usize, lkmm_litmus::library::all().len());
        assert_eq!(ctr.evals, 2 * ctr.candidates);
        assert_eq!(tr.count(Layer::Model(0)), ctr.candidates);
        assert_eq!(ctr.enum_stats.snapshot().candidates_emitted, ctr.candidates);
    }

    fn lkmm_models_sc() -> Box<dyn ConsistencyModel> {
        lkmm_conformance::ModelId::Sc.instantiate()
    }
}
