//! Evaluator: cat models against candidate executions.

use crate::ast::{Binding, CheckKind, Expr, Instr, Model};
use lkmm_core::budget::StepFuel;
use lkmm_exec::{ExecFacts, Execution};
use lkmm_litmus::FenceKind;
use lkmm_relation::{
    acquire_rel, scratch_words, with_scratch, ArenaRel, EventSet, Relation, SharedArena,
};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Sentinel message distinguishing fuel exhaustion from genuine semantic
/// errors; see [`EvalError::is_fuel_exhausted`].
const FUEL_EXHAUSTED: &str = "evaluation-step budget exhausted";

/// Evaluation failure (unknown identifier, type mismatch, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalError {
    pub message: String,
}

impl EvalError {
    /// The error reported when an installed [`StepFuel`] tank runs dry
    /// mid-evaluation.
    pub fn fuel_exhausted() -> EvalError {
        EvalError { message: FUEL_EXHAUSTED.into() }
    }

    /// Whether this error is fuel exhaustion (a budget stop) rather than
    /// a semantic error in the model.
    pub fn is_fuel_exhausted(&self) -> bool {
        self.message == FUEL_EXHAUSTED
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cat evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Result of evaluating a model against one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatOutcome {
    /// First failed (non-flag) check, by name or kind.
    pub failed_check: Option<String>,
    /// Names of triggered `flag` checks (warnings, not verdicts).
    pub flags: Vec<String>,
}

impl CatOutcome {
    /// Whether the execution is allowed (no non-flag check failed).
    pub fn allowed(&self) -> bool {
        self.failed_check.is_none()
    }
}

/// A cat runtime value.
///
/// Sets and relations are behind `Rc`s (values never leave the
/// evaluating thread) so that (a) cloning an
/// environment — which happens once per candidate when a [`CatSession`]
/// reuses its cached static environment — bumps reference counts instead
/// of copying bitsets, and (b) operators can mutate uniquely-owned
/// intermediate results in place (`Rc::try_unwrap` copy-on-write), which
/// turns the allocation-heavy union chains of `let rec` fixpoints into
/// in-place bit-ors. Relations are [`ArenaRel`] handles: when evaluation
/// runs with a pool attached (the pipeline's per-worker arena), every
/// intermediate that falls out of scope returns its storage for the next
/// candidate instead of hitting the allocator.
#[derive(Clone, Debug)]
enum Value {
    Set(Rc<EventSet>),
    Rel(Rc<ArenaRel>),
    Fun(Rc<FunVal>),
}

/// The optional per-worker storage pool, threaded through evaluation.
type Pool<'p> = Option<&'p SharedArena>;

/// Copy-on-write binary relation operator: mutate in place when the
/// left operand is uniquely owned, copy into pooled storage otherwise.
fn cow_rel(
    a: Rc<ArenaRel>,
    b: &Relation,
    pool: Pool<'_>,
    in_place: impl FnOnce(&mut Relation, &Relation),
) -> Rc<ArenaRel> {
    match Rc::try_unwrap(a) {
        Ok(mut r) => {
            in_place(&mut r, b);
            Rc::new(r)
        }
        Err(a) => {
            let mut r = acquire_rel(pool, a.universe());
            r.copy_from(&a);
            in_place(&mut r, b);
            Rc::new(r)
        }
    }
}

/// Copy-on-write unary relation operator.
fn cow_unary(
    a: Rc<ArenaRel>,
    pool: Pool<'_>,
    in_place: impl FnOnce(&mut Relation),
) -> Rc<ArenaRel> {
    match Rc::try_unwrap(a) {
        Ok(mut r) => {
            in_place(&mut r);
            Rc::new(r)
        }
        Err(a) => {
            let mut r = acquire_rel(pool, a.universe());
            r.copy_from(&a);
            in_place(&mut r);
            Rc::new(r)
        }
    }
}

#[derive(Debug)]
struct FunVal {
    params: Vec<String>,
    body: Expr,
    env: Env,
}

type Env = HashMap<String, Value>;

/// Evaluate `model` against execution `x`.
///
/// # Errors
///
/// Returns [`EvalError`] for semantic errors; a type-correct model always
/// evaluates.
pub fn evaluate(model: &Model, x: &Execution) -> Result<CatOutcome, EvalError> {
    let facts = ExecFacts::new(x);
    let mut env = static_env(x, &facts)?;
    insert_witness(&mut env, x, None);
    evaluate_with_env(model, x.universe(), env, None, None)
}

/// Run a model's instructions against a pre-built base environment.
/// When `fuel` is supplied, one unit is burned per instruction and per
/// fixpoint-round binding, and exhaustion surfaces as
/// [`EvalError::fuel_exhausted`]. When `pool` is supplied, relation
/// intermediates draw storage from it.
fn evaluate_with_env(
    model: &Model,
    n: usize,
    mut env: Env,
    fuel: Option<&StepFuel>,
    pool: Pool<'_>,
) -> Result<CatOutcome, EvalError> {
    let mut outcome = CatOutcome { failed_check: None, flags: Vec::new() };
    for (i, instr) in model.instrs.iter().enumerate() {
        if let Some(f) = fuel {
            if !f.consume(1) {
                return Err(EvalError::fuel_exhausted());
            }
        }
        match instr {
            Instr::Let { recursive: false, bindings } => {
                // Simultaneous bindings: evaluate all in the current env.
                let vals: Vec<(String, Value)> = bindings
                    .iter()
                    .map(|b| Ok((b.name.clone(), bind_value(b, &env, pool)?)))
                    .collect::<Result<_, EvalError>>()?;
                env.extend(vals);
            }
            Instr::Let { recursive: true, bindings } => {
                eval_rec(bindings, &mut env, n, fuel, pool)?;
            }
            Instr::Check { kind, negated, expr, name, flag } => {
                let holds = eval_check(*kind, expr, &env, n, pool)? != *negated;
                let label = || {
                    name.clone()
                        .unwrap_or_else(|| format!("{kind:?} (instruction {i})").to_lowercase())
                };
                if *flag {
                    // herd semantics: a `flag` labels executions where the
                    // condition *holds* (e.g. `flag ~empty bad as bad`
                    // fires when `bad` is non-empty). It never forbids.
                    if holds {
                        outcome.flags.push(label());
                    }
                } else if !holds && outcome.failed_check.is_none() {
                    outcome.failed_check = Some(label());
                }
            }
        }
    }
    Ok(outcome)
}

fn bind_value(b: &Binding, env: &Env, pool: Pool<'_>) -> Result<Value, EvalError> {
    if b.params.is_empty() {
        eval_expr(&b.body, env, pool)
    } else {
        Ok(Value::Fun(Rc::new(FunVal {
            params: b.params.clone(),
            body: b.body.clone(),
            env: env.clone(),
        })))
    }
}

fn eval_rec(
    bindings: &[Binding],
    env: &mut Env,
    n: usize,
    fuel: Option<&StepFuel>,
    pool: Pool<'_>,
) -> Result<(), EvalError> {
    for b in bindings {
        if !b.params.is_empty() {
            return Err(EvalError { message: "recursive functions are not supported".into() });
        }
        env.insert(b.name.clone(), Value::Rel(Rc::new(acquire_rel(pool, n))));
    }
    // Least fixpoint by iteration; cat recursion over ∪/;/closures is
    // monotone, so this terminates (the lattice of relations is finite).
    let cap = n * n * bindings.len() + 2;
    for _ in 0..cap {
        // The fixpoint is where evaluation cost is super-linear, so this
        // is the loop a step budget must bound.
        if let Some(f) = fuel {
            if !f.consume(bindings.len() as u64) {
                return Err(EvalError::fuel_exhausted());
            }
        }
        let mut changed = false;
        for b in bindings {
            let new = eval_expr(&b.body, env, pool)?;
            let new_rel = as_rel(new, n)?;
            let old = match env.get(&b.name) {
                Some(Value::Rel(r)) => Rc::clone(r),
                _ => unreachable!("rec name bound above"),
            };
            if *new_rel != *old {
                changed = true;
                env.insert(b.name.clone(), Value::Rel(new_rel));
            }
        }
        if !changed {
            return Ok(());
        }
    }
    Err(EvalError { message: "recursive definition did not converge (non-monotone?)".into() })
}

fn eval_check(
    kind: CheckKind,
    expr: &Expr,
    env: &Env,
    n: usize,
    pool: Pool<'_>,
) -> Result<bool, EvalError> {
    let v = eval_expr(expr, env, pool)?;
    Ok(match kind {
        CheckKind::Acyclic => as_rel(v, n)?.is_acyclic(),
        CheckKind::Irreflexive => as_rel(v, n)?.is_irreflexive(),
        CheckKind::Empty => match v {
            Value::Set(s) => s.is_empty(),
            Value::Rel(r) => r.is_empty(),
            Value::Fun(_) => {
                return Err(EvalError { message: "`empty` applied to a function".into() })
            }
        },
    })
}

fn as_rel(v: Value, _n: usize) -> Result<Rc<ArenaRel>, EvalError> {
    match v {
        Value::Rel(r) => Ok(r),
        Value::Set(_) => Err(EvalError { message: "expected a relation, found a set".into() }),
        Value::Fun(_) => Err(EvalError { message: "expected a relation, found a function".into() }),
    }
}

fn eval_expr(e: &Expr, env: &Env, pool: Pool<'_>) -> Result<Value, EvalError> {
    let err = |m: String| EvalError { message: m };
    match e {
        Expr::Id(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| err(format!("unknown identifier `{name}`"))),
        Expr::Empty => {
            // `0` is the empty relation; its universe is taken from `id`.
            match env.get("id") {
                Some(Value::Rel(id)) => {
                    Ok(Value::Rel(Rc::new(acquire_rel(pool, id.universe()))))
                }
                _ => Err(err("internal: `id` missing from base env".into())),
            }
        }
        Expr::Universe => match env.get("_UNIV") {
            Some(v) => Ok(v.clone()),
            _ => Err(err("internal: universe missing".into())),
        },
        Expr::App(name, args) => {
            let vals: Vec<Value> =
                args.iter().map(|a| eval_expr(a, env, pool)).collect::<Result<_, _>>()?;
            match (name.as_str(), vals.as_slice()) {
                ("domain", [Value::Rel(r)]) => Ok(Value::Set(Rc::new(r.domain()))),
                ("range", [Value::Rel(r)]) => Ok(Value::Set(Rc::new(r.range()))),
                _ => match env.get(name) {
                    Some(Value::Fun(f)) => {
                        if f.params.len() != args.len() {
                            return Err(err(format!(
                                "`{name}` expects {} argument(s), got {}",
                                f.params.len(),
                                args.len()
                            )));
                        }
                        let mut call_env = f.env.clone();
                        for (p, v) in f.params.iter().zip(vals) {
                            call_env.insert(p.clone(), v);
                        }
                        eval_expr(&f.body, &call_env, pool)
                    }
                    Some(_) => Err(err(format!("`{name}` is not a function"))),
                    None => Err(err(format!("unknown function `{name}`"))),
                },
            }
        }
        Expr::SetToId(inner) => match eval_expr(inner, env, pool)? {
            Value::Set(s) => {
                let mut r = acquire_rel(pool, s.universe());
                for i in s.iter() {
                    r.insert(i, i);
                }
                Ok(Value::Rel(Rc::new(r)))
            }
            _ => Err(err("`[…]` expects a set".into())),
        },
        Expr::Union(a, b) => binop(a, b, env, pool, "union", |x, y, pool| match (x, y) {
            (Value::Set(a), Value::Set(b)) => Some(Value::Set(Rc::new(a.union(&b)))),
            (Value::Rel(a), Value::Rel(b)) => {
                Some(Value::Rel(cow_rel(a, &b, pool, Relation::union_in_place)))
            }
            _ => None,
        }),
        Expr::Inter(a, b) => binop(a, b, env, pool, "intersection", |x, y, pool| match (x, y) {
            (Value::Set(a), Value::Set(b)) => Some(Value::Set(Rc::new(a.intersection(&b)))),
            (Value::Rel(a), Value::Rel(b)) => {
                Some(Value::Rel(cow_rel(a, &b, pool, Relation::intersection_in_place)))
            }
            _ => None,
        }),
        Expr::Diff(a, b) => binop(a, b, env, pool, "difference", |x, y, pool| match (x, y) {
            (Value::Set(a), Value::Set(b)) => Some(Value::Set(Rc::new(a.difference(&b)))),
            (Value::Rel(a), Value::Rel(b)) => {
                Some(Value::Rel(cow_rel(a, &b, pool, Relation::difference_in_place)))
            }
            _ => None,
        }),
        Expr::Seq(a, b) => binop(a, b, env, pool, "sequence", |x, y, pool| match (x, y) {
            (Value::Rel(a), Value::Rel(b)) => {
                let mut out = acquire_rel(pool, a.universe());
                a.seq_into(&b, &mut out);
                Some(Value::Rel(Rc::new(out)))
            }
            _ => None,
        }),
        Expr::Cartesian(a, b) => {
            binop(a, b, env, pool, "cartesian product", |x, y, pool| match (x, y) {
                (Value::Set(a), Value::Set(b)) => {
                    let mut out = acquire_rel(pool, a.universe());
                    for i in a.iter() {
                        for j in b.iter() {
                            out.insert(i, j);
                        }
                    }
                    Some(Value::Rel(Rc::new(out)))
                }
                _ => None,
            })
        }
        Expr::Complement(inner) => match eval_expr(inner, env, pool)? {
            Value::Set(s) => Ok(Value::Set(Rc::new(s.complement()))),
            Value::Rel(r) => Ok(Value::Rel(cow_unary(r, pool, Relation::complement_in_place))),
            Value::Fun(_) => Err(err("`~` applied to a function".into())),
        },
        Expr::Opt(inner) => match eval_expr(inner, env, pool)? {
            Value::Rel(r) => Ok(Value::Rel(cow_unary(r, pool, Relation::reflexive_in_place))),
            _ => Err(err("`?` expects a relation".into())),
        },
        Expr::Plus(inner) => match eval_expr(inner, env, pool)? {
            // `+` is the fixpoint workhorse: close in place when the
            // operand is an intermediate we uniquely own, and run the
            // closure against a pooled scratch row either way.
            Value::Rel(r) => Ok(Value::Rel(cow_unary(r, pool, |r| {
                with_scratch(pool, scratch_words(r.universe()), |row| {
                    r.transitive_close_with(row);
                });
            }))),
            _ => Err(err("`+` expects a relation".into())),
        },
        Expr::Star(inner) => match eval_expr(inner, env, pool)? {
            Value::Rel(r) => Ok(Value::Rel(cow_unary(r, pool, |r| {
                with_scratch(pool, scratch_words(r.universe()), |row| {
                    r.transitive_close_with(row);
                });
                r.reflexive_in_place();
            }))),
            _ => Err(err("`*` expects a relation".into())),
        },
        Expr::Inverse(inner) => match eval_expr(inner, env, pool)? {
            Value::Rel(r) => {
                let mut out = acquire_rel(pool, r.universe());
                r.inverse_into(&mut out);
                Ok(Value::Rel(Rc::new(out)))
            }
            _ => Err(err("`^-1` expects a relation".into())),
        },
    }
}

fn binop(
    a: &Expr,
    b: &Expr,
    env: &Env,
    pool: Pool<'_>,
    what: &str,
    f: impl Fn(Value, Value, Pool<'_>) -> Option<Value>,
) -> Result<Value, EvalError> {
    let va = eval_expr(a, env, pool)?;
    let vb = eval_expr(b, env, pool)?;
    f(va, vb, pool).ok_or_else(|| EvalError { message: format!("type error in {what}") })
}

/// The witness-independent identifiers herd-style models may assume:
/// base relations (`po`, dependency relations, `loc`, `int`, `ext`,
/// `id`, `crit`) and event sets (`R`, `W`, `M`, `F`, `IW`, `Acquire`,
/// `Release`, one set per fence kind). Everything here is a function of
/// the candidate's shared pre-execution, so a [`CatSession`] computes it
/// once per thread-outcome combination and reuses it across all the
/// `rf`/`co` witnesses — the `rf`/`co` entries themselves are added per
/// candidate by [`insert_witness`]. The derived identifiers (`loc`,
/// `int`, `ext`, `crit` and every event set) are read off the shared
/// facts layer rather than recomputed from scratch.
fn static_env(x: &Execution, facts: &ExecFacts<'_>) -> Result<Env, EvalError> {
    if x.events.iter().any(|e| e.srcu().is_some()) {
        return Err(EvalError {
            message: "SRCU events are not exposed to cat models; use the native LKMM".into(),
        });
    }
    let mut env = Env::new();
    let n = x.universe();
    let pool = facts.arena();
    let mut rel = |name: &str, r: &Relation| {
        let mut h = acquire_rel(pool, n);
        h.copy_from(r);
        env.insert(name.to_string(), Value::Rel(Rc::new(h)));
    };
    rel("po", &x.po);
    rel("addr", &x.addr);
    rel("data", &x.data);
    rel("ctrl", &x.ctrl);
    rel("rmw", &x.rmw);
    rel("loc", facts.loc_rel());
    rel("int", facts.int_rel());
    rel("ext", facts.ext_rel());
    rel("id", &Relation::identity(n));
    rel("crit", facts.crit());
    let mut set = |name: &str, s: EventSet| {
        env.insert(name.to_string(), Value::Set(Rc::new(s)));
    };
    set("R", facts.reads().clone());
    set("W", facts.writes().clone());
    set("M", facts.mem().clone());
    set("IW", facts.init_writes().clone());
    set(
        "F",
        x.events_where(|e| matches!(e.kind, lkmm_exec::EventKind::Fence(_))),
    );
    set("Acquire", facts.acquires().clone());
    set("Release", facts.releases().clone());
    set("Rmb", facts.fences(FenceKind::Rmb).clone());
    set("Wmb", facts.fences(FenceKind::Wmb).clone());
    set("Mb", facts.fences(FenceKind::Mb).clone());
    set("Rb-dep", facts.fences(FenceKind::RbDep).clone());
    set("Rcu-lock", facts.fences(FenceKind::RcuLock).clone());
    set("Rcu-unlock", facts.fences(FenceKind::RcuUnlock).clone());
    set("Sync", facts.fences(FenceKind::SyncRcu).clone());
    set("_UNIV", EventSet::full(n));
    Ok(env)
}

/// Add the execution witness (`rf`, `co`) to a base environment,
/// copying into pooled storage when a pool is attached.
fn insert_witness(env: &mut Env, x: &Execution, pool: Pool<'_>) {
    let n = x.universe();
    let mut rf = acquire_rel(pool, n);
    rf.copy_from(&x.rf);
    env.insert("rf".to_string(), Value::Rel(Rc::new(rf)));
    let mut co = acquire_rel(pool, n);
    co.copy_from(&x.co);
    env.insert("co".to_string(), Value::Rel(Rc::new(co)));
}

/// A stateful evaluation handle for checking many candidates of the same
/// litmus test: the witness-independent part of the base environment
/// ([`static_env`]) is cached and keyed on the identity of the shared
/// pre-execution (`Arc::ptr_eq` on `x.events`). Holding a clone of the
/// `Arc` keeps the allocation alive, so the pointer identity cannot be
/// recycled while the cache entry exists.
///
/// One session serves one thread; the parallel pipeline opens a session
/// per worker.
pub struct CatSession<'a> {
    model: &'a Model,
    cache: Option<(Arc<Vec<lkmm_exec::Event>>, Env)>,
    fuel: Option<Arc<StepFuel>>,
}

impl<'a> CatSession<'a> {
    /// A session evaluating `model`.
    pub fn new(model: &'a Model) -> Self {
        CatSession { model, cache: None, fuel: None }
    }

    /// Meter every subsequent evaluation against `fuel` (shared with the
    /// other workers of a governed check).
    pub fn set_fuel(&mut self, fuel: Arc<StepFuel>) {
        self.fuel = Some(fuel);
    }

    /// Evaluate all checks against one candidate execution, reusing the
    /// cached static environment when `x` comes from the same
    /// pre-execution as the previous candidate.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`]; with fuel installed, additionally
    /// [`EvalError::fuel_exhausted`].
    pub fn evaluate(&mut self, x: &Execution) -> Result<CatOutcome, EvalError> {
        self.evaluate_with(x, &ExecFacts::new(x))
    }

    /// [`Self::evaluate`] against a pre-computed facts layer, so a cache
    /// miss fills the static environment from already-derived relations
    /// instead of recomputing them from the execution.
    pub fn evaluate_with(
        &mut self,
        x: &Execution,
        facts: &ExecFacts<'_>,
    ) -> Result<CatOutcome, EvalError> {
        let hit = self
            .cache
            .as_ref()
            .is_some_and(|(events, _)| Arc::ptr_eq(events, &x.events));
        if !hit {
            self.cache = Some((Arc::clone(&x.events), static_env(x, facts)?));
        }
        let mut env = self.cache.as_ref().expect("cache filled above").1.clone();
        insert_witness(&mut env, x, facts.arena());
        evaluate_with_env(self.model, x.universe(), env, self.fuel.as_deref(), facts.arena())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use lkmm_exec::enumerate::{enumerate, EnumOptions};
    use lkmm_litmus::library;

    fn execs(name: &str) -> (Vec<Execution>, lkmm_litmus::Test) {
        let t = library::by_name(name).unwrap().test();
        (enumerate(&t, &EnumOptions::default()).unwrap(), t)
    }

    fn sc_model() -> Model {
        parse("\"SC\"\nlet fr = rf^-1 ; co\nacyclic po | rf | co | fr as sc").unwrap()
    }

    #[test]
    fn sc_forbids_sb_weak_outcome() {
        let (execs, t) = execs("SB");
        let m = sc_model();
        for x in &execs {
            let out = evaluate(&m, x).unwrap();
            if x.satisfies_prop(&t.condition.prop) {
                assert_eq!(out.failed_check.as_deref(), Some("sc"));
            } else {
                assert!(out.allowed());
            }
        }
    }

    #[test]
    fn rec_fixpoint_converges() {
        // Transitive closure via recursion must equal the + operator.
        let m = parse("let rec tc = po | (tc ; tc)\nirreflexive tc \\ po+ as equal1\nirreflexive po+ \\ tc as equal2\nempty tc \\ po+ as equal3").unwrap();
        let (execs, _) = execs("MP");
        for x in &execs {
            let out = evaluate(&m, x).unwrap();
            assert!(out.allowed(), "{out:?}");
        }
    }

    #[test]
    fn flags_do_not_forbid() {
        let m = parse("flag ~empty po as has-po").unwrap();
        let (execs, _) = execs("SB");
        let out = evaluate(&m, &execs[0]).unwrap();
        assert!(out.allowed());
        assert_eq!(out.flags, vec!["has-po"]);
    }

    #[test]
    fn functions_apply() {
        let m = parse(
            "let rfe = rf & ext\nlet A-cumul(r) = rfe? ; r\nempty A-cumul(0) \\ rfe? as ok",
        )
        .unwrap();
        let (execs, _) = execs("MP");
        // A-cumul(0) = rfe? ; 0 = 0 ⊆ rfe?.
        let out = evaluate(&m, &execs[0]).unwrap();
        assert!(out.allowed(), "{out:?}");
    }

    #[test]
    fn type_errors_are_reported() {
        let m = parse("acyclic R as oops").unwrap();
        let (execs, _) = execs("SB");
        assert!(evaluate(&m, &execs[0]).is_err());
        let m2 = parse("let x = R ; W\nempty x as oops").unwrap();
        assert!(evaluate(&m2, &execs[0]).is_err());
        let m3 = parse("empty nonsense as oops").unwrap();
        assert!(evaluate(&m3, &execs[0]).is_err());
    }

    #[test]
    fn cartesian_and_brackets() {
        let m = parse(
            "let rr = po & (R * R)\nlet viaid = [R] ; po ; [R]\n\
             empty rr \\ viaid as same1\nempty viaid \\ rr as same2",
        )
        .unwrap();
        let (execs, _) = execs("MP");
        for x in &execs {
            assert!(evaluate(&m, x).unwrap().allowed());
        }
    }
}
