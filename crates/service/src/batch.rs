//! Batch checking through the verdict store: one checker over N model
//! columns (one model is just N = 1).
//!
//! [`BatchChecker`] is the paper's §5 workflow as a service: ingest a
//! corpus (the built-in library, parsed files, or a generator sweep),
//! deduplicate isomorphic tests by canonical hash, answer what the store
//! already knows, run **one** governed enumeration per remaining test
//! over just the columns that missed — the pipeline evaluates all of
//! them per candidate against a shared facts layer — and write the new
//! verdicts back. A fully warm store enumerates nothing; a cold
//! seven-column run enumerates each test once instead of seven times.
//! Re-checking a corpus after a model tweak *with a bumped salt*
//! recomputes everything.
//!
//! Checks run through the governed pipeline: a [`Budget`] installed with
//! [`BatchChecker::set_budget`] bounds each check, and checks that do
//! not complete surface as [`CheckOutcome::Inconclusive`] per-test
//! outcomes instead of failing the batch. Inconclusive verdicts are
//! **never written to the store** — they describe the budget, not the
//! test, so a retry with a bigger budget must see a miss, not a poisoned
//! hit.
//!
//! Per-column bookkeeping (hits, computed, deduped, inconclusive,
//! candidates) keeps the exact semantics of N sequential one-column
//! passes: a column's `candidates_enumerated` counts the candidates
//! *its* verdict consumed; the shared-pass saving shows up in
//! [`BatchReport::candidates_actual`], which counts each enumeration
//! once no matter how many columns rode on it.
//!
//! Every check goes through one streaming [`CorpusRun`]: resolve a unit
//! against the dedupe map and the store, check the columns still
//! missing, commit in corpus order. [`BatchChecker::check_one`] and
//! [`BatchChecker::check_corpus`] drive it inline; the campaign driver
//! drives it unit by unit under a worker pool.

use crate::canon::{cache_key, cache_key_of_text, canonical_text};
use crate::store::{VerdictLog, VerdictStore};
use lkmm_core::budget::{Budget, BudgetKind, Meter};
use lkmm_exec::{
    check_test_multi_governed, CheckOutcome, ConsistencyModel, EnumOptions, InconclusiveReason,
    MultiCheckOutcome, PipelineOptions, Tally, TestResult,
};
use lkmm_litmus::ast::Test;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::time::Instant;

/// Where one test's result came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Answered from the store without enumerating anything.
    Hit,
    /// Enumerated and checked in this batch, then stored.
    Computed,
    /// Shared the canonical key of an earlier test in the same batch.
    Deduped,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Provenance::Hit => "hit",
            Provenance::Computed => "computed",
            Provenance::Deduped => "deduped",
        })
    }
}

/// One checked corpus member in one column.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The test's (original, pre-canonicalization) name.
    pub name: String,
    /// Content-addressed cache key.
    pub key: u128,
    /// The structured outcome. Store hits and deduped replays are always
    /// `Complete` (inconclusive outcomes are never cached); computed
    /// outcomes are `Inconclusive` when the budget ran out.
    pub outcome: CheckOutcome,
    /// How it was answered.
    pub provenance: Provenance,
}

impl BatchOutcome {
    /// The completed verdict data, if the check finished.
    pub fn result(&self) -> Option<&TestResult> {
        self.outcome.result()
    }
}

/// Batch checking failure. Enumeration and budget problems are *not*
/// errors here — they surface as per-test [`CheckOutcome::Inconclusive`]
/// outcomes, so one pathological corpus member cannot fail the batch.
#[derive(Debug)]
pub enum BatchError {
    /// The store could not be written.
    Io(io::Error),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io(e) => write!(f, "verdict store: {e}"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<io::Error> for BatchError {
    fn from(e: io::Error) -> Self {
        BatchError::Io(e)
    }
}

/// One column of a batch: a model plus its cache salt.
pub struct Column<'m> {
    /// The checker answering this column.
    pub model: &'m dyn ConsistencyModel,
    /// Version salt for this column's cache keys (e.g.
    /// `"{base}|col:{name}"` in the conformance matrix). It should name
    /// the model/interpreter revision: bump it when checking semantics
    /// change and old entries silently stop matching.
    pub salt: String,
}

/// Per-column results and counters, aligned to the corpus.
#[derive(Clone, Debug)]
pub struct ColumnReport {
    /// One slot per corpus member; `None` where the column was masked
    /// out (the checker does not cover the test).
    pub outcomes: Vec<Option<BatchOutcome>>,
    /// Store hits.
    pub hits: usize,
    /// Verdicts computed to completion this batch.
    pub computed: usize,
    /// In-batch duplicates of an earlier canonical key.
    pub deduped: usize,
    /// Checks stopped by the budget (not stored).
    pub inconclusive: usize,
    /// Candidates enumerated for this column's computed and inconclusive
    /// checks (0 on a fully warm store) — what a dedicated one-column
    /// pass reports.
    pub candidates_enumerated: usize,
}

/// Aggregate outcome of one [`BatchChecker::check_corpus`] call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One report per column, in constructor order.
    pub columns: Vec<ColumnReport>,
    /// Enumeration passes actually run (each serving ≥ 1 column).
    pub enumeration_passes: usize,
    /// Candidates actually enumerated, counted once per pass — the
    /// denominator of the single-enumeration saving.
    pub candidates_actual: usize,
    /// Wall-clock for the batch, in microseconds.
    pub micros: u128,
}

/// A memoizing checker: N columns, one store, one enumeration per cold
/// test.
///
/// Generic over its [`VerdictLog`] backend (default: a plain owned
/// [`VerdictStore`]), so the same checker drives the single-store CLI
/// path, the conformance matrix, and the server's shared
/// [`crate::ShardedStore`] handle.
pub struct BatchChecker<'m, S: VerdictLog = VerdictStore> {
    columns: Vec<Column<'m>>,
    store: S,
    enum_opts: EnumOptions,
    pipe: PipelineOptions,
    session_hits: usize,
    session_computed: usize,
    session_inconclusive: usize,
}

impl<'m, S: VerdictLog> BatchChecker<'m, S> {
    /// A one-column checker for `model` writing through `store`; `salt`
    /// versions the cache (see [`Column::salt`]). The enumerator options
    /// are folded into every key, since they can change counts.
    pub fn new(model: &'m dyn ConsistencyModel, store: S, salt: &str) -> Self {
        Self::new_multi(vec![Column { model, salt: salt.to_string() }], store)
    }

    /// A checker for `columns` writing through `store`. Column `c`'s keys
    /// equal those of a one-column checker built with the same model and
    /// salt, so stores are shared freely between the two.
    ///
    /// # Panics
    ///
    /// Panics on an empty column set.
    pub fn new_multi(columns: Vec<Column<'m>>, store: S) -> Self {
        assert!(!columns.is_empty(), "a batch checker needs at least one column");
        BatchChecker {
            columns,
            store,
            enum_opts: EnumOptions::default(),
            pipe: PipelineOptions { jobs: 0, ..PipelineOptions::default() },
            session_hits: 0,
            session_computed: 0,
            session_inconclusive: 0,
        }
    }

    /// Override the enumeration options (folded into cache keys, except
    /// the budget — see [`BatchChecker::set_budget`]).
    pub fn with_options(mut self, opts: EnumOptions) -> Self {
        self.enum_opts = opts;
        self
    }

    /// Check misses on `jobs` pipeline workers (`0` = one per hardware
    /// thread). Job count never affects results, so it is *not* part of
    /// the cache key. Early exit is deliberately unsupported here: its
    /// lower-bound counts must never be cached as exact.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.pipe.jobs = jobs;
        self
    }

    /// Bound each worker's candidate queue (clamped to ≥ 1 downstream).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.pipe.queue_depth = depth;
        self
    }

    /// Record batch-occupancy and arena-reuse counters into `stats`
    /// during enumeration passes. Observability only — like job count,
    /// never part of cache keys, and a warm store (which enumerates
    /// nothing) legitimately leaves the counters at zero.
    pub fn with_pipeline_stats(
        mut self,
        stats: Option<std::sync::Arc<lkmm_exec::DataPlaneStats>>,
    ) -> Self {
        self.pipe.stats = stats;
        self
    }

    /// Builder form of [`BatchChecker::set_budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.set_budget(budget);
        self
    }

    /// Bound every subsequent check by `budget`. The budget is *not*
    /// part of the cache key: it cannot change a completed verdict, and
    /// inconclusive outcomes are never stored, so entries computed under
    /// any budget are interchangeable.
    pub fn set_budget(&mut self, budget: Budget) {
        self.enum_opts.budget = budget;
    }

    /// Set (or clear) an absolute deadline on the current budget. The
    /// serve loop uses this to give each request its own deadline
    /// without rebuilding the checker.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.enum_opts.budget.deadline = deadline;
    }

    /// Column `col`'s full key salt: its base salt plus the enumerator
    /// options. The options' Debug form deliberately excludes the budget
    /// and the strategy, which cannot change a completed verdict.
    fn key_salt(&self, col: usize) -> String {
        format!("{}|{:?}", self.columns[col].salt, self.enum_opts)
    }

    /// The cache key column `col` derives for `test`.
    pub fn key_of(&self, col: usize, test: &Test) -> u128 {
        cache_key(test, self.columns[col].model.name(), &self.key_salt(col))
    }

    /// Check one test on a one-column checker, answering from the store
    /// when possible. A check stopped by its budget (or a contained
    /// worker panic) returns an `Inconclusive` outcome and stores
    /// nothing, so retrying with a bigger budget recomputes it. The
    /// store is not synced: a durable backend syncs each append itself,
    /// and [`BatchChecker::flush`] syncs the rest.
    ///
    /// # Errors
    ///
    /// Store-append failure only.
    ///
    /// # Panics
    ///
    /// Panics on a checker with more than one column.
    pub fn check_one(&mut self, test: &Test) -> Result<BatchOutcome, BatchError> {
        assert_eq!(self.columns.len(), 1, "check_one needs a one-column checker");
        let mut run = self.begin_corpus();
        run.check_unit(0, test, &[true])?;
        Ok(run.columns[0].outcomes.pop().flatten().expect("an enabled cell is always filled"))
    }

    /// Check a corpus across every column: per column, dedupe by
    /// canonical key and replay store hits; then run one shared governed
    /// enumeration per test over the columns still missing, write the
    /// completed verdicts back, and sync the store once at the end.
    ///
    /// The budget's `deadline`/`cancel` axes also govern the corpus
    /// *between* tests: once tripped, every remaining cell the store and
    /// the dedupe map cannot answer is reported `Inconclusive` without
    /// being checked (outcomes keep corpus order and length). The
    /// relative `time_limit` axis stays per-check.
    ///
    /// # Errors
    ///
    /// Store failure (the store keeps everything computed before the
    /// failing test).
    pub fn check_corpus(&mut self, tests: &[Test]) -> Result<BatchReport, BatchError> {
        let mask = vec![vec![true; tests.len()]; self.columns.len()];
        self.check_corpus_masked(tests, &mask)
    }

    /// [`BatchChecker::check_corpus`] with `mask[c][i]` gating column `c`
    /// on corpus member `i` (an unsupported cell stays `None`).
    ///
    /// # Errors
    ///
    /// See [`BatchChecker::check_corpus`].
    pub fn check_corpus_masked(
        &mut self,
        tests: &[Test],
        mask: &[Vec<bool>],
    ) -> Result<BatchReport, BatchError> {
        let ncols = self.columns.len();
        assert_eq!(mask.len(), ncols, "one mask row per column");
        for row in mask {
            assert_eq!(row.len(), tests.len(), "one mask slot per corpus member");
        }
        let mut run = self.begin_corpus();
        let mut row = vec![false; ncols];
        for (i, test) in tests.iter().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = mask[c][i];
            }
            run.check_unit(i, test, &row)?;
        }
        run.flush()?;
        Ok(run.finish(tests.len()))
    }

    /// Check every test of the built-in paper library.
    ///
    /// # Errors
    ///
    /// See [`BatchChecker::check_corpus`].
    pub fn check_library(&mut self) -> Result<BatchReport, BatchError> {
        let tests: Vec<Test> =
            lkmm_litmus::library::all().iter().map(lkmm_litmus::library::PaperTest::test).collect();
        self.check_corpus(&tests)
    }

    /// Start a streaming corpus session: per-run dedupe maps, counters,
    /// and corpus meter, fed one unit at a time via
    /// [`CorpusRun::check_unit`]. The checker (and its store) is borrowed
    /// for the run's lifetime.
    pub fn begin_corpus(&mut self) -> CorpusRun<'_, 'm, S> {
        let ncols = self.columns.len();
        // Corpus-level governor: absolute deadline and cancellation only;
        // candidate/step fuel and the relative time limit are per-check.
        let corpus_meter = Budget {
            max_candidates: None,
            max_eval_steps: None,
            time_limit: None,
            ..self.enum_opts.budget.clone()
        }
        .meter();
        CorpusRun {
            columns: (0..ncols)
                .map(|_| ColumnReport {
                    outcomes: Vec::new(),
                    hits: 0,
                    computed: 0,
                    deduped: 0,
                    inconclusive: 0,
                    candidates_enumerated: 0,
                })
                .collect(),
            seen: vec![HashMap::new(); ncols],
            // Fixed for the whole run (the checker is exclusively
            // borrowed), which keeps formatting the options off the
            // per-unit path.
            salts: (0..ncols).map(|c| self.key_salt(c)).collect(),
            enumeration_passes: 0,
            candidates_actual: 0,
            corpus_meter,
            start: Instant::now(),
            units: UnitChecker {
                models: self.columns.iter().map(|c| c.model).collect(),
                enum_opts: self.enum_opts.clone(),
                pipe: self.pipe.clone(),
            },
            epoch: 0,
            checker: self,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Store hits answered since construction.
    pub fn session_hits(&self) -> usize {
        self.session_hits
    }

    /// Verdicts computed (not replayed) since construction.
    pub fn session_computed(&self) -> usize {
        self.session_computed
    }

    /// Checks stopped by budgets/faults since construction (not stored).
    pub fn session_inconclusive(&self) -> usize {
        self.session_inconclusive
    }

    /// Sync the store to stable storage.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.store.flush()
    }
}

/// A retry-worthy failure recorded in a unit's cells (see
/// [`CorpusRun::unit_fault`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitFault {
    /// At least one cell is inconclusive because model evaluation
    /// panicked (contained by the pipeline's per-candidate
    /// `catch_unwind`).
    WorkerPanicked,
    /// At least one cell tripped the relative wall-clock limit.
    TimedOut,
}

/// A streaming corpus session over a [`BatchChecker`]: the caller feeds
/// units one at a time (in any index order, normally ascending) and
/// collects the aggregate [`BatchReport`] at the end. This is what a
/// checkpointing campaign driver runs on — it can flush the store
/// between units, skip quarantined indices (their slots stay `None`),
/// and *re-run* a unit whose first attempt failed partway.
///
/// ## Retry semantics
///
/// `check_unit` is safe to call again with the same index after an
/// error or a contained panic: outcome slots are per-index and simply
/// overwritten, columns that already completed (their verdict reached
/// the store or the dedupe map) replay instead of recomputing, and only
/// the columns that never finished are enumerated again. Session
/// counters (`hits`/`computed`/`deduped`) may double-count across such
/// a retry — they are stderr observability, deliberately excluded from
/// deterministic reports.
///
/// ## Resolve, compute, commit
///
/// `check_unit` is three steps a caller may also run apart:
/// [`CorpusRun::resolve`] and [`CorpusRun::commit`] touch the store and
/// the dedupe map, so they stay with the run; [`UnitChecker::check`] in
/// between is pure, so a pool of workers can compute many units at
/// once. As long as commits come in corpus order, counters, outcomes
/// and the store's bytes equal a sequential run's.
pub struct CorpusRun<'a, 'm, S: VerdictLog = VerdictStore> {
    checker: &'a mut BatchChecker<'m, S>,
    columns: Vec<ColumnReport>,
    seen: Vec<HashMap<u128, usize>>,
    /// Fully-derived per-column key salts (base salt + options), fixed
    /// for the run.
    salts: Vec<String>,
    enumeration_passes: usize,
    candidates_actual: usize,
    corpus_meter: Meter,
    start: Instant,
    units: UnitChecker<'m>,
    /// Bumped by every commit and reset: a plan made at the current
    /// epoch still answers its cells, so commit need not resolve them
    /// again.
    epoch: u64,
}

/// How one column of a unit resolved before any checking.
#[derive(Debug)]
enum Resolved {
    /// The column does not cover the test.
    Masked,
    /// A committed earlier unit shares the key; this is its outcome.
    Deduped(CheckOutcome),
    /// The store holds the verdict.
    Hit(TestResult),
    /// Nothing answers the column yet.
    Missing,
}

/// One unit resolved against the dedupe map and the store, before any
/// checking: the first of [`CorpusRun::check_unit`]'s three steps
/// (resolve, compute, commit). A pool hands the plan to a worker, which
/// computes it with a [`UnitChecker`]; [`CorpusRun::commit`] then takes
/// the plan and the worker's outcome back in corpus order.
#[derive(Debug)]
pub struct UnitPlan {
    keys: Vec<u128>,
    cells: Vec<Resolved>,
    /// The missing columns to check, in column order: all of them
    /// except those whose key another unit already has in flight.
    check: Vec<usize>,
    /// The corpus deadline (or cancellation) had tripped at resolution:
    /// missing columns become inconclusive instead of being checked.
    tripped: Option<BudgetKind>,
    /// The run's epoch when the plan was made.
    epoch: u64,
}

impl UnitPlan {
    /// Whether the plan has columns to compute.
    pub fn needs_check(&self) -> bool {
        !self.check.is_empty()
    }

    /// The keys the plan computes. A pool marks them in flight so a
    /// later isomorph waits for this unit's commit instead of checking
    /// the same key again.
    pub fn checked_keys(&self) -> impl Iterator<Item = u128> + '_ {
        self.check.iter().map(|&c| self.keys[c])
    }

    /// The unit's cells as they stand with `checked` (the outcome of
    /// this plan's check) filled in: what per-unit work sees before
    /// commit. A column waiting on another unit's in-flight key is
    /// `None`. The committed cells equal these unless an earlier unit
    /// changed the resolution in between.
    pub fn cells(&self, checked: Option<&MultiCheckOutcome>) -> Vec<Option<CheckOutcome>> {
        let mut cells: Vec<Option<CheckOutcome>> = self
            .cells
            .iter()
            .map(|r| match r {
                Resolved::Masked => None,
                Resolved::Deduped(o) => Some(o.clone()),
                Resolved::Hit(result) => Some(CheckOutcome::Complete(result.clone())),
                Resolved::Missing => self.tripped.map(tripped_outcome),
            })
            .collect();
        if let Some(outcome) = checked {
            for (k, &c) in self.check.iter().enumerate() {
                cells[c] = Some(column_outcome(outcome, k));
            }
        }
        cells
    }
}

fn tripped_outcome(kind: BudgetKind) -> CheckOutcome {
    CheckOutcome::Inconclusive {
        reason: InconclusiveReason::BudgetExceeded(kind),
        partial: Tally::default(),
    }
}

/// The `k`-th model's outcome in a shared pass.
fn column_outcome(outcome: &MultiCheckOutcome, k: usize) -> CheckOutcome {
    match outcome {
        MultiCheckOutcome::Complete(results) => CheckOutcome::Complete(results[k].clone()),
        MultiCheckOutcome::Inconclusive { reason, partials } => {
            CheckOutcome::Inconclusive { reason: reason.clone(), partial: partials[k] }
        }
    }
}

/// The pure step of a corpus run: one shared enumeration over a plan's
/// missing columns. It holds no store, so a pool of workers can share
/// one while the coordinator keeps the run.
#[derive(Clone)]
pub struct UnitChecker<'m> {
    models: Vec<&'m dyn ConsistencyModel>,
    enum_opts: EnumOptions,
    pipe: PipelineOptions,
}

impl UnitChecker<'_> {
    /// Compute `plan`'s missing columns for `test`; `None` when there
    /// are none.
    pub fn check(&self, plan: &UnitPlan, test: &Test) -> Option<MultiCheckOutcome> {
        plan.needs_check().then(|| self.check_columns(&plan.check, test))
    }

    fn check_columns(&self, cols: &[usize], test: &Test) -> MultiCheckOutcome {
        let models: Vec<&dyn ConsistencyModel> = cols.iter().map(|&c| self.models[c]).collect();
        check_test_multi_governed(&models, test, &self.enum_opts, &self.pipe)
    }
}

impl<'m, S: VerdictLog> CorpusRun<'_, 'm, S> {
    /// The run's compute step, for workers to share.
    pub fn unit_checker(&self) -> &UnitChecker<'m> {
        &self.units
    }

    /// Check corpus member `i` across every column `mask_row` enables
    /// (one slot per column): [`CorpusRun::resolve`], then
    /// [`CorpusRun::commit`] computing inline. Outcome storage grows to
    /// cover `i`.
    ///
    /// # Errors
    ///
    /// Store-append failure only; see the retry semantics above.
    pub fn check_unit(
        &mut self,
        i: usize,
        test: &Test,
        mask_row: &[bool],
    ) -> Result<(), BatchError> {
        let plan = self.resolve(test, mask_row, &HashSet::new());
        self.commit(i, test, plan, None)
    }

    /// Resolve a unit against the dedupe map and the store without
    /// recording anything. Missing columns whose key is in `in_flight`
    /// are left for the unit computing that key. The corpus deadline
    /// is polled here, and only when some column is missing: a unit the
    /// store or the dedupe map answers whole stays answered after the
    /// deadline.
    pub fn resolve(
        &mut self,
        test: &Test,
        mask_row: &[bool],
        in_flight: &HashSet<u128>,
    ) -> UnitPlan {
        let ncols = self.checker.columns.len();
        assert_eq!(mask_row.len(), ncols, "one mask slot per column");
        // One canonicalization serves every column: the columns differ
        // only in the (model, salt) folded into the hash, not in the
        // canonical text, and canonicalizing dominates key derivation —
        // this is what makes a store-warm replay (and a checkpoint
        // resume) cheap.
        let canon = canonical_text(test);
        let keys: Vec<u128> = (0..ncols)
            .map(|c| {
                cache_key_of_text(&canon, self.checker.columns[c].model.name(), &self.salts[c])
            })
            .collect();
        let mut check = Vec::new();
        let cells: Vec<Resolved> = (0..ncols)
            .map(|c| {
                if !mask_row[c] {
                    return Resolved::Masked;
                }
                let resolved = self.resolve_cell(c, keys[c]);
                if matches!(resolved, Resolved::Missing) && !in_flight.contains(&keys[c]) {
                    check.push(c);
                }
                resolved
            })
            .collect();
        let any_missing = cells.iter().any(|r| matches!(r, Resolved::Missing));
        let tripped = if any_missing { self.corpus_meter.poll_now().err() } else { None };
        if tripped.is_some() {
            check.clear();
        }
        UnitPlan { keys, cells, check, tripped, epoch: self.epoch }
    }

    /// Resolve enabled column `c` at `key` against the dedupe map, then
    /// the store.
    fn resolve_cell(&self, c: usize, key: u128) -> Resolved {
        if let Some(&first) = self.seen[c].get(&key) {
            Resolved::Deduped(self.replay(c, first))
        } else if let Some(result) = self.checker.store.get(key) {
            Resolved::Hit(result)
        } else {
            Resolved::Missing
        }
    }

    /// Record unit `i` from its `plan` and `checked`, the outcome of
    /// computing the plan (`None` to compute inline). Commits must come
    /// in corpus order, because this step decides provenance: if
    /// anything was committed since `plan` was made, each column is
    /// resolved again, so a key an earlier unit committed in between
    /// replays as deduped (or a store hit) and `checked`'s answer for
    /// it is dropped. `checked` serves only if it answers exactly the
    /// columns still missing; otherwise they are checked inline, as a
    /// sequential run would. Completed verdicts are appended to the
    /// store.
    ///
    /// # Errors
    ///
    /// Store-append failure only; see the retry semantics above.
    pub fn commit(
        &mut self,
        i: usize,
        test: &Test,
        plan: UnitPlan,
        checked: Option<MultiCheckOutcome>,
    ) -> Result<(), BatchError> {
        for col in &mut self.columns {
            if col.outcomes.len() <= i {
                col.outcomes.resize(i + 1, None);
            }
        }
        let UnitPlan { keys, cells, check, tripped, epoch } = plan;
        let fresh = epoch == self.epoch;
        self.epoch += 1;
        let mut missing: Vec<usize> = Vec::new();
        for (c, resolved) in cells.into_iter().enumerate() {
            let key = keys[c];
            // Nothing committed since the plan: its answers stand.
            let resolved = match resolved {
                resolved if fresh => resolved,
                Resolved::Masked => Resolved::Masked,
                Resolved::Hit(result) if !self.seen[c].contains_key(&key) => Resolved::Hit(result),
                _ => self.resolve_cell(c, key),
            };
            let (outcome, provenance) = match resolved {
                Resolved::Masked => continue,
                Resolved::Deduped(outcome) => {
                    self.columns[c].deduped += 1;
                    (outcome, Provenance::Deduped)
                }
                Resolved::Hit(result) => {
                    self.columns[c].hits += 1;
                    self.checker.session_hits += 1;
                    self.seen[c].insert(key, i);
                    (CheckOutcome::Complete(result), Provenance::Hit)
                }
                Resolved::Missing => {
                    missing.push(c);
                    continue;
                }
            };
            self.columns[c].outcomes[i] =
                Some(BatchOutcome { name: test.name.clone(), key, outcome, provenance });
        }
        if missing.is_empty() {
            return Ok(());
        }
        if let Some(kind) = tripped {
            for &c in &missing {
                self.columns[c].inconclusive += 1;
                self.checker.session_inconclusive += 1;
                self.columns[c].outcomes[i] = Some(BatchOutcome {
                    name: test.name.clone(),
                    key: keys[c],
                    outcome: tripped_outcome(kind),
                    provenance: Provenance::Computed,
                });
            }
            return Ok(());
        }
        let outcome = match checked {
            Some(outcome) if missing == check => outcome,
            _ => self.units.check_columns(&missing, test),
        };
        self.enumeration_passes += 1;
        match outcome {
            MultiCheckOutcome::Complete(results) => {
                let mut counted = false;
                for (&c, result) in missing.iter().zip(results) {
                    if !counted {
                        self.candidates_actual += result.candidates;
                        counted = true;
                    }
                    let key = keys[c];
                    self.checker.store.put(key, result.clone())?;
                    self.columns[c].computed += 1;
                    self.checker.session_computed += 1;
                    self.columns[c].candidates_enumerated += result.candidates;
                    self.seen[c].insert(key, i);
                    self.columns[c].outcomes[i] = Some(BatchOutcome {
                        name: test.name.clone(),
                        key,
                        outcome: CheckOutcome::Complete(result),
                        provenance: Provenance::Computed,
                    });
                }
            }
            MultiCheckOutcome::Inconclusive { reason, partials } => {
                let mut counted = false;
                for (&c, partial) in missing.iter().zip(partials) {
                    if !counted {
                        self.candidates_actual += partial.candidates;
                        counted = true;
                    }
                    self.columns[c].inconclusive += 1;
                    self.checker.session_inconclusive += 1;
                    self.columns[c].candidates_enumerated += partial.candidates;
                    // Inconclusive outcomes join neither the store
                    // nor the dedupe map: a later isomorph deserves
                    // its own attempt.
                    self.columns[c].outcomes[i] = Some(BatchOutcome {
                        name: test.name.clone(),
                        key: keys[c],
                        outcome: CheckOutcome::Inconclusive { reason: reason.clone(), partial },
                        provenance: Provenance::Computed,
                    });
                }
            }
        }
        Ok(())
    }

    /// Column `c`'s committed outcome at unit `first`, for a dedupe.
    fn replay(&self, c: usize, first: usize) -> CheckOutcome {
        self.columns[c].outcomes[first]
            .as_ref()
            .expect("dedupe map only indexes filled slots")
            .outcome
            .clone()
    }

    /// Clear every outcome recorded for unit `i` (slots revert to `None`)
    /// and drop dedupe-map entries that point at it, so later isomorphs
    /// resolve through the store instead of replaying a wiped slot. A
    /// supervising driver calls this before retrying a failed unit and
    /// before quarantining one — verdicts that already reached the store
    /// stay there (they are content-addressed and valid regardless of
    /// which attempt produced them) and replay as hits on the retry.
    pub fn reset_unit(&mut self, i: usize) {
        self.epoch += 1;
        for (c, col) in self.columns.iter_mut().enumerate() {
            if col.outcomes.len() > i {
                col.outcomes[i] = None;
            }
            self.seen[c].retain(|_, &mut first| first != i);
        }
    }

    /// Clone unit `i`'s outcome cells, one per column (`None` for
    /// masked or unvisited slots) — what a streaming driver feeds its
    /// per-row oracles the moment the unit completes, instead of
    /// waiting for the whole corpus.
    pub fn row_cells(&self, i: usize) -> Vec<Option<CheckOutcome>> {
        self.columns
            .iter()
            .map(|col| col.outcomes.get(i).and_then(Option::as_ref).map(|o| o.outcome.clone()))
            .collect()
    }

    /// Whether unit `i`'s recorded cells carry a failure a retry could
    /// plausibly repair: a contained worker panic, or a relative
    /// wall-clock trip (the caller decides whether its budget makes
    /// `TimedOut` retry-worthy — an absolute corpus deadline does not).
    /// Deterministic fuel trips (candidates, eval steps) are *not*
    /// faults: re-running them reproduces the same inconclusive cell.
    pub fn unit_fault(&self, i: usize) -> Option<UnitFault> {
        let mut fault = None;
        for col in &self.columns {
            let Some(Some(o)) = col.outcomes.get(i) else { continue };
            match &o.outcome {
                CheckOutcome::Inconclusive {
                    reason: InconclusiveReason::WorkerPanicked, ..
                } => return Some(UnitFault::WorkerPanicked),
                CheckOutcome::Inconclusive {
                    reason: InconclusiveReason::BudgetExceeded(BudgetKind::WallClock),
                    ..
                } => fault = Some(UnitFault::TimedOut),
                _ => {}
            }
        }
        fault
    }

    /// Sync the store mid-run — what a checkpointing driver calls before
    /// recording progress, so the checkpoint never claims verdicts that
    /// aren't durable.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.checker.store.flush()
    }

    /// Close the session: pad every column to `total_units` slots
    /// (unvisited indices stay `None`) and return the aggregate report.
    /// The store is not synced here; call [`CorpusRun::flush`] first.
    pub fn finish(mut self, total_units: usize) -> BatchReport {
        for col in &mut self.columns {
            if col.outcomes.len() < total_units {
                col.outcomes.resize(total_units, None);
            }
        }
        BatchReport {
            columns: self.columns,
            enumeration_passes: self.enumeration_passes,
            candidates_actual: self.candidates_actual,
            micros: self.start.elapsed().as_micros(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::model::AllowAll;
    use lkmm_exec::Verdict;
    use lkmm_litmus::parse;

    fn corpus(n: usize) -> Vec<Test> {
        lkmm_litmus::library::all().iter().take(n).map(|pt| pt.test()).collect()
    }

    fn full_mask(ncols: usize, ntests: usize) -> Vec<Vec<bool>> {
        vec![vec![true; ntests]; ncols]
    }

    fn column<'m>(model: &'m dyn ConsistencyModel, salt: &str) -> Column<'m> {
        Column { model, salt: salt.into() }
    }

    #[test]
    fn second_corpus_pass_is_all_hits_with_zero_enumerations() {
        let tests = corpus(6);
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "test-salt");
        let cold = checker.check_corpus(&tests).unwrap().columns.remove(0);
        assert_eq!(cold.computed, tests.len());
        assert!(cold.candidates_enumerated > 0);

        let warm = checker.check_corpus(&tests).unwrap().columns.remove(0);
        assert_eq!(warm.hits, tests.len());
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.candidates_enumerated, 0);
        for (c, w) in cold.outcomes.iter().flatten().zip(warm.outcomes.iter().flatten()) {
            assert_eq!(c.result(), w.result());
            assert!(c.result().is_some());
            assert_eq!(c.key, w.key);
        }
    }

    #[test]
    fn isomorphic_corpus_members_dedupe() {
        let a = parse("C a\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let b = parse("C b\n{ y=0; }\nP0(int *y) { WRITE_ONCE(*y, 1); }\nexists (y=1)").unwrap();
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s");
        let report = checker.check_corpus(&[a, b]).unwrap().columns.remove(0);
        assert_eq!(report.computed, 1);
        assert_eq!(report.deduped, 1);
        let (first, second) = (report.outcomes[0].as_ref(), report.outcomes[1].as_ref());
        assert_eq!(first.unwrap().result(), second.unwrap().result());
        assert_eq!(second.unwrap().provenance, Provenance::Deduped);
    }

    #[test]
    fn family_ingestion_runs_through_the_cache() {
        use lkmm_generator::family::family_tests;
        use lkmm_generator::{Edge, Extremity::{R, W}, InternalKind};
        let mp = [
            Edge::internal(InternalKind::Po, W, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Po, R, R),
            Edge::Fre,
        ];
        let family = family_tests(&mp).unwrap();
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s");
        let cold = checker.check_corpus(&family).unwrap().columns.remove(0);
        assert_eq!(cold.outcomes.len(), 35);
        let warm = checker.check_corpus(&family).unwrap().columns.remove(0);
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.hits + warm.deduped, 35);
    }

    #[test]
    fn different_salts_do_not_share_entries() {
        let t = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let mut one = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "v1");
        let key_v1 = one.key_of(0, &t);
        let mut two = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "v2");
        assert_ne!(key_v1, two.key_of(0, &t));
        let _ = (one.check_one(&t).unwrap(), two.check_one(&t).unwrap());
    }

    #[test]
    fn warm_naive_store_replays_byte_identically_under_pruned_enumeration() {
        // A store populated before the consistency-driven enumerator
        // landed (equivalently: by the naive ablation strategy) must be
        // pure hits for the pruned default — same keys, same outcomes,
        // and not a byte appended to the backing file.
        use lkmm_exec::{EnumOptions, EnumStrategy};
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("lkmm-batch-warm-replay-{}.bin", std::process::id()));
            let _ = std::fs::remove_file(&p);
            p
        };
        let tests = corpus(8);

        let mut naive = BatchChecker::new(&AllowAll, VerdictStore::open(&path).unwrap(), "s")
            .with_options(EnumOptions { strategy: EnumStrategy::Naive, ..Default::default() });
        let naive_keys: Vec<u128> = tests.iter().map(|t| naive.key_of(0, t)).collect();
        let cold = naive.check_corpus(&tests).unwrap().columns.remove(0);
        assert!(cold.computed > 0);
        drop(naive);
        let bytes_cold = std::fs::read(&path).unwrap();

        let mut pruned = BatchChecker::new(&AllowAll, VerdictStore::open(&path).unwrap(), "s");
        let pruned_keys: Vec<u128> = tests.iter().map(|t| pruned.key_of(0, t)).collect();
        assert_eq!(naive_keys, pruned_keys, "strategy must not perturb cache keys");
        let warm = pruned.check_corpus(&tests).unwrap().columns.remove(0);
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.candidates_enumerated, 0);
        assert_eq!(warm.hits + warm.deduped, tests.len());
        for (c, w) in cold.outcomes.iter().flatten().zip(warm.outcomes.iter().flatten()) {
            assert_eq!(c.key, w.key);
            assert_eq!(c.result(), w.result());
        }
        drop(pruned);
        let bytes_warm = std::fs::read(&path).unwrap();
        assert_eq!(bytes_cold, bytes_warm, "warm replay must not rewrite the store");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_is_not_part_of_the_cache_key() {
        let t = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let plain = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s");
        let tight = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s")
            .with_budget(Budget::default().with_max_candidates(1));
        assert_eq!(plain.key_of(0, &t), tight.key_of(0, &t));
    }

    #[test]
    fn inconclusive_is_not_cached_and_retries_recompute() {
        let t = lkmm_litmus::library::by_name("SB").unwrap().test();
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s")
            .with_budget(Budget::default().with_max_candidates(1));
        let starved = checker.check_one(&t).unwrap();
        assert!(starved.result().is_none(), "1 candidate cannot finish SB");
        assert_eq!(checker.session_inconclusive(), 1);
        assert_eq!(checker.store().len(), 0, "inconclusive must not be stored");

        checker.set_budget(Budget::unlimited());
        let full = checker.check_one(&t).unwrap();
        assert_eq!(full.provenance, Provenance::Computed);
        let result = full.result().expect("unlimited budget completes").clone();
        assert_eq!(checker.store().len(), 1);

        // And now it hits.
        let hit = checker.check_one(&t).unwrap();
        assert_eq!(hit.provenance, Provenance::Hit);
        assert_eq!(hit.result(), Some(&result));
    }

    #[test]
    fn multi_keys_match_dedicated_batch_checkers() {
        let tests = corpus(4);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let multi = BatchChecker::new_multi(
            vec![column(&sc, "v1|col:sc"), column(&tso, "v1|col:tso")],
            VerdictStore::in_memory(),
        );
        let single_sc = BatchChecker::new(&sc, VerdictStore::in_memory(), "v1|col:sc");
        let single_tso = BatchChecker::new(&tso, VerdictStore::in_memory(), "v1|col:tso");
        for t in &tests {
            assert_eq!(multi.key_of(0, t), single_sc.key_of(0, t));
            assert_eq!(multi.key_of(1, t), single_tso.key_of(0, t));
        }
    }

    #[test]
    fn one_enumeration_serves_every_cold_column() {
        let tests = corpus(5);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let armv8 = lkmm_models::Armv8;
        let mut multi = BatchChecker::new_multi(
            vec![column(&sc, "s|col:sc"), column(&tso, "s|col:tso"), column(&armv8, "s|col:armv8")],
            VerdictStore::in_memory(),
        );
        let cold = multi.check_corpus(&tests).unwrap();
        assert_eq!(cold.enumeration_passes, tests.len());
        // Per-column counters still report the full per-verdict cost…
        let per_column: usize = cold.columns[0].candidates_enumerated;
        assert!(per_column > 0);
        assert_eq!(cold.columns[1].candidates_enumerated, per_column);
        // …while the shared pass only paid once.
        assert_eq!(cold.candidates_actual, per_column);

        // Warm re-run: all hits, nothing enumerated.
        let warm = multi.check_corpus(&tests).unwrap();
        assert_eq!(warm.enumeration_passes, 0);
        assert_eq!(warm.candidates_actual, 0);
        for (c, w) in cold.columns.iter().zip(&warm.columns) {
            assert_eq!(w.hits, tests.len());
            assert_eq!(w.computed, 0);
            for (co, wo) in c.outcomes.iter().zip(&w.outcomes) {
                assert_eq!(
                    co.as_ref().unwrap().outcome.result(),
                    wo.as_ref().unwrap().outcome.result()
                );
            }
        }
    }

    #[test]
    fn verdicts_match_sequential_single_model_passes() {
        let tests = corpus(6);
        let sc = lkmm_models::Sc;
        let c11 = lkmm_models::OriginalC11;
        let mut multi = BatchChecker::new_multi(
            vec![column(&sc, "q|col:sc"), column(&c11, "q|col:c11")],
            VerdictStore::in_memory(),
        );
        let report = multi.check_corpus(&tests).unwrap();
        for (c, (model, salt)) in
            [(&sc as &dyn ConsistencyModel, "q|col:sc"), (&c11, "q|col:c11")]
                .into_iter()
                .enumerate()
        {
            let mut single = BatchChecker::new(model, VerdictStore::in_memory(), salt);
            let seq = single.check_corpus(&tests).unwrap().columns.remove(0);
            for (m, s) in report.columns[c].outcomes.iter().zip(&seq.outcomes) {
                let (m, s) = (m.as_ref().unwrap(), s.as_ref().unwrap());
                assert_eq!(m.key, s.key);
                assert_eq!(m.outcome.result(), s.outcome.result());
                assert_eq!(m.provenance, s.provenance);
            }
        }
    }

    #[test]
    fn masked_cells_stay_none_and_cost_nothing() {
        let tests = corpus(3);
        let sc = lkmm_models::Sc;
        let mut multi = BatchChecker::new_multi(
            vec![column(&sc, "m|col:a"), column(&AllowAll, "m|col:b")],
            VerdictStore::in_memory(),
        );
        let mask = vec![vec![true, true, true], vec![true, false, false]];
        let report = multi.check_corpus_masked(&tests, &mask).unwrap();
        assert!(report.columns[1].outcomes[1].is_none());
        assert!(report.columns[1].outcomes[2].is_none());
        assert_eq!(report.columns[1].computed + report.columns[1].hits, 1);
        assert!(report.columns[0].outcomes.iter().all(Option::is_some));
    }

    #[test]
    fn partial_warmth_enumerates_only_for_the_cold_column() {
        let tests = corpus(4);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let mut multi = BatchChecker::new_multi(
            vec![column(&sc, "p|col:sc"), column(&tso, "p|col:tso")],
            VerdictStore::in_memory(),
        );
        // Warm the SC column alone by masking TSO out entirely.
        let sc_only = vec![vec![true; tests.len()], vec![false; tests.len()]];
        let first = multi.check_corpus_masked(&tests, &sc_only).unwrap();
        assert_eq!(first.enumeration_passes, tests.len());
        // With both columns on, SC replays and the still-cold TSO column
        // drives one fresh pass per test.
        let second = multi.check_corpus_masked(&tests, &full_mask(2, tests.len())).unwrap();
        assert_eq!(second.columns[0].hits, tests.len(), "sc column replays");
        assert_eq!(second.columns[1].computed, tests.len(), "tso column computes");
        assert_eq!(second.enumeration_passes, tests.len(), "one pass per cold test");
        for o in second.columns[1].outcomes.iter().flatten() {
            assert!(matches!(
                o.outcome.result().map(|r| r.verdict),
                Some(Verdict::Allowed | Verdict::Forbidden)
            ));
        }
    }

    /// The pool's protocol — resolve a window of units, leaving keys in
    /// flight to the unit computing them, compute the units out of
    /// order, commit in corpus order — reproduces a sequential run
    /// exactly, with isomorphs in flight together.
    #[test]
    fn ordered_commit_matches_a_sequential_run_with_isomorphs_in_flight() {
        let tests = corpus(2);
        let twin = |t: &Test| Test { name: format!("{}-twin", t.name), ..t.clone() };
        let units: Vec<(Test, [bool; 2])> = vec![
            (tests[0].clone(), [true, false]),
            (twin(&tests[0]), [true, true]),
            (tests[1].clone(), [true, true]),
            (tests[0].clone(), [true, true]),
            (twin(&tests[1]), [false, true]),
        ];
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let checker = || {
            BatchChecker::new_multi(
                vec![column(&sc, "o|col:sc"), column(&tso, "o|col:tso")],
                VerdictStore::in_memory(),
            )
        };
        let mut seq = checker();
        let mut run = seq.begin_corpus();
        for (i, (t, mask)) in units.iter().enumerate() {
            run.check_unit(i, t, mask).unwrap();
        }
        let want = run.finish(units.len());
        assert!(want.columns[0].deduped > 0, "the corpus has isomorphs");

        let mut par = checker();
        let mut run = par.begin_corpus();
        let mut in_flight = HashSet::new();
        let plans: Vec<UnitPlan> = units
            .iter()
            .map(|(t, mask)| {
                let plan = run.resolve(t, mask, &in_flight);
                in_flight.extend(plan.checked_keys());
                plan
            })
            .collect();
        let units_checker = run.unit_checker().clone();
        // Compute back to front, as a slow first unit would let them
        // finish; commit front to back.
        let mut checked: Vec<_> = plans
            .iter()
            .zip(&units)
            .rev()
            .map(|(p, (t, _))| units_checker.check(p, t))
            .collect();
        checked.reverse();
        for (i, (plan, checked)) in plans.into_iter().zip(checked).enumerate() {
            run.commit(i, &units[i].0, plan, checked).unwrap();
        }
        let got = run.finish(units.len());
        for (w, g) in want.columns.iter().zip(&got.columns) {
            assert_eq!(
                (w.hits, w.computed, w.deduped, w.inconclusive, w.candidates_enumerated),
                (g.hits, g.computed, g.deduped, g.inconclusive, g.candidates_enumerated),
            );
            for (wo, go) in w.outcomes.iter().zip(&g.outcomes) {
                let (wo, go) = (wo.as_ref(), go.as_ref());
                let key = |o: Option<&BatchOutcome>| o.map(|o| (o.key, o.provenance));
                assert_eq!(key(wo), key(go));
                assert_eq!(wo.map(|o| &o.outcome), go.map(|o| &o.outcome));
            }
        }
        assert_eq!(par.store().len(), seq.store().len());
    }

    #[test]
    fn budget_trip_marks_every_missing_column_inconclusive() {
        let tests = corpus(2);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let mut multi = BatchChecker::new_multi(
            vec![column(&sc, "b|col:sc"), column(&tso, "b|col:tso")],
            VerdictStore::in_memory(),
        )
        .with_budget(Budget::default().with_max_candidates(1));
        let report = multi.check_corpus(&tests).unwrap();
        for col in &report.columns {
            assert_eq!(col.inconclusive, tests.len());
            assert_eq!(col.computed, 0);
        }
        assert_eq!(multi.store().len(), 0, "inconclusive is never stored");
    }
}
