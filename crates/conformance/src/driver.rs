//! The supervised campaign driver: lazy work units, a unit worker pool
//! committed in corpus order, incremental per-row oracles,
//! retry/backoff, quarantine, and checkpoint/resume.
//!
//! [`drive_campaign`] is the crash-survivable replacement for driving
//! [`crate::matrix::build_matrix`] over a pre-built corpus. The driver
//! *streams* work units from the lazy [`CorpusStream`] through the
//! streaming [`CorpusRun`] API, and — the load-bearing difference from a
//! batch build — folds the row-level checks (matrix oracles,
//! simulator soundness) into running aggregates ([`CampaignCore`]) as
//! each unit commits. No full verdict matrix is ever materialised.
//!
//! **Coordinator, workers, commit.** The calling thread is a
//! coordinator over `jobs` unit workers (none at `jobs = 1`). It keeps
//! everything that depends on order or touches the store: it generates
//! the next unit, canonicalises and keys it, resolves it against the
//! dedupe map and the store ([`CorpusRun::resolve`]), and polls the
//! corpus deadline before dispatch. Workers do the pure per-unit work:
//! the shared enumeration over the columns that missed, each check's
//! pipeline inline so threads never exceed `jobs`, then the row's
//! seeded simulator pass into a per-unit delta. The
//! coordinator commits units strictly in corpus order through a reorder
//! window of a few units per worker: store appends, dedupe inserts,
//! column counters, row checks, the delta, checkpoint frames and
//! `stop_after`. Commit decides provenance — a unit whose key
//! an earlier unit committed replays it as deduped and its own result
//! is dropped; a key already in flight is left to the unit computing it
//! — so counters, report and store bytes equal the `jobs = 1` loop's
//! exactly. A unit with nothing to compute and no per-unit work commits
//! without a worker, and the workers spawn when the first unit needs
//! one; at `jobs = 1` no unit does, so each commits as soon as it is
//! planned and no thread is spawned. That buys three things a
//! monolithic batch call cannot offer:
//!
//! * **Checkpoint.** Every `checkpoint_every` units the driver flushes
//!   the verdict store and appends a framed manifest (see
//!   [`crate::checkpoint`]) recording the corpus cursor (the committed
//!   prefix; units in flight past it are dropped on suspend) — and, when
//!   the prefix is discrepancy-free, the aggregates themselves
//!   ([`crate::checkpoint::PrefixStats`]). Killing the process at
//!   *any* point — mid-unit, mid-append, mid-checkpoint — loses at
//!   most the units since the last frame.
//! * **Supervise.** Each unit runs under a retry loop: a driver-level
//!   panic, a transient store I/O error, a contained worker panic, or
//!   (when the budget has a relative time limit) a wall-clock trip is
//!   retried with bounded exponential backoff and deterministic seeded
//!   jitter. A worker's computation serves the first attempt; retries
//!   run inline on the coordinator. The driver's own fault points are
//!   polled there in commit order, so they land on the same unit at any
//!   job count; the checker's (`worker.panic`, `enum.budget`, the
//!   `misjudge` sites) fire on workers in completion order, so an
//!   nth-hit trigger on them is job-count invariant only at `jobs = 1`.
//!   A unit that fails every attempt is *quarantined*: its
//!   row stays all-`None` (the oracles skip it), it is recorded as a
//!   typed [`FailedUnit`], and the campaign completes degraded
//!   instead of dying. Deterministic fuel trips (candidate or
//!   eval-step budgets) are **not** faults — retrying them reproduces
//!   the same inconclusive cell, so they stay inconclusive cells.
//! * **Resume.** With a valid checkpoint whose config fingerprint
//!   matches, a clean-prefix campaign resumes as *arithmetic*: the
//!   aggregates restart from the frame's [`PrefixStats`], the corpus
//!   stream seeks past the prefix without generating its tests, and
//!   only the tail is checked — resume cost is proportional to the
//!   *remaining* work, not the corpus. A prefix with discrepancies
//!   has no aggregates in its frames (their full structure is needed
//!   for shrinking); resume then replays every unit through the warm
//!   store, which skips enumeration but re-derives the rows. Either
//!   way the final report is byte-identical to an uninterrupted
//!   run's. A mismatched fingerprint is refused — resuming under a
//!   different config would silently mix two campaigns.
//!
//! Fault points: `campaign.kill` aborts the process at a unit's commit
//! (a simulated SIGKILL for crash tests); `worker.transient` injects a
//! transient I/O failure into the supervisor's attempt path;
//! `ckpt.torn` (in [`crate::checkpoint`]) tears a checkpoint frame.

use crate::campaign::{sim_check_row, CampaignError, CorpusStream, SimConfig};
use crate::checkpoint::{self, Checkpoint, CheckpointLog, FailedUnit, FailureKind, PrefixStats};
use crate::matrix::{CorpusEntry, MatrixOptions, MatrixRow, ModelId, ModelPass, ModelSet, Origin};
use crate::oracle::{check_row, Discrepancy, OracleKind, OracleSummary};
use lkmm_core::faultpoint;
use lkmm_exec::{effective_jobs, CheckOutcome, EnumOptions, MultiCheckOutcome, Verdict};
use lkmm_litmus::ast::Test;
use lkmm_service::{
    BatchChecker, Column, CorpusRun, StoreError, UnitChecker, UnitFault, UnitPlan, VerdictStore,
};
use lkmm_sim::rng::SplitMix64;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

/// Crash-survival knobs for one campaign.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Checkpoint file; `None` disables checkpointing (and resume).
    pub checkpoint: Option<PathBuf>,
    /// Units between checkpoint frames.
    pub checkpoint_every: usize,
    /// Retries per unit after its first failed attempt; a unit failing
    /// `max_retries + 1` attempts is quarantined.
    pub max_retries: u32,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
    /// First-retry backoff in milliseconds (doubled per retry, plus
    /// seeded jitter in `[0, delay/2]`). `0` disables sleeping — what
    /// tests use so injected fault storms retry instantly.
    pub retry_base_ms: u64,
    /// Resume from `checkpoint` if it holds a valid manifest for this
    /// config; a missing or empty checkpoint file starts fresh.
    pub resume: bool,
    /// Stop cleanly after this many units *this invocation* (flush +
    /// final checkpoint frame, then [`CampaignError::Suspended`]).
    /// The deterministic suspend the resume bench and tests build on.
    pub stop_after: Option<usize>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint: None,
            checkpoint_every: 64,
            max_retries: 2,
            retry_seed: 7,
            retry_base_ms: 25,
            resume: false,
            stop_after: None,
        }
    }
}

/// Driver observability: everything about *how* the matrix was built
/// that must stay out of the deterministic report JSON, plus the
/// quarantine list (which does go in — a degraded report says so).
#[derive(Clone, Debug, Default)]
pub struct DriveOutcome {
    /// Quarantined units, in corpus order.
    pub failed_units: Vec<FailedUnit>,
    /// `Some(cursor)` when a checkpoint was resumed from.
    pub resumed_at: Option<usize>,
    /// Checkpoint frames appended this invocation.
    pub checkpoints_written: usize,
}

/// Deterministic backoff for retry `attempt` (1-based) of `unit`:
/// exponential in the attempt, jittered by a [`SplitMix64`] stream
/// keyed on `(seed, unit, attempt)` — two runs of the same campaign
/// back off identically, but colliding units spread out.
pub fn backoff_delay(res: &ResilienceConfig, unit: usize, attempt: u32) -> Duration {
    if res.retry_base_ms == 0 {
        return Duration::ZERO;
    }
    let shift = attempt.saturating_sub(1).min(6);
    let base = res.retry_base_ms.saturating_mul(1u64 << shift);
    let mut rng = SplitMix64::seed_from_u64(
        res.retry_seed
            ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let jitter = rng.gen_index((base / 2 + 1) as usize) as u64;
    Duration::from_millis(base + jitter)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A unit's plan and a worker's computation of it (`Err` carries the
/// worker's panic), handed to the supervisor at commit.
type Prepared = (UnitPlan, Result<Option<MultiCheckOutcome>, String>);

/// One attempt at one unit. `None` is success (including deterministic
/// inconclusive cells); `Some` classifies the failure. The prepared
/// computation serves the first attempt that gets past the fault point;
/// every later attempt resolves and checks inline, as `--jobs 1` does.
fn attempt_unit(
    run: &mut CorpusRun<'_, '_>,
    i: usize,
    test: &Test,
    mask_row: &[bool],
    prepared: &mut Option<Prepared>,
    retry_timeouts: bool,
) -> Option<(FailureKind, String)> {
    if let Err(e) = faultpoint::inject_io("worker.transient") {
        return Some((FailureKind::TransientIo, e.to_string()));
    }
    let attempt = match prepared.take() {
        Some((_, Err(panic))) => return Some((FailureKind::Panic, panic)),
        Some((plan, Ok(checked))) => {
            catch_unwind(AssertUnwindSafe(|| run.commit(i, test, plan, checked)))
        }
        None => catch_unwind(AssertUnwindSafe(|| run.check_unit(i, test, mask_row))),
    };
    match attempt {
        Err(payload) => Some((FailureKind::Panic, panic_text(payload.as_ref()))),
        Ok(Err(e)) => Some((FailureKind::TransientIo, e.to_string())),
        Ok(Ok(())) => match run.unit_fault(i) {
            Some(UnitFault::WorkerPanicked) => Some((
                FailureKind::Panic,
                "model evaluation panicked (contained by the pipeline)".to_string(),
            )),
            Some(UnitFault::TimedOut) if retry_timeouts => Some((
                FailureKind::Deadline,
                "relative wall-clock limit tripped".to_string(),
            )),
            _ => None,
        },
    }
}

/// Run one unit under the retry supervisor. Returns the quarantine
/// record if every attempt failed; the unit's slots are reset either
/// way before a retry or quarantine, so partial attempts never leak
/// into the matrix (verdicts that reached the store stay — they are
/// content-addressed and replay as hits on the retry).
fn supervise_unit(
    run: &mut CorpusRun<'_, '_>,
    i: usize,
    test: &Test,
    mask_row: &[bool],
    mut prepared: Option<Prepared>,
    res: &ResilienceConfig,
    retry_timeouts: bool,
) -> Option<FailedUnit> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match attempt_unit(run, i, test, mask_row, &mut prepared, retry_timeouts) {
            None => return None,
            Some((kind, detail)) => {
                run.reset_unit(i);
                if attempt > res.max_retries {
                    return Some(FailedUnit {
                        index: i,
                        test: test.name.clone(),
                        kind,
                        attempts: attempt,
                        detail,
                    });
                }
                let delay = backoff_delay(res, i, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

/// What one unit's simulator pass adds to the campaign: the per-unit
/// part of its row checks, which a worker may run before the unit
/// commits and the coordinator folds in corpus order.
pub(crate) struct RowDelta {
    /// Violations, in the order found.
    pub(crate) discrepancies: Vec<Discrepancy>,
    /// Per-oracle counts to add, in [`OracleKind::ALL`] order.
    pub(crate) summaries: Vec<OracleSummary>,
}

impl RowDelta {
    fn new() -> RowDelta {
        RowDelta {
            discrepancies: Vec::new(),
            summaries: vec![OracleSummary::default(); OracleKind::ALL.len()],
        }
    }
}

/// A unit on its way from the corpus stream to commit.
struct Unit {
    i: usize,
    entry: CorpusEntry,
    mask: Vec<bool>,
    /// `None` when the unit stays quarantined from a resumed campaign,
    /// or when resolving it panicked (the supervisor retries it inline).
    plan: Option<UnitPlan>,
    /// A worker's computation of `plan`.
    checked: Option<Result<Option<MultiCheckOutcome>, String>>,
    /// A worker's per-unit checks, with the cells they saw.
    delta: Option<(Vec<Option<CheckOutcome>>, RowDelta)>,
}

/// A worker's share of a unit: compute its plan, then run the per-unit
/// checks on the cells that leaves. Every job comes back: a panic in
/// the computation becomes a failed attempt at commit, and a panic in
/// the checks leaves no delta, so commit runs them again inline.
fn work(checker: &UnitChecker<'_>, sim: &SimConfig, mut u: Unit) -> Unit {
    let Some(plan) = &u.plan else { return u };
    let (i, test) = (u.i, &u.entry.test);
    let mut delta = None;
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let outcome = checker.check(plan, test);
        let cells = plan.cells(outcome.as_ref());
        let mut row = RowDelta::new();
        if catch_unwind(AssertUnwindSafe(|| sim_check_row(sim, i, &cells, test, &mut row))).is_ok()
        {
            delta = Some((cells, row));
        }
        outcome
    }))
    .map_err(|payload| panic_text(payload.as_ref()));
    u.checked = Some(checked);
    u.delta = delta;
    u
}

/// The campaign's deterministic substance, accumulated row by row —
/// exactly what the report JSON is rendered from. Rows are folded in
/// corpus order, so these sums are identical whether a campaign ran
/// uninterrupted or restarted from a [`PrefixStats`] frame.
#[derive(Clone, Debug)]
pub struct CampaignCore {
    /// Library rows accounted so far.
    pub corpus_library: usize,
    /// Generated rows accounted so far.
    pub corpus_generated: usize,
    /// Per-column counts, in [`ModelId::ALL`] order. The deterministic
    /// fields accumulate per row; the observability counters (hits,
    /// computed, deduped, candidates) are grafted on from the
    /// [`CorpusRun`] when it finishes and cover this process only.
    pub passes: Vec<ModelPass>,
    /// Per-oracle summaries, in [`OracleKind::ALL`] order.
    pub summaries: Vec<OracleSummary>,
    /// Oracle violations so far, in row order.
    pub discrepancies: Vec<Discrepancy>,
}

impl CampaignCore {
    fn empty() -> CampaignCore {
        CampaignCore {
            corpus_library: 0,
            corpus_generated: 0,
            passes: vec![ModelPass::default(); ModelId::ALL.len()],
            summaries: vec![OracleSummary::default(); OracleKind::ALL.len()],
            discrepancies: Vec::new(),
        }
    }

    /// Fold one completed row into the per-column counts.
    fn account_row(&mut self, row: &MatrixRow) {
        match row.origin {
            Origin::Library { .. } => self.corpus_library += 1,
            _ => self.corpus_generated += 1,
        }
        for (pass, cell) in self.passes.iter_mut().zip(&row.cells) {
            let Some(outcome) = cell else {
                pass.skipped += 1;
                continue;
            };
            pass.checked += 1;
            match outcome {
                CheckOutcome::Complete(result) => match result.verdict {
                    Verdict::Allowed => pass.allowed += 1,
                    Verdict::Forbidden => pass.forbidden += 1,
                },
                CheckOutcome::Inconclusive { .. } => pass.inconclusive += 1,
            }
        }
    }

    /// Fold one unit's per-unit checks into the sums.
    fn fold(&mut self, delta: RowDelta) {
        self.discrepancies.extend(delta.discrepancies);
        for (sum, add) in self.summaries.iter_mut().zip(&delta.summaries) {
            sum.checked += add.checked;
            sum.violations += add.violations;
            sum.skipped += add.skipped;
        }
    }

    /// The aggregates as a checkpointable prefix — `None` once any
    /// discrepancy exists (its AST would have to travel too; resume
    /// replays instead).
    fn prefix_stats(&self) -> Option<PrefixStats> {
        if !self.discrepancies.is_empty() {
            return None;
        }
        Some(PrefixStats {
            corpus_library: self.corpus_library,
            corpus_generated: self.corpus_generated,
            passes: self
                .passes
                .iter()
                .map(|p| ModelPass {
                    checked: p.checked,
                    allowed: p.allowed,
                    forbidden: p.forbidden,
                    inconclusive: p.inconclusive,
                    skipped: p.skipped,
                    ..ModelPass::default()
                })
                .collect(),
            oracles: self.summaries.clone(),
        })
    }

    /// Checkpoint watermarks: per-column checked-cell counts.
    fn watermarks(&self) -> Vec<usize> {
        self.passes.iter().map(|p| p.checked).collect()
    }
}

/// Units in flight per unit worker. The reorder window holds this many
/// times the worker count: enough for the other workers to keep going
/// behind a slow unit at the window's front, few enough to bound memory.
const WINDOW_PER_WORKER: usize = 16;

/// The commit side of a campaign: everything that depends on corpus
/// order or touches the store, checkpoint log and running sums.
struct Ledger<'c> {
    res: &'c ResilienceConfig,
    sim: &'c SimConfig,
    retry_timeouts: bool,
    /// Units quarantined by the resumed campaign.
    quarantined: BTreeSet<usize>,
    core: CampaignCore,
    failed: Vec<FailedUnit>,
    log: Option<CheckpointLog>,
    fingerprint: u64,
    total_units: usize,
    since_ckpt: usize,
    processed: usize,
    checkpoints_written: usize,
}

impl Ledger<'_> {
    /// Take unit `i` off the stream: mask its columns and resolve it
    /// against the store, leaving keys in `in_flight` to their units.
    fn plan(
        &self,
        run: &mut CorpusRun<'_, '_>,
        i: usize,
        entry: CorpusEntry,
        in_flight: &HashSet<u128>,
    ) -> Unit {
        let mask: Vec<bool> = ModelId::ALL.iter().map(|id| id.supports(&entry.test)).collect();
        // A still-quarantined unit keeps its slots `None` without
        // another round of doomed retries.
        let plan = if self.quarantined.contains(&i) {
            None
        } else {
            catch_unwind(AssertUnwindSafe(|| run.resolve(&entry.test, &mask, in_flight))).ok()
        };
        Unit { i, entry, mask, plan, checked: None, delta: None }
    }

    /// Whether a worker has anything to do for `u`.
    fn needs_worker(&self, u: &Unit) -> bool {
        u.plan.as_ref().is_some_and(|p| p.needs_check() || self.sim.samples(u.i))
    }

    /// Commit the next unit in corpus order: supervise it into the run
    /// (store appends, dedupe map, column counters), run the row checks,
    /// fold its per-unit delta, and write a checkpoint frame when one is
    /// due. `Some(cursor)` means `stop_after` suspends the campaign here.
    fn commit(
        &mut self,
        run: &mut CorpusRun<'_, '_>,
        u: Unit,
    ) -> Result<Option<usize>, CampaignError> {
        // Simulated SIGKILL at a unit boundary (crash-storm tests).
        if faultpoint::should_fail("campaign.kill") {
            std::process::abort();
        }
        let Unit { i, entry, mask, plan, checked, delta } = u;
        if !self.quarantined.contains(&i) {
            let prepared = plan.map(|p| (p, checked.unwrap_or(Ok(None))));
            let (res, retry_timeouts) = (self.res, self.retry_timeouts);
            let test = &entry.test;
            if let Some(f) = supervise_unit(run, i, test, &mask, prepared, res, retry_timeouts) {
                self.failed.push(f);
            }
        }
        let row = MatrixRow { cells: run.row_cells(i), test: entry.test, origin: entry.origin };
        check_row(&row, &mut self.core.discrepancies, &mut self.core.summaries);
        // A worker's delta counts only if it saw the cells that committed.
        let delta = match delta {
            Some((cells, delta)) if cells == row.cells => delta,
            _ => {
                let mut delta = RowDelta::new();
                sim_check_row(self.sim, i, &row.cells, &row.test, &mut delta);
                delta
            }
        };
        self.core.fold(delta);
        self.core.account_row(&row);
        self.processed += 1;
        self.since_ckpt += 1;
        let done = i + 1;
        if done < self.total_units {
            if self.log.is_some() && self.since_ckpt >= self.res.checkpoint_every.max(1) {
                run.flush().map_err(CampaignError::Store)?;
                self.frame(done)?;
                self.checkpoints_written += 1;
                self.since_ckpt = 0;
            }
            if self.res.stop_after.is_some_and(|stop| self.processed >= stop) {
                return Ok(Some(done));
            }
        }
        Ok(None)
    }

    /// Append a checkpoint frame at `cursor` (the store must already be
    /// flushed), if checkpointing.
    fn frame(&mut self, cursor: usize) -> Result<(), CampaignError> {
        let Some(log) = &mut self.log else { return Ok(()) };
        log.append(&Checkpoint {
            fingerprint: self.fingerprint,
            cursor,
            watermarks: self.core.watermarks(),
            failed_units: self.failed.clone(),
            prefix: self.core.prefix_stats(),
        })
        .map_err(CampaignError::Checkpoint)
    }
}

/// The unit pool: this thread generates, resolves and commits units in
/// corpus order through a bounded reorder window, while `workers`
/// threads compute and run the per-unit checks. The workers spawn when
/// the first unit needs one; a unit with nothing for a worker commits
/// straight from the window, or as soon as it is planned when the window
/// is empty. With no workers no unit needs one, so every unit commits
/// as soon as it is planned and no thread is spawned: the sequential
/// loop. On suspend, units past the cursor are dropped uncommitted.
fn drive_pool(
    stream: &mut CorpusStream,
    start_at: usize,
    run: &mut CorpusRun<'_, '_>,
    ledger: &mut Ledger<'_>,
    workers: usize,
) -> Result<Option<usize>, CampaignError> {
    let checker = run.unit_checker().clone();
    let sim = ledger.sim;
    let (job_tx, job_rx) = mpsc::channel::<Unit>();
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<Unit>();
    thread::scope(|s| {
        // Owned by this closure: whichever way it returns, the queue
        // closes and the workers wind down before the scope joins them.
        // The workers hold the only senders of finished units, so a pool
        // with none left fails the receive instead of blocking it.
        let (job_tx, done_rx) = (job_tx, done_rx);
        let mut done_tx = Some(done_tx);
        let mut window: VecDeque<Option<Unit>> = VecDeque::new();
        let mut in_flight: HashSet<u128> = HashSet::new();
        let mut front = start_at;
        let mut exhausted = false;
        loop {
            while !exhausted && window.len() < workers.max(1) * WINDOW_PER_WORKER {
                let Some(entry) = stream.next() else {
                    exhausted = true;
                    break;
                };
                let u = ledger.plan(run, front + window.len(), entry?, &in_flight);
                if workers == 0 || !ledger.needs_worker(&u) {
                    // With nothing ahead of it, it commits now, on a
                    // plan nothing has overtaken.
                    if window.is_empty() {
                        front += 1;
                        if let Some(done) = ledger.commit(run, u)? {
                            return Ok(Some(done));
                        }
                    } else {
                        window.push_back(Some(u));
                    }
                    continue;
                }
                in_flight.extend(u.plan.iter().flat_map(UnitPlan::checked_keys));
                if let Some(done_tx) = done_tx.take() {
                    for _ in 0..workers {
                        let (job_rx, done_tx, checker) = (&job_rx, done_tx.clone(), &checker);
                        s.spawn(move || loop {
                            let next = job_rx.lock().expect("job queue lock").recv();
                            let Ok(u) = next else { break };
                            if done_tx.send(work(checker, sim, u)).is_err() {
                                break;
                            }
                        });
                    }
                }
                job_tx.send(u).expect("workers hold the queue open");
                window.push_back(None);
            }
            match window.front() {
                None => return Ok(None),
                Some(Some(_)) => {
                    let u = window.pop_front().flatten().expect("the front is ready");
                    front += 1;
                    for key in u.plan.iter().flat_map(UnitPlan::checked_keys) {
                        in_flight.remove(&key);
                    }
                    if let Some(done) = ledger.commit(run, u)? {
                        return Ok(Some(done));
                    }
                }
                Some(None) => {
                    let u = done_rx.recv().expect("a live worker holds the front unit");
                    let at = u.i - front;
                    window[at] = Some(u);
                }
            }
        }
    })
}

/// Drive a whole campaign by streaming `stream` through a supervised,
/// checkpointing [`CorpusRun`]. Each unit's matrix-level oracles run as
/// it commits, and its `sim` soundness pass is folded in right after.
/// See the module docs for the full contract.
///
/// # Errors
///
/// Generator failures, store I/O (after per-unit retries), checkpoint
/// I/O, a refused fingerprint mismatch on resume, and the deliberate
/// [`CampaignError::Suspended`] from `stop_after`.
pub fn drive_campaign(
    mut stream: CorpusStream,
    fingerprint: u64,
    set: &ModelSet,
    opts: &MatrixOptions<'_>,
    res: &ResilienceConfig,
    sim: &SimConfig,
) -> Result<(CampaignCore, DriveOutcome), CampaignError> {
    let total_units = stream.total();
    let store = match opts.store_path {
        Some(path) => VerdictStore::open(path).map_err(|e| match e {
            StoreError::Locked { lock, pid } => CampaignError::Locked { lock, pid },
            StoreError::Io(e) => CampaignError::Store(e),
        })?,
        None => VerdictStore::in_memory(),
    };
    let columns: Vec<Column<'_>> = ModelId::ALL
        .iter()
        .map(|&id| Column {
            model: set.get(id),
            salt: format!("{}|col:{}", opts.salt, id.column()),
        })
        .collect();
    // `jobs` counts unit workers; each check's own pipeline runs inline
    // on its worker, so threads never exceed `jobs`.
    let mut checker = BatchChecker::new_multi(columns, store)
        .with_options(EnumOptions { stats: opts.enum_stats.clone(), ..EnumOptions::default() })
        .with_pipeline_stats(opts.data_plane.clone())
        .with_jobs(1)
        .with_budget(opts.budget.clone());

    // Resume: load the latest valid manifest and refuse a config
    // mismatch. A missing or empty checkpoint is a fresh start. A clean
    // prefix restores the aggregates and seeks the stream past the
    // done units; a dirty one replays them through the warm store.
    let mut core = CampaignCore::empty();
    let mut failed: Vec<FailedUnit> = Vec::new();
    let mut resumed_at = None;
    let mut start_at = 0usize;
    if res.resume {
        if let Some(path) = &res.checkpoint {
            let scan = checkpoint::load(path).map_err(CampaignError::Checkpoint)?;
            if let Some(ck) = scan.latest {
                if ck.fingerprint != fingerprint {
                    return Err(CampaignError::CheckpointMismatch {
                        expected: fingerprint,
                        found: ck.fingerprint,
                    });
                }
                failed = ck.failed_units;
                resumed_at = Some(ck.cursor);
                // Shape sanity: the fingerprint pins the column set, but
                // a hand-edited manifest could still disagree — treat it
                // as prefix-less rather than misindex the sums.
                let prefix = ck.prefix.filter(|p| {
                    p.passes.len() == ModelId::ALL.len()
                        && p.oracles.len() == OracleKind::ALL.len()
                });
                if let Some(p) = prefix {
                    core.corpus_library = p.corpus_library;
                    core.corpus_generated = p.corpus_generated;
                    core.passes = p.passes;
                    core.summaries = p.oracles;
                    start_at = ck.cursor;
                    stream.seek(ck.cursor);
                }
            }
        }
    }
    let log = match &res.checkpoint {
        Some(path) => Some(
            CheckpointLog::open(path, resumed_at.is_some()).map_err(CampaignError::Checkpoint)?,
        ),
        None => None,
    };

    let mut ledger = Ledger {
        res,
        sim,
        // Only retry wall-clock trips when they can possibly mean "this
        // machine hiccuped": a relative per-check limit. An absolute
        // corpus deadline trips every remaining unit — retrying would
        // turn one late campaign into max_retries late campaigns.
        retry_timeouts: opts.budget.time_limit.is_some() && opts.budget.deadline.is_none(),
        quarantined: failed.iter().map(|f| f.index).collect(),
        core,
        failed,
        log,
        fingerprint,
        total_units,
        since_ckpt: 0,
        processed: 0,
        checkpoints_written: 0,
    };
    let mut run = checker.begin_corpus();
    // `--jobs 1` is the coordinator alone.
    let workers = match effective_jobs(opts.jobs) {
        1 => 0,
        jobs => jobs,
    };
    let suspended = drive_pool(&mut stream, start_at, &mut run, &mut ledger, workers)?;

    if let Some(done) = suspended {
        run.flush().map_err(CampaignError::Store)?;
        ledger.frame(done)?;
        return Err(CampaignError::Suspended { cursor: done, total: total_units });
    }

    run.flush().map_err(CampaignError::Store)?;
    let report = run.finish(total_units);
    // Final frame: cursor at the end, so resuming a *finished* clean
    // campaign costs one checkpoint load and zero corpus work.
    if ledger.log.is_some() {
        ledger.frame(total_units)?;
        ledger.checkpoints_written += 1;
    }

    // Graft this process's observability counters onto the
    // deterministic sums (a resumed run reports only its own cache
    // traffic — the JSON never contains these).
    let Ledger { mut core, failed, checkpoints_written, .. } = ledger;
    for (pass, col) in core.passes.iter_mut().zip(&report.columns) {
        pass.hits = col.hits;
        pass.computed = col.computed;
        pass.deduped = col.deduped;
        pass.candidates_enumerated = col.candidates_enumerated;
    }

    Ok((core, DriveOutcome { failed_units: failed, resumed_at, checkpoints_written }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{config_fingerprint, corpus_stream, CampaignConfig};

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            max_cycle_len: 0,
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            ..CampaignConfig::default()
        }
    }

    fn temp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("lkmm-driver-{}-{tag}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn drive(
        cfg: &CampaignConfig,
        store: Option<&std::path::Path>,
        res: &ResilienceConfig,
    ) -> Result<(CampaignCore, DriveOutcome), CampaignError> {
        let stream = corpus_stream(cfg);
        let fp = config_fingerprint(cfg, stream.total());
        let opts = MatrixOptions { store_path: store, ..MatrixOptions::default() };
        drive_campaign(stream, fp, &ModelSet::standard(), &opts, res, &cfg.sim)
    }

    fn assert_same_substance(a: &CampaignCore, b: &CampaignCore) {
        assert_eq!(a.corpus_library, b.corpus_library);
        assert_eq!(a.corpus_generated, b.corpus_generated);
        for (x, y) in a.passes.iter().zip(&b.passes) {
            assert_eq!(x.checked, y.checked);
            assert_eq!(x.allowed, y.allowed);
            assert_eq!(x.forbidden, y.forbidden);
            assert_eq!(x.inconclusive, y.inconclusive);
            assert_eq!(x.skipped, y.skipped);
        }
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.discrepancies.len(), b.discrepancies.len());
    }

    #[test]
    fn driven_campaign_matches_the_batch_build() {
        let cfg = quick_config();
        let entries = crate::campaign::corpus(&cfg).unwrap();
        let (batch, batch_passes) = crate::matrix::build_matrix(
            &entries,
            &ModelSet::standard(),
            &MatrixOptions::default(),
        )
        .unwrap();
        // The driver folds rows incrementally; re-derive the same
        // aggregates from the batch matrix and compare sums and the
        // per-row verdicts the driver's oracles saw.
        let mut batch_summaries = vec![OracleSummary::default(); OracleKind::ALL.len()];
        let mut batch_discrepancies = Vec::new();
        for row in &batch.rows {
            check_row(row, &mut batch_discrepancies, &mut batch_summaries);
        }
        let res = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        let (core, outcome) = drive(&cfg, None, &res).unwrap();
        assert!(outcome.failed_units.is_empty());
        assert_eq!(outcome.resumed_at, None);
        assert_eq!(core.corpus_library + core.corpus_generated, batch.rows.len());
        for (d, b) in core.passes.iter().zip(&batch_passes) {
            assert_eq!(d.checked, b.checked);
            assert_eq!(d.allowed, b.allowed);
            assert_eq!(d.forbidden, b.forbidden);
            assert_eq!(d.skipped, b.skipped);
        }
        assert_eq!(core.summaries, batch_summaries);
        assert_eq!(core.discrepancies.len(), batch_discrepancies.len());
    }

    #[test]
    fn suspend_then_resume_reproduces_the_uninterrupted_campaign() {
        let cfg = quick_config();
        let store = temp("resume-store");
        let ckpt = temp("resume-ckpt");
        let base = ResilienceConfig {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: 4,
            retry_base_ms: 0,
            ..ResilienceConfig::default()
        };

        // Uninterrupted reference run (its own store, so no warm help).
        let ref_store = temp("resume-ref");
        let (full, _) = drive(
            &cfg,
            Some(&ref_store),
            &ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() },
        )
        .unwrap();

        // Interrupted run: suspend partway with a checkpoint.
        let res = ResilienceConfig { stop_after: Some(7), ..base.clone() };
        match drive(&cfg, Some(&store), &res) {
            Err(CampaignError::Suspended { cursor, total }) => {
                assert_eq!(cursor, 7);
                assert!(cursor < total);
            }
            other => panic!("expected suspension, got {other:?}"),
        }

        // Resume: the clean prefix restores from aggregates (nothing
        // replays — only the tail computes), and the substance matches
        // the uninterrupted run exactly.
        let res = ResilienceConfig { resume: true, ..base };
        let (resumed, outcome) = drive(&cfg, Some(&store), &res).unwrap();
        assert_eq!(outcome.resumed_at, Some(7));
        assert_same_substance(&resumed, &full);
        let full_enum: usize = full.passes.iter().map(|p| p.candidates_enumerated).sum();
        let tail_enum: usize = resumed.passes.iter().map(|p| p.candidates_enumerated).sum();
        assert!(tail_enum > 0, "the tail computes fresh");
        assert!(tail_enum < full_enum, "the prefix is never re-enumerated");

        for p in [&store, &ckpt, &ref_store] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(p.with_extension("bin.lock"));
        }
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let cfg = quick_config();
        let ckpt = temp("mismatch-ckpt");
        let base = ResilienceConfig {
            checkpoint: Some(ckpt.clone()),
            retry_base_ms: 0,
            ..ResilienceConfig::default()
        };
        let res = ResilienceConfig { stop_after: Some(3), ..base.clone() };
        assert!(matches!(drive(&cfg, None, &res), Err(CampaignError::Suspended { .. })));

        // Same checkpoint, different config (salt): refused.
        let other = CampaignConfig { salt: "other".into(), ..quick_config() };
        let res = ResilienceConfig { resume: true, ..base };
        match drive(&other, None, &res) {
            Err(CampaignError::CheckpointMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected fingerprint refusal, got {other:?}"),
        }
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn resume_without_a_checkpoint_starts_fresh() {
        let cfg = quick_config();
        let ckpt = temp("fresh-ckpt");
        let res = ResilienceConfig {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            retry_base_ms: 0,
            ..ResilienceConfig::default()
        };
        let (core, outcome) = drive(&cfg, None, &res).unwrap();
        assert_eq!(outcome.resumed_at, None);
        assert!(outcome.checkpoints_written >= 1, "final frame always lands");
        assert!(core.corpus_library + core.corpus_generated > 0);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let res = ResilienceConfig { retry_base_ms: 10, ..ResilienceConfig::default() };
        let a = backoff_delay(&res, 3, 1);
        let b = backoff_delay(&res, 3, 1);
        assert_eq!(a, b, "same (seed, unit, attempt) => same delay");
        assert_ne!(
            backoff_delay(&res, 3, 1),
            backoff_delay(&res, 4, 1),
            "different units jitter apart"
        );
        for attempt in 1..=8u32 {
            let d = backoff_delay(&res, 0, attempt) ;
            let exp = 10u64 << u64::from(attempt.saturating_sub(1).min(6));
            assert!(d.as_millis() as u64 >= exp, "at least the exponential base");
            assert!(d.as_millis() as u64 <= exp + exp / 2, "jitter bounded by half");
        }
        let zero = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        assert_eq!(backoff_delay(&zero, 9, 5), Duration::ZERO);
    }
}
