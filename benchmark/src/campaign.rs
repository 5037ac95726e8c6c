//! The campaign workloads, `cycles` and `contended`.
//!
//! Untraced, a workload runs `run_campaign_with` — the conformance
//! entry point — over and over for the measured seconds. Each iteration
//! is one *cold* campaign over a fresh on-disk store (every verdict
//! computed and appended: the campaign's writes) followed by warm
//! re-runs over the now populated store (every verdict replayed: its
//! reads). Every report must be clean, byte-identical to the run's
//! first, and match the workload's reference digest.
//!
//! Traced, the same campaign is driven through each layer's public
//! functions on one thread — parse, generate, canonicalise and key,
//! store lookup, the traced check, store append, oracles, simulator,
//! shrink, store flush, report — and its JSON report must be
//! byte-identical to the untraced run's.

use crate::engine::{traced_check, ExecCounters};
use crate::host;
use crate::metrics::{median, Summary};
use crate::trace::{Layer, Tracer};
use crate::{Args, Measured};
use lkmm_conformance::matrix::uses_srcu;
use lkmm_conformance::{
    check_row, json_report, recheck_violated, run_campaign_with, shrink, test_size, CampaignConfig,
    CampaignReport, CorpusEntry, Discrepancy, MatrixRow, ModelId, ModelPass, ModelSet, ModelStats,
    OracleKind, OracleStats, OracleSummary, Origin, Recheck, Shrunk, SimConfig,
};
use lkmm_exec::{CheckOutcome, DataPlaneStats, EnumOptions, PipelineOptions, TestResult, Verdict};
use lkmm_generator::{cycles_up_to, default_alphabet, generate, generate_contended};
use lkmm_service::hash::fnv64;
use lkmm_service::json::Json;
use lkmm_service::{cache_key_of_text, canonical_text, VerdictStore};
use lkmm_sim::{run_test, Arch, RunConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One campaign workload.
pub struct CampaignSpec {
    pub max_cycle_len: usize,
    pub contended: bool,
    /// Simulator runs per sampled test (0 disables the simulator).
    pub sim_iterations: u64,
    pub sim_stride: usize,
    /// Warm re-runs after each cold campaign.
    pub warm_reruns: usize,
    /// Corpus size the campaign must report.
    pub corpus_total: usize,
    /// FNV-64 of the JSON report without its `config` member (which
    /// carries the seed).
    pub reference: u64,
}

/// The paper library plus every diy critical cycle of length ≤ 5.
pub const CYCLES: CampaignSpec = CampaignSpec {
    max_cycle_len: 5,
    contended: false,
    sim_iterations: 200,
    sim_stride: 8,
    warm_reruns: 1,
    corpus_total: 3622,
    reference: 0x5951_88cc_f12b_9277,
};

/// The library, the cycles of length ≤ 4, and their contended twins.
pub const CONTENDED: CampaignSpec = CampaignSpec {
    max_cycle_len: 4,
    contended: true,
    sim_iterations: 0,
    sim_stride: 1,
    warm_reruns: 10,
    corpus_total: 355,
    reference: 0xd789_4191_5d52_0e74,
};

/// Pipeline jobs per check: the host's two CPUs.
const JOBS: usize = 2;

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 9;

fn config(spec: &CampaignSpec, seed: u64, store: &Path) -> CampaignConfig {
    CampaignConfig {
        max_cycle_len: spec.max_cycle_len,
        contended: spec.contended,
        jobs: JOBS,
        store_path: Some(store.to_path_buf()),
        sim: SimConfig {
            iterations: spec.sim_iterations,
            seed,
            stride: spec.sim_stride,
        },
        ..CampaignConfig::default()
    }
}

/// A fresh store path under `work` (any earlier store there removed).
fn fresh_store(work: &Path, tag: &str) -> PathBuf {
    let path = work.join(format!("{tag}.store"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(work.join(format!("{tag}.store.lock")));
    path
}

/// FNV-64 of a rendered report with its `config` member left out.
pub fn digest(report: &Json) -> u64 {
    let body = match report {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "config")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    fnv64(body.to_string().as_bytes())
}

/// The correctness gate every campaign report passes through.
#[derive(Default)]
pub struct Gate {
    first: Option<String>,
    /// Reports that were not clean, not identical, or off the reference.
    pub errors: u64,
    /// Inconclusive cells and quarantined units.
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    /// Check one report and its rendered JSON.
    pub fn check(&mut self, spec: &CampaignSpec, report: &CampaignReport, json: &Json) {
        let text = json.to_string();
        self.failed += report.failed_units.len() as u64
            + report
                .models
                .iter()
                .map(|m| m.pass.inconclusive as u64)
                .sum::<u64>();
        let mut wrong = Vec::new();
        if !report.clean() {
            wrong.push(format!("{} discrepancies", report.discrepancies.len()));
        }
        if report.corpus_total() != spec.corpus_total {
            wrong.push(format!(
                "corpus of {} tests, expected {}",
                report.corpus_total(),
                spec.corpus_total
            ));
        }
        let d = digest(json);
        if d != spec.reference {
            wrong.push(format!(
                "report digest {d:016x}, reference {:016x}",
                spec.reference
            ));
        }
        match &self.first {
            None => self.first = Some(text),
            Some(first) if *first != text => {
                wrong.push("report differs from the run's first".into())
            }
            Some(_) => {}
        }
        if !wrong.is_empty() {
            self.errors += 1;
            self.notes
                .push(format!("campaign report rejected: {}", wrong.join("; ")));
        }
    }
}

/// Build the checkers and the corpus stream the way a campaign does,
/// with a fresh store: the campaign's set-up.
fn setup(spec: &CampaignSpec, seed: u64, work: &Path) -> (ModelSet, Duration) {
    let start = Instant::now();
    let set = ModelSet::standard();
    let store = fresh_store(work, "cold");
    let total = lkmm_conformance::corpus_stream(&config(spec, seed, &store)).total();
    assert_eq!(total, spec.corpus_total, "corpus size");
    (set, start.elapsed())
}

/// One campaign through the public entry point, report rendered.
fn campaign(cfg: &CampaignConfig, set: &ModelSet) -> Result<(CampaignReport, Json), String> {
    let report = run_campaign_with(cfg, set).map_err(|e| e.to_string())?;
    let json = json_report(&report, cfg);
    Ok((report, json))
}

/// The untraced workload: cold and warm campaigns for `args.seconds`.
pub fn run(spec: &CampaignSpec, args: &Args, work: &Path) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut set = None;
    for _ in 0..SETUPS {
        let (s, took) = setup(spec, args.seed, work);
        setups.push(took.as_secs_f64());
        set = Some(s);
    }
    let set = set.expect("at least one set-up");

    let mut gate = Gate::default();
    let (mut cold_ms, mut warm_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while cold_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let cfg = config(spec, args.seed, &fresh_store(work, "cold"));
        let t = Instant::now();
        let (report, json) = campaign(&cfg, &set)?;
        let took = t.elapsed().as_secs_f64();
        gate.check(spec, &report, &json);
        cold_ms.push(took * 1e3);
        rates.push(report.corpus_total() as f64 / took);
        for _ in 0..spec.warm_reruns {
            let t = Instant::now();
            let (report, json) = campaign(&cfg, &set)?;
            warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            gate.check(spec, &report, &json);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let campaigns = cold_ms.len() + warm_ms.len();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut notes = gate.notes;
    notes.push(format!("cold campaigns, ms: {}", list(&cold_ms)));
    notes.push(format!("warm campaigns, ms: {}", list(&warm_ms)));
    let (reads, writes) = (Summary::new(warm_ms), Summary::new(cold_ms));
    notes.push(format!(
        "read latency: warm campaign re-runs ({})",
        reads.describe()
    ));
    notes.push(format!(
        "write latency: cold campaigns ({})",
        writes.describe()
    ));
    Ok(Measured {
        verdict_errors: gate.errors,
        attempted: (campaigns * spec.corpus_total) as u64,
        failed: gate.failed,
        values: vec![
            ("setup_s", median(&setups)),
            ("tests_per_s", median(&rates)),
            ("req_per_s", campaigns as f64 / wall),
            ("read_p50_ms", reads.at(50.0)),
            ("read_p90_ms", reads.at_resolved(90.0)),
            ("write_p50_ms", writes.at(50.0)),
            ("write_p90_ms", writes.at_resolved(90.0)),
            ("peak_rss_mb", host::peak_rss_mb()),
        ],
        notes,
    })
}

/// The traced workload: one cold campaign and its warm re-runs, first
/// untraced through `run_campaign_with` with the toolkit's counters on,
/// then traced layer by layer; the two must report identical JSON.
pub fn run_traced(spec: &CampaignSpec, args: &Args, work: &Path) -> Result<Measured, String> {
    let (set, _) = setup(spec, args.seed, work);
    let mut gate = Gate::default();

    // Untraced reference, with the data-plane counters on.
    let data_plane = Arc::new(DataPlaneStats::default());
    let cfg = CampaignConfig {
        data_plane: Some(data_plane.clone()),
        ..config(spec, args.seed, &fresh_store(work, "cold"))
    };
    let (cpu0, t) = (host::cpu_seconds(), Instant::now());
    let mut reference = Vec::new();
    for _ in 0..=spec.warm_reruns {
        let (mut report, _) = campaign(&cfg, &set)?;
        // The counters are observability only; the gate compares the
        // report a counter-free run renders.
        report.data_plane = None;
        let json = json_report(&report, &cfg);
        gate.check(spec, &report, &json);
        reference.push(json.to_string());
    }
    let untraced_wall = t.elapsed().as_secs_f64();
    let cpu_util = (host::cpu_seconds() - cpu0) / (untraced_wall * crate::cpus() as f64);

    // Traced, on this thread.
    let cfg = config(spec, args.seed, &fresh_store(work, "traced"));
    let mut tr = Tracer::new(2);
    let mut ctr = Counters::default();
    tr.enter(Layer::Run, 0);
    let set = tr.span(Layer::Setup, ModelSet::standard);
    let mut traced = Vec::new();
    for _ in 0..=spec.warm_reruns {
        let store = tr.span(Layer::Setup, || {
            VerdictStore::open(cfg.store_path.as_ref().expect("on-disk store"))
        });
        let store = store.map_err(|e| e.to_string())?;
        traced.push(traced_campaign(&cfg, &set, store, &mut tr, &mut ctr)?);
    }
    tr.exit();
    let traced_wall = tr.spans()[0].end as f64 / 1e9 - tr.spans()[0].start as f64 / 1e9;
    if traced != reference {
        gate.errors += 1;
        gate.notes
            .push("traced campaign report differs from the untraced one".into());
    }
    crate::write_spans(&tr, work, args)?;

    let mut values = layer_values(&tr, &ctr.exec);
    let dp = data_plane.snapshot();
    values.extend([
        ("pipeline.batches", dp.batches_formed as f64),
        ("pipeline.batch_occupancy", dp.mean_batch_occupancy()),
        (
            "pipeline.arena_reuse_ratio",
            ratio(dp.arena_reuses, dp.arena_acquires),
        ),
        ("proc.cpu_util", cpu_util),
        ("generator.tests", ctr.generated as f64),
        ("canon.keys", ctr.keys as f64),
        ("store.hits", ctr.hits as f64),
        ("store.misses", ctr.misses as f64),
        ("store.hit_ratio", ratio(ctr.hits, ctr.hits + ctr.misses)),
        ("litmus.parses", tr.count(Layer::LitmusParse) as f64),
        ("store.appends", ctr.appends as f64),
        ("store.flushes", tr.count(Layer::StoreFlush) as f64),
        ("sim.runs", ctr.sim_runs as f64),
        ("oracle.rows", tr.count(Layer::Oracle) as f64),
        ("shrink.rechecks", ctr.rechecks as f64),
        ("server.service_ms_p50", 0.0),
        ("server.queue_ms_p50", 0.0),
        ("server.queue_ms_p90", 0.0),
        ("server.latency_p99_ms", 0.0),
        ("trace.overhead", traced_wall / untraced_wall),
    ]);
    let campaigns = 2 * (1 + spec.warm_reruns);
    Ok(Measured {
        verdict_errors: gate.errors,
        attempted: (campaigns * spec.corpus_total) as u64,
        failed: gate.failed,
        values,
        notes: gate.notes,
    })
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer times and exec counts every traced workload reports.
pub fn layer_values(tr: &Tracer, exec: &ExecCounters) -> Vec<(&'static str, f64)> {
    let es = exec.enum_stats.snapshot();
    let mut values = vec![
        ("enumerate.s", tr.self_s(Layer::Enumerate)),
        ("enumerate.candidates", exec.candidates as f64),
        (
            "enumerate.candidates_per_test",
            ratio(exec.candidates, exec.tests),
        ),
        ("enumerate.co_leaves_tested", es.co_leaves_tested as f64),
        (
            "enumerate.useful_ratio",
            ratio(es.candidates_emitted, es.co_leaves_tested),
        ),
        ("enumerate.rf_prefixes_pruned", es.rf_prefixes_pruned as f64),
        ("enumerate.co_pairs_branched", es.co_pairs_branched as f64),
        ("facts.s", tr.self_s(Layer::Facts)),
        ("model.evals", exec.evals as f64),
        ("pipeline.s", tr.self_s(Layer::Pipeline)),
        ("generator.gen_s", tr.self_s(Layer::Generator)),
        ("canon.key_s", tr.self_s(Layer::Canon)),
        ("store.lookup_s", tr.self_s(Layer::StoreLookup)),
        ("litmus.parse_s", tr.self_s(Layer::LitmusParse)),
        ("store.append_s", tr.self_s(Layer::StoreAppend)),
        ("store.flush_s", tr.self_s(Layer::StoreFlush)),
        ("sim.s", tr.self_s(Layer::Sim)),
        ("oracle.s", tr.self_s(Layer::Oracle)),
        ("shrink.s", tr.self_s(Layer::Shrink)),
        ("report.s", tr.self_s(Layer::Report)),
        ("driver.s", tr.self_s(Layer::Driver)),
        ("setup.s", tr.self_s(Layer::Setup)),
        ("trace.coverage", tr.coverage()),
    ];
    const MODEL_METRICS: [&str; 7] = [
        "model.lkmm.s",
        "model.lkmm-cat.s",
        "model.sc.s",
        "model.tso.s",
        "model.armv8.s",
        "model.power.s",
        "model.c11.s",
    ];
    for (i, name) in MODEL_METRICS.into_iter().enumerate() {
        values.push((name, tr.self_s(Layer::Model(i))));
    }
    values
}

/// Counts a traced campaign accumulates beyond the exec layer's.
#[derive(Default)]
struct Counters {
    exec: ExecCounters,
    generated: u64,
    keys: u64,
    hits: u64,
    misses: u64,
    appends: u64,
    sim_runs: u64,
    rechecks: u64,
}

/// One campaign, layer by layer, in the order `run_campaign_with`
/// takes: library, cycles, contended twins; per unit, key, look up,
/// check what missed, append, run the oracles and the simulator.
fn traced_campaign(
    cfg: &CampaignConfig,
    set: &ModelSet,
    mut store: VerdictStore,
    tr: &mut Tracer,
    ctr: &mut Counters,
) -> Result<String, String> {
    let salts: Vec<String> = ModelId::ALL
        .iter()
        .map(|id| {
            format!(
                "{}|col:{}|{:?}",
                cfg.salt,
                id.column(),
                EnumOptions::default()
            )
        })
        .collect();
    let library: Vec<CorpusEntry> = lkmm_litmus::library::all()
        .iter()
        .map(|pt| CorpusEntry {
            test: tr.span(Layer::LitmusParse, || pt.test()),
            origin: Origin::Library {
                lkmm: pt.lkmm,
                c11: pt.c11,
            },
        })
        .collect();
    let cycles = tr.span(Layer::Generator, || {
        cycles_up_to(cfg.max_cycle_len, &default_alphabet())
    });
    let n = cycles.len();
    let total = library.len() + n * if cfg.contended { 2 } else { 1 };

    let mut seen: Vec<HashMap<u128, TestResult>> = vec![HashMap::new(); ModelId::ALL.len()];
    let mut passes = vec![ModelPass::default(); ModelId::ALL.len()];
    let mut summaries = vec![OracleSummary::default(); OracleKind::ALL.len()];
    let mut discrepancies = Vec::new();
    let (mut corpus_library, mut corpus_generated) = (0, 0);
    for i in 0..total {
        tr.enter(Layer::Driver, i as u64);
        let entry = if i < library.len() {
            library[i].clone()
        } else {
            let j = i - library.len();
            ctr.generated += 1;
            let test = tr.span(Layer::Generator, || {
                if j < n {
                    generate(&cycles[j])
                } else {
                    generate_contended(&cycles[j - n])
                }
            });
            CorpusEntry {
                test: test.map_err(|e| e.to_string())?,
                origin: Origin::Generated,
            }
        };
        let mask: Vec<bool> = ModelId::ALL
            .iter()
            .map(|id| id.supports(&entry.test))
            .collect();
        let keys: Vec<u128> = tr.span(Layer::Canon, || {
            let canon = canonical_text(&entry.test);
            ModelId::ALL
                .iter()
                .zip(&salts)
                .map(|(&id, salt)| cache_key_of_text(&canon, set.get(id).name(), salt))
                .collect()
        });
        ctr.keys += keys.len() as u64;

        let mut cells: Vec<Option<CheckOutcome>> = vec![None; ModelId::ALL.len()];
        let mut missing = Vec::new();
        for c in (0..ModelId::ALL.len()).filter(|&c| mask[c]) {
            if let Some(r) = seen[c].get(&keys[c]) {
                cells[c] = Some(CheckOutcome::Complete(r.clone()));
            } else if let Some(r) = tr.span(Layer::StoreLookup, || store.get(keys[c]).cloned()) {
                ctr.hits += 1;
                seen[c].insert(keys[c], r.clone());
                cells[c] = Some(CheckOutcome::Complete(r));
            } else {
                ctr.misses += 1;
                missing.push(c);
            }
        }
        if !missing.is_empty() {
            let models: Vec<_> = missing
                .iter()
                .map(|&c| (set.get(ModelId::ALL[c]), c))
                .collect();
            let results = traced_check(&models, &entry.test, i as u64, tr, &mut ctr.exec)
                .map_err(|e| format!("{}: {e}", entry.test.name))?;
            for (&c, r) in missing.iter().zip(results) {
                tr.span(Layer::StoreAppend, || store.put(keys[c], r.clone()))
                    .map_err(|e| e.to_string())?;
                ctr.appends += 1;
                seen[c].insert(keys[c], r.clone());
                cells[c] = Some(CheckOutcome::Complete(r));
            }
        }

        let row = MatrixRow {
            test: entry.test,
            origin: entry.origin,
            cells,
        };
        tr.span(Layer::Oracle, || {
            check_row(&row, &mut discrepancies, &mut summaries)
        });
        tr.enter(Layer::Sim, i as u64);
        ctr.sim_runs += sim_row(&cfg.sim, i, &row, &mut discrepancies, &mut summaries[2]);
        tr.exit();
        match row.origin {
            Origin::Library { .. } => corpus_library += 1,
            _ => corpus_generated += 1,
        }
        for (pass, cell) in passes.iter_mut().zip(&row.cells) {
            match cell {
                None => pass.skipped += 1,
                Some(CheckOutcome::Complete(r)) => {
                    pass.checked += 1;
                    match r.verdict {
                        Verdict::Allowed => pass.allowed += 1,
                        Verdict::Forbidden => pass.forbidden += 1,
                    }
                }
                Some(CheckOutcome::Inconclusive { .. }) => {
                    pass.checked += 1;
                    pass.inconclusive += 1;
                }
            }
        }
        tr.exit();
    }
    tr.span(Layer::StoreFlush, || store.flush())
        .map_err(|e| e.to_string())?;
    tr.enter(Layer::Shrink, 0);
    ctr.rechecks += shrink_all(cfg, set, &mut discrepancies);
    tr.exit();

    let report = CampaignReport {
        corpus_library,
        corpus_generated,
        models: ModelId::ALL
            .iter()
            .zip(passes)
            .map(|(&id, pass)| ModelStats { id, pass })
            .collect(),
        oracles: OracleKind::ALL
            .iter()
            .zip(summaries)
            .map(|(&kind, summary)| OracleStats { kind, summary })
            .collect(),
        discrepancies,
        enumeration: None,
        data_plane: None,
        failed_units: Vec::new(),
        resumed_at: None,
        checkpoints_written: 0,
    };
    Ok(tr.span(Layer::Report, || json_report(&report, cfg).to_string()))
}

/// The simulator soundness pass on one row, as the campaign runs it:
/// every `stride`-th LKMM-forbidden row on every architecture. Returns
/// the simulator runs made.
fn sim_row(
    sim: &SimConfig,
    i: usize,
    row: &MatrixRow,
    discrepancies: &mut Vec<Discrepancy>,
    summary: &mut OracleSummary,
) -> u64 {
    if sim.iterations == 0 || !i.is_multiple_of(sim.stride.max(1)) {
        return 0;
    }
    let forbidden = matches!(
        row.cell(ModelId::LkmmNative).and_then(CheckOutcome::result),
        Some(r) if r.verdict == Verdict::Forbidden
    );
    if !forbidden {
        return 0;
    }
    if uses_srcu(&row.test) {
        summary.skipped += 1;
        return 0;
    }
    let seed = sim.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for arch in Arch::ALL {
        match run_test(
            &row.test,
            arch,
            &RunConfig {
                iterations: sim.iterations,
                seed,
            },
        ) {
            Err(_) => summary.skipped += 1,
            Ok(stats) => {
                summary.checked += 1;
                if stats.observed > 0 {
                    summary.violations += 1;
                    discrepancies.push(Discrepancy {
                        test_name: row.test.name.clone(),
                        oracle: OracleKind::SimSoundness,
                        detail: format!(
                            "{} observed an LKMM-forbidden outcome {} times in {} runs (seed {seed})",
                            arch.name(),
                            stats.observed,
                            stats.total
                        ),
                        check: Recheck::SimObservation { arch, iterations: sim.iterations, seed },
                        test: row.test.clone(),
                        shrunk: None,
                    });
                }
            }
        }
    }
    Arch::ALL.len() as u64
}

/// Shrink every discrepancy as the campaign does. Returns the rechecks
/// made.
fn shrink_all(cfg: &CampaignConfig, set: &ModelSet, discrepancies: &mut [Discrepancy]) -> u64 {
    if !cfg.shrink {
        return 0;
    }
    let opts = EnumOptions {
        budget: cfg.budget.clone(),
        ..EnumOptions::default()
    };
    let pipe = PipelineOptions {
        jobs: cfg.jobs,
        queue_depth: cfg.queue_depth.max(1),
        ..PipelineOptions::default()
    };
    let mut rechecks = 0;
    for d in discrepancies {
        if matches!(d.check, Recheck::C11Expectation { .. }) {
            continue;
        }
        rechecks += 1;
        if !recheck_violated(&d.check, &d.test, set, &opts, &pipe) {
            continue;
        }
        let mut pred = |cand: &lkmm_litmus::ast::Test| {
            rechecks += 1;
            recheck_violated(&d.check, cand, set, &opts, &pipe)
        };
        let (minimal, attempts, accepted) = shrink(&d.test, &mut pred);
        d.shrunk = Some(Shrunk {
            litmus: canonical_text(&minimal),
            size: test_size(&minimal),
            attempts,
            accepted,
        });
    }
    rechecks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The library alone, no simulator: a campaign that takes a moment.
    const LIBRARY: CampaignSpec = CampaignSpec {
        max_cycle_len: 0,
        contended: false,
        sim_iterations: 0,
        sim_stride: 1,
        warm_reruns: 0,
        corpus_total: 33,
        reference: 0,
    };

    #[test]
    fn the_gate_passes_the_reference_and_rejects_anything_else() {
        let dir = std::env::temp_dir().join(format!("lkmm-benchmark-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let set = ModelSet::standard();
        let cfg = config(&LIBRARY, 1, &fresh_store(&dir, "gate"));
        let (report, json) = campaign(&cfg, &set).unwrap();
        let spec = CampaignSpec {
            reference: digest(&json),
            ..LIBRARY
        };

        let mut gate = Gate::default();
        gate.check(&spec, &report, &json);
        gate.check(&spec, &report, &json);
        assert_eq!((gate.errors, gate.failed), (0, 0), "{:?}", gate.notes);

        // Off the reference digest.
        gate.check(&LIBRARY, &report, &json);
        assert_eq!(gate.errors, 1);

        // A report that differs from the run's first.
        let mut other = report.clone();
        other.models[0].pass.allowed += 1;
        gate.check(&spec, &other, &json_report(&other, &cfg));
        assert_eq!(gate.errors, 2);

        // The seed lives in `config`, outside the digest.
        let reseeded = config(&LIBRARY, 99, &fresh_store(&dir, "gate"));
        assert_eq!(digest(&json_report(&report, &reseeded)), spec.reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_traced_campaign_renders_the_same_report() {
        let dir =
            std::env::temp_dir().join(format!("lkmm-benchmark-traced-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let set = ModelSet::standard();
        let cfg = config(&LIBRARY, 1, &fresh_store(&dir, "untraced"));
        let (_, json) = campaign(&cfg, &set).unwrap();
        let cfg = config(&LIBRARY, 1, &fresh_store(&dir, "traced"));
        let store = VerdictStore::open(cfg.store_path.as_ref().unwrap()).unwrap();
        let mut tr = Tracer::new(2);
        let mut ctr = Counters::default();
        tr.enter(Layer::Run, 0);
        let traced = traced_campaign(&cfg, &set, store, &mut tr, &mut ctr).unwrap();
        tr.exit();
        assert_eq!(traced, json.to_string());
        assert_eq!(tr.count(Layer::Oracle), 33);
        assert_eq!(ctr.hits, 0);
        assert!(ctr.appends > 0);
        assert!((tr.coverage() - 1.0).abs() < 0.05, "{}", tr.coverage());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
