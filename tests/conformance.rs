//! The conformance engine end to end (ISSUE satellite: oracle invariant
//! coverage on the full named library).
//!
//! The contract under test: a campaign over the paper's whole library
//! holds every oracle — native ≡ cat everywhere, the SC ⊆ TSO ⊆ LKMM
//! envelope on non-RCU tests, seeded simulator soundness, and the §5.2
//! C11 divergence whitelist — while an artificially broken checker is
//! caught, and its discrepancy shrinks to a minimal litmus test that
//! still discriminates the two disagreeing checkers.

use linux_kernel_memory_model::conformance::{
    config_fingerprint, drive_campaign, human_table, json_report, recheck_violated,
    run_campaign, run_campaign_with, test_size, CampaignConfig, CorpusEntry, CorpusStream,
    MatrixOptions, ModelId, ModelPass, ModelSet, OracleKind, Origin, Recheck, ResilienceConfig,
    SimConfig,
};
use linux_kernel_memory_model::exec::{
    ConsistencyModel, EnumOptions, Execution, PipelineOptions,
};
use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::service::json::Json;

/// Library-only campaign with a small seeded simulator pass and the
/// shrinker armed — cheap enough for CI, exercises every layer.
fn library_campaign() -> CampaignConfig {
    CampaignConfig {
        max_cycle_len: 0,
        sim: SimConfig { iterations: 50, seed: 7, stride: 1 },
        ..CampaignConfig::default()
    }
}

#[test]
fn full_library_holds_every_oracle() {
    let report = run_campaign(&library_campaign()).unwrap();
    assert_eq!(report.corpus_library, library::all().len());
    assert!(
        report.clean(),
        "reference models disagree: {:#?}",
        report.discrepancies.iter().map(|d| &d.detail).collect::<Vec<_>>()
    );
    // Native ≡ cat was checked on every row, violated nowhere.
    let agreement = &report.oracles[0];
    assert_eq!(agreement.kind, OracleKind::NativeCatAgreement);
    assert_eq!(agreement.summary.checked, library::all().len());
    assert_eq!(agreement.summary.violations, 0);
    // The soundness pass actually ran: every LKMM-forbidden non-SRCU
    // test × four architectures.
    let sim = &report.oracles[2];
    assert_eq!(sim.kind, OracleKind::SimSoundness);
    assert!(sim.summary.checked > 0, "no simulator runs happened");
    assert_eq!(sim.summary.violations, 0);
    // The C11 column: checked on every C11-supported row, no
    // expectation misses, no unlicensed divergences.
    let c11 = &report.oracles[3];
    assert_eq!(c11.kind, OracleKind::C11Divergence);
    assert_eq!(c11.summary.violations, 0);
    assert!(c11.summary.checked > 0);
}

/// A checker that forbids everything: maximally wrong in the direction
/// the agreement oracle (and only the witnesses count of the native
/// model) can see.
struct ForbidAll;

impl ConsistencyModel for ForbidAll {
    fn name(&self) -> &str {
        "forbid-all"
    }

    fn allows(&self, _x: &Execution) -> bool {
        false
    }
}

#[test]
fn broken_cat_column_is_caught_and_shrunk() {
    let mut set = ModelSet::standard();
    set.replace(ModelId::LkmmCat, Box::new(ForbidAll));
    let cfg = CampaignConfig {
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        ..library_campaign()
    };
    let report = run_campaign_with(&cfg, &set).unwrap();
    assert!(!report.clean(), "a forbid-everything cat column must disagree somewhere");

    let d = report
        .discrepancies
        .iter()
        .find(|d| d.oracle == OracleKind::NativeCatAgreement)
        .expect("agreement oracle fires");
    assert!(matches!(
        d.check,
        Recheck::ResultAgreement { left: ModelId::LkmmNative, right: ModelId::LkmmCat }
    ));

    // The shrunk witness: no larger than the original, still a valid
    // litmus test, and still discriminating the two checkers.
    let shrunk = d.shrunk.as_ref().expect("campaign shrinks by default");
    assert!(shrunk.size <= test_size(&d.test), "shrinking grew the test");
    let witness = linux_kernel_memory_model::litmus::parse(&shrunk.litmus)
        .expect("shrunk witness re-parses");
    assert_eq!(test_size(&witness), shrunk.size);
    assert!(
        recheck_violated(
            &d.check,
            &witness,
            &set,
            &EnumOptions::default(),
            &PipelineOptions::default(),
        ),
        "minimal witness no longer discriminates native from the mutant cat"
    );
    // And against the *healthy* set the same witness is clean — the
    // discrepancy really is the mutant's fault.
    assert!(!recheck_violated(
        &d.check,
        &witness,
        &ModelSet::standard(),
        &EnumOptions::default(),
        &PipelineOptions::default(),
    ));
}

#[test]
fn envelope_oracle_sees_through_a_weakened_hardware_model() {
    // An allow-everything TSO violates SC ⊆ TSO nowhere (supersets are
    // fine) but breaks TSO ⊆ LKMM wherever the LKMM forbids: the
    // envelope oracle must attribute it to the (tso, lkmm) pair.
    struct AllowAll;
    impl ConsistencyModel for AllowAll {
        fn name(&self) -> &str {
            "allow-all"
        }
        fn allows(&self, _x: &Execution) -> bool {
            true
        }
    }
    let mut set = ModelSet::standard();
    set.replace(ModelId::Tso, Box::new(AllowAll));
    let cfg = CampaignConfig {
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        shrink: false,
        ..library_campaign()
    };
    let report = run_campaign_with(&cfg, &set).unwrap();
    let envelope: Vec<_> = report
        .discrepancies
        .iter()
        .filter(|d| d.oracle == OracleKind::EnvelopeOrdering)
        .collect();
    assert!(!envelope.is_empty());
    assert!(envelope.iter().all(|d| matches!(
        d.check,
        Recheck::Envelope { sub: ModelId::Tso, envelope: ModelId::LkmmNative }
    )));
    // SB+mbs is the classic case: TSO genuinely forbids it, so the
    // mutant's Allowed verdict violates the envelope there.
    assert!(envelope.iter().any(|d| d.test_name == "SB+mbs"));
}

#[test]
fn reports_render_and_stay_deterministic_across_runs() {
    let cfg = library_campaign();
    let a = run_campaign(&cfg).unwrap();
    let b = run_campaign(&cfg).unwrap();
    let ja = json_report(&a, &cfg).to_string();
    let jb = json_report(&b, &cfg).to_string();
    assert_eq!(ja, jb, "same config must render byte-identical JSON");
    let v = Json::parse(&ja).unwrap();
    assert_eq!(v.get("clean").and_then(Json::as_bool), Some(true));
    assert_eq!(
        v.get("corpus").and_then(|c| c.get("library")).and_then(Json::as_u64),
        Some(library::all().len() as u64)
    );
    assert!(human_table(&a).contains("no discrepancies"));
}

/// Library plus every cycle of length ≤ 4, a sampled simulator pass, an
/// on-disk store: what a campaign's unit workers share out.
fn pooled_campaign(jobs: usize, store: &std::path::Path) -> CampaignConfig {
    CampaignConfig {
        max_cycle_len: 4,
        jobs,
        store_path: Some(store.to_path_buf()),
        sim: SimConfig { iterations: 50, seed: 7, stride: 8 },
        ..CampaignConfig::default()
    }
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir()
        .join(format!("lkmm-conformance-{}-{tag}.vstore", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn report_and_store_bytes_are_identical_at_every_job_count() {
    let mut reference: Option<(String, Vec<u8>)> = None;
    for jobs in [1, 2, 8] {
        let store = temp_store(&format!("jobs{jobs}"));
        let cfg = pooled_campaign(jobs, &store);
        let report = run_campaign(&cfg).unwrap();
        assert!(report.clean());
        let json = json_report(&report, &cfg).to_string();
        let bytes = std::fs::read(&store).unwrap();
        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_file(store.with_extension("vstore.lock"));
        match &reference {
            None => reference = Some((json, bytes)),
            Some((j, b)) => {
                assert_eq!(&json, j, "JSON at --jobs {jobs}");
                assert!(&bytes == b, "store bytes differ at --jobs {jobs}");
            }
        }
    }
}

#[test]
fn adjacent_isomorphs_keep_sequential_provenance_at_every_job_count() {
    // Each test, then a renamed isomorph (same canonical key), then the
    // test again: duplicates always in flight together in a pool.
    let entries: Vec<CorpusEntry> = library::all()
        .iter()
        .take(8)
        .flat_map(|pt| {
            let t = pt.test();
            let twin = linux_kernel_memory_model::litmus::ast::Test {
                name: format!("{}-twin", t.name),
                ..t.clone()
            };
            [t.clone(), twin, t]
        })
        .map(|test| CorpusEntry { test, origin: Origin::Generated })
        .collect();
    let drive = |jobs: usize| -> Vec<ModelPass> {
        let stream = CorpusStream::of(entries.clone());
        let fp = config_fingerprint(&CampaignConfig::default(), stream.total());
        let opts = MatrixOptions { jobs, ..MatrixOptions::default() };
        let res = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        let sim = SimConfig { iterations: 0, ..SimConfig::default() };
        let (core, outcome) =
            drive_campaign(stream, fp, &ModelSet::standard(), &opts, &res, &sim).unwrap();
        assert!(outcome.failed_units.is_empty());
        core.passes
    };
    let want = drive(1);
    assert!(want.iter().all(|p| p.deduped >= 16), "two isomorphs per test: {want:?}");
    for jobs in [2, 8] {
        assert_eq!(drive(jobs), want, "--jobs {jobs}");
    }
}
