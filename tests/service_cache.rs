//! End-to-end cache correctness for the verdict store, driven through
//! the facade exactly as `herd-rs --store` drives it: a cold pass over
//! the library computes and persists, a warm pass over a reopened store
//! answers everything from disk with zero candidate enumerations and
//! result-identical outcomes, and a store with a torn or corrupted tail
//! recovers its valid prefix and recomputes only what was lost.

use linux_kernel_memory_model::service::{BatchChecker, Provenance, VerdictStore};
use linux_kernel_memory_model::ModelChoice;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// A unique temp path per test (concurrent test binaries must not collide).
fn temp_store(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lkmm-service-cache-{}-{tag}.bin", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn warm_library_pass_is_pure_replay_with_identical_results() {
    let path = temp_store("warm");
    let model = ModelChoice::Lkmm.model();

    let cold = {
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.len(), 0);
        let mut checker = BatchChecker::new(model.as_ref(), store, "it");
        checker.check_library().unwrap().columns.remove(0)
    };
    assert_eq!(cold.hits, 0);
    assert!(cold.computed > 0);
    assert!(cold.candidates_enumerated > 0);

    // Reopen from disk: everything must replay, nothing may enumerate.
    let store = VerdictStore::open(&path).unwrap();
    assert_eq!(store.recovery().truncated_bytes(), 0);
    assert_eq!(store.len(), cold.computed);
    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let warm = checker.check_library().unwrap().columns.remove(0);
    assert_eq!(warm.computed, 0);
    assert_eq!(warm.candidates_enumerated, 0);
    assert_eq!(warm.hits, cold.computed + cold.hits);
    assert_eq!(warm.deduped, cold.deduped);
    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (c, w) in cold.outcomes.iter().flatten().zip(warm.outcomes.iter().flatten()) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.key, w.key);
        assert_eq!(c.result(), w.result(), "{}: warm result differs from cold", c.name);
        assert_ne!(w.provenance, Provenance::Computed, "{}: warm pass recomputed", w.name);
    }

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_is_truncated_and_recomputed() {
    let path = temp_store("torn");
    let model = ModelChoice::Lkmm.model();

    let cold = {
        let store = VerdictStore::open(&path).unwrap();
        let mut checker = BatchChecker::new(model.as_ref(), store, "it");
        checker.check_library().unwrap().columns.remove(0)
    };

    // Tear the last record: chop a few bytes off, as a crash mid-append
    // would.
    let file = OpenOptions::new().write(true).open(&path).unwrap();
    let len = file.metadata().unwrap().len();
    file.set_len(len - 5).unwrap();
    drop(file);

    let store = VerdictStore::open(&path).unwrap();
    assert!(store.recovery().truncated_bytes() > 0, "torn tail went unnoticed");
    assert_eq!(store.recovery().records, cold.computed - 1, "more than the tail was lost");
    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let warm = checker.check_library().unwrap().columns.remove(0);
    assert_eq!(warm.computed, 1, "exactly the torn record should recompute");
    for (c, w) in cold.outcomes.iter().flatten().zip(warm.outcomes.iter().flatten()) {
        assert_eq!(c.result(), w.result(), "{}: result changed across recovery", c.name);
    }

    // The recomputed record was appended: a third pass is pure replay.
    // (The previous checker must drop first — it holds the store lock.)
    drop(checker);
    let store = VerdictStore::open(&path).unwrap();
    assert_eq!(store.recovery().truncated_bytes(), 0);
    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let third = checker.check_library().unwrap().columns.remove(0);
    assert_eq!(third.computed, 0);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_mid_record_keeps_the_valid_prefix() {
    let path = temp_store("corrupt");
    let model = ModelChoice::Lkmm.model();

    let cold = {
        let store = VerdictStore::open(&path).unwrap();
        let mut checker = BatchChecker::new(model.as_ref(), store, "it");
        checker.check_library().unwrap().columns.remove(0)
    };

    // Flip one byte halfway into the log: the checksum of the record it
    // lands in must fail, and everything from that record on is dropped.
    let mut file = OpenOptions::new().read(true).write(true).open(&path).unwrap();
    let len = file.metadata().unwrap().len();
    let target = len / 2;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(target)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xff;
    file.seek(SeekFrom::Start(target)).unwrap();
    file.write_all(&byte).unwrap();
    drop(file);

    let store = VerdictStore::open(&path).unwrap();
    let recovered = store.recovery().records;
    assert!(recovered > 0, "prefix before the corruption was lost");
    assert!(recovered < cold.computed, "corruption went unnoticed");
    assert!(store.recovery().truncated_bytes() > 0);

    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let warm = checker.check_library().unwrap().columns.remove(0);
    assert_eq!(warm.computed, cold.computed - recovered);
    assert_eq!(warm.hits + warm.deduped + warm.computed, cold.outcomes.len());
    for (c, w) in cold.outcomes.iter().flatten().zip(warm.outcomes.iter().flatten()) {
        assert_eq!(c.result(), w.result(), "{}: result changed across recovery", c.name);
    }

    std::fs::remove_file(&path).unwrap();
}
