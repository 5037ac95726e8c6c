//! Framed, checksummed campaign checkpoints.
//!
//! A checkpoint file (`LKMMCK01`) is an append-only sequence of
//! *manifest frames*, each a complete snapshot of campaign progress:
//! the config fingerprint, the corpus cursor (units `0..cursor` are
//! done), per-column watermarks, and the quarantined units. Appending a
//! whole frame per checkpoint — rather than rewriting one in place —
//! means a crash *during* a checkpoint write costs nothing: the torn
//! frame fails its length or checksum test on load and the previous
//! frame wins. Recovery is therefore the same discipline as the verdict
//! store's: scan the valid prefix, stop at the first bad frame, take
//! the **latest valid** manifest.
//!
//! The frame format mirrors the store record format deliberately
//! (`len:u32le  fnv64:u64le  payload`), with a JSON manifest as the
//! payload so a human can inspect a checkpoint with `xxd`/`jq` when a
//! campaign goes sideways. The fingerprint is serialized as a hex
//! string — the vendored JSON type holds numbers as `f64`, which cannot
//! carry 64 significant bits.
//!
//! Fault points: `ckpt.torn` tears a frame mid-append (half the frame
//! reaches the file, the append returns an injected error), simulating
//! a crash inside the checkpoint write itself.

use crate::matrix::ModelPass;
use crate::oracle::OracleSummary;
use lkmm_core::faultpoint;
use lkmm_service::hash::fnv64;
use lkmm_service::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// File magic; the trailing `01` versions the manifest schema.
const MAGIC: &[u8; 8] = b"LKMMCK01";
/// Frame header: `len: u32le` + `checksum: u64le`.
const HEADER_LEN: usize = 12;
/// Sanity bound on one manifest frame (a manifest is small JSON; a
/// length field beyond this is corruption, not a big checkpoint).
const MAX_FRAME_LEN: usize = 1 << 24;

/// Why a quarantined unit was given up on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The unit panicked past the retry budget — either the driver
    /// caught the panic itself or every retry left contained
    /// worker-panic cells.
    Panic,
    /// Transient store/checkpoint I/O kept failing.
    TransientIo,
    /// The unit kept tripping the relative wall-clock limit.
    Deadline,
}

impl FailureKind {
    /// Stable name used in reports and checkpoint manifests.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::TransientIo => "transient-io",
            FailureKind::Deadline => "deadline",
        }
    }

    fn from_name(name: &str) -> Option<FailureKind> {
        match name {
            "panic" => Some(FailureKind::Panic),
            "transient-io" => Some(FailureKind::TransientIo),
            "deadline" => Some(FailureKind::Deadline),
            _ => None,
        }
    }
}

/// One quarantined corpus unit: the supervisor retried it
/// `attempts` times, every attempt failed the same way, and the
/// campaign carried on without it (its matrix row stays all-`None`, the
/// oracles skip it, and the run reports as degraded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailedUnit {
    /// Corpus index (stable across resume — the corpus is a
    /// deterministic function of the config).
    pub index: usize,
    /// Test name, for the report.
    pub test: String,
    /// The failure class every attempt landed in.
    pub kind: FailureKind,
    /// Attempts made (first try + retries).
    pub attempts: u32,
    /// Last failure's message.
    pub detail: String,
}

impl FailedUnit {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::num(self.index as u64)),
            ("test", Json::str(&self.test)),
            ("kind", Json::str(self.kind.name())),
            ("attempts", Json::num(u64::from(self.attempts))),
            ("detail", Json::str(&self.detail)),
        ])
    }

    fn from_json(v: &Json) -> Option<FailedUnit> {
        Some(FailedUnit {
            index: v.get("index")?.as_u64()? as usize,
            test: v.get("test")?.as_str()?.to_string(),
            kind: FailureKind::from_name(v.get("kind")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()? as u32,
            detail: v.get("detail")?.as_str()?.to_string(),
        })
    }
}

/// Aggregate campaign state over the finished prefix `0..cursor` — the
/// whole deterministic report boiled down to sums. Present in a
/// manifest when (and only when) that prefix is discrepancy-free, which
/// lets a resume *continue the arithmetic* instead of replaying the
/// prefix: pass counts and oracle summaries restart from these numbers
/// and only tail units are ever generated or checked. A prefix that
/// found discrepancies would need their full structure in the manifest
/// (test ASTs, recheck specs — the shrinker re-reduces them at the
/// end); rather than serialise all that, a dirty campaign records no
/// prefix and resume falls back to replaying through the warm store.
/// Discrepancies are the rare stop-the-world case; a cheap resume of a
/// clean campaign is the common one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Library rows in the prefix.
    pub corpus_library: usize,
    /// Generated rows in the prefix.
    pub corpus_generated: usize,
    /// Per-column deterministic counts, in
    /// [`crate::matrix::ModelId::ALL`] order. Only the report fields
    /// (checked/allowed/forbidden/inconclusive/skipped) are carried;
    /// the observability counters (hits, computed, …) are per-process
    /// and deliberately absent.
    pub passes: Vec<ModelPass>,
    /// Per-oracle summaries, in [`crate::oracle::OracleKind::ALL`]
    /// order.
    pub oracles: Vec<OracleSummary>,
}

impl PrefixStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("library", Json::num(self.corpus_library as u64)),
            ("generated", Json::num(self.corpus_generated as u64)),
            (
                "passes",
                Json::Arr(
                    self.passes
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("checked", Json::num(p.checked as u64)),
                                ("allowed", Json::num(p.allowed as u64)),
                                ("forbidden", Json::num(p.forbidden as u64)),
                                ("inconclusive", Json::num(p.inconclusive as u64)),
                                ("skipped", Json::num(p.skipped as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "oracles",
                Json::Arr(
                    self.oracles
                        .iter()
                        .map(|o| {
                            Json::obj(vec![
                                ("checked", Json::num(o.checked as u64)),
                                ("violations", Json::num(o.violations as u64)),
                                ("skipped", Json::num(o.skipped as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Option<PrefixStats> {
        let passes = v
            .get("passes")?
            .as_arr()?
            .iter()
            .map(|p| {
                Some(ModelPass {
                    checked: p.get("checked")?.as_u64()? as usize,
                    allowed: p.get("allowed")?.as_u64()? as usize,
                    forbidden: p.get("forbidden")?.as_u64()? as usize,
                    inconclusive: p.get("inconclusive")?.as_u64()? as usize,
                    skipped: p.get("skipped")?.as_u64()? as usize,
                    ..ModelPass::default()
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let oracles = v
            .get("oracles")?
            .as_arr()?
            .iter()
            .map(|o| {
                Some(OracleSummary {
                    checked: o.get("checked")?.as_u64()? as usize,
                    violations: o.get("violations")?.as_u64()? as usize,
                    skipped: o.get("skipped")?.as_u64()? as usize,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PrefixStats {
            corpus_library: v.get("library")?.as_u64()? as usize,
            corpus_generated: v.get("generated")?.as_u64()? as usize,
            passes,
            oracles,
        })
    }
}

/// One manifest: everything a resumed campaign needs to pick up where
/// this one stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// FNV-64 over the canonical config string; resume refuses to
    /// continue under a different fingerprint.
    pub fingerprint: u64,
    /// Units `0..cursor` are done (checked or quarantined) and their
    /// completed verdicts are durable in the store — the driver flushes
    /// the store before every frame.
    pub cursor: usize,
    /// Per-column checked-cell counts at frame time, in
    /// [`crate::matrix::ModelId::ALL`] order. Observability only.
    pub watermarks: Vec<usize>,
    /// Quarantined units so far; resume skips them without retrying.
    pub failed_units: Vec<FailedUnit>,
    /// Aggregates over the clean prefix, or `None` when the prefix has
    /// discrepancies (resume then replays through the store instead).
    pub prefix: Option<PrefixStats>,
}

impl Checkpoint {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            ("cursor", Json::num(self.cursor as u64)),
            (
                "watermarks",
                Json::Arr(self.watermarks.iter().map(|&w| Json::num(w as u64)).collect()),
            ),
            (
                "failed_units",
                Json::Arr(self.failed_units.iter().map(FailedUnit::to_json).collect()),
            ),
        ];
        if let Some(prefix) = &self.prefix {
            fields.push(("prefix", prefix.to_json()));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Option<Checkpoint> {
        let fingerprint = u64::from_str_radix(v.get("fingerprint")?.as_str()?, 16).ok()?;
        let cursor = v.get("cursor")?.as_u64()? as usize;
        let watermarks = v
            .get("watermarks")?
            .as_arr()?
            .iter()
            .map(|w| w.as_u64().map(|w| w as usize))
            .collect::<Option<Vec<_>>>()?;
        let failed_units = v
            .get("failed_units")?
            .as_arr()?
            .iter()
            .map(FailedUnit::from_json)
            .collect::<Option<Vec<_>>>()?;
        // A malformed prefix section poisons the whole frame (the
        // previous frame wins) rather than silently resuming without it.
        let prefix = match v.get("prefix") {
            None => None,
            Some(p) => Some(PrefixStats::from_json(p)?),
        };
        Some(Checkpoint { fingerprint, cursor, watermarks, failed_units, prefix })
    }
}

/// What a checkpoint-file scan found.
#[derive(Clone, Debug, Default)]
pub struct CheckpointScan {
    /// The latest valid manifest, if any frame survived.
    pub latest: Option<Checkpoint>,
    /// Valid frames in the prefix.
    pub frames: usize,
    /// Bytes past the last valid frame (a torn or corrupt tail — the
    /// expected residue of a crash mid-checkpoint).
    pub dropped_bytes: u64,
}

/// Scan `path` and return the latest valid manifest. A missing file is
/// an empty scan, not an error; a wrong-magic file is treated as no
/// checkpoint at all (never silently reused across format versions).
///
/// # Errors
///
/// Underlying read errors only — torn and corrupt frames are recovery
/// input, not errors.
pub fn load(path: &Path) -> io::Result<CheckpointScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CheckpointScan::default()),
        Err(e) => return Err(e),
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Ok(CheckpointScan { dropped_bytes: bytes.len() as u64, ..Default::default() });
    }
    let mut scan = CheckpointScan::default();
    let mut at = MAGIC.len();
    let mut valid_end = at;
    while bytes.len() - at >= HEADER_LEN {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        if len > MAX_FRAME_LEN || bytes.len() - at - HEADER_LEN < len {
            break; // absurd length or short payload: stop at the tear
        }
        let payload = &bytes[at + HEADER_LEN..at + HEADER_LEN + len];
        if fnv64(payload) != checksum {
            break;
        }
        let manifest = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|v| Checkpoint::from_json(&v));
        let Some(manifest) = manifest else { break };
        scan.latest = Some(manifest);
        scan.frames += 1;
        at += HEADER_LEN + len;
        valid_end = at;
    }
    scan.dropped_bytes = (bytes.len() - valid_end) as u64;
    Ok(scan)
}

/// An open checkpoint file the driver appends manifest frames to.
pub struct CheckpointLog {
    path: PathBuf,
    file: File,
    dir_synced: bool,
}

impl CheckpointLog {
    /// Open `path` for appending. `resume: false` truncates any
    /// previous campaign's frames (their fingerprint may differ);
    /// `resume: true` keeps them — but first truncates the file back to
    /// its valid prefix, so new frames never land after a torn tail.
    ///
    /// # Errors
    ///
    /// File creation/truncation errors.
    pub fn open(path: &Path, resume: bool) -> io::Result<CheckpointLog> {
        let fresh = !resume || !path.exists();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(fresh).open(path)?;
        if fresh {
            file.write_all(MAGIC)?;
        } else {
            let scan = load(path)?;
            if scan.frames == 0 {
                // Wrong magic, empty, or nothing valid at all: start over.
                file.set_len(0)?;
                file.write_all(MAGIC)?;
            } else if scan.dropped_bytes > 0 {
                let end = file.metadata()?.len() - scan.dropped_bytes;
                file.set_len(end)?;
            }
        }
        use std::io::Seek as _;
        file.seek(io::SeekFrom::End(0))?;
        Ok(CheckpointLog { path: path.to_path_buf(), file, dir_synced: false })
    }

    /// Append one manifest frame and sync it to stable storage. The
    /// first append of a log's lifetime also fsyncs the parent
    /// directory, so a crash cannot lose the file entry itself.
    ///
    /// # Errors
    ///
    /// Write/sync failures, including the injected `ckpt.torn` tear
    /// (half the frame reaches the file; the next [`load`] drops it).
    pub fn append(&mut self, ck: &Checkpoint) -> io::Result<()> {
        let payload = ck.to_json().to_string().into_bytes();
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if faultpoint::should_fail("ckpt.torn") {
            self.file.write_all(&frame[..frame.len() / 2])?;
            self.file.sync_data()?;
            return Err(io::Error::other("faultpoint: torn checkpoint frame at `ckpt.torn`"));
        }
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        if !self.dir_synced {
            if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
                File::open(dir)?.sync_all()?;
            }
            self.dir_synced = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("lkmm-ckpt-{}-{tag}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample(cursor: usize) -> Checkpoint {
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            cursor,
            watermarks: vec![cursor; 7],
            failed_units: vec![FailedUnit {
                index: 3,
                test: "W+W".into(),
                kind: FailureKind::TransientIo,
                attempts: 3,
                detail: "injected".into(),
            }],
            prefix: None,
        }
    }

    #[test]
    fn prefix_aggregates_round_trip() {
        let path = temp_path("prefix");
        let ck = Checkpoint {
            prefix: Some(PrefixStats {
                corpus_library: 5,
                corpus_generated: 4,
                passes: (0..7)
                    .map(|i| ModelPass {
                        checked: 9 - i,
                        allowed: 4,
                        forbidden: 3,
                        inconclusive: 1,
                        skipped: i,
                        // Observability counters must not survive the
                        // round trip: they are per-process noise.
                        hits: 1000,
                        computed: 1000,
                        deduped: 1000,
                        candidates_enumerated: 1000,
                    })
                    .collect(),
                oracles: vec![
                    OracleSummary { checked: 9, violations: 0, skipped: 2 };
                    4
                ],
            }),
            ..sample(9)
        };
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&ck).unwrap();
        drop(log);
        let got = load(&path).unwrap().latest.unwrap();
        let prefix = got.prefix.expect("prefix survives");
        assert_eq!(prefix.corpus_library, 5);
        assert_eq!(prefix.corpus_generated, 4);
        assert_eq!(prefix.passes.len(), 7);
        assert_eq!(prefix.passes[2].checked, 7);
        assert_eq!(prefix.passes[2].skipped, 2);
        assert_eq!(prefix.passes[0].hits, 0, "observability counters are dropped");
        assert_eq!(prefix.passes[0].candidates_enumerated, 0);
        assert_eq!(prefix.oracles.len(), 4);
        assert_eq!(prefix.oracles[1].skipped, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn latest_valid_frame_wins() {
        let path = temp_path("latest");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        for cursor in [1, 5, 9] {
            log.append(&sample(cursor)).unwrap();
        }
        drop(log);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 3);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.latest, Some(sample(9)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_falls_back_to_the_previous_frame() {
        let path = temp_path("torn");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        log.append(&sample(8)).unwrap();
        drop(log);
        // Crash mid-append: chop bytes off the last frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 1);
        assert!(scan.dropped_bytes > 0);
        assert_eq!(scan.latest.unwrap().cursor, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_for_resume_truncates_the_tear_and_appends_cleanly() {
        let path = temp_path("reopen");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        drop(log);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().append(true).open(&path).unwrap()
            .write_all(&[0x55; 9]).unwrap();
        let mut log = CheckpointLog::open(&path, true).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "tear truncated");
        log.append(&sample(12)).unwrap();
        drop(log);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 2);
        assert_eq!(scan.latest.unwrap().cursor, 12);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_open_discards_a_previous_campaign() {
        let path = temp_path("fresh");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        drop(log);
        let log = CheckpointLog::open(&path, false).unwrap();
        drop(log);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 0);
        assert!(scan.latest.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_is_dropped() {
        let path = temp_path("corrupt");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        log.append(&sample(8)).unwrap();
        drop(log);
        // Flip a byte inside the second frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 10;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 1);
        assert_eq!(scan.latest.unwrap().cursor, 4);
        assert!(scan.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_scan() {
        let path = temp_path("missing");
        let scan = load(&path).unwrap();
        assert!(scan.latest.is_none());
        assert_eq!(scan.frames, 0);
    }

    #[test]
    fn wrong_magic_is_no_checkpoint() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTACKPT whatever").unwrap();
        let scan = load(&path).unwrap();
        assert!(scan.latest.is_none());
        assert!(scan.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
