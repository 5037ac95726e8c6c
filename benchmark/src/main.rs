//! The LKMM checker's benchmark: one command, three workloads, every
//! output checked.
//!
//! ```text
//! lkmm-benchmark --workload cycles|contended|serve-mixed --seed N \
//!     --seconds S --trace 0|1 [--record FILE] [--spans FILE]
//! lkmm-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics through the
//! public entry points (`run_campaign_with`, `serve_tcp`); with
//! `--trace 1` it drives the same inputs through each layer's public
//! functions under spans and reports the per-layer metrics. Either way
//! the last line of standard output is the one-line JSON result, the
//! lines before it name every metric with its unit, and the exit code
//! is 1 when any verdict differs from its reference. `--record` appends
//! the result with the host fingerprint to a JSON-lines file; `compare`
//! prints the per-metric medians of two such files and refuses files
//! whose fingerprints differ. See README.md.

mod campaign;
mod engine;
mod host;
mod metrics;
mod serve;
mod trace;

use host::Fingerprint;
use lkmm_service::json::Json;
use metrics::{RunResult, END_TO_END, MAX_END_TO_END, MAX_PER_LAYER, PER_LAYER};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Scratch space for stores and span logs, relative to the directory
/// the benchmark runs in.
const WORK_ROOT: &str = ".bench_work";

/// Command-line arguments of a measuring run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: Option<PathBuf>,
    pub spans: Option<PathBuf>,
}

/// What a workload measured.
pub struct Measured {
    /// Campaign reports or server replies that differ from the reference.
    pub verdict_errors: u64,
    pub attempted: u64,
    /// Failed, refused, or inconclusive operations.
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write a traced run's span log: to `--spans`, or beside the work
/// directory.
pub fn write_spans(tr: &trace::Tracer, work: &Path, args: &Args) -> Result<(), String> {
    let path = args.spans.clone().unwrap_or_else(|| {
        work.with_file_name(format!("spans-{}-{}.jsonl", args.workload, args.seed))
    });
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    tr.write_spans(std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    eprintln!("lkmm-benchmark: span log in {}", path.display());
    Ok(())
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: None,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn measure(args: &Args, work: &Path) -> Result<Measured, String> {
    match (args.workload.as_str(), args.trace) {
        ("cycles", false) => campaign::run(&campaign::CYCLES, args, work),
        ("cycles", true) => campaign::run_traced(&campaign::CYCLES, args, work),
        ("contended", false) => campaign::run(&campaign::CONTENDED, args, work),
        ("contended", true) => campaign::run_traced(&campaign::CONTENDED, args, work),
        ("serve-mixed", false) => serve::run(args, work),
        ("serve-mixed", true) => serve::run_traced(args, work),
        (other, _) => Err(format!(
            "unknown workload `{other}` (cycles, contended, serve-mixed)"
        )),
    }
}

/// The paper's expected verdicts for its own library, under the native
/// LKMM and (where the paper gives one) original C11. Returns the tests
/// that disagree.
fn library_gate() -> Vec<String> {
    let native = lkmm::Lkmm::new();
    let c11 = lkmm_conformance::ModelId::C11.instantiate();
    let mut wrong = Vec::new();
    for pt in lkmm_litmus::library::all() {
        let mut checks: Vec<(&dyn lkmm_exec::ConsistencyModel, _)> = vec![(&native, pt.lkmm)];
        if let Some(expect) = pt.c11 {
            checks.push((c11.as_ref(), expect));
        }
        for (model, expect) in checks {
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lkmm_bench::check_expect(model, pt, expect)
            }))
            .is_ok();
            if !ok {
                wrong.push(format!("{} under {}", pt.name, model.name()));
            }
        }
    }
    wrong
}

fn run(args: &Args) -> Result<(RunResult, Vec<String>), String> {
    let work = Path::new(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let fingerprint = Fingerprint::of_host(&work);
    let mut lines = vec![format!("fingerprint {}", fingerprint.to_json())];
    if fingerprint.fault_injection {
        return Err("built with fault-injection; refusing to measure".into());
    }
    let library = library_gate();
    let measured = measure(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    let m = measured?;

    let verdict_errors = m.verdict_errors + library.len() as u64;
    lines.extend(
        library
            .iter()
            .map(|t| format!("library verdict differs from the paper: {t}")),
    );
    lines.extend(m.notes);
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let result = RunResult::new(
        verdict_errors == 0,
        m.attempted,
        m.failed,
        declared,
        &m.values,
    )?;
    for (name, value, unit) in &result.metrics {
        lines.push(format!("{name} {value} {unit}"));
    }
    lines.push(format!("verdict_errors {verdict_errors} count"));
    lines.push(format!(
        "failed_frac {} ratio",
        m.failed as f64 / result.attempted as f64
    ));
    if let Some(path) = &args.record {
        let record = format!(
            "{{\"fingerprint\":{},\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{}}}\n",
            fingerprint.to_json(),
            Json::str(args.workload.as_str()),
            args.seed,
            args.trace,
            result.to_json()
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok((result, lines))
}

/// `compare A B`: per workload and metric, the median of each file's
/// runs and their ratio — refused when any two fingerprints differ.
fn compare(a: &Path, b: &Path) -> Result<String, String> {
    type Runs = Vec<(String, String, Vec<(String, f64)>)>;
    let load = |p: &Path| -> Result<Runs, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        text.lines()
            .map(|l| {
                let j = Json::parse(l).map_err(|e| format!("{}: {e}", p.display()))?;
                let fp = j
                    .get("fingerprint")
                    .ok_or("record without a fingerprint")?
                    .to_string();
                let key = format!(
                    "{} trace={}",
                    j.get("workload").and_then(Json::as_str).unwrap_or("?"),
                    j.get("trace").map_or(String::new(), Json::to_string)
                );
                let metrics = match j.get("result").and_then(|r| r.get("metrics")) {
                    Some(Json::Obj(fields)) => fields
                        .iter()
                        .filter_map(|(k, v)| match v.get("value") {
                            Some(Json::Num(x)) => Some((k.clone(), *x)),
                            _ => None,
                        })
                        .collect(),
                    _ => return Err("record without metrics".to_string()),
                };
                Ok((fp, key, metrics))
            })
            .collect()
    };
    let (ra, rb) = (load(a)?, load(b)?);
    let first = ra.first().or(rb.first()).ok_or("no records")?.0.clone();
    if let Some((fp, _, _)) = ra.iter().chain(&rb).find(|(fp, _, _)| *fp != first) {
        return Err(format!(
            "fingerprints differ, refusing to compare:\n  {first}\n  {fp}"
        ));
    }
    let median_of = |runs: &Runs, key: &str, metric: &str| {
        let v: Vec<f64> = runs
            .iter()
            .filter(|(_, k, _)| k == key)
            .filter_map(|(_, _, m)| m.iter().find(|(n, _)| n == metric).map(|&(_, x)| x))
            .collect();
        (!v.is_empty()).then(|| metrics::median(&v))
    };
    let mut out = String::new();
    let mut keys: Vec<&String> = ra.iter().map(|(_, k, _)| k).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let names: Vec<&String> = ra
            .iter()
            .find(|(_, k, _)| k == key)
            .map(|(_, _, m)| m.iter().map(|(n, _)| n).collect())
            .unwrap_or_default();
        for name in names {
            if let (Some(x), Some(y)) = (median_of(&ra, key, name), median_of(&rb, key, name)) {
                let ratio = if x == 0.0 { f64::NAN } else { y / x };
                out.push_str(&format!("{key} {name}: {x} -> {y} ({ratio:.4}x)\n"));
            }
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = metrics::check_list(END_TO_END, MAX_END_TO_END)
        .and_then(|()| metrics::check_list(PER_LAYER, MAX_PER_LAYER))
    {
        eprintln!("lkmm-benchmark: metric declarations: {e}");
        return ExitCode::from(2);
    }
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare(Path::new(a), Path::new(b)) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("lkmm-benchmark: {e}");
                    ExitCode::from(3)
                }
            },
            _ => {
                eprintln!("usage: lkmm-benchmark compare A.jsonl B.jsonl");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lkmm-benchmark: {e}\nusage: lkmm-benchmark --workload cycles|contended|serve-mixed --seed N --seconds S --trace 0|1 [--record FILE] [--spans FILE]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((result, lines)) => {
            for line in lines {
                println!("{line}");
            }
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("lkmm-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(dir: &Path, name: &str, cpus: u32, value: f64) -> PathBuf {
        let path = dir.join(name);
        let line = format!(
            "{{\"fingerprint\":{{\"cpus\":{cpus}}},\"workload\":\"cycles\",\"seed\":1,\"trace\":false,\
             \"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"tests_per_s\":{{\"value\":{value},\"unit\":\"1/s\"}}}}}}}}\n"
        );
        std::fs::write(&path, line.repeat(3)).unwrap();
        path
    }

    #[test]
    fn compare_refuses_different_fingerprints() {
        let dir =
            std::env::temp_dir().join(format!("lkmm-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = record(&dir, "a", 2, 100.0);
        let b = record(&dir, "b", 2, 110.0);
        let c = record(&dir, "c", 4, 110.0);
        let table = compare(&a, &b).unwrap();
        assert!(
            table.contains("cycles trace=false tests_per_s: 100 -> 110 (1.1000x)"),
            "{table}"
        );
        assert!(compare(&a, &c).unwrap_err().contains("fingerprints differ"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload cycles --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cycles", 7, 2.5, true)
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload cycles --trace 2")).is_err());
        assert!(parse_args(&argv("--workload cycles --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload cycles --bogus 1")).is_err());
    }
}
