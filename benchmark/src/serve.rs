//! The `serve-mixed` workload: the TCP verdict server under a seeded
//! 50/50 mix of reads and writes from two closed-loop clients.
//!
//! Set-up opens one durable store shard (every appended verdict is
//! fsynced), binds and spawns `serve_tcp` with two workers and model
//! `lkmm`, and pre-loads a seeded warm set with one `batch` request.
//! Each client then sends single `check` requests by source text and
//! waits for each reply: a *read* re-asks a warm-set test (parse,
//! canonicalise and key, store hit), a *write* asks a new distinct
//! cycle test (check, append, fsync). Every reply is compared with an
//! in-process `BatchChecker` answer on the same source.
//!
//! Traced, the requests the untraced run sent are replayed in send
//! order through the layers' public functions on one thread, over a
//! store pre-loaded the same way.

use crate::campaign::{layer_values, ratio};
use crate::engine::{traced_check, ExecCounters};
use crate::host;
use crate::metrics::{median, Summary};
use crate::trace::{Layer, Tracer};
use crate::{Args, Measured};
use lkmm_exec::{ConsistencyModel, DataPlaneStats, EnumOptions};
use lkmm_generator::{cycles_up_to, default_alphabet, generate};
use lkmm_server::{serve_tcp, ServerConfig};
use lkmm_service::json::Json;
use lkmm_service::{cache_key, BatchChecker, ShardedStore, VerdictStore};
use lkmm_sim::rng::SplitMix64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Cache-key salt shared by the server and the reference checker.
const SALT: &str = "lkmm-benchmark";
/// Tests pre-loaded in set-up; reads re-ask them.
const WARM: usize = 256;
/// Closed-loop client connections (the host has two CPUs).
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Writes come from the diy cycles up to this length.
const POOL_CYCLE_LEN: usize = 6;
/// Write tests prepared per measured second — above what two clients
/// at a 50% write share can send on this class of host.
const WRITES_PER_SECOND: f64 = 4000.0;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 5;

/// Read (re-ask a warm-set test) or write (a new test).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Read,
    Write,
}

/// The seeded inputs, as `check` request lines.
struct Inputs {
    warm: Vec<String>,
    writes: Vec<String>,
}

impl Inputs {
    fn line(&self, kind: Kind, i: usize) -> &str {
        match kind {
            Kind::Read => &self.warm[i],
            Kind::Write => &self.writes[i],
        }
    }

    /// The litmus source a request line carries.
    fn source(&self, kind: Kind, i: usize) -> String {
        let request = Json::parse(self.line(kind, i)).expect("request lines are JSON");
        request
            .get("source")
            .and_then(Json::as_str)
            .expect("request carries a source")
            .to_string()
    }
}

/// Draw the warm set and the write sequence from the cycles of length
/// ≤ `POOL_CYCLE_LEN`, in a seeded order.
fn inputs(seed: u64, seconds: f64) -> Result<Inputs, String> {
    let cycles = cycles_up_to(POOL_CYCLE_LEN, &default_alphabet());
    let need = (WARM + (seconds * WRITES_PER_SECOND) as usize + 1000).min(cycles.len());
    let mut order: Vec<usize> = (0..cycles.len()).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in 0..need {
        let j = i + rng.gen_index(order.len() - i);
        order.swap(i, j);
    }
    let mut lines = order[..need]
        .iter()
        .map(|&k| {
            let test = generate(&cycles[k]).map_err(|e| e.to_string())?;
            Ok(format!(
                "{{\"op\":\"check\",\"source\":{}}}\n",
                Json::str(test.to_string())
            ))
        })
        .collect::<Result<Vec<String>, String>>()?;
    let writes = lines.split_off(WARM);
    Ok(Inputs {
        warm: lines,
        writes,
    })
}

/// A running server.
struct Server {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<lkmm_server::ServerSummary>>,
}

impl Server {
    /// Shut the server down and wait for it.
    fn stop(self) -> Result<lkmm_server::ServerSummary, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        writeln!(s, "{{\"op\":\"shutdown\"}}").map_err(|e| e.to_string())?;
        let _ = s.shutdown(std::net::Shutdown::Write);
        let _ = BufReader::new(s).lines().count();
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

fn store_base(work: &Path, tag: &str) -> PathBuf {
    let base = work.join(format!("{tag}.store"));
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(work.join(format!("{tag}.store.lock")));
    base
}

fn lkmm_factory() -> Box<dyn ConsistencyModel> {
    Box::new(lkmm::Lkmm::new())
}

/// Open a fresh durable store, bind and spawn the server, and pre-load
/// the warm set with one `batch` request.
fn setup(inp: &Inputs, work: &Path, tag: &str) -> Result<(Server, Duration), String> {
    let start = Instant::now();
    let store = ShardedStore::open(store_base(work, tag), 1).map_err(|e| e.to_string())?;
    let store = Arc::new(store.durable(true));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServerConfig {
        workers: WORKERS,
        jobs: 1,
        ..ServerConfig::default()
    };
    let handle = thread::spawn(move || serve_tcp(listener, &lkmm_factory, SALT, store, &config));
    let server = Server { addr, handle };

    let sources: Vec<Json> = (0..WARM)
        .map(|i| Json::str(inp.source(Kind::Read, i)))
        .collect();
    let request = Json::obj(vec![
        ("op", Json::str("batch")),
        ("sources", Json::Arr(sources)),
    ]);
    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    writeln!(conn, "{request}").map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(&conn)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    let reply = Json::parse(&reply).map_err(|e| format!("batch reply: {e}"))?;
    if reply.get("ok") != Some(&Json::Bool(true))
        || reply.get("count").and_then(Json::as_u64) != Some(WARM as u64)
    {
        return Err(format!("warm-set batch failed: {reply}"));
    }
    Ok((server, start.elapsed()))
}

/// The fields of a `check` reply that must equal the reference's,
/// held compactly because a run keeps one per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Answer {
    key: u128,
    verdict_allow: bool,
    condition_holds: bool,
    candidates: u32,
    allowed: u32,
    witnesses: u32,
}

/// A successful `check` reply: provenance, service time, answer.
struct Reply {
    hit: bool,
    micros: u64,
    answer: Answer,
}

/// Parse a reply; `None` for an error, a refusal, or an inconclusive or
/// malformed answer.
fn reply_of(line: &str) -> Option<Reply> {
    let j = Json::parse(line).ok()?;
    if j.get("ok") != Some(&Json::Bool(true)) || j.get("inconclusive").is_some() {
        return None;
    }
    let hit = match j.get("cache").and_then(Json::as_str)? {
        "hit" => true,
        "computed" => false,
        _ => return None,
    };
    let num = |k| {
        j.get(k)
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
    };
    Some(Reply {
        hit,
        micros: j.get("micros").and_then(Json::as_u64)?,
        answer: Answer {
            key: u128::from_str_radix(j.get("key").and_then(Json::as_str)?, 16).ok()?,
            verdict_allow: match j.get("verdict").and_then(Json::as_str)? {
                "Allow" => true,
                "Forbid" => false,
                _ => return None,
            },
            condition_holds: j.get("condition_holds").and_then(Json::as_bool)?,
            candidates: num("candidates")?,
            allowed: num("allowed")?,
            witnesses: num("witnesses")?,
        },
    })
}

/// One request as a client saw it.
struct Sample {
    kind: Kind,
    index: usize,
    /// Seconds from the start of the measurement to sending.
    sent: f64,
    latency_ms: f64,
    reply: Option<Reply>,
}

/// Two closed-loop clients for `seconds`; returns every sample, in send
/// order, and the measured wall time.
fn drive(
    inp: &Inputs,
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Sample>, f64), String> {
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(inp, addr, seed, c, start, seconds)))
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for s in per_client {
        samples.extend(s?);
    }
    samples.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    Ok((samples, wall))
}

fn client(
    inp: &Inputs,
    addr: SocketAddr,
    seed: u64,
    c: usize,
    start: Instant,
    seconds: f64,
) -> Result<Vec<Sample>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut rng =
        SplitMix64::seed_from_u64(seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    // Client `c` takes writes c, c + CLIENTS, …, so no test is asked twice.
    let mut next_write = c;
    let mut samples = Vec::new();
    let mut buf = String::new();
    loop {
        let sent = start.elapsed().as_secs_f64();
        if sent >= seconds {
            break;
        }
        let (kind, index) = if rng.next_u64() & 1 == 1 {
            if next_write >= inp.writes.len() {
                break;
            }
            next_write += CLIENTS;
            (Kind::Write, next_write - CLIENTS)
        } else {
            (Kind::Read, rng.gen_index(WARM))
        };
        buf.clear();
        writer
            .write_all(inp.line(kind, index).as_bytes())
            .map_err(|e| e.to_string())?;
        reader.read_line(&mut buf).map_err(|e| e.to_string())?;
        let latency_ms = (start.elapsed().as_secs_f64() - sent) * 1e3;
        samples.push(Sample {
            kind,
            index,
            sent,
            latency_ms,
            reply: reply_of(&buf),
        });
    }
    Ok(samples)
}

/// In-process answers through the `check` op of a `BatchChecker`.
struct Reference<'m> {
    checker: BatchChecker<'m, VerdictStore>,
    warm: HashMap<usize, Option<Answer>>,
}

impl<'m> Reference<'m> {
    fn new(model: &'m dyn ConsistencyModel, stats: Arc<DataPlaneStats>) -> Self {
        let checker = BatchChecker::new(model, VerdictStore::in_memory(), SALT)
            .with_jobs(1)
            .with_pipeline_stats(Some(stats));
        Reference {
            checker,
            warm: HashMap::new(),
        }
    }

    fn expected(&mut self, inp: &Inputs, kind: Kind, index: usize) -> Option<Answer> {
        let ask = |checker: &mut BatchChecker<'m, VerdictStore>| {
            reply_of(
                &lkmm_service::serve::answer(checker, inp.line(kind, index).trim_end()).to_string(),
            )
            .map(|r| r.answer)
        };
        match kind {
            Kind::Read => *self
                .warm
                .entry(index)
                .or_insert_with(|| ask(&mut self.checker)),
            Kind::Write => ask(&mut self.checker),
        }
    }
}

/// The reference answer for every sample, from one in-process checker
/// per CPU, each over its share of the samples.
fn expected_answers(
    inp: &Inputs,
    samples: &[Sample],
    stats: &Arc<DataPlaneStats>,
) -> Vec<Option<Answer>> {
    let share = samples.len().div_ceil(CLIENTS).max(1);
    thread::scope(|scope| {
        let checkers: Vec<_> = samples
            .chunks(share)
            .map(|chunk| {
                scope.spawn(move || {
                    let model = lkmm::Lkmm::new();
                    let mut reference = Reference::new(&model, stats.clone());
                    chunk
                        .iter()
                        .map(|s| reference.expected(inp, s.kind, s.index))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        checkers
            .into_iter()
            .flat_map(|h| h.join().expect("reference checker panicked"))
            .collect()
    })
}

/// The measured run, checked and summarised.
struct Replies {
    reads: Vec<f64>,
    writes: Vec<f64>,
    service_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    all_ms: Vec<f64>,
    answered: u64,
    failed: u64,
    errors: u64,
    notes: Vec<String>,
}

/// Check every reply against the reference and sort the latencies into
/// reads (cached provenance) and writes (computed and appended).
fn tally(samples: &[Sample], expected: &[Option<Answer>]) -> Replies {
    let mut r = Replies {
        reads: Vec::new(),
        writes: Vec::new(),
        service_ms: Vec::new(),
        queue_ms: Vec::new(),
        all_ms: Vec::new(),
        answered: 0,
        failed: 0,
        errors: 0,
        notes: Vec::new(),
    };
    for (s, expected) in samples.iter().zip(expected) {
        let Some(reply) = &s.reply else {
            // Failed or refused: it misses every latency limit.
            r.failed += 1;
            r.all_ms.push(f64::INFINITY);
            continue;
        };
        r.answered += 1;
        r.all_ms.push(s.latency_ms);
        if reply.hit {
            r.reads.push(s.latency_ms);
        } else {
            r.writes.push(s.latency_ms);
        }
        if s.kind == Kind::Read && !reply.hit {
            r.errors += 1;
            r.notes.push(format!(
                "warm-set test {} was not served from the store",
                s.index
            ));
        }
        let service = reply.micros as f64 / 1e3;
        r.service_ms.push(service);
        r.queue_ms.push((s.latency_ms - service).max(0.0));
        if expected.as_ref() != Some(&reply.answer) {
            r.errors += 1;
            r.notes.push(format!(
                "reply {:?} differs from the reference {expected:?}",
                reply.answer
            ));
        }
    }
    r.notes.truncate(20);
    r
}

/// `figure` on each of the run's whole seconds. Each end-to-end figure
/// is the median of these, so a burst of lost CPU shorter than half the
/// run does not move it.
fn per_second(
    samples: &[Sample],
    seconds: f64,
    figure: impl Fn(&[&Sample]) -> Option<f64>,
) -> Vec<f64> {
    let windows = (seconds.floor() as usize).max(1);
    let mut buckets: Vec<Vec<&Sample>> = vec![Vec::new(); windows];
    for s in samples {
        if let Some(b) = buckets.get_mut(s.sent as usize) {
            b.push(s);
        }
    }
    buckets.iter().filter_map(|b| figure(b)).collect()
}

/// Latency percentile `p` of the replies in `window` with provenance
/// `hit`.
fn latency(window: &[&Sample], hit: bool, p: f64) -> Option<f64> {
    let v: Vec<f64> = window
        .iter()
        .filter(|s| s.reply.as_ref().is_some_and(|r| r.hit == hit))
        .map(|s| s.latency_ms)
        .collect();
    (!v.is_empty()).then(|| Summary::new(v).at(p))
}

/// Replace infinite (refused) latencies by the largest finite one ×
/// 1000, so they sort last without making the figure infinite.
fn finite(mut v: Vec<f64>) -> Vec<f64> {
    let cap = v
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .fold(0.0, f64::max)
        * 1000.0;
    for x in &mut v {
        if !x.is_finite() {
            *x = cap;
        }
    }
    v
}

/// The untraced workload.
pub fn run(args: &Args, work: &Path) -> Result<Measured, String> {
    let t = Instant::now();
    let inp = inputs(args.seed, args.seconds)?;
    let inputs_s = t.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        if let Some(s) = server.take() {
            Server::stop(s)?;
        }
        let (s, took) = setup(&inp, work, &format!("serve{k}"))?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");
    // The distinct write tests last about fifteen seconds. A longer run
    // goes on in rounds, each against a freshly set-up server and store,
    // so every write stays a miss; set-up time between rounds is not
    // measured.
    let (mut samples, mut wall, mut rounds) = (Vec::new(), 0.0, 0);
    let (mut requests, mut refused) = (0, 0);
    loop {
        let (mut round, took) = drive(&inp, server.addr, args.seed, args.seconds - wall)?;
        let summary = server.stop()?;
        requests += summary.requests;
        refused += summary.over_quota + summary.overloaded;
        for s in &mut round {
            s.sent += wall;
        }
        samples.extend(round);
        wall += took;
        rounds += 1;
        if wall >= args.seconds {
            break;
        }
        server = setup(&inp, work, &format!("round{rounds}"))?.0;
    }
    // Read before the replies are checked: the reference checkers are
    // the benchmark's own memory, not the server's.
    let peak_rss_mb = host::peak_rss_mb();
    let t = Instant::now();
    let r = tally(&samples, &expected_answers(&inp, &samples, &Arc::default()));
    eprintln!(
        "lkmm-benchmark: inputs {inputs_s:.2} s, set-ups {:.2} s, checking replies {:.2} s",
        setups.iter().sum::<f64>(),
        t.elapsed().as_secs_f64()
    );
    let (reads, writes) = (Summary::new(r.reads), Summary::new(r.writes));
    let mut notes = r.notes;
    notes.push(format!(
        "pooled read latency (warm-set re-asks): p50 {} ms, p90 {} ms, p99 {} ms ({})",
        reads.at(50.0),
        reads.at(90.0),
        reads.at(99.0),
        reads.describe()
    ));
    notes.push(format!(
        "pooled write latency (new tests, appended and fsynced): p50 {} ms, p90 {} ms, p99 {} ms ({})",
        writes.at(50.0), writes.at(90.0), writes.at(99.0), writes.describe()
    ));
    notes.push(format!(
        "server: {requests} requests, {refused} refused; {} replies in {wall:.3} s over {rounds} round(s)",
        samples.len()
    ));
    let secs = args.seconds;
    let count = |w: &[&Sample], answered: bool| {
        Some(w.iter().filter(|s| !answered || s.reply.is_some()).count() as f64)
    };
    type Figure<'a> = &'a dyn Fn(&[&Sample]) -> Option<f64>;
    let figures: [(&str, Figure); 6] = [
        ("tests_per_s", &|w| count(w, true)),
        ("req_per_s", &|w| count(w, false)),
        ("read_p50_ms", &|w| latency(w, true, 50.0)),
        ("read_p90_ms", &|w| latency(w, true, 90.0)),
        ("write_p50_ms", &|w| latency(w, false, 50.0)),
        ("write_p90_ms", &|w| latency(w, false, 90.0)),
    ];
    let mut values = vec![("setup_s", median(&setups))];
    for (name, figure) in figures {
        let per_second = per_second(&samples, secs, figure);
        let text: Vec<String> = per_second.iter().map(|x| format!("{x:.4}")).collect();
        notes.push(format!("{name} per second: {}", text.join(" ")));
        values.push((name, median(&per_second)));
    }
    values.push(("peak_rss_mb", peak_rss_mb));
    Ok(Measured {
        verdict_errors: r.errors,
        attempted: samples.len() as u64,
        failed: r.failed,
        values,
        notes,
    })
}

/// The traced workload: one untraced measured run for the server-side
/// figures, then its requests replayed layer by layer.
pub fn run_traced(args: &Args, work: &Path) -> Result<Measured, String> {
    let inp = inputs(args.seed, args.seconds)?;
    let (server, _) = setup(&inp, work, "serve")?;
    let cpu0 = host::cpu_seconds();
    let (samples, untraced_wall) = drive(&inp, server.addr, args.seed, args.seconds)?;
    let cpu_util = (host::cpu_seconds() - cpu0) / (untraced_wall * crate::cpus() as f64);
    server.stop()?;
    let model = lkmm::Lkmm::new();
    let data_plane = Arc::new(DataPlaneStats::default());
    let expected = expected_answers(&inp, &samples, &data_plane);
    let r = tally(&samples, &expected);
    let (service, queue, all) = (
        Summary::new(r.service_ms),
        Summary::new(r.queue_ms),
        Summary::new(finite(r.all_ms)),
    );
    let mut errors = r.errors;
    let mut notes = r.notes;
    notes.push(format!(
        "server latency ({}), service and queue ({})",
        all.describe(),
        service.describe()
    ));

    // The same requests, in send order, through the layers.
    let store =
        Arc::new(ShardedStore::open(store_base(work, "traced"), 1).map_err(|e| e.to_string())?);
    let warm: Vec<_> = (0..WARM)
        .map(|i| lkmm_litmus::parse(&inp.source(Kind::Read, i)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    BatchChecker::new(&model, store.clone(), SALT)
        .with_jobs(1)
        .check_corpus(&warm)
        .map_err(|e| e.to_string())?;
    let salt = format!("{SALT}|{:?}", EnumOptions::default());
    let mut tr = Tracer::new(2);
    let mut exec = ExecCounters::default();
    let (mut hits, mut misses, mut appends) = (0u64, 0u64, 0u64);
    let mut answers = Vec::with_capacity(samples.len());
    tr.enter(Layer::Run, 0);
    for (k, s) in samples.iter().enumerate() {
        let request = k as u64;
        tr.enter(Layer::Driver, request);
        let source = inp.source(s.kind, s.index);
        let test = tr
            .span(Layer::LitmusParse, || lkmm_litmus::parse(&source))
            .map_err(|e| e.to_string())?;
        let key = tr.span(Layer::Canon, || cache_key(&test, model.name(), &salt));
        let result = match tr.span(Layer::StoreLookup, || store.get(key)) {
            Some(result) => {
                hits += 1;
                result
            }
            None => {
                misses += 1;
                let result = traced_check(&[(&model, 0)], &test, request, &mut tr, &mut exec)
                    .map_err(|e| e.to_string())?
                    .remove(0);
                let wrote = tr
                    .span(Layer::StoreAppend, || store.put(key, result.clone()))
                    .map_err(|e| e.to_string())?;
                if wrote {
                    appends += 1;
                    tr.span(Layer::StoreFlush, || store.flush());
                }
                result
            }
        };
        tr.exit();
        let count = |n: usize| u32::try_from(n).expect("litmus-scale counts fit in u32");
        answers.push(Answer {
            key,
            verdict_allow: result.verdict == lkmm_exec::Verdict::Allowed,
            condition_holds: result.condition_holds,
            candidates: count(result.candidates),
            allowed: count(result.allowed),
            witnesses: count(result.witnesses),
        });
    }
    tr.exit();
    let traced_wall = (tr.spans()[0].end - tr.spans()[0].start) as f64 / 1e9;
    crate::write_spans(&tr, work, args)?;
    for (k, (want, got)) in expected.iter().zip(answers).enumerate() {
        if *want != Some(got) {
            errors += 1;
            notes.push(format!(
                "traced answer for request {k} differs from the reference"
            ));
        }
    }

    let dp = data_plane.snapshot();
    let mut values = layer_values(&tr, &exec);
    values.extend([
        ("pipeline.batches", dp.batches_formed as f64),
        ("pipeline.batch_occupancy", dp.mean_batch_occupancy()),
        (
            "pipeline.arena_reuse_ratio",
            ratio(dp.arena_reuses, dp.arena_acquires),
        ),
        ("proc.cpu_util", cpu_util),
        ("generator.tests", 0.0),
        ("canon.keys", samples.len() as f64),
        ("store.hits", hits as f64),
        ("store.misses", misses as f64),
        ("store.hit_ratio", ratio(hits, hits + misses)),
        ("litmus.parses", tr.count(Layer::LitmusParse) as f64),
        ("store.appends", appends as f64),
        ("store.flushes", tr.count(Layer::StoreFlush) as f64),
        ("sim.runs", 0.0),
        ("oracle.rows", 0.0),
        ("shrink.rechecks", 0.0),
        ("server.service_ms_p50", service.at(50.0)),
        ("server.queue_ms_p50", queue.at(50.0)),
        ("server.queue_ms_p90", queue.at(90.0)),
        ("server.latency_p99_ms", all.at(99.0)),
        ("trace.overhead", traced_wall / untraced_wall),
    ]);
    Ok(Measured {
        verdict_errors: errors,
        attempted: 2 * samples.len() as u64,
        failed: r.failed,
        values,
        notes,
    })
}
