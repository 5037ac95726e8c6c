//! Multi-client verdict-server shard-scaling bench (the ISSUE 9 bar).
//!
//! Dependency-free (std::net only): generates a corpus of tiny,
//! pairwise-distinct litmus tests whose enumeration cost is small, so a
//! **durable** store (fsync per appended verdict) carries as much of
//! the round as the host allows. The corpus is then served three ways:
//!
//! * `sequential` — the plain single-threaded `--store` pipeline
//!   ([`BatchChecker`] over a [`VerdictStore`]); its key-ordered export
//!   is the reference byte string;
//! * `serve-1shard` — a TCP server with 4 workers and one durable
//!   store shard, driven by 4 concurrent clients: every append (and
//!   its fsync) serialises on the single shard lock;
//! * `serve-4shard` — the same server and clients over a 4-way
//!   [`ShardedStore`] family: appends spread across four independent
//!   logs, so up to four fsyncs are in flight at once.
//!
//! Two store-only legs (`store-1shard`/`store-4shard`: four writer
//! threads putting the same number of verdicts straight into a durable
//! [`ShardedStore`], no checking or TCP) isolate the storage layer:
//! their ratio is the host's ceiling on shard scaling, independent of
//! model-checking CPU cost.
//!
//! Every server round asserts that the merged family export is
//! byte-identical to the sequential reference, so the bench doubles as
//! the end-to-end equivalence check while timing. The headline number
//! is `scaling_1_to_4_shards` = t(1 shard) / t(4 shards) at 4 clients,
//! with a target of ≥ 2.5×.
//!
//! **Host sensitivity.** Shard scaling needs either spare cores (so
//! lock-free checking overlaps) or independent flush domains (so
//! fsyncs overlap). A single-CPU container whose shards share one
//! ext4 journal serialises both: concurrent fsyncs to *different*
//! files still funnel through one jbd2 commit pipeline, which batches
//! roughly 2× at 4 streams (the bench measures and records this as
//! `fsync_stream_scaling`). On such hosts the honest ceiling is ~2×
//! and the JSON reports `"met": false` with the measured ceiling
//! alongside; on a multi-core machine the same binary reports the
//! real scaling. Byte-identity and a shards-must-not-hurt sanity
//! floor are asserted unconditionally.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin serve \
//!     [-- --iters N] [--tests N] [--clients N]
//! ```

use lkmm::Lkmm;
use lkmm_exec::{TestResult, Verdict};
use lkmm_litmus::parse;
use lkmm_server::{serve_tcp, ServerConfig};
use lkmm_service::{BatchChecker, ShardedStore, VerdictStore};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Cache keys fold the salt in; both paths must agree on it.
const SALT: &str = "bench-serve";

/// The acceptance target; met where the host can overlap fsyncs.
const TARGET_SCALING: f64 = 2.5;

struct Measurement {
    config: &'static str,
    shards: usize,
    clients: usize,
    seconds: f64,
    tests: usize,
}

/// One tiny single-thread test. The store key hashes the *canonical*
/// form (names are alpha-renamed away), so distinctness comes from the
/// written value, not the test name.
fn source(i: usize) -> String {
    let v = i + 1;
    format!(
        "C BW{i:04}\n{{ x=0; }}\nP0(int *x)\n{{\n    int r0;\n    \
         WRITE_ONCE(*x, {v});\n    r0 = READ_ONCE(*x);\n}}\nexists (0:r0={v})\n"
    )
}

fn temp_base(tag: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("lkmm-bench-serve-{tag}-{}", std::process::id()));
    cleanup(&base);
    base
}

fn cleanup(base: &Path) {
    for n in 1..=8 {
        for path in ShardedStore::shard_paths(base, n) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// The sequential `--store` pipeline over the corpus: reference bytes
/// (key-ordered export) plus its wall-clock time.
fn sequential(sources: &[String]) -> (Vec<u8>, f64) {
    let tests: Vec<_> = sources.iter().map(|s| parse(s).expect("bench corpus parses")).collect();
    let base = temp_base("seq");
    let model = Lkmm::new();
    let start = Instant::now();
    let mut checker = BatchChecker::new(&model, VerdictStore::open(&base).unwrap(), SALT);
    let report = checker.check_corpus(&tests).expect("sequential pass runs");
    checker.flush().expect("sequential flush");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(report.columns[0].computed, sources.len(), "bench corpus has a key collision");
    drop(checker);
    let out = temp_base("seq-export");
    VerdictStore::export(&base, &out).unwrap();
    let bytes = std::fs::read(&out).unwrap();
    cleanup(&base);
    cleanup(&out);
    (bytes, seconds)
}

/// One client connection: the whole partition as a single batch.
fn batch_client(addr: SocketAddr, sources: &[&String]) -> String {
    let quoted: Vec<String> =
        sources.iter().map(|s| format!("\"{}\"", s.replace('\n', "\\n"))).collect();
    let req = format!("{{\"op\":\"batch\",\"sources\":[{}]}}", quoted.join(","));
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{req}").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut lines = BufReader::new(stream).lines().map_while(Result::ok);
    let response = lines.next().expect("batch response");
    assert!(lines.next().is_none(), "one batch, one response");
    response
}

fn shutdown_server(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = writeln!(stream, r#"{{"op":"shutdown"}}"#);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = BufReader::new(stream).lines().map_while(Result::ok).count();
}

/// One timed server round: fresh durable family, `clients` concurrent
/// connections splitting the corpus round-robin, export checked against
/// the sequential reference.
fn server_round(sources: &[String], shards: usize, clients: usize, want: &[u8]) -> f64 {
    let base = temp_base(&format!("round-{shards}"));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let base = base.clone();
        thread::spawn(move || {
            // The store lives inside the server thread so its locks are
            // released by the time `join` returns.
            let store = Arc::new(ShardedStore::open(&base, shards).unwrap().durable(true));
            let config = ServerConfig { workers: 4, ..ServerConfig::default() };
            serve_tcp(listener, &|| Box::new(Lkmm::new()), SALT, store, &config).unwrap()
        })
    };
    let mut parts: Vec<Vec<&String>> = vec![Vec::new(); clients];
    for (i, s) in sources.iter().enumerate() {
        parts[i % clients].push(s);
    }
    let start = Instant::now();
    thread::scope(|scope| {
        let handles: Vec<_> =
            parts.iter().map(|part| scope.spawn(move || batch_client(addr, part))).collect();
        for (i, h) in handles.into_iter().enumerate() {
            let response = h.join().unwrap();
            assert!(response.contains("\"ok\":true"), "client {i}: {response}");
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    shutdown_server(addr);
    let summary = server.join().unwrap();
    assert_eq!(summary.over_quota, 0, "bench clients tripped the quota");
    let out = temp_base(&format!("round-{shards}-export"));
    ShardedStore::export_merged(&base, &out).unwrap();
    assert_eq!(
        std::fs::read(&out).unwrap(),
        want,
        "{shards}-shard serve path diverged from the sequential store"
    );
    cleanup(&base);
    cleanup(&out);
    seconds
}

/// Storage layer in isolation: `writers` threads putting `n` distinct
/// verdicts straight into a fresh durable family. No checking, no TCP —
/// the 1-vs-4-shard ratio here is the host's shard-scaling ceiling.
fn store_round(n: usize, shards: usize, writers: usize) -> f64 {
    let base = temp_base(&format!("storeonly-{shards}"));
    let store = ShardedStore::open(&base, shards).unwrap().durable(true);
    let start = Instant::now();
    thread::scope(|scope| {
        for t in 0..writers {
            let store = &store;
            scope.spawn(move || {
                for i in 0..n / writers {
                    let seed = (t * n + i) as u64;
                    let key = splitmix(seed) as u128 | ((splitmix(seed ^ 0x5bd1e995) as u128) << 64);
                    store
                        .put(
                            key,
                            TestResult {
                                verdict: Verdict::Allowed,
                                condition_holds: true,
                                candidates: i,
                                allowed: 1,
                                witnesses: 1,
                            },
                        )
                        .unwrap();
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    cleanup(&base);
    seconds
}

/// Raw fsync-stream batching on this host: aggregate put rate of `k`
/// independent single-shard stores, each fed by its own writer. Records
/// how far concurrent flush streams get past one stream at all — the
/// physical input to any shard-scaling number.
fn fsync_stream_rate(streams: usize, per_stream: usize) -> f64 {
    let bases: Vec<PathBuf> =
        (0..streams).map(|t| temp_base(&format!("stream-{streams}-{t}"))).collect();
    let start = Instant::now();
    thread::scope(|scope| {
        for (t, base) in bases.iter().enumerate() {
            scope.spawn(move || {
                let store = ShardedStore::open(base, 1).unwrap().durable(true);
                for i in 0..per_stream {
                    let seed = (t * per_stream + i) as u64;
                    let key = splitmix(seed) as u128 | ((splitmix(seed ^ 0xc2b2ae35) as u128) << 64);
                    store
                        .put(
                            key,
                            TestResult {
                                verdict: Verdict::Forbidden,
                                condition_holds: false,
                                candidates: i,
                                allowed: 0,
                                witnesses: 0,
                            },
                        )
                        .unwrap();
                }
            });
        }
    });
    let rate = (streams * per_stream) as f64 / start.elapsed().as_secs_f64();
    for base in &bases {
        cleanup(base);
    }
    rate
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn main() {
    let mut iters = 3usize;
    let mut tests = 512usize;
    let mut clients = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut count = |flag: &str| {
            args.next()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or_else(|| panic!("{flag} wants a positive integer"))
        };
        match arg.as_str() {
            "--iters" => iters = count("--iters"),
            "--tests" => tests = count("--tests"),
            "--clients" => clients = count("--clients"),
            "--help" | "-h" => {
                println!(
                    "usage: serve [--iters N] [--tests N] [--clients N]   \
                     (timed repetitions, default 3; corpus size, default 512; \
                     concurrent clients, default 4)"
                );
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    let cpus = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sources: Vec<String> = (0..tests).map(source).collect();
    let (want, seq_seconds) = sequential(&sources);

    // Best-of-N per configuration: fsync latency is at the mercy of the
    // host's journal, and scaling is a statement about floors.
    let mut serve_secs = Vec::new();
    let mut store_secs = Vec::new();
    for &shards in &[1usize, 4] {
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            best = best.min(server_round(&sources, shards, clients, &want));
        }
        serve_secs.push(best);
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            best = best.min(store_round(tests, shards, clients));
        }
        store_secs.push(best);
    }
    let scaling = serve_secs[0] / serve_secs[1];
    let store_scaling = store_secs[0] / store_secs[1];

    // The host's flush-domain physics, for the record: how concurrent
    // fsync streams batch past a single stream.
    let stream_counts = [1usize, 2, 4];
    let stream_rates: Vec<f64> =
        stream_counts.iter().map(|&k| fsync_stream_rate(k, 128)).collect();

    let measurements = [
        Measurement { config: "sequential", shards: 0, clients: 1, seconds: seq_seconds, tests },
        Measurement { config: "serve-1shard", shards: 1, clients, seconds: serve_secs[0], tests },
        Measurement { config: "serve-4shard", shards: 4, clients, seconds: serve_secs[1], tests },
        Measurement { config: "store-1shard", shards: 1, clients, seconds: store_secs[0], tests },
        Measurement { config: "store-4shard", shards: 4, clients, seconds: store_secs[1], tests },
    ];

    println!(
        "{:14} {:>7} {:>8} {:>10} {:>12} {:>9}",
        "config", "shards", "clients", "secs", "tests/sec", "scaling"
    );
    let mut json_entries = String::new();
    for m in &measurements {
        let throughput = m.tests as f64 / m.seconds;
        let vs_1shard = match m.config {
            "serve-4shard" => scaling,
            "store-4shard" => store_scaling,
            _ => 1.0,
        };
        println!(
            "{:14} {:>7} {:>8} {:>10.5} {:>12.0} {:>8.2}x",
            m.config, m.shards, m.clients, m.seconds, throughput, vs_1shard
        );
        if !json_entries.is_empty() {
            json_entries.push_str(",\n");
        }
        write!(
            json_entries,
            "    {{\"config\": \"{}\", \"shards\": {}, \"clients\": {}, \
             \"seconds\": {:.6}, \"tests\": {}, \"tests_per_sec\": {:.1}, \
             \"scaling_vs_1shard\": {:.3}}}",
            m.config, m.shards, m.clients, m.seconds, m.tests, throughput, vs_1shard
        )
        .expect("write to string");
    }

    let mut streams_json = String::new();
    for (k, rate) in stream_counts.iter().zip(&stream_rates) {
        if !streams_json.is_empty() {
            streams_json.push_str(", ");
        }
        write!(
            streams_json,
            "{{\"streams\": {k}, \"puts_per_sec\": {rate:.0}, \"vs_1_stream\": {:.3}}}",
            rate / stream_rates[0]
        )
        .expect("write to string");
    }

    // Sharding must never cost throughput (beyond timing noise: on a
    // 1-CPU host with a small corpus, compute dominates and the true
    // ratio is ~1.0); byte-identity was asserted inside every round.
    // The 2.5× target additionally needs the host to overlap work
    // across shards (cores, or flush domains that don't share a
    // journal) — report honestly either way.
    assert!(
        scaling >= 0.90,
        "sharding lost throughput: {scaling:.2}x (1 shard {:.4}s, 4 shards {:.4}s)",
        serve_secs[0],
        serve_secs[1]
    );
    let met = scaling >= TARGET_SCALING;
    let fsync_ceiling = stream_rates[2] / stream_rates[0];
    if !met {
        println!(
            "\nNOTE: target {TARGET_SCALING}x not reachable on this host \
             ({cpus} CPU(s); 4 concurrent fsync streams aggregate only \
             {fsync_ceiling:.2}x over 1 — shared journal). Measured: end-to-end \
             {scaling:.2}x, store-only {store_scaling:.2}x."
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"tests\": {tests},\n  \"clients\": {clients},\n  \
         \"workers\": 4,\n  \"iters\": {iters},\n  \"durable\": true,\n  \
         \"byte_identical_to_sequential\": true,\n  \
         \"scaling_1_to_4_shards\": {scaling:.3},\n  \
         \"store_scaling_1_to_4_shards\": {store_scaling:.3},\n  \
         \"bar\": {{\"target_scaling\": {TARGET_SCALING}, \"met\": {met}, \
         \"host_cpus\": {cpus}, \
         \"host_fsync_stream_scaling_at_4\": {fsync_ceiling:.3}}},\n  \
         \"fsync_stream_scaling\": [{streams_json}],\n  \
         \"measurements\": [\n{json_entries}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_SERVE.json", &json).expect("write BENCH_SERVE.json");
    println!("\nwrote BENCH_SERVE.json");
}
