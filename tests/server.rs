//! End-to-end TCP server tests (ISSUE 9 satellite 4): whatever mix of
//! concurrent clients, worker jobs, and store shards serves the
//! library, the resulting verdict log must be byte-identical (after a
//! key-ordered export) to the sequential `--store` pipeline's — and
//! warm stores must be interchangeable between the two paths in both
//! directions.

use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::model::Lkmm;
use linux_kernel_memory_model::server::{serve_tcp, ServerConfig, ServerSummary};
use linux_kernel_memory_model::service::{BatchChecker, ShardedStore, VerdictStore};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

/// Must match on both paths: cache keys fold the salt in.
const SALT: &str = "server-it";

fn temp_base(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lkmm-server-it-{tag}-{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(base: &Path) {
    for n in 1..=8 {
        for path in ShardedStore::shard_paths(base, n) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Run a file-backed server on an ephemeral port. The store lives (and
/// dies) inside the server thread, so its locks are released by the
/// time `join` returns.
fn start_server(
    base: PathBuf,
    shards: usize,
    jobs: usize,
) -> (SocketAddr, thread::JoinHandle<ServerSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let store = Arc::new(ShardedStore::open(&base, shards).unwrap());
        let config = ServerConfig { workers: 4, jobs, ..ServerConfig::default() };
        serve_tcp(listener, &|| Box::new(Lkmm::new()), SALT, store, &config).unwrap()
    });
    (addr, handle)
}

/// One client connection: request `names` as a single batch, return the
/// response lines.
fn batch_client(addr: SocketAddr, names: &[&str]) -> Vec<String> {
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    let req = format!("{{\"op\":\"batch\",\"names\":[{}]}}", quoted.join(","));
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{req}").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map_while(Result::ok).collect()
}

fn shutdown_server(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = writeln!(stream, r#"{{"op":"shutdown"}}"#);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = BufReader::new(stream).lines().map_while(Result::ok).count();
}

/// The library names split round-robin into `n` disjoint slices.
fn partition(n: usize) -> Vec<Vec<&'static str>> {
    let mut parts = vec![Vec::new(); n];
    for (i, pt) in library::all().iter().enumerate() {
        parts[i % n].push(pt.name);
    }
    parts
}

/// The sequential pipeline's export of a full-library store: the
/// reference bytes every server configuration must reproduce.
fn sequential_export() -> Vec<u8> {
    let base = temp_base("seq");
    let model = Lkmm::new();
    let mut checker = BatchChecker::new(&model, VerdictStore::open(&base).unwrap(), SALT);
    checker.check_library().unwrap();
    checker.flush().unwrap();
    drop(checker);
    let out = temp_base("seq-export");
    VerdictStore::export(&base, &out).unwrap();
    let bytes = std::fs::read(&out).unwrap();
    cleanup(&base);
    cleanup(&out);
    bytes
}

#[test]
fn concurrent_clients_match_the_sequential_store_byte_for_byte() {
    let want = sequential_export();
    // The ISSUE matrix: jobs 1/2/8 per worker, shards 1/4, several
    // concurrent clients splitting the library between them.
    for &(clients, jobs, shards) in
        &[(1, 1, 1), (2, 2, 1), (8, 8, 1), (2, 1, 4), (4, 2, 4), (8, 8, 4)]
    {
        let base = temp_base(&format!("matrix-{clients}-{jobs}-{shards}"));
        let (addr, handle) = start_server(base.clone(), shards, jobs);
        let parts = partition(clients);
        thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|names| scope.spawn(move || batch_client(addr, names)))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let responses = h.join().unwrap();
                assert_eq!(responses.len(), 1, "client {i}: one batch, one response");
                assert!(
                    responses[0].contains("\"ok\":true"),
                    "client {i} of ({clients},{jobs},{shards}): {}",
                    responses[0]
                );
            }
        });
        shutdown_server(addr);
        handle.join().unwrap();
        let out = temp_base(&format!("matrix-out-{clients}-{jobs}-{shards}"));
        ShardedStore::export_merged(&base, &out).unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            want,
            "({clients} clients, {jobs} jobs, {shards} shards) diverged from sequential"
        );
        cleanup(&base);
        cleanup(&out);
    }
}

#[test]
fn warm_stores_interchange_between_sequential_and_server_paths() {
    // Sequential-written store, replayed by a sharded server: after
    // promotion into a 4-way family every request is a cache hit and
    // the family still exports the same bytes.
    let seq = temp_base("warm-seq");
    {
        let model = Lkmm::new();
        let mut checker = BatchChecker::new(&model, VerdictStore::open(&seq).unwrap(), SALT);
        checker.check_library().unwrap();
        checker.flush().unwrap();
    }
    let want = {
        let out = temp_base("warm-seq-export");
        VerdictStore::export(&seq, &out).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        cleanup(&out);
        bytes
    };
    let family = temp_base("warm-family");
    ShardedStore::merge_into_shards(&family, 4, &seq).unwrap();
    let (addr, handle) = start_server(family.clone(), 4, 1);
    let names: Vec<&str> = library::all().iter().map(|pt| pt.name).collect();
    let responses = batch_client(addr, &names);
    assert_eq!(responses.len(), 1);
    // Everything answers from cache (two library tests share a key, so
    // one replays as an in-batch dedup rather than a store hit).
    assert!(responses[0].contains("\"computed\":0"), "warm replay: {}", responses[0]);
    shutdown_server(addr);
    handle.join().unwrap();
    let out = temp_base("warm-family-export");
    ShardedStore::export_merged(&family, &out).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), want, "warm replay must not change the store");
    cleanup(&family);
    cleanup(&out);

    // Server-written store, replayed by the sequential pipeline: a
    // 1-shard server log opens as a plain store and answers the whole
    // library from cache.
    let served = temp_base("warm-served");
    let (addr, handle) = start_server(served.clone(), 1, 2);
    let responses = batch_client(addr, &names);
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    shutdown_server(addr);
    handle.join().unwrap();
    let model = Lkmm::new();
    let mut checker = BatchChecker::new(&model, VerdictStore::open(&served).unwrap(), SALT);
    let report = checker.check_library().unwrap().columns.remove(0);
    assert_eq!(report.computed, 0, "server-written store must replay sequentially");
    assert_eq!(report.hits + report.deduped, names.len());
    cleanup(&seq);
    cleanup(&served);
}
