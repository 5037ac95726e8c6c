//! JSON-lines request/response serving.
//!
//! One request per input line, one response object per output line —
//! the classic long-running-daemon shape (`herd-rs serve` wires this to
//! stdin/stdout). Requests:
//!
//! ```text
//! {"op":"check","source":"C t\n…"}          check litmus source
//! {"op":"check","name":"SB+mbs"}            check a built-in library test
//! {"op":"batch","sources":["…","…"]}        check many (deduped) at once
//! {"op":"batch","names":["SB","MP"]}        … by library name
//! {"op":"batch","library":true}             … the whole paper library
//! {"op":"batch","family":"PodWW Rfe PodRR Fre"}   … a generator sweep
//! {"op":"stats"}                            store/session counters
//! {"op":"flush"}                            fsync the store
//! ```
//!
//! Every response carries `"ok"` plus per-request observability: cache
//! provenance (`hit`/`computed`/`deduped`), in-batch dedup counts,
//! candidates enumerated, and wall-clock micros. Malformed input yields
//! `{"ok":false,"error":…}` and the loop continues — one bad request
//! must not take the daemon down. Requests are answered through a
//! one-column [`BatchChecker`].
//!
//! ## Fault isolation
//!
//! The loop is hardened against hostile or broken clients
//! ([`ServeOptions`]). [`read_request`] frames request lines through a
//! byte cap (an oversized line is drained and answered with an error,
//! never buffered whole) and answers invalid UTF-8 with an error.
//! [`answer_isolated`] contains a panic while answering one request
//! (`catch_unwind`) as an error response, and arms an optional
//! per-request deadline that bounds each request's checking time — an
//! over-deadline check comes back `inconclusive` rather than wedging
//! the daemon. Only transport failures abort. The TCP server
//! (`lkmm-server`) frames and answers its connections' lines with the
//! same two functions, so both transports answer any input alike.

use crate::batch::{BatchChecker, BatchOutcome, BatchReport};
use crate::json::Json;
use crate::store::VerdictLog;
use lkmm_exec::CheckOutcome;
use lkmm_litmus::ast::Test;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Hardening knobs for one [`serve_with`] session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Longest accepted request line, in bytes. Longer lines are drained
    /// without being buffered and answered with an error response.
    pub max_request_bytes: usize,
    /// Wall-clock bound for answering one request. Installed as an
    /// absolute deadline on the checker's budget at the start of each
    /// request; checks that exceed it report `inconclusive`.
    pub request_time_limit: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_request_bytes: 4 << 20, request_time_limit: None }
    }
}

/// Counters for one [`serve_with`] session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including errors).
    pub requests: usize,
    /// Requests answered with `"ok":false`.
    pub errors: usize,
}

/// Run the request loop until end-of-input, answering through `checker`.
/// The store is synced on every `flush` request and once at exit.
///
/// # Errors
///
/// Only transport failures (reading `input`, writing `output`) abort the
/// loop; per-request failures become `"ok":false` responses.
pub fn serve_with<S: VerdictLog>(
    checker: &mut BatchChecker<'_, S>,
    mut input: impl BufRead,
    mut output: impl Write,
    opts: &ServeOptions,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    while let Some(frame) = read_request(&mut input, opts.max_request_bytes)? {
        let response = match frame {
            Frame::Request(line) => answer_isolated(checker, &line, opts.request_time_limit),
            Frame::Rejected(response) => response,
        };
        summary.requests += 1;
        if response.get("ok") != Some(&Json::Bool(true)) {
            summary.errors += 1;
        }
        writeln!(output, "{response}")?;
        output.flush()?;
    }
    checker.flush()?;
    Ok(summary)
}

/// One request line, framed.
#[derive(Debug)]
pub enum Frame {
    /// A non-blank UTF-8 request line, its line ending stripped.
    Request(String),
    /// A line refused before parsing (oversized, or not UTF-8), already
    /// consumed from the input: the error response that answers it.
    Rejected(Json),
}

/// Read the next request line from `input`, skipping blank lines;
/// `None` at end of input. At most `max_request_bytes + 1` bytes of a
/// line are ever buffered: a longer line is drained to its newline and
/// comes back [`Frame::Rejected`], as does a line that is not UTF-8.
///
/// # Errors
///
/// Read failures on `input`.
pub fn read_request(
    input: &mut impl BufRead,
    max_request_bytes: usize,
) -> io::Result<Option<Frame>> {
    let max = max_request_bytes;
    loop {
        let mut buf = Vec::new();
        // Read through a cap, so a client cannot make the daemon hold
        // an unbounded line.
        if io::Read::take(&mut *input, max as u64 + 1).read_until(b'\n', &mut buf)? == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        if buf.len() > max {
            // The cap truncated the line mid-way: skip its remainder.
            drain_line(input)?;
            let message = format!("request line exceeds {max} bytes");
            return Ok(Some(Frame::Rejected(error_response(&message))));
        }
        match String::from_utf8(buf) {
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => return Ok(Some(Frame::Request(line))),
            Err(_) => {
                let response = error_response("request line is not valid UTF-8");
                return Ok(Some(Frame::Rejected(response)));
            }
        }
    }
}

/// Discard input up to and including the next newline (or end-of-input).
fn drain_line(input: &mut impl BufRead) -> io::Result<()> {
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                input.consume(len);
            }
        }
    }
}

/// Answer one request with per-request governance: `time_limit`, if
/// any, is armed as an absolute deadline for this request, and a panic
/// anywhere in the handler is contained into an error response (the
/// checker's next request starts clean).
pub fn answer_isolated<S: VerdictLog>(
    checker: &mut BatchChecker<'_, S>,
    line: &str,
    time_limit: Option<Duration>,
) -> Json {
    if let Some(limit) = time_limit {
        checker.set_deadline(Some(Instant::now() + limit));
    }
    catch_unwind(AssertUnwindSafe(|| answer(checker, line)))
        .unwrap_or_else(|_| error_response("internal error: request handler panicked"))
}

/// Answer one request line (exposed for tests and non-stdio embeddings).
pub fn answer<S: VerdictLog>(checker: &mut BatchChecker<'_, S>, line: &str) -> Json {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_response(&format!("bad request: {e}")),
    };
    match request.get("op").and_then(Json::as_str) {
        Some("check") => op_check(checker, &request),
        Some("batch") => op_batch(checker, &request),
        Some("stats") => op_stats(checker),
        Some("flush") => op_flush(checker),
        Some(other) => error_response(&format!("unknown op `{other}` (check, batch, stats, flush)")),
        None => error_response("missing string field `op`"),
    }
}

fn error_response(message: &str) -> Json {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(message))])
}

fn library_test(name: &str) -> Result<Test, String> {
    lkmm_litmus::library::by_name(name)
        .map(|pt| pt.test())
        .ok_or_else(|| format!("no library test named `{name}`"))
}

fn parse_source(source: &str) -> Result<Test, String> {
    lkmm_litmus::parse(source).map_err(|e| format!("parse error: {e}"))
}

fn op_check<S: VerdictLog>(checker: &mut BatchChecker<'_, S>, request: &Json) -> Json {
    let test = match (
        request.get("source").and_then(Json::as_str),
        request.get("name").and_then(Json::as_str),
    ) {
        (Some(source), None) => parse_source(source),
        (None, Some(name)) => library_test(name),
        _ => Err("`check` needs exactly one of `source` or `name`".to_string()),
    };
    let test = match test {
        Ok(t) => t,
        Err(e) => return error_response(&e),
    };
    let start = Instant::now();
    match checker.check_one(&test) {
        Ok(outcome) => {
            let mut fields = vec![("ok", Json::Bool(true)), ("op", Json::str("check"))];
            fields.extend(outcome_fields(&outcome));
            fields.push(("micros", Json::num(start.elapsed().as_micros() as u64)));
            Json::obj(fields)
        }
        Err(e) => error_response(&e.to_string()),
    }
}

fn op_batch<S: VerdictLog>(checker: &mut BatchChecker<'_, S>, request: &Json) -> Json {
    let report = match gather_batch(request) {
        Ok(tests) => match checker.check_corpus(&tests) {
            Ok(report) => report,
            Err(e) => return error_response(&e.to_string()),
        },
        Err(e) => return error_response(&e),
    };
    batch_response(&report)
}

/// Resolve a batch request's corpus. The four sources compose: one
/// request may mix `sources`, `names`, `library`, and `family`.
fn gather_batch(request: &Json) -> Result<Vec<Test>, String> {
    let mut tests = Vec::new();
    let mut any_field = false;
    if let Some(sources) = request.get("sources") {
        any_field = true;
        let items = sources.as_arr().ok_or("`sources` must be an array of strings")?;
        for item in items {
            let src = item.as_str().ok_or("`sources` must be an array of strings")?;
            tests.push(parse_source(src)?);
        }
    }
    if let Some(names) = request.get("names") {
        any_field = true;
        let items = names.as_arr().ok_or("`names` must be an array of strings")?;
        for item in items {
            let name = item.as_str().ok_or("`names` must be an array of strings")?;
            tests.push(library_test(name)?);
        }
    }
    if request.get("library").and_then(Json::as_bool) == Some(true) {
        any_field = true;
        tests.extend(lkmm_litmus::library::all().iter().map(|pt| pt.test()));
    }
    if let Some(family) = request.get("family") {
        any_field = true;
        let spec = family.as_str().ok_or("`family` must be a cycle string like \"PodWW Rfe PodRR Fre\"")?;
        let base = lkmm_generator::parse_cycle(spec).map_err(|e| e.to_string())?;
        tests.extend(
            lkmm_generator::family::family_tests(&base).map_err(|e| e.to_string())?,
        );
    }
    if !any_field {
        return Err("`batch` needs `sources`, `names`, `library`, or `family`".to_string());
    }
    Ok(tests)
}

fn outcome_fields(outcome: &BatchOutcome) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("name", Json::str(&outcome.name)),
        ("key", Json::str(format!("{:032x}", outcome.key))),
    ];
    match &outcome.outcome {
        CheckOutcome::Complete(result) => {
            fields.push(("verdict", Json::str(result.verdict.to_string())));
            fields.push(("condition_holds", Json::Bool(result.condition_holds)));
            fields.push(("candidates", Json::num(result.candidates as u64)));
            fields.push(("allowed", Json::num(result.allowed as u64)));
            fields.push(("witnesses", Json::num(result.witnesses as u64)));
        }
        // Inconclusive outcomes carry their reason plus the exact partial
        // tallies (lower bounds) instead of a verdict.
        CheckOutcome::Inconclusive { reason, partial } => {
            fields.push(("inconclusive", Json::Bool(true)));
            fields.push(("reason", Json::str(reason.to_string())));
            fields.push(("candidates", Json::num(partial.candidates as u64)));
            fields.push(("allowed", Json::num(partial.allowed as u64)));
            fields.push(("witnesses", Json::num(partial.witnesses as u64)));
        }
    }
    fields.push(("cache", Json::str(outcome.provenance.to_string())));
    fields
}

fn batch_response(report: &BatchReport) -> Json {
    let col = &report.columns[0];
    let results: Vec<Json> =
        col.outcomes.iter().flatten().map(|o| Json::Obj(
            outcome_fields(o).into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        )).collect();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("batch")),
        ("count", Json::num(results.len() as u64)),
        ("hits", Json::num(col.hits as u64)),
        ("computed", Json::num(col.computed as u64)),
        ("deduped", Json::num(col.deduped as u64)),
    ];
    // Emitted only when present, so budget-free sessions stay
    // byte-identical to older builds.
    if col.inconclusive > 0 {
        fields.push(("inconclusive", Json::num(col.inconclusive as u64)));
    }
    fields.push(("candidates_enumerated", Json::num(col.candidates_enumerated as u64)));
    fields.push(("micros", Json::num(report.micros as u64)));
    fields.push(("results", Json::Arr(results)));
    Json::obj(fields)
}

fn op_stats<S: VerdictLog>(checker: &BatchChecker<'_, S>) -> Json {
    let store = checker.store();
    let recovery = store.recovery();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("stats")),
        ("entries", Json::num(store.len() as u64)),
        ("appended", Json::num(store.appended() as u64)),
        ("session_hits", Json::num(checker.session_hits() as u64)),
        ("session_computed", Json::num(checker.session_computed() as u64)),
    ];
    if checker.session_inconclusive() > 0 {
        fields.push(("session_inconclusive", Json::num(checker.session_inconclusive() as u64)));
    }
    fields.push(("recovered_records", Json::num(recovery.records as u64)));
    fields.push(("recovery_torn_bytes", Json::num(recovery.torn_bytes)));
    fields.push(("recovery_corrupt_frames", Json::num(recovery.corrupt_frames as u64)));
    fields.push(("recovery_corrupt_bytes", Json::num(recovery.corrupt_bytes)));
    fields.push((
        "path",
        match store.path() {
            Some(p) => Json::str(p.display().to_string()),
            None => Json::Null,
        },
    ));
    // Sharded backends report a per-shard breakdown; plain stores emit
    // nothing here, keeping stdio sessions byte-identical to older
    // builds.
    let shards = store.shard_stats();
    if !shards.is_empty() {
        fields.push((
            "shards",
            Json::Arr(
                shards
                    .iter()
                    .map(|st| {
                        let mut f = vec![
                            ("shard".to_string(), Json::num(st.shard as u64)),
                            ("records".to_string(), Json::num(st.records as u64)),
                            ("appended".to_string(), Json::num(st.appended as u64)),
                            ("superseded".to_string(), Json::num(st.superseded as u64)),
                        ];
                        if st.quarantined {
                            f.push(("quarantined".to_string(), Json::Bool(true)));
                        }
                        if let Some(reason) = &st.poisoned {
                            f.push(("poisoned".to_string(), Json::str(reason)));
                            f.push(("dropped".to_string(), Json::num(st.dropped as u64)));
                        }
                        Json::Obj(f)
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

fn op_flush<S: VerdictLog>(checker: &mut BatchChecker<'_, S>) -> Json {
    match checker.flush() {
        Ok(()) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("flush")),
            ("entries", Json::num(checker.store().len() as u64)),
        ]),
        Err(e) => error_response(&format!("flush: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VerdictStore;
    use lkmm_core::budget::Budget;
    use lkmm_exec::model::AllowAll;

    fn checker() -> BatchChecker<'static> {
        BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "test")
    }

    #[test]
    fn check_by_name_then_hits_on_repeat() {
        let mut c = checker();
        let first = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("cache").and_then(Json::as_str), Some("computed"));
        let second = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(first.get("verdict"), second.get("verdict"));
        assert_eq!(first.get("candidates"), second.get("candidates"));
    }

    #[test]
    fn malformed_lines_do_not_stop_the_loop() {
        let mut c = checker();
        let input = "not json\n{\"op\":\"nope\"}\n\n{\"op\":\"stats\"}\n";
        let mut out = Vec::new();
        let summary =
            serve_with(&mut c, input.as_bytes(), &mut out, &ServeOptions::default()).unwrap();
        assert_eq!(summary, ServeSummary { requests: 3, errors: 2 });
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":false"));
        assert!(lines[2].contains("\"op\":\"stats\""));
    }

    #[test]
    fn batch_mixes_sources_and_dedupes() {
        let mut c = checker();
        let line = r#"{"op":"batch","names":["SB","SB"],"family":"PodWW Rfe PodRR Fre"}"#;
        let response = answer(&mut c, line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("count").and_then(Json::as_u64), Some(2 + 35));
        assert!(response.get("deduped").and_then(Json::as_u64).unwrap() >= 1);
        let results = response.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 37);
        assert_eq!(response.get("inconclusive"), None, "absent without a budget");
    }

    #[test]
    fn check_requires_exactly_one_input() {
        let mut c = checker();
        let both = answer(&mut c, r#"{"op":"check","name":"SB","source":"C t\n"}"#);
        assert_eq!(both.get("ok"), Some(&Json::Bool(false)));
        let neither = answer(&mut c, r#"{"op":"check"}"#);
        assert_eq!(neither.get("ok"), Some(&Json::Bool(false)));
        let unknown = answer(&mut c, r#"{"op":"check","name":"NOPE"}"#);
        assert!(unknown.get("error").and_then(Json::as_str).unwrap().contains("NOPE"));
    }

    #[test]
    fn stats_reflect_session_activity() {
        let mut c = checker();
        let _ = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        let _ = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        let stats = answer(&mut c, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("session_computed").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("session_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("path"), Some(&Json::Null));
        assert_eq!(stats.get("session_inconclusive"), None, "absent when zero");
        let flush = answer(&mut c, r#"{"op":"flush"}"#);
        assert_eq!(flush.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn oversized_request_lines_are_drained_not_buffered() {
        let mut c = checker();
        let opts = ServeOptions { max_request_bytes: 64, ..ServeOptions::default() };
        let long = format!("{{\"op\":\"check\",\"source\":\"{}\"}}\n", "x".repeat(1000));
        let input = format!("{long}{{\"op\":\"stats\"}}\n");
        let mut out = Vec::new();
        let summary = serve_with(&mut c, input.as_bytes(), &mut out, &opts).unwrap();
        assert_eq!(summary, ServeSummary { requests: 2, errors: 1 });
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert!(lines[0].contains("exceeds 64 bytes"), "{}", lines[0]);
        assert!(lines[1].contains("\"op\":\"stats\""), "next request still answered");
    }

    #[test]
    fn invalid_utf8_is_an_error_response_not_a_crash() {
        let mut c = checker();
        let mut input: Vec<u8> = vec![0xff, 0xfe, 0x80, b'\n'];
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let mut out = Vec::new();
        let summary = serve_with(&mut c, &input[..], &mut out, &ServeOptions::default()).unwrap();
        assert_eq!(summary, ServeSummary { requests: 2, errors: 1 });
        assert!(std::str::from_utf8(&out).unwrap().contains("not valid UTF-8"));
    }

    #[test]
    fn starved_check_reports_inconclusive_fields() {
        let mut c = checker().with_budget(Budget::default().with_max_candidates(1));
        let response = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("inconclusive"), Some(&Json::Bool(true)));
        assert_eq!(response.get("verdict"), None, "no verdict without completion");
        assert_eq!(
            response.get("reason").and_then(Json::as_str),
            Some("candidate budget exhausted")
        );
        assert_eq!(response.get("candidates").and_then(Json::as_u64), Some(1));
        let stats = answer(&mut c, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("session_inconclusive").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(0), "never cached");
    }

    /// A passed deadline stops only what still needs checking: the
    /// store answers its hits as before, and the miss is inconclusive
    /// and never stored.
    #[test]
    fn expired_deadline_batch_keeps_hits_and_stores_nothing() {
        let mut c = checker();
        let warm = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        assert_eq!(warm.get("cache").and_then(Json::as_str), Some("computed"));
        c.set_deadline(Some(Instant::now()));
        let response = answer(&mut c, r#"{"op":"batch","names":["SB","MP"]}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(response.get("computed").and_then(Json::as_u64), Some(0));
        assert_eq!(response.get("inconclusive").and_then(Json::as_u64), Some(1));
        let results = response.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(results[0].get("verdict"), warm.get("verdict"));
        assert_eq!(results[1].get("inconclusive"), Some(&Json::Bool(true)));
        assert_eq!(
            results[1].get("reason").and_then(Json::as_str),
            Some("wall-clock deadline exceeded")
        );
        let stats = answer(&mut c, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(1), "nothing stored");
    }

    #[test]
    fn batch_counts_inconclusive_when_budgeted() {
        let mut c = checker().with_budget(Budget::default().with_max_candidates(1));
        let response = answer(&mut c, r#"{"op":"batch","names":["SB","MP"]}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("inconclusive").and_then(Json::as_u64), Some(2));
        assert_eq!(response.get("computed").and_then(Json::as_u64), Some(0));
    }
}
