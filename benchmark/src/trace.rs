//! Spans recorded from the benchmark's own code around each call into a
//! layer of the toolkit.
//!
//! A span has a layer name, a start, an end, a parent span, and the id
//! of the request (corpus unit or server request) it belongs to. The
//! tracer keeps a stack of open spans and folds each closed span into
//! its layer's *self time* — the span's duration minus the part its
//! child spans cover — and its layer's count. Spans down to
//! [`Tracer::log_depth`] are also kept in memory and written out when
//! the run ends; deeper spans (one per candidate execution and model)
//! are only folded, which keeps a traced campaign's memory flat.

use std::io::{self, Write};
use std::time::Instant;

/// The layers a span can belong to. `Run` is the traced workload as a
/// whole; its self time is the part no layer span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Run,
    Setup,
    LitmusParse,
    Generator,
    Canon,
    StoreLookup,
    StoreAppend,
    StoreFlush,
    Driver,
    Pipeline,
    Enumerate,
    Facts,
    /// One model column, by its index in the conformance matrix.
    Model(usize),
    Oracle,
    Sim,
    Shrink,
    Report,
}

/// Model span names, in the conformance matrix's column order.
const MODEL_SPANS: [&str; 7] = [
    "model.lkmm",
    "model.lkmm-cat",
    "model.sc",
    "model.tso",
    "model.armv8",
    "model.power",
    "model.c11",
];

const FIXED: usize = 16;
const LAYERS: usize = FIXED + MODEL_SPANS.len();

impl Layer {
    fn index(self) -> usize {
        match self {
            Layer::Run => 0,
            Layer::Setup => 1,
            Layer::LitmusParse => 2,
            Layer::Generator => 3,
            Layer::Canon => 4,
            Layer::StoreLookup => 5,
            Layer::StoreAppend => 6,
            Layer::StoreFlush => 7,
            Layer::Driver => 8,
            Layer::Pipeline => 9,
            Layer::Enumerate => 10,
            Layer::Facts => 11,
            Layer::Oracle => 12,
            Layer::Sim => 13,
            Layer::Shrink => 14,
            Layer::Report => 15,
            Layer::Model(i) => FIXED + i,
        }
    }

    /// Span name as written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Setup => "setup",
            Layer::LitmusParse => "litmus.parse",
            Layer::Generator => "generator.gen",
            Layer::Canon => "canon.key",
            Layer::StoreLookup => "store.lookup",
            Layer::StoreAppend => "store.append",
            Layer::StoreFlush => "store.flush",
            Layer::Driver => "driver",
            Layer::Pipeline => "pipeline",
            Layer::Enumerate => "enumerate",
            Layer::Facts => "facts",
            Layer::Oracle => "oracle",
            Layer::Sim => "sim",
            Layer::Shrink => "shrink",
            Layer::Report => "report",
            Layer::Model(i) => MODEL_SPANS[i],
        }
    }

    /// Every layer except `Run`.
    pub fn all() -> impl Iterator<Item = Layer> {
        [
            Layer::Setup,
            Layer::LitmusParse,
            Layer::Generator,
            Layer::Canon,
            Layer::StoreLookup,
            Layer::StoreAppend,
            Layer::StoreFlush,
            Layer::Driver,
            Layer::Pipeline,
            Layer::Enumerate,
            Layer::Facts,
            Layer::Oracle,
            Layer::Sim,
            Layer::Shrink,
            Layer::Report,
        ]
        .into_iter()
        .chain((0..MODEL_SPANS.len()).map(Layer::Model))
    }
}

/// One logged span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the parent in the log, `None` for a root.
    pub parent: Option<usize>,
    pub request: u64,
}

struct Open {
    layer: Layer,
    start: u64,
    request: u64,
    /// Nanoseconds covered by already-closed children.
    children: u64,
    /// Slot in the log, when this span is logged.
    logged: Option<usize>,
}

/// Span recorder with per-layer self-time folding.
pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    self_ns: [u64; LAYERS],
    counts: [u64; LAYERS],
    log: Vec<Span>,
    log_depth: usize,
}

impl Tracer {
    /// A tracer logging spans nested at most `log_depth` deep (0 logs
    /// only roots).
    pub fn new(log_depth: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            self_ns: [0; LAYERS],
            counts: [0; LAYERS],
            log: Vec::new(),
            log_depth,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span of `layer` for `request` now.
    pub fn enter(&mut self, layer: Layer, request: u64) {
        let t = self.now();
        self.enter_at(layer, request, t);
    }

    /// Close the innermost open span now.
    pub fn exit(&mut self) {
        let t = self.now();
        self.exit_at(t);
    }

    /// Run `f` inside a span of `layer`, attributed to the enclosing
    /// span's request.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let request = self.stack.last().map_or(0, |o| o.request);
        self.enter(layer, request);
        let r = f();
        self.exit();
        r
    }

    /// [`Tracer::enter`] at an explicit time.
    pub fn enter_at(&mut self, layer: Layer, request: u64, t: u64) {
        let logged = (self.stack.len() <= self.log_depth).then(|| {
            self.log.push(Span {
                layer,
                start: t,
                end: t,
                parent: self.stack.last().and_then(|o| o.logged),
                request,
            });
            self.log.len() - 1
        });
        self.stack.push(Open {
            layer,
            start: t,
            request,
            children: 0,
            logged,
        });
    }

    /// [`Tracer::exit`] at an explicit time.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit_at(&mut self, t: u64) {
        let open = self.stack.pop().expect("exit without an open span");
        let duration = t.saturating_sub(open.start);
        let i = open.layer.index();
        self.self_ns[i] += duration.saturating_sub(open.children);
        self.counts[i] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.children += duration;
        }
        if let Some(slot) = open.logged {
            self.log[slot].end = t;
        }
    }

    /// Accumulated self time of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e9
    }

    /// Closed spans of `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.counts[layer.index()]
    }

    /// The logged spans, in the order they opened.
    pub fn spans(&self) -> &[Span] {
        &self.log
    }

    /// Sum of every layer's self time except `Run`'s, over the total
    /// duration of the root spans: the share of the traced wall time
    /// the layers account for.
    pub fn coverage(&self) -> f64 {
        let wall: u64 = self
            .log
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum();
        let covered: u64 = Layer::all().map(|l| self.self_ns[l.index()]).sum();
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        }
    }

    /// Write the logged spans as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O errors from `out`.
    pub fn write_spans(&self, mut out: impl Write) -> io::Result<()> {
        for (id, s) in self.log.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.layer.name(),
                s.start,
                s.end,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_children() {
        let mut t = Tracer::new(8);
        t.enter_at(Layer::Run, 0, 0);
        t.enter_at(Layer::Driver, 1, 10);
        t.enter_at(Layer::Enumerate, 1, 20);
        t.enter_at(Layer::Model(0), 1, 30);
        t.exit_at(45); // model: 15
        t.enter_at(Layer::Facts, 1, 50);
        t.exit_at(55); // facts: 5
        t.exit_at(70); // enumerate: 50 - 20 = 30
        t.enter_at(Layer::StoreAppend, 1, 80);
        t.exit_at(90); // append: 10
        t.exit_at(100); // driver: 90 - 50 - 10 = 30
        t.exit_at(110); // run: 110 - 90 = 20
        let ns = |l| (t.self_s(l) * 1e9).round() as u64;
        assert_eq!(ns(Layer::Model(0)), 15);
        assert_eq!(ns(Layer::Facts), 5);
        assert_eq!(ns(Layer::Enumerate), 30);
        assert_eq!(ns(Layer::StoreAppend), 10);
        assert_eq!(ns(Layer::Driver), 30);
        assert_eq!(ns(Layer::Run), 20);
        // Self times partition the root's wall time.
        let total: u64 = Layer::all().map(ns).sum::<u64>() + ns(Layer::Run);
        assert_eq!(total, 110);
        assert!((t.coverage() - 90.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_spans_accumulate_and_count() {
        let mut t = Tracer::new(8);
        t.enter_at(Layer::Run, 0, 0);
        for k in 0..3 {
            t.enter_at(Layer::Canon, k, 10 * k);
            t.exit_at(10 * k + 4);
        }
        t.exit_at(30);
        assert_eq!(t.count(Layer::Canon), 3);
        assert_eq!((t.self_s(Layer::Canon) * 1e9).round() as u64, 12);
    }

    #[test]
    fn the_log_keeps_parents_requests_and_depth() {
        let mut t = Tracer::new(1);
        t.enter_at(Layer::Run, 0, 0);
        t.enter_at(Layer::Driver, 7, 1);
        t.enter_at(Layer::Facts, 7, 2); // depth 2: folded, not logged
        t.exit_at(3);
        t.exit_at(4);
        t.exit_at(5);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0],
            Span {
                layer: Layer::Run,
                start: 0,
                end: 5,
                parent: None,
                request: 0
            }
        );
        assert_eq!(
            spans[1],
            Span {
                layer: Layer::Driver,
                start: 1,
                end: 4,
                parent: Some(0),
                request: 7
            }
        );
        assert_eq!(t.count(Layer::Facts), 1);
        let mut out = Vec::new();
        t.write_spans(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"request\":7"));
    }

    #[test]
    fn span_inherits_the_enclosing_request() {
        let mut t = Tracer::new(4);
        t.enter(Layer::Run, 0);
        t.enter(Layer::Driver, 42);
        let v = t.span(Layer::Oracle, || 5);
        t.exit();
        t.exit();
        assert_eq!(v, 5);
        assert_eq!(t.spans()[2].request, 42);
        assert_eq!(t.spans()[2].layer, Layer::Oracle);
    }
}
