//! In-memory span recorder for the traced runs.
//!
//! A span is one call into a layer's public API: its name, start, end, the
//! process CPU clock at both ends, and the span that was open when it
//! began (its parent). Spans stay in memory and are written out once, when
//! the benchmark ends. Untraced runs never create a [`Tracer`].

use std::cell::RefCell;
use std::fmt::Write as _;

use consume_local_sim::SessionSource;
use consume_local_trace::SessionStore;

use crate::clock::{process_cpu_s, Tick};

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.push`.
    pub name: &'static str,
    /// Recording thread: 0 for the caller, 1 for a producer.
    pub thread: u8,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the origin.
    pub start_s: f64,
    /// End, seconds since the origin.
    pub end_s: f64,
    /// Process CPU seconds consumed between start and end (all threads).
    pub cpu_s: f64,
}

impl Span {
    /// Wall duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    cpu_s: f64,
}

/// Records the spans of one thread. Nested spans take the innermost open
/// span as their parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Tick,
    thread: u8,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer whose times count from `origin`; tracers of different
    /// threads share one origin so their spans line up.
    pub fn new(origin: Tick, thread: u8) -> Self {
        Self {
            origin,
            thread,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str) -> Open {
        let cpu_s = process_cpu_s();
        let start_s = Tick::now().secs_since(self.origin);
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            thread: self.thread,
            parent: stack.last().copied(),
            start_s,
            end_s: start_s,
            cpu_s: 0.0,
        });
        stack.push(index);
        Open { index, cpu_s }
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&self, open: Open) {
        let end_s = Tick::now().secs_since(self.origin);
        let cpu_s = process_cpu_s() - open.cpu_s;
        let popped = self.stack.borrow_mut().pop();
        assert_eq!(popped, Some(open.index), "spans close innermost first");
        let mut spans = self.spans.borrow_mut();
        spans[open.index].end_s = end_s;
        spans[open.index].cpu_s = cpu_s;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Appends `more` (another thread's spans) to `spans`, re-basing its parent
/// indices.
pub fn merge(mut spans: Vec<Span>, more: Vec<Span>) -> Vec<Span> {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
    spans
}

/// A [`SessionSource`] that records, as spans named `name`, the time spent
/// inside `inner` between batches: generating the next day for a
/// `SegmentStream`, receiving and sealing the next watermark's batch for an
/// `OnlineSource`. Time inside the sink is not covered.
pub struct Timed<'t, S> {
    /// The wrapped source.
    pub inner: S,
    /// Where the spans go.
    pub tracer: &'t Tracer,
    /// The span name.
    pub name: &'static str,
}

impl<S: SessionSource> SessionSource for Timed<'_, S> {
    fn horizon_secs(&self) -> u64 {
        self.inner.horizon_secs()
    }

    fn population_len(&self) -> usize {
        self.inner.population_len()
    }

    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        let (tracer, name) = (self.tracer, self.name);
        let mut open = tracer.open(name);
        self.inner.for_each_batch(&mut |batch, watermark| {
            tracer.close(open);
            sink(batch, watermark);
            open = tracer.open(name);
        });
        tracer.close(open);
    }
}

/// Layer totals over a span list.
pub struct Totals<'a> {
    spans: &'a [Span],
}

impl<'a> Totals<'a> {
    /// Totals over `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        Self { spans }
    }

    /// The spans named `name`, in recording order.
    pub fn named(&self, name: &str) -> impl Iterator<Item = &'a Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total wall milliseconds of the spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::ms).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Total process CPU seconds inside the spans named `name`.
    pub fn cpu_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.cpu_s).sum()
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover, summed per name, in name order.
    pub fn self_ms(&self) -> Vec<(&'static str, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (span, children) in self.spans.iter().zip(&child_ms) {
            let own = span.ms() - children;
            match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += own,
                None => by_name.push((span.name, own)),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(b.0));
        by_name
    }
}

/// Renders spans as JSON lines: `{"name", "thread", "parent", "start_ms",
/// "end_ms", "cpu_ms"}`, one span per line, in recording order per thread.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"thread\":{},\"parent\":{parent},\"start_ms\":{:.4},\"end_ms\":{:.4},\"cpu_ms\":{:.4}}}",
            s.name,
            s.thread,
            s.start_s * 1e3,
            s.end_s * 1e3,
            s.cpu_s * 1e3
        );
    }
    out
}
