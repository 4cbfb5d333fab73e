//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the program's layers
//! from the benchmark's own code; nothing inside the program is
//! instrumented. Each span records its name, start, end, parent, op id
//! and thread, plus the thread's on-CPU and runnable-wait time and its
//! allocation calls and bytes across the span. Spans stay in per-thread
//! buffers until the thread's recorder is dropped, then join the
//! tracer; they are written out once, as Chrome trace-event JSON, when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::account;

/// The layers whose calls the traced run times, in pipeline order.
pub const LAYERS: [&str; 10] = [
    "phone.simulate",
    "phone.corrupt",
    "core.parse",
    "core.fold",
    "core.merge",
    "core.checkpoint.encode",
    "core.checkpoint.decode",
    "core.render",
    "core.signature",
    "phone.repro",
];

/// Structural span: one op on the thread that issued it.
pub const OP: &str = "op";
/// Structural span: one finished product (a triage catalog) on the
/// main thread, parent of the worker spans that built it.
pub const PASS: &str = "pass";
/// Structural span: the main thread blocked in a worker pool's scope.
pub const SCOPE: &str = "scope";
/// Structural span: a worker thread's whole life inside one op or pass.
pub const WORKER: &str = "worker";

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The enclosing span (possibly on another thread), if any.
    pub parent: Option<u64>,
    /// A layer from [`LAYERS`] or a structural name.
    pub name: &'static str,
    /// The op (or pass) the span belongs to.
    pub op: u32,
    /// Tracer-local thread number.
    pub tid: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Thread on-CPU time across the span.
    pub cpu_ns: u64,
    /// Thread runnable-but-waiting time across the span.
    pub wait_ns: u64,
    /// Allocation calls the thread made across the span.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans and work counters from every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            next_tid: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// A recorder for the calling thread. Its spans and counters join
    /// the tracer when it is dropped.
    pub fn thread(&self) -> ThreadTrace<'_> {
        ThreadTrace {
            tracer: self,
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            op: 0,
            open: Vec::new(),
            done: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Every span recorded so far, ordered by start time, and the
    /// summed work counters.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        let mut spans = self.spans.into_inner().expect("span buffer lock");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let counts = self.counts.into_inner().expect("counter lock");
        (spans, counts)
    }
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u32,
    start: Instant,
    sched: (u64, u64),
    allocs: (u64, u64),
}

/// One thread's recorder: a stack of open spans plus its closed spans
/// and counters.
pub struct ThreadTrace<'t> {
    tracer: &'t Tracer,
    tid: u32,
    /// Op id stamped on spans opened from now on.
    pub op: u32,
    open: Vec<Open>,
    done: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl ThreadTrace<'_> {
    /// Opens a span. Its parent is `parent` when given (a worker's
    /// root names the main thread's span), otherwise the innermost
    /// span still open on this thread.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>) -> u64 {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = parent.or_else(|| self.open.last().map(|o| o.id));
        let sched = account::thread_sched().unwrap_or((0, 0));
        let allocs = account::thread_allocs();
        self.open.push(Open {
            id,
            parent,
            name,
            op: self.op,
            start: Instant::now(),
            sched,
            allocs,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u64) {
        let end = Instant::now();
        let allocs = account::thread_allocs();
        let sched = account::thread_sched().unwrap_or((0, 0));
        let open = self.open.pop().expect("end() without an open span");
        assert_eq!(open.id, id, "spans must close innermost first");
        let ns = |t: Instant| t.duration_since(self.tracer.epoch).as_nanos() as u64;
        self.done.push(Span {
            id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            tid: self.tid,
            start_ns: ns(open.start),
            end_ns: ns(end),
            cpu_ns: sched.0.saturating_sub(open.sched.0),
            wait_ns: sched.1.saturating_sub(open.sched.1),
            allocs: allocs.0 - open.allocs.0,
            alloc_bytes: allocs.1 - open.allocs.1,
        });
    }

    /// Times one call into `layer`.
    pub fn layer<R>(&mut self, layer: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, None);
        let out = call();
        self.end(id);
        out
    }

    /// Adds `n` to the work counter `key` (e.g. `core.parse.lines`).
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }
}

impl Drop for ThreadTrace<'_> {
    fn drop(&mut self) {
        // A poisoned lock means another recorder panicked mid-flush;
        // that panic already fails the run, so the spans can go.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.done);
        }
        if let Ok(mut counts) = self.tracer.counts.lock() {
            for (k, v) in std::mem::take(&mut self.counts) {
                *counts.entry(k).or_default() += v;
            }
        }
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans (calls into the layer).
    pub calls: u64,
    /// Self time: span time not covered by child spans.
    pub busy_ns: u64,
    /// Thread on-CPU time.
    pub cpu_ns: u64,
    /// Thread runnable-wait time.
    pub wait_ns: u64,
    /// Allocation calls.
    pub allocs: u64,
    /// Allocated bytes.
    pub alloc_bytes: u64,
}

/// What a set of spans adds up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Totals per layer, every entry of [`LAYERS`] present.
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Σ layer self time.
    pub layer_self_ns: u64,
    /// Σ thread time spent on the traced work: root spans plus worker
    /// spans, minus the time the main thread sat blocked in a scope.
    pub thread_wall_ns: u64,
}

impl Summary {
    /// Σ layer self time / thread wall.
    pub fn coverage(&self) -> f64 {
        if self.thread_wall_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns as f64 / self.thread_wall_ns as f64
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self times and per-layer totals of `spans`.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Summary {
        layers: LAYERS
            .iter()
            .map(|&l| (l, LayerTotals::default()))
            .collect(),
        ..Summary::default()
    };
    let mut wall: i128 = 0;
    for s in spans {
        match s.name {
            SCOPE => wall -= s.dur_ns() as i128,
            WORKER => wall += s.dur_ns() as i128,
            _ if s.parent.is_none() => wall += s.dur_ns() as i128,
            _ => {}
        }
        let Some(t) = out.layers.get_mut(s.name) else {
            continue;
        };
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
        let busy = s.dur_ns() - kids;
        t.calls += 1;
        t.busy_ns += busy;
        t.cpu_ns += s.cpu_ns;
        t.wait_ns += s.wait_ns;
        t.allocs += s.allocs;
        t.alloc_bytes += s.alloc_bytes;
        out.layer_self_ns += busy;
    }
    out.thread_wall_ns = wall.max(0) as u64;
    out
}

/// Renders `spans` as Chrome trace-event JSON (complete `X` events in
/// microseconds, one track per recorder thread), which Perfetto and
/// `chrome://tracing` open offline.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 200 + 256);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let _ = write!(
        out,
        "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \
         \"args\": {{\"name\": \"{process}\"}}}}"
    );
    for s in spans {
        let cat = if LAYERS.contains(&s.name) {
            "layer"
        } else {
            "structure"
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{cat}\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \
             \"parent\": {parent}, \"op\": {}, \"cpu_us\": {:.3}, \"wait_us\": {:.3}, \
             \"allocs\": {}, \"alloc_bytes\": {}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.op,
            s.cpu_ns as f64 / 1e3,
            s.wait_ns as f64 / 1e3,
            s.allocs,
            s.alloc_bytes
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            tid: 0,
            start_ns: start,
            end_ns: end,
            cpu_ns: 0,
            wait_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A layer span with two overlapping children on other threads
        // and one disjoint child: covered = [10, 40) ∪ [60, 70).
        let spans = vec![
            span(0, None, "core.render", 0, 100),
            span(1, Some(0), WORKER, 10, 30),
            span(2, Some(0), WORKER, 20, 40),
            span(3, Some(0), "phone.repro", 60, 70),
        ];
        let s = summarize(&spans);
        assert_eq!(s.layers["core.render"].busy_ns, 100 - 30 - 10);
        assert_eq!(s.layers["phone.repro"].busy_ns, 10);
        assert_eq!(s.layer_self_ns, 70);
        // Root 100 + workers 20 + 20.
        assert_eq!(s.thread_wall_ns, 140);
    }

    #[test]
    fn scope_time_is_not_thread_wall() {
        let spans = vec![
            span(0, None, OP, 0, 100),
            span(1, Some(0), SCOPE, 10, 90),
            span(2, Some(0), WORKER, 12, 88),
            span(3, Some(2), "phone.simulate", 12, 80),
            span(4, Some(0), "core.render", 90, 100),
        ];
        let s = summarize(&spans);
        assert_eq!(s.thread_wall_ns, 100 - 80 + 76);
        assert_eq!(s.layer_self_ns, 68 + 10);
    }
}
