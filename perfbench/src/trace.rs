//! Benchmark-side spans: one per call into a layer, kept in memory per
//! thread and written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), start and end (nanoseconds since
//! the run's epoch), the span that caused it and the request it belongs
//! to. The program's own phase totals and counters ride on the enclosing
//! `soe.serve` / `soe.publish` span as attributes. A layer's self time is
//! its span minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same thread's list.
    pub parent: Option<usize>,
    pub req: u64,
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// One thread's span recorder. With tracing off every call is a branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    req: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize) -> Tracer {
        Tracer { on: false, epoch, thread, req: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new request: root spans opened from here on share its id.
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
            attrs: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        self.spans[i].end_ns = self.now();
        if let Some(pos) = self.open.iter().rposition(|&o| o == i) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Attaches counters to a (closed or open) span.
    pub fn attach(&mut self, id: SpanId, attrs: &[(&'static str, u64)]) {
        if let Some(i) = id.0 {
            self.spans[i].attrs.extend_from_slice(attrs);
        }
    }

    pub fn into_spans(self) -> (usize, Vec<Span>) {
        (self.thread, self.spans)
    }
}

/// Per-name totals over every thread's spans.
#[derive(Default, Clone)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub attrs: BTreeMap<&'static str, u64>,
    pub attr_max: BTreeMap<&'static str, u64>,
}

/// The merged trace of one run: per-thread span lists and their totals.
pub struct Ledger {
    pub threads: Vec<(usize, Vec<Span>)>,
    pub by_name: BTreeMap<&'static str, NameTotals>,
}

impl Ledger {
    pub fn new(threads: Vec<(usize, Vec<Span>)>) -> Ledger {
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (_, spans) in &threads {
            for (s, self_ns) in spans.iter().zip(self_times(spans)) {
                let t = by_name.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += self_ns;
                for &(k, v) in &s.attrs {
                    *t.attrs.entry(k).or_default() += v;
                    let m = t.attr_max.entry(k).or_default();
                    *m = (*m).max(v);
                }
            }
        }
        Ledger { threads, by_name }
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Σ of attribute `key` over spans named `name`.
    pub fn attr(&self, name: &str, key: &str) -> u64 {
        self.by_name.get(name).and_then(|t| t.attrs.get(key)).copied().unwrap_or(0)
    }

    /// Largest single value of attribute `key` over spans named `name`.
    pub fn attr_max(&self, name: &str, key: &str) -> u64 {
        self.by_name.get(name).and_then(|t| t.attr_max.get(key)).copied().unwrap_or(0)
    }

    /// Tab-separated dump: one line per span.
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("thread\treq\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\tattrs\n");
        for (thread, spans) in &self.threads {
            for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
                let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
                let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(
                    out,
                    "{thread}\t{}\t{i}\t{parent}\t{}\t{}\t{}\t{self_ns}\t{}",
                    s.req,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    attrs.join(",")
                );
            }
        }
        out
    }
}

/// Each span's duration minus the time its direct children cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}
