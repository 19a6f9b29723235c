//! In-memory spans around calls into the program's layers.
//!
//! Spans are recorded only by the benchmark's own code, around public
//! functions; the program itself is not instrumented.  A span stores its
//! name, start, end, parent and the request (root) it belongs to.  With
//! recording off, `span` just runs its closure.

use crate::util::nanos;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        if parent == ROOT {
            self.request += 1;
        }
        let start = nanos(self.t0.elapsed());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end = nanos(self.t0.elapsed());
        out
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Per-request totals (ns) of the spans with this name, for requests
    /// that have at least one.
    pub fn per_request(&self, name: &str) -> Vec<u64> {
        let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.request).or_default() += s.ns();
        }
        totals.into_values().collect()
    }

    /// Time each span does not spend in its direct children (spans on one
    /// thread nest, so children never overlap).
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.ns();
            }
        }
        child
    }

    /// Share of the time of the root spans named in `roots` that no child
    /// span covers.
    pub fn unattributed_frac(&self, roots: &[&str]) -> f64 {
        let child = self.child_ns();
        let (mut total, mut covered) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT && roots.contains(&s.name) {
                total += s.ns();
                covered += child[i].min(s.ns());
            }
        }
        if total == 0 {
            0.0
        } else {
            (total - covered) as f64 / total as f64
        }
    }

    /// Self time (ns) per span name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let child = self.child_ns();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_default() += s.ns().saturating_sub(child[i]);
        }
        out
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}
