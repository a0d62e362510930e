//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around each call it makes into a layer
//! (name = layer, start, end, parent) and tags every span of one job with
//! the job's id. Spans stay in memory and are written out as JSON lines
//! when the run ends. Work that a layer does inside another layer's call
//! and that is only visible through the program's counters (checkpoint
//! saves inside the campaign) is recorded as a *derived* child span whose
//! duration comes from the counter; it is marked as such in the output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    parent: Option<SpanId>,
    job: usize,
    layer: &'static str,
    start_s: f64,
    end_s: f64,
    derived: bool,
}

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span of `layer` for `job` under `parent`.
    pub fn begin(&mut self, layer: &'static str, job: usize, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            parent,
            job,
            layer,
            start_s: now,
            end_s: now,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        job: usize,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, job, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records `secs` of `layer` work measured by a counter inside the
    /// closed span `parent`, placed at the end of the parent's interval.
    pub fn derived(&mut self, layer: &'static str, parent: SpanId, secs: f64) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent];
        let (job, end_s) = (p.job, p.end_s);
        self.spans.push(Span {
            parent: Some(parent),
            job,
            layer,
            start_s: (end_s - secs).max(p.start_s),
            end_s,
            derived: true,
        });
    }

    /// Self time per layer over the subtree rooted at `root`: each span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        if !self.enabled {
            return out;
        }
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let s = &self.spans[id];
            let covered: f64 = children[id]
                .iter()
                .map(|&c| self.spans[c].end_s - self.spans[c].start_s)
                .sum();
            *out.entry(s.layer).or_insert(0.0) += (s.end_s - s.start_s) - covered;
            stack.extend(&children[id]);
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\
                 \"start_s\":{:.9},\"end_s\":{:.9},\"derived\":{}}}",
                s.job, s.layer, s.start_s, s.end_s, s.derived
            );
        }
        out
    }
}
