//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded by the benchmark's own code: the program under
//! test is not instrumented. A span carries its name, start and end on
//! one clock, the span that caused it and the id of the cycle (or
//! repetition) it belongs to. With tracing off, [`Tracer::begin`] and
//! [`Tracer::end`] do nothing. The spans are written out when the
//! workload ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open or closed span; [`NONE`] when tracing is off.
pub type SpanId = u32;

/// "No span": the parent of a root span, and what `begin` returns with
/// tracing off.
pub const NONE: SpanId = u32::MAX;

/// Spans written to the trace file; the head of a long run is enough to
/// read a cycle's shape, and the layer metrics use every span.
const DUMP_CAP: usize = 200_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    cycle: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    /// Whether spans are being recorded; flipped between measurement
    /// windows to price the tracing itself.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder stamping spans relative to `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another thread; its
    /// spans come back through [`absorb`](Self::absorb).
    pub fn child(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, cycle: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            cycle,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a root span.
    pub fn span<T>(&mut self, name: &'static str, cycle: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, NONE, cycle);
        let out = f();
        self.end(id);
        out
    }

    /// Takes over another thread's spans, keeping parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += shift;
            }
            s
        }));
    }

    /// Duration of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Mean duration of the spans called `name`, in nanoseconds; 0 when
    /// there are none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Mean self time of the spans called `name`: their duration minus
    /// the part their child spans cover.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let mut own = 0.0;
        let mut count = 0usize;
        for s in self.spans.iter().filter(|s| s.name == name) {
            own += (s.end_ns - s.start_ns) as f64;
            count += 1;
        }
        for s in &self.spans {
            if s.parent != NONE && self.spans[s.parent as usize].name == name {
                own -= (s.end_ns - s.start_ns) as f64;
            }
        }
        if count == 0 {
            0.0
        } else {
            own / count as f64
        }
    }

    /// Writes the spans, one JSON object a line, to `path`.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().take(DUMP_CAP) {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"cycle\": {}}}",
                s.name, s.start_ns, s.end_ns, s.cycle
            )?;
        }
        w.flush()?;
        println!(
            "trace: {} spans recorded, {} written to {}",
            self.spans.len(),
            self.spans.len().min(DUMP_CAP),
            path.display()
        );
        Ok(())
    }
}
