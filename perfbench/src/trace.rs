//! In-memory spans around the benchmark's own calls into the program.
//!
//! Each span has a name, a start and end (nanoseconds since the tracer
//! was created), the span open when it began (its parent) and the id of
//! the operation it belongs to. Spans are kept in a `Vec` and written out
//! once, when the run ends, so recording one costs two clock reads and a
//! push.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `init` or `stream.ingest`.
    pub name: &'static str,
    /// Operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Spans nest strictly: [`Tracer::end`] closes the most
/// recently opened span.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span of operation `op` under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span. Returns
    /// its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].secs()
    }

    /// Self time of every closed span named `name`, in seconds: its
    /// duration minus the time its direct children cover.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end_ns > 0)
            .map(|(i, s)| (s.end_ns - s.start_ns - child[i]) as f64 * 1e-9)
            .collect()
    }

    /// Total duration of every closed span named `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(Span::secs)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
