//! In-memory spans for the traced run. Spans of one request share its
//! id; a span's self time is its duration minus its children's. They
//! are written out as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        // black_box: the caller may drop the result; the call must still run.
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a span measured elsewhere (the client clock).
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per request: the span's duration minus its children's, in µs.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(name)) {
            *children.entry(s.req).or_default() += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(&s.req).copied().unwrap_or(0);
                (s.end_ns - s.start_ns) as f64 / 1e3 - kids as f64 / 1e3
            })
            .collect()
    }

    /// Per request id: the summed duration (µs) of the named spans.
    pub fn per_request_us(&self, names: &[&str]) -> HashMap<u64, f64> {
        let mut out: HashMap<u64, f64> = HashMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *out.entry(s.req).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.name,
                s.parent
                    .map(|p| format!("\"{p}\""))
                    .unwrap_or_else(|| "null".to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
