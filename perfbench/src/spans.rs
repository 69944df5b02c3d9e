//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, written out when the run ends.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Extra label, e.g. the `StepAction` of a controller step.
    pub label: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's span log. A span takes its slot when it opens, so the
/// spans opened inside it can name it as their parent by index.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// The innermost open span, so layers called from inside a span
    /// (the benchmark's `DbFallback` inside `fetch`) can attach to it.
    current: Cell<u32>,
}

/// An open span; [`SpanLog::close`] records it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: u32,
    outer: u32,
}

impl SpanLog {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanLog {
            epoch,
            spans: RefCell::new(Vec::with_capacity(capacity)),
            current: Cell::new(NO_PARENT),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the current one.
    pub fn open(&self, name: &'static str, request: u64) -> Open {
        let mut spans = self.spans.borrow_mut();
        let index = spans.len() as u32;
        let outer = self.current.get();
        spans.push(Span {
            name,
            label: "",
            start: self.now(),
            end: 0,
            parent: outer,
            request,
        });
        self.current.set(index);
        Open { index, outer }
    }

    pub fn close(&self, open: Open, label: &'static str) {
        let end = self.now();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[open.index as usize];
        span.end = end;
        span.label = label;
        self.current.set(open.outer);
    }

    /// Records a finished span whose times were taken elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            label,
            start: at(start),
            end: at(end),
            parent: self.current.get(),
            request,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children counted
/// once, children clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Spans written to the span file per traced run; all of them are used
/// for the per-layer numbers.
const FILE_LIMIT: usize = 200_000;

/// Writes the first [`FILE_LIMIT`] spans to
/// `.bench_out/spans-<workload>-seed<seed>.jsonl` and says so.
pub fn write_out(workload: &str, seed: u64, spans: &[Span]) -> String {
    let path =
        std::path::PathBuf::from(".bench_out").join(format!("spans-{workload}-seed{seed}.jsonl"));
    let kept = spans.len().min(FILE_LIMIT);
    match write_jsonl(&path, &spans[..kept]) {
        Ok(()) => format!(
            "spans  {kept} of {} written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => format!("spans  could not be written to {}: {e}", path.display()),
    }
}

/// Writes spans as JSON lines: name, label, start/end ns, parent index
/// and request id.
fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","label":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
            s.name, s.label, s.start, s.end, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "s",
            label: "",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(0, 100, NO_PARENT),
            // Two overlapping children cover 10..50 once: 40 ns.
            span(10, 40, 0),
            span(30, 50, 0),
            // A disjoint child: 10 ns.
            span(70, 80, 0),
            // A grandchild only reduces its own parent.
            span(12, 20, 1),
            // A child running past its parent is clipped.
            span(95, 130, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10 - 5);
        assert_eq!(t[1], 30 - 8);
        assert_eq!(t[2], 20);
        assert_eq!(t[3], 10);
        assert_eq!(t[4], 8);
    }

    #[test]
    fn nested_open_close_links_parents() {
        let log = SpanLog::new(Instant::now(), 4);
        let root = log.open("request", 1);
        let inner = log.open("fetch", 1);
        let leaf = log.open("store", 1);
        log.close(leaf, "");
        log.close(inner, "hit");
        let sibling = log.open("put", 1);
        log.close(sibling, "");
        log.close(root, "");
        let spans = log.into_spans();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 1, 0]);
        assert_eq!(spans[1].label, "hit");
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
