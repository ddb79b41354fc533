//! The harness's own spans: recorded in memory around calls into each
//! layer's public functions, written out as JSON lines when the run
//! ends. One line per span: `id`, `parent` (`null` for a root), `name`,
//! `txn` (shared by the spans of one transaction or driver chunk),
//! `start_ns`, `end_ns` (nanoseconds since the tracer was created).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Index into [`Tracer::names`].
    name: u16,
    /// Index of the causing span, `u32::MAX` for a root.
    parent: u32,
    /// Identifier shared by the spans of one request.
    txn: u32,
    start_ns: u64,
    end_ns: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// Handle to an open span (its index in the buffer).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Bounded in-memory span buffer. Spans past the capacity are counted
/// and dropped, so a long traced run cannot grow without limit.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer holding up to `capacity` spans. The buffer is written
    /// once up front so recording into it takes no page faults inside
    /// a timed section.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let mut spans = vec![Span::default(); capacity];
        spans.clear();
        Self {
            epoch: Instant::now(),
            names: Vec::new(),
            spans,
            capacity,
            dropped: 0,
        }
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` once the buffer is full.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, txn: u32) -> Option<SpanId> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let name = self.name_index(name);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            txn,
            start_ns,
            end_ns: start_ns,
        });
        Some(SpanId((self.spans.len() - 1) as u32))
    }

    /// Closes a span opened by [`Tracer::open`] and returns its
    /// duration in nanoseconds (0 for a dropped span).
    pub fn close(&mut self, id: Option<SpanId>) -> u64 {
        let Some(SpanId(i)) = id else { return 0 };
        let end = self.now_ns();
        let span = &mut self.spans[i as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans refused because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per span name: `(count, total ns, self ns)` where self time is
    /// the span's duration minus the part its direct children cover.
    #[must_use]
    pub fn totals(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, u64, u64)> =
            self.names.iter().map(|n| (*n, 0, 0, 0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = &mut out[s.name as usize];
            row.1 += 1;
            row.2 += dur;
            row.3 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"txn\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                self.names[s.name as usize], s.txn, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Writes a traced run's spans to `path`, noting where they went.
pub fn flush(
    tracer: Option<&Tracer>,
    path: Option<&Path>,
    notes: &mut Vec<String>,
    errors: &mut Vec<String>,
) {
    let (Some(tracer), Some(path)) = (tracer, path) else {
        return;
    };
    if let Err(e) = tracer.write_jsonl(path) {
        errors.push(format!("writing {}: {e}", path.display()));
    }
    notes.push(format!(
        "{} spans written to {} ({} dropped)",
        tracer.len(),
        path.display(),
        tracer.dropped()
    ));
}

/// Runs `f` inside a root span named `name` when a tracer is present.
pub fn spanned<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    txn: u32,
    f: impl FnOnce() -> R,
) -> R {
    let span = tracer.as_deref_mut().and_then(|t| t.open(name, None, txn));
    let result = f();
    if let Some(t) = tracer.as_deref_mut() {
        t.close(span);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_full_buffer_drops() {
        let mut t = Tracer::new(3);
        let root = t.open("txn", None, 7);
        let child = t.open("child", root, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(root);
        let totals = t.totals();
        let (_, n, total, own) = totals[0];
        let (_, _, child_total, _) = totals[1];
        assert_eq!(n, 1);
        assert!(total >= child_total && own == total - child_total);
        assert!(t.open("a", None, 8).is_some());
        assert!(t.open("b", None, 9).is_none(), "capacity 3 reached");
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.close(None), 0);
    }
}
