//! Exporters: a JSON-lines snapshot writer, a human-readable table
//! printer, and a flame-style span summary.
//!
//! JSON is emitted by hand (the workspace carries no external
//! dependencies); the schema is documented in DESIGN.md. One snapshot
//! is one line, so a run's output is greppable and trivially parsed by
//! any JSON reader line by line.

use std::io::{self, Write};
use std::time::Instant;

use crate::memory::{MemoryRecorder, Snapshot, SpanStat};

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number; NaN and infinities become
/// `null` (JSON has no representation for them).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Serializes this snapshot as a single JSON line (no trailing
    /// newline). `seq` is the snapshot's ordinal, `transactions` the
    /// number of transactions completed when it was taken, and `t_ms`
    /// the run-relative monotonic timestamp in milliseconds (pass 0.0
    /// for one-shot end-of-run snapshots with no run clock).
    #[must_use]
    pub fn to_json_line(&self, seq: u64, transactions: u64, t_ms: f64) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"seq\":{seq},\"t_ms\":{:.3},\"transactions\":{transactions},\"counters\":{{",
            if t_ms.is_finite() { t_ms } else { 0.0 },
        ));
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(k)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                json_escape(k),
                h.count,
                json_f64(h.mean),
                json_f64(h.p50),
                json_f64(h.p95),
                json_f64(h.p99),
                h.max
            ));
        }
        out.push_str("},\"spans\":{");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                json_escape(path),
                s.count,
                s.total_ns,
                s.max_ns
            ));
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot as aligned, sectioned plain text.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let key_width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<key_width$} {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<key_width$} {v:>14.3}\n"));
            }
        }
        if !self.histograms.is_empty() {
            // values are whatever unit the metric records (the name
            // carries it, e.g. `txn_latency_ns`, `batch_miss_ppm`)
            out.push_str("histograms\n");
            out.push_str(&format!(
                "  {:<key_width$} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            ));
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<key_width$} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12}\n",
                    k, h.count, h.mean, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        if !self.spans.is_empty() {
            out.push_str(&self.render_flame());
        }
        out
    }

    /// Renders the span aggregates as a flame-style indented summary:
    /// one row per path, indented by nesting depth, with inclusive
    /// time, self time (inclusive minus direct children), call count
    /// and mean.
    #[must_use]
    pub fn render_flame(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            return out;
        }
        // spans are sorted by path, so a child row follows its parent;
        // pre-compute each path's direct-children total for self time
        let child_total = |parent: &str| -> u64 {
            self.spans
                .iter()
                .filter(|(p, _)| {
                    p.len() > parent.len()
                        && p.starts_with(parent)
                        && p.as_bytes()[parent.len()] == b'/'
                        && !p[parent.len() + 1..].contains('/')
                })
                .map(|(_, s)| s.total_ns)
                .sum()
        };
        let path_width = self
            .spans
            .iter()
            .map(|(p, _)| p.len() + 2 * p.matches('/').count())
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str("spans (flame summary, ms inclusive)\n");
        out.push_str(&format!(
            "  {:<path_width$} {:>10} {:>10} {:>10} {:>12}\n",
            "span", "total", "self", "count", "mean µs"
        ));
        for (path, stat) in &self.spans {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().unwrap_or(path);
            let self_ns = stat.total_ns.saturating_sub(child_total(path));
            out.push_str(&format!(
                "  {:<path_width$} {:>10.2} {:>10.2} {:>10} {:>12.1}\n",
                format!("{}{}", "  ".repeat(depth), leaf),
                stat.total_ns as f64 / 1e6,
                self_ns as f64 / 1e6,
                stat.count,
                stat.total_ns as f64 / 1e3 / stat.count.max(1) as f64,
            ));
        }
        out
    }
}

/// Convenience: aggregate span statistics rooted at depth 0, i.e. the
/// top-level spans, with their total inclusive time. Useful for quick
/// "where did the time go" assertions in tests and demos.
#[must_use]
pub fn top_level_totals(snapshot: &Snapshot) -> Vec<(String, SpanStat)> {
    snapshot
        .spans
        .iter()
        .filter(|(p, _)| !p.contains('/'))
        .cloned()
        .collect()
}

/// Writes one JSON-lines snapshot every `every` transactions (plus a
/// final one on [`SnapshotWriter::finish`]).
///
/// The driver calls [`tick`](SnapshotWriter::tick) after each
/// transaction; the writer decides when a snapshot is due, takes it
/// from the recorder, and appends it to the underlying writer. Each
/// line carries `t_ms`, the run-relative monotonic milliseconds since
/// the writer was created. Dropping the writer flushes the sink —
/// including during a panic unwind — so fault-injected runs keep
/// their emitted snapshots.
#[derive(Debug)]
pub struct SnapshotWriter<W: Write> {
    out: Option<W>,
    start: Instant,
    every: u64,
    seq: u64,
    last_emitted_at: u64,
}

impl<W: Write> SnapshotWriter<W> {
    /// A writer emitting one snapshot per `every` transactions
    /// (`every` of 0 is treated as 1). The `t_ms` run clock starts
    /// now.
    pub fn new(out: W, every: u64) -> Self {
        Self {
            out: Some(out),
            start: Instant::now(),
            every: every.max(1),
            seq: 0,
            last_emitted_at: 0,
        }
    }

    /// Transactions between snapshots.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.every
    }

    /// Notes that `transactions_done` transactions have now completed;
    /// emits a snapshot if a period boundary was crossed.
    ///
    /// # Errors
    /// Propagates write errors from the underlying sink.
    pub fn tick(&mut self, recorder: &MemoryRecorder, transactions_done: u64) -> io::Result<()> {
        if transactions_done - self.last_emitted_at >= self.every {
            self.emit(recorder, transactions_done)?;
        }
        Ok(())
    }

    /// Unconditionally emits a final snapshot and flushes.
    ///
    /// # Errors
    /// Propagates write errors from the underlying sink.
    pub fn finish(&mut self, recorder: &MemoryRecorder, transactions_done: u64) -> io::Result<()> {
        if transactions_done != self.last_emitted_at || self.seq == 0 {
            self.emit(recorder, transactions_done)?;
        }
        self.out.as_mut().expect("writer not consumed").flush()
    }

    fn emit(&mut self, recorder: &MemoryRecorder, transactions_done: u64) -> io::Result<()> {
        let t_ms = self.start.elapsed().as_secs_f64() * 1e3;
        let line = recorder
            .snapshot()
            .to_json_line(self.seq, transactions_done, t_ms);
        writeln!(self.out.as_mut().expect("writer not consumed"), "{line}")?;
        self.seq += 1;
        self.last_emitted_at = transactions_done;
        Ok(())
    }

    /// Snapshots emitted so far.
    #[must_use]
    pub fn snapshots_written(&self) -> u64 {
        self.seq
    }

    /// Consumes the writer, returning the underlying sink (flushed).
    pub fn into_inner(mut self) -> W {
        let mut out = self.out.take().expect("writer not consumed");
        let _ = out.flush();
        out
    }
}

impl<W: Write> Drop for SnapshotWriter<W> {
    /// Best-effort flush so emitted snapshots survive panics and early
    /// returns; errors are ignored (there is no one left to tell).
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Label, Obs, Recorder};
    use std::sync::Arc;

    fn sample_recorder() -> Arc<MemoryRecorder> {
        let rec = Arc::new(MemoryRecorder::new());
        let obs = Obs::new(rec.clone());
        obs.counter("buf_hits", Label::Name("stock"), 10);
        obs.gauge("pool", Label::None, 64.0);
        obs.observe("lat/new_order", Label::None, 1500);
        obs.observe("lat/new_order", Label::None, 2500);
        rec.span_record("new_order", 4000);
        rec.span_record("new_order/lookup", 1000);
        rec
    }

    #[test]
    fn json_line_is_wellformed_and_complete() {
        let line = sample_recorder().snapshot().to_json_line(3, 2000, 1250.5);
        assert!(line.starts_with("{\"seq\":3,\"t_ms\":1250.500,\"transactions\":2000,"));
        assert!(line.contains("\"buf_hits/stock\":10"));
        assert!(line.contains("\"pool\":64"));
        assert!(line.contains("\"lat/new_order\":{\"count\":2,"));
        assert!(line.contains("\"p50\":"));
        assert!(line.contains("\"new_order/lookup\":{\"count\":1,\"total_ns\":1000,"));
        assert!(!line.contains('\n'));
        // braces balance (no quoting subtleties in these keys)
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_and_nan_to_null() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn table_and_flame_render() {
        let snap = sample_recorder().snapshot();
        let table = snap.render_table();
        assert!(table.contains("counters"));
        assert!(table.contains("buf_hits/stock"));
        assert!(table.contains("histograms"));
        let flame = snap.render_flame();
        assert!(flame.contains("new_order"));
        // child indented under parent, self time subtracted
        assert!(flame.contains("  lookup") || flame.contains("    lookup"));
        let tops = top_level_totals(&snap);
        assert_eq!(tops.len(), 1);
        assert_eq!(tops[0].1.total_ns, 4000);
    }

    #[test]
    fn snapshot_writer_emits_every_n() {
        let rec = sample_recorder();
        let mut w = SnapshotWriter::new(Vec::new(), 100);
        for done in 1..=250u64 {
            w.tick(&rec, done).unwrap();
        }
        w.finish(&rec, 250).unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "at 100, 200, and final 250");
        assert!(lines[0].starts_with("{\"seq\":0,\"t_ms\":"));
        assert!(lines[0].contains("\"transactions\":100"));
        assert!(lines[2].contains("\"seq\":2"));
        assert!(lines[2].contains("\"transactions\":250"));
    }

    /// A sink that only counts as "persisted" what was flushed.
    struct FlushGate {
        buffered: Vec<u8>,
        persisted: Arc<std::sync::Mutex<Vec<u8>>>,
    }

    impl Write for FlushGate {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.buffered.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.persisted
                .lock()
                .unwrap()
                .extend_from_slice(&self.buffered);
            self.buffered.clear();
            Ok(())
        }
    }

    #[test]
    fn snapshot_writer_flushes_on_panic_unwind() {
        let rec = sample_recorder();
        let persisted = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = FlushGate {
            buffered: Vec::new(),
            persisted: persisted.clone(),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = SnapshotWriter::new(sink, 10);
            w.tick(&rec, 10).unwrap();
            panic!("simulated fault-injected crash");
        }));
        assert!(result.is_err());
        let got = String::from_utf8(persisted.lock().unwrap().clone()).unwrap();
        assert!(
            got.contains("\"transactions\":10"),
            "the emitted snapshot survived the panic: {got:?}"
        );
    }
}
