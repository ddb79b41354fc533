//! Exporters: a JSON object builder and a JSON-lines sink, the
//! snapshot writer built on them, a human-readable table printer, and
//! a flame-style span summary.
//!
//! JSON is emitted by hand (the workspace carries no external
//! dependencies); the schema is documented in DESIGN.md. One snapshot
//! is one line, so a run's output is greppable and trivially parsed by
//! any JSON reader line by line.

use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::time::Instant;

use crate::memory::{MemoryRecorder, Snapshot};

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

/// Renders a float with `decimals` fixed digits, or in its shortest
/// round-trip form; NaN and infinities become `null` (JSON has no
/// representation for them).
fn json_f64(v: f64, decimals: Option<usize>) -> String {
    match decimals {
        _ if !v.is_finite() => "null".to_string(),
        Some(d) => format!("{v:.d$}"),
        None => format!("{v}"),
    }
}

/// One JSON object under construction. Members appear in call order;
/// every float goes through [`json_f64`], in every exporter.
#[derive(Debug, Clone, Default)]
pub struct JsonObject(String);

impl JsonObject {
    fn raw(&mut self, key: &str, value: fmt::Arguments<'_>) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        write!(self.0, "{sep}\"{}\":{value}", json_escape(key)).expect("write to a String");
        self
    }

    /// An unsigned integer member, of any integer type.
    ///
    /// # Panics
    /// Panics if `v` is negative (or wider than a `u64`).
    pub fn uint(&mut self, key: &str, v: impl TryInto<u64>) -> &mut Self {
        let v = v.try_into().ok().expect("a count that fits a u64");
        self.raw(key, format_args!("{v}"))
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, format_args!("{v}"))
    }

    /// A string member (escaped).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, format_args!("\"{}\"", json_escape(v)))
    }

    /// A float in its shortest round-trip form.
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, format_args!("{}", json_f64(v, None)))
    }

    /// A float with a fixed number of decimals, so a column keeps its
    /// width from line to line.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.raw(key, format_args!("{}", json_f64(v, Some(decimals))))
    }

    /// An array of floats, each with `decimals` decimals.
    pub fn fixed_array(&mut self, key: &str, vs: &[f64], decimals: usize) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|&v| json_f64(v, Some(decimals))).collect();
        self.raw(key, format_args!("[{}]", items.join(",")))
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, v: &JsonObject) -> &mut Self {
        self.raw(key, format_args!("{v}"))
    }
}

impl fmt::Display for JsonObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// A JSON-lines sink: one object per line, numbered by `seq` and
/// timed on a run-relative monotonic clock `t_ms` that starts when the
/// sink is created. Dropping the sink flushes it — including during a
/// panic unwind — so a crashed or fault-injected run keeps every line
/// it emitted.
#[derive(Debug)]
pub struct JsonLines<W: Write> {
    out: Option<W>,
    start: Instant,
    seq: u64,
}

impl<W: Write> JsonLines<W> {
    /// A sink over `out` whose `t_ms` clock starts now.
    pub fn new(out: W) -> Self {
        Self {
            out: Some(out),
            start: Instant::now(),
            seq: 0,
        }
    }

    /// Milliseconds since the sink's creation.
    #[must_use]
    pub fn t_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Lines written so far, which is the next line's `seq`.
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.seq
    }

    /// An object opened with the next line's stamp: `seq`, then `t_ms`.
    #[must_use]
    pub fn stamped(&self) -> JsonObject {
        let mut line = JsonObject::default();
        line.uint("seq", self.seq).fixed("t_ms", self.t_ms(), 3);
        line
    }

    /// Appends `line` and a newline; a write error is the sink's.
    pub fn write(&mut self, line: &JsonObject) -> io::Result<()> {
        // one write per line: a reader of the file never sees half of one
        let out = self.out.as_mut().expect("sink not consumed");
        out.write_all(format!("{line}\n").as_bytes())?;
        self.seq += 1;
        Ok(())
    }

    /// Flushes the underlying sink; a flush error is the sink's.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.as_mut().expect("sink not consumed").flush()
    }

    /// Consumes the sink, returning the underlying writer (flushed).
    pub fn into_inner(mut self) -> W {
        let mut out = self.out.take().expect("sink not consumed");
        let _ = out.flush();
        out
    }
}

impl<W: Write> Drop for JsonLines<W> {
    /// Best-effort flush so emitted lines survive panics and early
    /// returns; errors are ignored (there is no one left to tell).
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
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
        let mut line = JsonObject::default();
        line.uint("seq", seq).fixed("t_ms", t_ms, 3);
        self.fill(&mut line, transactions);
        line.to_string()
    }

    /// Appends `transactions` and the four metric sections to `line`.
    fn fill(&self, line: &mut JsonObject, transactions: u64) {
        let mut counters = JsonObject::default();
        for (k, v) in &self.counters {
            counters.uint(k, *v);
        }
        let mut gauges = JsonObject::default();
        for (k, v) in &self.gauges {
            gauges.float(k, *v);
        }
        let mut histograms = JsonObject::default();
        for (k, h) in &self.histograms {
            let mut o = JsonObject::default();
            o.uint("count", h.count).float("mean", h.mean);
            o.float("p50", h.p50)
                .float("p95", h.p95)
                .float("p99", h.p99);
            histograms.object(k, o.uint("max", h.max));
        }
        let mut spans = JsonObject::default();
        for (path, s) in &self.spans {
            let mut o = JsonObject::default();
            o.uint("count", s.count).uint("total_ns", s.total_ns);
            spans.object(path, o.uint("max_ns", s.max_ns));
        }
        line.uint("transactions", transactions)
            .object("counters", &counters)
            .object("gauges", &gauges)
            .object("histograms", &histograms)
            .object("spans", &spans);
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

/// Writes one JSON-lines snapshot every `every` transactions (plus a
/// final one on [`SnapshotWriter::finish`]).
///
/// The driver calls [`tick`](SnapshotWriter::tick) after each
/// transaction; the writer decides when a snapshot is due, takes it
/// from the recorder, and appends it to a [`JsonLines`] sink, whose
/// `seq` / `t_ms` stamp and flush-on-drop it inherits.
#[derive(Debug)]
pub struct SnapshotWriter<W: Write> {
    lines: JsonLines<W>,
    every: u64,
    last_emitted_at: u64,
}

impl<W: Write> SnapshotWriter<W> {
    /// A writer emitting one snapshot per `every` transactions
    /// (`every` of 0 is treated as 1). The `t_ms` run clock starts
    /// now.
    pub fn new(out: W, every: u64) -> Self {
        Self {
            lines: JsonLines::new(out),
            every: every.max(1),
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
        if transactions_done != self.last_emitted_at || self.snapshots_written() == 0 {
            self.emit(recorder, transactions_done)?;
        }
        self.lines.flush()
    }

    fn emit(&mut self, recorder: &MemoryRecorder, transactions_done: u64) -> io::Result<()> {
        let mut line = self.lines.stamped();
        recorder.snapshot().fill(&mut line, transactions_done);
        self.last_emitted_at = transactions_done;
        self.lines.write(&line)
    }

    /// Snapshots emitted so far.
    #[must_use]
    pub fn snapshots_written(&self) -> u64 {
        self.lines.lines_written()
    }

    /// Consumes the writer, returning the underlying sink (flushed).
    pub fn into_inner(self) -> W {
        self.lines.into_inner()
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
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn object_members_keep_call_order_escape_and_null_non_finite_floats() {
        let mut inner = JsonObject::default();
        inner.fixed("p50_us", f64::NAN, 1).fixed("p95_us", 2.25, 1);
        let mut o = JsonObject::default();
        o.uint("n", 7).bool("ok", true).str("a\"b\\c\nd", "x\ty");
        o.float("inf", f64::INFINITY).float("v", 1.5);
        o.fixed("w", 2.0, 3).object("latency", &inner);
        o.fixed_array("tpm", &[1.0, f64::NAN], 1);
        assert_eq!(
            o.to_string(),
            "{\"n\":7,\"ok\":true,\"a\\\"b\\\\c\\nd\":\"x\\ty\",\"inf\":null,\"v\":1.5,\
             \"w\":2.000,\"latency\":{\"p50_us\":null,\"p95_us\":2.2},\"tpm\":[1.0,null]}"
        );
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
            self.persisted.lock().unwrap().append(&mut self.buffered);
            Ok(())
        }
    }

    /// Both writers sit on this sink, so this is their guarantee too.
    #[test]
    fn sink_flushes_written_lines_on_panic_unwind() {
        let persisted = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = FlushGate {
            buffered: Vec::new(),
            persisted: persisted.clone(),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lines = JsonLines::new(sink);
            let mut line = lines.stamped();
            lines.write(line.uint("transactions", 10)).unwrap();
            panic!("simulated fault-injected crash");
        }));
        assert!(result.is_err());
        let got = String::from_utf8(persisted.lock().unwrap().clone()).unwrap();
        assert!(
            got.starts_with("{\"seq\":0,\"t_ms\":") && got.ends_with(",\"transactions\":10}\n"),
            "the written line survived the panic: {got:?}"
        );
    }
}
