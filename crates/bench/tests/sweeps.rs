//! Every sweep at smoke size: each line it writes is JSON, and its
//! columns are those of the committed `results/<sweep>.jsonl`, so a
//! renamed or dropped column fails here instead of silently changing
//! an artifact.

use std::io::Write;
use std::sync::{Arc, Mutex};

use tpcc_bench::sweeps::SWEEPS;
use tpcc_bench::Args;
use tpcc_benchmark::json::Json;

/// A sink the test can read back after the sweep has consumed it.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The distinct top-level key sequences of a JSON-lines text, in order
/// of first appearance (`group-commit`, `snapshot` and `cdc-lag` write
/// two kinds of line).
fn shapes(text: &str, what: &str) -> Vec<Vec<String>> {
    let mut shapes = Vec::new();
    for line in text.lines() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("{what}: {e}: {line}"));
        let keys: Vec<String> = json.entries().iter().map(|(k, _)| k.clone()).collect();
        assert!(!keys.is_empty(), "{what}: not an object: {line}");
        if !shapes.contains(&keys) {
            shapes.push(keys);
        }
    }
    shapes
}

#[test]
fn every_sweep_writes_json_lines_with_the_committed_columns() {
    // tens of transactions on one or two terminals; in 20 transactions
    // some type draws no sample, whose quantiles were once `NaN`
    let smoke = [
        "20 1 42 0",
        "20 1 42 0",
        "40 42",
        "5 42",
        "30 42 0",
        "60 42",
        "60 2 42 3",
        "40 20 15 42",
    ];
    for ((name, file, usage, run), args) in SWEEPS.into_iter().zip(smoke) {
        let args = Args::parse(usage, args.split(' ').map(String::from)).expect(name);
        let sink = Shared::default();
        // the gates need real run lengths; only the lines are under test
        let _ = run(&args, Box::new(sink.clone()));
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect(&path);
        assert_eq!(shapes(&text, name), shapes(&committed, file), "{name}");
        if name == "scaling" {
            assert!(text.contains("\"p50_us\":null"), "no empty type: {text}");
        }
    }
}
