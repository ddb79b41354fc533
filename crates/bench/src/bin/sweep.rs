//! Runs one of the executed sweeps, writing `results/<file>.jsonl`
//! (echoed to stdout). Exits 1 if a gate of the sweep fails.
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin sweep -- <name> [args]
//! ```

use tpcc_bench::sweeps::SWEEPS;
use tpcc_bench::{results_file, usage_exit, Args};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some((_, file, usage, run)) = SWEEPS.iter().find(|s| s.0 == name) else {
        let names: Vec<&str> = SWEEPS.iter().map(|s| s.0).collect();
        let usage = format!("sweep <{}> [args]", names.join("|"));
        usage_exit(&format!("unknown sweep '{name}'"), &usage);
    };
    let args = Args::parse(usage, args)
        .unwrap_or_else(|e| usage_exit(&e, &format!("sweep {name} {usage}")));

    if let Err(failed) = run(&args, results_file(file)) {
        for gate in &failed {
            eprintln!("GATE: {gate}");
        }
        let gates = failed.len();
        eprintln!("sweep {name}: {gates} gate(s) FAILED (see results/{file})");
        std::process::exit(1);
    }
    eprintln!("sweep {name}: wrote results/{file}");
}
