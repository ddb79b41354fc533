//! Reproduces the paper's tables, figures and ablations: the named
//! ones, or with no name all of them plus the consolidated markdown
//! report (the data blocks of EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p tpcc-bench --bin repro_all -- --quality quick
//! cargo run --release -p tpcc-bench --bin repro_all -- fig8 fig9 --csv results
//! ```

use tpcc_bench::{repro, usage_exit, Cli};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: {}", Cli::USAGE);
        return;
    }
    let reports = Cli::parse_from(args)
        .and_then(|cli| repro::run(&cli))
        .unwrap_or_else(|e| usage_exit(&e, Cli::USAGE));
    for r in &reports {
        println!("{r}");
    }
}
