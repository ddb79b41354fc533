//! Command-line front end; `run.sh` next to this crate's manifest is
//! the benchmark command (it builds this binary and pins the
//! allocator before starting it).

use std::path::PathBuf;
use std::process::ExitCode;

use tpcc_benchmark::metrics::{
    benchmark_json, Values, Workload, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use tpcc_benchmark::{probes, report, run, RunOpts};

const USAGE: &str = "usage: tpcc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       tpcc-benchmark --probes
       tpcc-benchmark --emit-spec
       tpcc-benchmark --report <set file> <set file>...
workloads: serial-wal serial-nolog-miss contended-mvcc pipeline-gc-cdc cluster-2pc model-sweep";

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: 1,
        trace_path: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--emit-spec" => {
                print!("{}", benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--probes" => {
                let mut values = Values::new();
                for workload in Workload::ALL {
                    probes::run(workload, 1, &mut values);
                }
                print_probes(&values);
                return ExitCode::SUCCESS;
            }
            "--report" => return report_sets(&args[i + 1..]),
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let Some(value) = args.get(i + 1) else {
                    return fail(&format!("{flag} needs a value"));
                };
                let parsed = match flag {
                    "--workload" => Workload::from_name(value).map(|w| workload = Some(w)),
                    "--seed" => value.parse().ok().map(|v| opts.seed = v),
                    "--seconds" => value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .map(|v| opts.seconds = v),
                    _ => matches!(value.as_str(), "0" | "1").then(|| opts.trace = value == "1"),
                };
                if parsed.is_none() {
                    return fail(&format!("bad value for {flag}: {value}"));
                }
                i += 2;
            }
            _ => return fail(&format!("unknown argument {flag}")),
        }
    }
    let Some(workload) = workload else {
        return fail("no --workload given");
    };
    if opts.trace {
        // spans go next to the build outputs, which .gitignore covers
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        opts.trace_path = Some(
            PathBuf::from(target)
                .join("tpcc-benchmark")
                .join(format!("trace-{}.jsonl", workload.name())),
        );
    }

    let out = run(workload, &opts);
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} trace {}",
        workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for error in &out.errors {
        println!("FAILED CHECK: {error}");
    }
    print!("{}", out.render_table(defs));
    println!("{}", out.result_line(defs));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_probes(values: &Values) {
    for def in PER_LAYER {
        if let Some(v) = values.get(def.name) {
            println!("{:<36} {:>16.1} {}", def.name, v, def.unit);
        }
    }
}

fn report_sets(paths: &[String]) -> ExitCode {
    let sets: Result<Vec<String>, _> = paths.iter().map(std::fs::read_to_string).collect();
    let sets = match sets {
        Ok(s) => s,
        Err(e) => return fail(&format!("reading a set file: {e}")),
    };
    match report::compare(&sets) {
        Ok((table, ok)) => {
            print!("{table}");
            if ok {
                println!("every end-to-end metric x workload agrees within its bound");
                ExitCode::SUCCESS
            } else {
                println!("some pairs differ by more than their bound");
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&e),
    }
}
