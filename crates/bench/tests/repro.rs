//! The experiment table behind `repro_all`.

use tpcc_bench::repro::{self, EXPERIMENTS};
use tpcc_bench::Cli;

fn cli(args: &[&str]) -> Cli {
    Cli::parse_from(args.iter().map(ToString::to_string)).expect("well-formed arguments")
}

#[test]
fn every_experiment_has_a_unique_name_and_reports_at_smoke_quality() {
    let ctx = cli(&["--quality", "smoke", "--seed", "42"]).context();
    for (i, (name, experiment)) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|(earlier, _)| earlier != name),
            "{name} is listed twice"
        );
        let reports = experiment(&ctx, None);
        assert!(!reports.is_empty(), "{name} reports nothing");
        for r in &reports {
            assert!(!r.rows.is_empty(), "{name}: '{}' has no rows", r.title);
        }
    }
}

#[test]
fn an_unknown_experiment_is_a_usage_error_listing_the_valid_names() {
    let err = repro::run(&cli(&["fig99", "--quality", "smoke"])).unwrap_err();
    assert!(err.contains("'fig99'"), "{err}");
    for (name, _) in EXPERIMENTS {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}
