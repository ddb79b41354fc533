//! The paper's tables, figures and ablations as one table of
//! experiments: each entry computes its reports from a shared
//! [`ExperimentContext`] and, given a directory, also writes the full
//! data series as CSV.
//!
//! [`run`] with no names runs every entry and writes the consolidated
//! markdown report (the data blocks of EXPERIMENTS.md) plus a final
//! observability snapshot.

use std::path::Path;
use std::sync::Arc;

use tpcc_model::experiments::skew::SkewCurve;
use tpcc_model::experiments::{ablations, buffer, scaleup, skew, tables, throughput};
use tpcc_model::{ExperimentContext, Report};
use tpcc_obs::{MemoryRecorder, Obs};

use crate::{write_csv, Cli};

/// Computes one entry's reports; writes its CSVs into the directory.
pub type Experiment = fn(&ExperimentContext, Option<&Path>) -> Vec<Report>;

/// Every experiment, in the order of the consolidated report.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("tables", |_, _| {
        vec![
            tables::table1(),
            tables::table2(),
            tables::table3(),
            tables::table4(),
            tables::table6_7(&[2, 5, 10, 30]),
        ]
    }),
    ("fig3_4", fig3_4),
    ("fig5", |ctx, csv| {
        skew_figure(
            "Figure 5: stock relation skew",
            "fig5",
            &skew::fig5(ctx),
            csv,
        )
    }),
    ("fig6_7", fig6_7),
    ("appendix_pmf", |_, _| vec![skew::appendix_pmf()]),
    ("fig8", |ctx, csv| {
        table_figure(buffer::fig8(ctx).report(), "fig8_miss_rates", csv)
    }),
    ("fig9", |ctx, csv| {
        table_figure(throughput::fig9(ctx).report(), "fig9_throughput", csv)
    }),
    ("fig10", fig10),
    ("fig11", |ctx, csv| {
        fig11(ctx, csv, &(1..=30).collect::<Vec<u64>>())
    }),
    ("fig12", |ctx, csv| {
        fig12(ctx, csv, &[1, 2, 5, 10, 15, 20, 25, 30])
    }),
    ("ablation_policy", |ctx, _| {
        vec![buffer::policy_ablation(ctx, 52 * 1024 * 1024)]
    }),
    ("ablation_uniform", |ctx, _| {
        vec![ablations::uniform_baseline(ctx)]
    }),
    ("ablation_che", |ctx, _| vec![ablations::analytic_che(ctx)]),
    ("ablation_writeback", |ctx, _| {
        vec![ablations::write_back_study(ctx)]
    }),
    ("ablation_pagesize", |ctx, _| {
        vec![ablations::page_size_ablation(ctx, 52 * 1024 * 1024)]
    }),
    ("ablation_capacity", |ctx, _| {
        vec![ablations::capacity_checks(ctx)]
    }),
    ("ablation_mix", |ctx, _| {
        let transactions = ctx.quality().sweep_transactions().min(400_000);
        let trajectories = ablations::mix_stability(ctx, transactions);
        vec![ablations::mix_stability_report(&trajectories)]
    }),
];

/// Writes a report's table as `<name>.csv`.
fn write_table(dir: &Path, name: &str, report: &Report) {
    let header: Vec<&str> = report.columns.iter().map(String::as_str).collect();
    write_csv(dir, name, &header, &report.rows);
}

/// A figure whose CSV is its report's table.
fn table_figure(report: Report, name: &str, csv: Option<&Path>) -> Vec<Report> {
    if let Some(dir) = csv {
        write_table(dir, name, &report);
    }
    vec![report]
}

fn csv_name(prefix: &str, label: &str) -> String {
    let label = label.replace([' ', ','], "_").replace("__", "_");
    format!("{prefix}_{label}")
}

/// A Lorenz-curve figure: checkpoints as the report, one 101-point CSV
/// per curve.
fn skew_figure(title: &str, prefix: &str, curves: &[SkewCurve], csv: Option<&Path>) -> Vec<Report> {
    if let Some(dir) = csv {
        for sc in curves {
            let series = sc.curve.series(101).into_iter();
            let rows: Vec<Vec<String>> = series
                .map(|(d, a)| vec![format!("{d:.4}"), format!("{a:.6}")])
                .collect();
            let header = ["data_fraction", "access_fraction"];
            write_csv(dir, &csv_name(prefix, &sc.label), &header, &rows);
        }
    }
    vec![skew::skew_checkpoints(title, curves)]
}

fn pmf_rows(pmf: impl IntoIterator<Item = (u64, f64)>) -> Vec<Vec<String>> {
    let pmf = pmf.into_iter();
    pmf.map(|(id, p)| vec![id.to_string(), format!("{p:e}")])
        .collect()
}

fn fig3_4(ctx: &ExperimentContext, csv: Option<&Path>) -> Vec<Report> {
    let data = skew::fig3_4(ctx);
    if let Some(dir) = csv {
        let header = ["tuple_id", "probability"];
        write_csv(dir, "fig3_stock_pmf", &header, &pmf_rows(data.series(10)));
        let zoom = pmf_rows(data.zoom_series());
        write_csv(dir, "fig4_stock_pmf_zoom", &header, &zoom);
    }
    vec![data.report()]
}

fn fig6_7(ctx: &ExperimentContext, csv: Option<&Path>) -> Vec<Report> {
    let (pmf, curves) = skew::fig6_7(ctx);
    if let Some(dir) = csv {
        let header = ["customer_id", "probability"];
        write_csv(dir, "fig6_customer_pmf", &header, &pmf_rows(pmf.iter()));
    }
    skew_figure("Figure 7: customer relation skew", "fig7", &curves, csv)
}

fn fig10(ctx: &ExperimentContext, csv: Option<&Path>) -> Vec<Report> {
    let data = throughput::fig10(ctx);
    if let Some(dir) = csv {
        for (idx, (label, ..)) in data.curves.iter().enumerate() {
            write_table(dir, &csv_name("fig10", label), &data.curve_report(idx));
        }
    }
    vec![data.report()]
}

fn fig11(ctx: &ExperimentContext, csv: Option<&Path>, nodes: &[u64]) -> Vec<Report> {
    table_figure(scaleup::fig11(ctx, nodes).report(), "fig11_scaleup", csv)
}

fn fig12(ctx: &ExperimentContext, csv: Option<&Path>, nodes: &[u64]) -> Vec<Report> {
    let data = scaleup::fig12(ctx, nodes, &[0.01, 0.05, 0.1, 0.5, 1.0]);
    table_figure(data.report(), "fig12_remote_sensitivity", csv)
}

/// Runs the experiments `cli.names` (all of them when empty) and
/// returns their reports in order. Named runs write their CSVs into
/// `cli.csv_dir`. The run of everything instead writes
/// `experiments_generated.md` and `metrics.jsonl` there (default
/// `results/`), tabulates figures 11 and 12 on a coarser node axis
/// than the figures' own, and sweeps both packings in parallel first.
///
/// # Errors
/// A name that is not in [`EXPERIMENTS`], with the valid ones.
pub fn run(cli: &Cli) -> Result<Vec<Report>, String> {
    let find = |name: &String| {
        let entry = EXPERIMENTS.iter().find(|(n, _)| n == name);
        entry.map(|(_, experiment)| experiment).ok_or_else(|| {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            format!("unknown experiment '{name}' (one of: {})", valid.join(" "))
        })
    };
    let named = cli.names.iter().map(find).collect::<Result<Vec<_>, _>>()?;
    let mut ctx = cli.context();
    if !named.is_empty() {
        let csv = cli.csv_dir.as_deref();
        return Ok(named.iter().flat_map(|run| run(&ctx, csv)).collect());
    }

    let recorder = Arc::new(MemoryRecorder::new());
    ctx.set_obs(Obs::new(recorder.clone()));
    let started = std::time::Instant::now();
    // figure 8's two sweeps are the slow part: run them side by side
    ctx.prefetch_sweeps();
    let mut reports = Vec::new();
    for (i, (name, experiment)) in EXPERIMENTS.iter().enumerate() {
        eprintln!("[{}/{}] {name} …", i + 1, EXPERIMENTS.len());
        reports.extend(match *name {
            "fig11" => fig11(&ctx, None, &[1, 2, 5, 10, 15, 20, 25, 30]),
            "fig12" => fig12(&ctx, None, &[1, 2, 5, 10, 20, 30]),
            _ => experiment(&ctx, None),
        });
    }

    let out_dir = cli.csv_dir.as_deref().unwrap_or(Path::new("results"));
    std::fs::create_dir_all(out_dir).expect("create results dir");
    let path = out_dir.join("experiments_generated.md");
    let (quality, seed) = (cli.quality, ctx.seed());
    let mut md = format!("# Generated experiment data ({quality:?} quality, seed {seed:#x})\n\n");
    for r in &reports {
        md += &r.to_markdown();
        md.push('\n');
    }
    std::fs::write(&path, md).expect("write the report");

    // final observability snapshot: one JSON line + a human table
    let snap = recorder.snapshot();
    let metrics_path = out_dir.join("metrics.jsonl");
    let t_ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::write(
        &metrics_path,
        format!("{}\n", snap.to_json_line(0, 0, t_ms)),
    )
    .expect("write metrics");
    eprintln!("{}", snap.render_table());
    eprintln!("wrote {}", metrics_path.display());
    eprintln!(
        "wrote {} ({} reports) in {:.1}s",
        path.display(),
        reports.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(reports)
}
