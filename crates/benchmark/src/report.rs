//! `--report`: compares complete sets of runs of one commit, metric by
//! metric and workload by workload, against the benchmark's own
//! regression bounds — the acceptance check that two sets agree.
//!
//! A set file holds one line per run, `<workload> <trace> <result
//! line>`, as `run.sh --repeat` writes them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

/// `(workload, metric) → value` of the untraced runs in one set file.
fn read_set(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.splitn(3, ' ');
        let (Some(workload), Some(trace), Some(result)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed set line: {line}"));
        };
        if trace != "0" {
            continue; // per-layer metrics carry no bound
        }
        let doc = Json::parse(result)?;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{workload}: run was not correct"));
        }
        let metrics = doc.get("metrics").ok_or("result line without metrics")?;
        for (name, m) in metrics.entries() {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no numeric value"))?;
            out.insert((workload.to_string(), name.clone()), value);
        }
    }
    Ok(out)
}

/// Renders the comparison of the first set against each later one.
/// Returns the table and whether every pair stayed inside its bound.
///
/// # Errors
/// Malformed set files, or a run that failed its correctness checks.
pub fn compare(sets: &[String]) -> Result<(String, bool), String> {
    let parsed: Vec<_> = sets.iter().map(|s| read_set(s)).collect::<Result<_, _>>()?;
    let (base, rest) = parsed.split_first().ok_or("no set files given")?;
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "later", "worse by", "bound"
    );
    for later in rest {
        for ((workload, name), a) in base {
            let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
                continue;
            };
            let Some(b) = later.get(&(workload.clone(), name.clone())) else {
                return Err(format!("{workload}/{name} missing from a later set"));
            };
            // positive = the later set is worse
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let inside = worse <= bound;
            ok &= inside;
            let _ = writeln!(
                out,
                "{workload:<18} {name:<20} {a:>14.3} {b:>14.3} {:>8.1}% {:>6.0}%  {}",
                worse * 100.0,
                bound * 100.0,
                if inside { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_set_is_judged_in_the_metric_direction() {
        let line = |tps: f64, p95: f64| {
            format!(
                "serial-wal 0 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"tps\": {{\"value\": {tps}, \"unit\": \"txn/s\"}}, \
                 \"new_order_p95_us\": {{\"value\": {p95}, \"unit\": \"us\"}}}}}}\n\
                 serial-wal 1 {{\"correct\": true, \"metrics\": {{}}}}\n"
            )
        };
        let (table, ok) = compare(&[line(1000.0, 100.0), line(1050.0, 104.0)]).expect("parses");
        assert!(ok, "{table}"); // faster, and p95 4 % worse is inside its bound
        let (table, ok) = compare(&[line(1000.0, 100.0), line(700.0, 100.0)]).expect("parses");
        assert!(!ok && table.contains("OUTSIDE"), "{table}");
        assert!(compare(&["serial-wal 0 {\"correct\": false}".to_string()]).is_err());
    }
}
