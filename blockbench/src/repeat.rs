//! Repeat mode: runs a workload over consecutive seeds in child
//! processes, checks that a second run of the first seed repeats its
//! counts exactly, and prints each metric's median and quartiles.

use std::process::Command;

use crate::report::median_quartiles;

/// What one child run printed that repeat mode reads back.
struct ChildRun {
    samples: String,
    counts: String,
    metrics: Vec<(String, f64, String)>,
}

fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("seed {seed}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "seed {seed}: exited with {}\n{}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .map(str::to_string)
            .ok_or_else(|| format!("seed {seed}: no {prefix} line"))
    };
    let (samples, counts) = (line("samples:")?, line("counts:")?);
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("seed {seed}: no result line"))?;
    Ok(ChildRun {
        samples,
        counts,
        metrics: parse_metrics(result)
            .ok_or_else(|| format!("seed {seed}: bad result {result}"))?,
    })
}

/// Reads `"name": {"value": v, "unit": "u"}` entries back out of the
/// result line this benchmark prints (not a general JSON parser).
fn parse_metrics(line: &str) -> Option<Vec<(String, f64, String)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        if entry.is_empty() {
            continue;
        }
        let (name, rest) = entry.split_once(": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": ")?;
        out.push((
            name.trim_matches('"').to_string(),
            value.parse().ok()?,
            unit.trim_matches('"').to_string(),
        ));
    }
    Some(out)
}

/// Runs seeds `seed..seed + runs` and prints per-metric statistics.
/// Returns whether every run passed and the rerun repeated its counts.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
) -> Result<bool, String> {
    let mut results = Vec::with_capacity(runs);
    for offset in 0..runs as u64 {
        let run = child(workload, seed + offset, seconds, trace)?;
        let values: Vec<String> = run
            .metrics
            .iter()
            .map(|(name, value, _)| format!("{name}={value:.4}"))
            .collect();
        println!(
            "seed {}: {}\n  {}\n  {}",
            seed + offset,
            run.samples,
            run.counts,
            values.join(" ")
        );
        results.push(run);
    }
    let rerun = child(workload, seed, seconds, trace)?;
    let repeated = rerun.counts == results[0].counts;
    println!(
        "rerun of seed {seed}: counts {}",
        if repeated { "repeat exactly" } else { "DIFFER" }
    );
    if !repeated {
        println!(
            "  first:  {}\n  second: {}",
            results[0].counts, rerun.counts
        );
    }

    println!(
        "{:<36} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "iqr/med"
    );
    for (index, (name, _, unit)) in results[0].metrics.iter().enumerate() {
        let values: Vec<f64> = results.iter().map(|r| r.metrics[index].1).collect();
        let (median, q1, q3) = median_quartiles(&values);
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        };
        println!("{name:<36} {unit:>8} {median:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}");
    }
    Ok(repeated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{json_line, Metrics};

    #[test]
    fn result_line_round_trips() {
        let mut metrics = Metrics::default();
        metrics.push("react_p50_ms", 1.25, "ms");
        metrics.push("peak_rss_mb", 310.0, "MB");
        let line = json_line(true, 10, 0, &metrics);
        let parsed = parse_metrics(&line).expect("parses");
        assert_eq!(
            parsed,
            vec![
                ("react_p50_ms".to_string(), 1.25, "ms".to_string()),
                ("peak_rss_mb".to_string(), 310.0, "MB".to_string()),
            ]
        );
    }
}
