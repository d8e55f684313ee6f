//! Turning a measured run into named metrics, and printing them.

use std::fmt::Write as _;

use crate::run::{block_spans, BlockTimes, Measured};
use crate::trace::{self, Name, Span};

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// p50, p99 and total of `nanos`, in microseconds, as
    /// `<name>.p50` / `.p99` / `.total`.
    fn timing_us(&mut self, name: &str, nanos: &[u64], total: bool) {
        self.push(format!("{name}.p50"), percentile(nanos, 0.50) / 1e3, "us");
        self.push(format!("{name}.p99"), percentile(nanos, 0.99) / 1e3, "us");
        if total {
            let sum: u64 = nanos.iter().sum();
            self.push(format!("{name}.total"), sum as f64 / 1e3, "us");
        }
    }
}

/// Nearest-rank percentile (`p` in `0..=1`); 0 for no samples.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median, and the quartiles Python's `statistics.quantiles(n=4)` gives
/// (its default, exclusive method).
pub fn median_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let median = if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    };
    if n < 2 {
        return (median, median, median);
    }
    let m = n + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (median, quartile(1), quartile(3))
}

/// Share of blocks published more than one interval after they were
/// due, or whose apply failed.
fn deadline_miss_ratio(m: &Measured) -> f64 {
    let missed = m
        .blocks
        .iter()
        .filter(|b| b.failed || b.publish_end - b.due > m.interval_ns)
        .count();
    missed as f64 / m.blocks.len().max(1) as f64
}

/// Share of reads denied admission.
fn read_fail_ratio(m: &Measured) -> f64 {
    1.0 - m.reads.len() as f64 / m.reads_attempted.max(1) as f64
}

/// Blocks that applied: failed blocks count only as missed deadlines
/// and in the result's `failed`.
fn applied(m: &Measured) -> impl Iterator<Item = &BlockTimes> {
    m.blocks.iter().filter(|b| !b.failed)
}

/// Applied blocks divided by the consumer's busy seconds (applying or
/// publishing, not waiting).
pub fn capacity(m: &Measured) -> f64 {
    let busy: u64 = applied(m).map(|b| b.publish_end - b.apply_start).sum();
    applied(m).count() as f64 / (busy.max(1) as f64 / 1e9)
}

/// Cumulative `(steal, total)` CPU ticks of the host's `cpu` line in
/// `/proc/stat`, or zeros where it cannot be read. Steal is time a
/// virtual CPU wanted to run but the hypervisor ran something else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Restarts the kernel's peak-RSS counter, so that [`peak_rss_mb`]
/// reads the peak of what follows. Where the kernel refuses, the counter
/// keeps the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, over every block and read
/// of the run; `setup_s` is the median cold start and `peak_rss_mb` the
/// median of each episode's peak resident memory (`episode_rss_mb`).
pub fn end_to_end(m: &Measured, episode_rss_mb: &[f64]) -> Metrics {
    let react = react_nanos(m);
    let reads = read_nanos(m);
    let mut out = Metrics::default();
    out.push("setup_s", median_quartiles(&m.setup_s).0, "s");
    out.push("react_p50_ms", percentile(&react, 0.50) / 1e6, "ms");
    out.push("deadline_met_ratio", 1.0 - deadline_miss_ratio(m), "ratio");
    out.push("capacity_blocks_per_s", capacity(m), "1/s");
    out.push("read_p50_us", percentile(&reads, 0.50) / 1e3, "us");
    out.push("read_ok_ratio", 1.0 - read_fail_ratio(m), "ratio");
    out.push("peak_rss_mb", median_quartiles(episode_rss_mb).0, "MB");
    out
}

fn react_nanos(m: &Measured) -> Vec<u64> {
    applied(m).map(|b| b.publish_end - b.due).collect()
}

fn read_nanos(m: &Measured) -> Vec<u64> {
    m.reads.iter().map(|r| r.end - r.due).collect()
}

/// The tail latencies, with how many samples lie beyond each. They are
/// printed but not in the result line: on a shared 2-core host they
/// follow the hypervisor's CPU steal and fsync stalls more than the
/// program (see `METRICS.md`).
pub fn tails_line(m: &Measured) -> String {
    let beyond = |n: usize| n - (n as f64 * 0.99).ceil() as usize;
    format!(
        "tails: react_p99_ms={:.4} ({} beyond) read_p99_us={:.3} ({} beyond)",
        percentile(&react_nanos(m), 0.99) / 1e6,
        beyond(applied(m).count()),
        percentile(&read_nanos(m), 0.99) / 1e3,
        beyond(m.reads.len()),
    )
}

/// Sample counts and the failure ratios behind the end-to-end metrics,
/// as one human-readable line. `host_steal` is the share of CPU time the hypervisor took while the
/// run went on: a high value means the host, not the program, was slow.
pub fn samples_line(m: &Measured, host_steal: f64) -> String {
    format!(
        "samples: episodes={} blocks={} reads={} of {} interval_ms={:.3} \
         deadline_miss_ratio={:.6} read_fail_ratio={:.6} cold_starts={} host_steal={:.3}",
        m.episodes,
        m.blocks.len(),
        m.reads.len(),
        m.reads_attempted,
        m.interval_ns as f64 / 1e6,
        deadline_miss_ratio(m),
        read_fail_ratio(m),
        m.setup_s.len(),
        host_steal,
    )
}

/// The exact counts later changes may cite; same seed, same line.
pub fn counts_line(m: &Measured, traced: bool) -> String {
    let mut line = format!(
        "counts: digest={:016x} ingest.events_in={} engine.strategy_evaluations={} \
         serve.publishes={}",
        m.digest, m.layers.events_in, m.layers.strategy_evaluations, m.layers.publishes,
    );
    if traced {
        for name in [Name::StrategyMaxMax, Name::StrategyConvexOpt] {
            let calls = m.strategy_spans.iter().filter(|s| s.name == name).count();
            write!(line, " {}.calls={calls}", name.label()).expect("String write");
        }
    }
    line
}

/// The per-layer metrics of a traced run. `untraced_capacity` comes
/// from the untraced pass over the same seed.
pub fn per_layer(m: &Measured, untraced_capacity: f64) -> (Metrics, Vec<Span>) {
    let gaps = |f: fn(&BlockTimes) -> (u64, u64)| -> Vec<u64> {
        applied(m)
            .map(|b| {
                let (start, end) = f(b);
                end - start
            })
            .collect()
    };
    let layers = &m.layers;
    let mut out = Metrics::default();

    out.timing_us(
        "ingest.seal_us",
        &gaps(|b| (b.seal_start, b.seal_end)),
        true,
    );
    out.timing_us(
        "ingest.queue_wait_us",
        &gaps(|b| (b.seal_end, b.apply_start)),
        false,
    );
    out.push("ingest.events_in", layers.events_in as f64, "count");
    out.push("ingest.events_out", layers.events_out as f64, "count");
    out.push(
        "ingest.coalesce_ratio",
        layers.events_in as f64 / layers.events_out.max(1) as f64,
        "ratio",
    );
    out.push(
        "ingest.depth_high_water",
        layers.depth_high_water as f64,
        "batches",
    );
    out.push("ingest.stall_ms", layers.stall_nanos as f64 / 1e6, "ms");

    out.push("journal.commits", layers.journal_commits as f64, "count");
    out.push("journal.bytes", layers.journal_bytes as f64, "bytes");
    out.push("journal.syncs", layers.journal_syncs as f64, "count");

    out.timing_us(
        "engine.apply_us",
        &gaps(|b| (b.apply_start, b.apply_end)),
        true,
    );
    out.push("engine.merge_ms", layers.merge_nanos as f64 / 1e6, "ms");
    out.push("engine.rebuilds", layers.rebuilds as f64, "count");
    out.push("engine.rebalances", layers.rebalances as f64, "count");
    out.push(
        "engine.shard_skew",
        layers.shard_skew / m.episodes.max(1) as f64,
        "ratio",
    );
    out.push(
        "engine.cycles_screened_out",
        layers.screened_out as f64,
        "count",
    );
    out.push(
        "engine.cycles_floor_screened",
        layers.floor_screened as f64,
        "count",
    );
    out.push(
        "engine.cycles_hop_screened",
        layers.hop_screened as f64,
        "count",
    );
    let evaluations = layers.strategy_evaluations;
    out.push("engine.strategy_evaluations", evaluations as f64, "count");
    let screened = layers.screened_out + layers.floor_screened + layers.hop_screened;
    out.push(
        "engine.screen_pass_ratio",
        evaluations as f64 / (evaluations + screened).max(1) as f64,
        "ratio",
    );

    for (name, label) in [
        (Name::StrategyMaxMax, "strategy.maxmax"),
        (Name::StrategyConvexOpt, "strategy.convexopt"),
    ] {
        let nanos: Vec<u64> = m
            .strategy_spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect();
        out.push(format!("{label}.calls"), nanos.len() as f64, "count");
        out.timing_us(&format!("{label}.us"), &nanos, true);
    }

    out.timing_us(
        "serve.publish_us",
        &gaps(|b| (b.apply_end, b.publish_end)),
        true,
    );
    out.push("serve.publishes", layers.publishes as f64, "count");
    out.push("serve.skipped", layers.skipped as f64, "count");
    out.push("serve.noop_deltas", layers.noop_deltas as f64, "count");
    out.push(
        "serve.snapshot_entries",
        layers.published_entries as f64 / layers.publishes.max(1) as f64,
        "count",
    );
    let read_nanos: Vec<u64> = m.reads.iter().map(|r| r.end - r.start).collect();
    out.timing_us("serve.read_us", &read_nanos, false);
    out.push("serve.admitted", layers.admitted as f64, "count");
    out.push("serve.denied", layers.denied as f64, "count");

    let lag: Vec<u64> = gaps(|b| (b.due, b.woke));
    out.push("gen.lag_ms.p99", percentile(&lag, 0.99) / 1e6, "ms");

    let mut spans = block_spans(&m.blocks);
    spans.extend_from_slice(&m.strategy_spans);
    let times = trace::self_times(&mut spans);
    for (index, name) in Name::ALL.iter().enumerate() {
        out.push(
            format!("self_ms.{}", name.label()),
            times.nanos[index] as f64 / 1e6,
            "ms",
        );
    }
    out.push("trace.coverage", times.coverage(), "ratio");
    out.push(
        "trace.overhead_ratio",
        untraced_capacity / capacity(m),
        "ratio",
    );
    (out, spans)
}

/// The benchmark's result line.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.0.iter().enumerate() {
        if index > 0 {
            line.push_str(", ");
        }
        // JSON has no NaN or infinity; a non-finite value reads as 0.
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        write!(
            line,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        )
        .expect("String write");
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median_quartiles(&values), (5.5, 2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median_quartiles(&values), (3.0, 1.5, 4.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }
}
