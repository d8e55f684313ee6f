//! Open-loop block-stream benchmark: reaction latency per block, layer
//! by layer.
//!
//! One run replays seeded catalog scenarios through the production path
//! — `Ingestor` with a durable journal → `IngestDriver` →
//! `ShardedRuntime` at the bot's shard count →
//! `Publisher::publish_if_changed` — while a generator thread seals one
//! block per fixed interval whether or not the consumer has kept up, and
//! one reader thread issues governed queries on its own schedule. A run
//! is several episodes, each a fresh seeded universe behind its own cold
//! starts; `METRICS.md` defines every metric.
//!
//! ```text
//! cargo run --release --manifest-path blockbench/Cargo.toml -- \
//!     --workload whale-3k --seed 1 --seconds 20 --trace 0 [--repeat 10]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` streams half
//! the episodes untraced and then traced, prints the per-layer metrics
//! and writes every span under `.blockbench/`. `--repeat N` runs seeds
//! `seed..seed+N` in child processes plus a second run of the first
//! seed, checks that the second run's counts repeat exactly, and prints
//! each metric's median and quartiles. The last line of a single run is
//! one JSON object; any correctness mismatch exits non-zero.

mod oracle;
mod repeat;
mod report;
mod run;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;

use run::{measure, Measured, Probes};
use trace::{JournalCounts, Recorder};
use workload::Workload;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => trace = number()? != 0,
            "--repeat" => repeat = Some(number()?.clamp(1, 100) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        repeat,
    })
}

/// One run: prints the sample and count lines, then the result line.
/// Returns whether every correctness gate held.
///
/// A traced run streams the first half of the episodes twice, untraced
/// and then traced, so that `trace.overhead_ratio` compares the same
/// blocks and the run takes as long as an untraced one.
fn run_once(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let (episodes, setup_reps) = if args.trace {
        (workload.episodes.div_ceil(2), 1)
    } else {
        (workload.episodes, workload.setup_reps)
    };
    let blocks = workload.episode_blocks(args.seconds);
    let reads = workload.episode_reads(args.seconds);
    let probes = Probes {
        recorder: Arc::new(Recorder::new()),
        journal: Arc::new(JournalCounts::default()),
    };
    let (steal0, total0) = report::cpu_ticks();
    let mut untraced = Measured::default();
    let mut traced = Measured::default();
    let mut episode_rss_mb = Vec::with_capacity(episodes);
    for episode in 0..episodes {
        report::reset_peak_rss();
        let seed = workload.episode_seed(args.seed, episode);
        let scenario = workload.scenario(seed, blocks)?;
        let oracle = oracle::replay(workload, &scenario)?;
        let plan = workload.read_plan(seed, &scenario);
        let run = |probes| {
            measure(
                workload, &scenario, &oracle, &plan, reads, setup_reps, probes,
            )
        };
        absorb(&mut untraced, run(None)?, seed);
        if args.trace {
            absorb(&mut traced, run(Some(&probes))?, seed);
        }
        episode_rss_mb.push(report::peak_rss_mb());
    }

    let mut errors = std::mem::take(&mut untraced.errors);
    if args.trace {
        errors.extend(traced.errors.iter().map(|e| format!("traced: {e}")));
        // A failed apply may commit some shards' evaluations and not
        // others, so the two counts only have to agree without failures.
        let calls = traced.strategy_spans.len() as u64;
        if traced.engine_failures.is_empty() && calls != traced.layers.strategy_evaluations {
            errors.push(format!(
                "traced: {calls} strategy calls timed, engine counted {} evaluations",
                traced.layers.strategy_evaluations
            ));
        }
    }
    let shown = if args.trace { &traced } else { &untraced };
    let (steal1, total1) = report::cpu_ticks();
    let host_steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;

    println!(
        "blockbench: workload={} seed={} seconds={} trace={} episodes={} shards={} threads={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        episodes,
        workload.shards(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("{}", report::samples_line(shown, host_steal));
    println!("{}", report::tails_line(shown));
    println!("{}", report::counts_line(shown, args.trace));
    for e in &errors {
        eprintln!("blockbench: MISMATCH: {e}");
    }

    let metrics = if args.trace {
        let (metrics, spans) = report::per_layer(&traced, report::capacity(&untraced));
        let path = std::env::current_dir()
            .map_err(|e| format!("working dir: {e}"))?
            .join(".blockbench")
            .join(format!("trace-{}-{}.tsv", workload.name, args.seed));
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
        metrics
    } else {
        report::end_to_end(&untraced, &episode_rss_mb)
    };
    let failed = shown.blocks.iter().filter(|b| b.failed).count()
        + (shown.reads_attempted - shown.reads.len());
    let correct = errors.is_empty();
    println!(
        "{}",
        report::json_line(
            correct,
            shown.blocks.len() + shown.reads_attempted,
            failed,
            &metrics
        )
    );
    Ok(correct)
}

/// Adds a measured episode to its run, reporting each block the engine
/// failed to apply.
fn absorb(run: &mut Measured, episode: Measured, seed: u64) {
    for failure in &episode.engine_failures {
        eprintln!("blockbench: scenario seed {seed}: {failure}");
    }
    run.absorb(episode);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("blockbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.repeat {
        Some(runs) => repeat::run(
            args.workload.name,
            args.seed,
            args.seconds,
            args.trace,
            runs,
        ),
        None => run_once(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("blockbench: {e}");
            ExitCode::from(1)
        }
    }
}
