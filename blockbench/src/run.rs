//! One measured run: cold starts, then the open-loop block stream.
//!
//! A generator thread seals block `k` at `epoch + (k + 1) · interval`
//! whether or not the consumer has kept up, and stamps it with that due
//! time. The consumer (this thread) applies and publishes each block in
//! turn. One reader thread issues governed queries on its own fixed
//! schedule. Every layer is timed from outside, around calls to its
//! public functions.

use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use arb_engine::{OpportunityPipeline, ShardedRuntime};
use arb_ingest::{IngestConfig, IngestDriver, Ingestor, SourceId};
use arb_journal::{JournalConfig, JournalWriter};
use arb_serve::{ClientClass, GovernorConfig, Publisher, ServeHandle};
use arb_workloads::{QueryOp, Scenario, TickBatch};

use crate::oracle::{check_query, compare_rankings, query_len, Digest, Oracle};
use crate::trace::{self, CountingShim, JournalCounts, Name, Recorder, Span};
use crate::workload::Workload;

/// Every this many reads, the reader checks its answer by brute force.
const CHECK_EVERY: usize = 32;

/// A per-run journal directory inside the working directory, named from
/// the process id plus a counter and removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::current_dir()?.join(".blockbench").join(format!(
            "journal-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The production path after its cold start.
struct Live {
    ingestor: Ingestor,
    feed_source: SourceId,
    chain_source: SourceId,
    driver: IngestDriver,
    publisher: Publisher,
    /// Declared last so the journal is closed before its directory goes.
    _scratch: ScratchDir,
}

/// The cold start `setup_s` times: open the journal, build the runtime
/// from the scenario universe (graph, cycle enumeration, screen), seal
/// the empty first block, refresh, and publish.
fn cold_start(
    workload: &Workload,
    scenario: &Scenario,
    pipeline: OpportunityPipeline,
    journal: Option<&Arc<JournalCounts>>,
) -> Result<Live, String> {
    let scratch = ScratchDir::new().map_err(|e| format!("scratch dir: {e}"))?;
    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default())
        .map_err(|e| format!("journal open: {e}"))?;
    if let Some(counts) = journal {
        writer.set_io_shim(Box::new(CountingShim(Arc::clone(counts))));
    }
    let mut ingestor =
        Ingestor::new(IngestConfig::default()).with_journal(Arc::new(Mutex::new(writer)));
    let feed_source = ingestor.register_source("cex-feed");
    let chain_source = ingestor.register_source("dexsim");
    let runtime = ShardedRuntime::new(pipeline, scenario.pools.clone(), workload.shards())
        .map_err(|e| format!("runtime: {e}"))?;
    let mut driver = IngestDriver::new(runtime, scenario.feed.clone(), ingestor.handle());
    ingestor
        .seal_block()
        .map_err(|e| format!("cold seal: {e}"))?;
    let report = driver
        .try_step()
        .map_err(|e| format!("cold refresh: {e}"))?
        .ok_or("cold batch was not queued")?;
    let mut publisher = Publisher::new(GovernorConfig::default());
    publisher
        .publish_if_changed(driver.runtime().standing_revision(), &report.opportunities)
        .ok_or("cold publish was skipped")?;
    Ok(Live {
        ingestor,
        feed_source,
        chain_source,
        driver,
        publisher,
        _scratch: scratch,
    })
}

/// Per-block timestamps, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct BlockTimes {
    pub due: u64,
    pub woke: u64,
    pub seal_start: u64,
    pub seal_end: u64,
    pub apply_start: u64,
    pub apply_end: u64,
    pub publish_end: u64,
    pub failed: bool,
}

/// Per-read timestamps, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct ReadTimes {
    pub due: u64,
    pub start: u64,
    pub end: u64,
}

/// The traced run's probes.
#[derive(Debug)]
pub struct Probes {
    pub recorder: Arc<Recorder>,
    pub journal: Arc<JournalCounts>,
}

/// Layer counters, read from each layer's own stats through its public
/// API. Over a run they are deltas across the measured blocks (cold
/// starts excluded), summed over episodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub events_in: u64,
    pub events_out: u64,
    pub stall_nanos: u64,
    pub journal_commits: u64,
    pub journal_bytes: u64,
    pub journal_syncs: u64,
    pub merge_nanos: u64,
    pub rebuilds: u64,
    pub rebalances: u64,
    pub screened_out: u64,
    pub floor_screened: u64,
    pub hop_screened: u64,
    pub strategy_evaluations: u64,
    pub publishes: u64,
    pub skipped: u64,
    pub noop_deltas: u64,
    pub admitted: u64,
    pub denied: u64,
    /// Entries summed over every published snapshot.
    pub published_entries: u64,
    /// Highest queue depth seen (a maximum, not a sum).
    pub depth_high_water: u64,
    /// Busiest-shard load over the mean, summed over episodes.
    pub shard_skew: f64,
}

/// `a.field <op> b.field` (`+=` or `-=`) for every summed counter.
macro_rules! each_sum {
    ($a:ident, $b:ident, $op:tt) => {
        each_sum!(@ $a, $b, $op; events_in events_out stall_nanos journal_commits
            journal_bytes journal_syncs merge_nanos rebuilds rebalances screened_out
            floor_screened hop_screened strategy_evaluations publishes skipped noop_deltas
            admitted denied published_entries)
    };
    (@ $a:ident, $b:ident, $op:tt; $($field:ident)*) => {
        $( $a.$field $op $b.$field; )*
    };
}

impl Layers {
    fn read(live: &Live, journal: Option<&JournalCounts>) -> Self {
        let ingest = live.driver.handle().stats();
        let runtime = live.driver.runtime();
        let stats = runtime.stats();
        let screen = runtime.screen_totals();
        let publish = live.publisher.stats();
        let governor = live.publisher.governor_stats();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Layers {
            events_in: ingest.events_in,
            events_out: ingest.events_out,
            stall_nanos: ingest.stall_nanos,
            journal_commits: journal.map_or(0, |j| load(&j.commits)),
            journal_bytes: journal.map_or(0, |j| load(&j.bytes)),
            journal_syncs: journal.map_or(0, |j| load(&j.syncs)),
            merge_nanos: stats.total_merge_nanos,
            rebuilds: stats.rebuilds as u64,
            rebalances: stats.rebalances as u64,
            screened_out: screen.cycles_screened_out as u64,
            floor_screened: screen.cycles_floor_screened as u64,
            hop_screened: screen.cycles_hop_screened as u64,
            strategy_evaluations: screen.strategy_evaluations as u64,
            publishes: publish.publishes,
            skipped: publish.skipped,
            noop_deltas: publish.noop_deltas,
            admitted: governor.total_admitted(),
            denied: governor.total_denied_rate() + governor.denied_saturated,
            published_entries: 0,
            depth_high_water: ingest.depth_high_water as u64,
            shard_skew: runtime.shard_loads().skew(),
        }
    }

    /// The counters accumulated since `before`.
    fn since(mut self, before: &Layers) -> Self {
        each_sum!(self, before, -=);
        self
    }

    /// Folds another episode in.
    fn add(&mut self, other: &Layers) {
        each_sum!(self, other, +=);
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
        self.shard_skew += other.shard_skew;
    }
}

/// Everything a run (one or more episodes) produced: samples pooled in
/// episode order.
#[derive(Debug, Default)]
pub struct Measured {
    pub episodes: usize,
    pub setup_s: Vec<f64>,
    pub interval_ns: u64,
    pub blocks: Vec<BlockTimes>,
    pub reads: Vec<ReadTimes>,
    pub reads_attempted: usize,
    /// Per-block decisions, folded over episodes in order.
    pub digest: u64,
    pub layers: Layers,
    /// Strategy spans (traced run only); block ids index `blocks`.
    pub strategy_spans: Vec<Span>,
    /// Blocks the engine failed to apply, with its error: the program's
    /// failures, counted in the result's `failed`.
    pub engine_failures: Vec<String>,
    /// Correctness failures seen while running.
    pub errors: Vec<String>,
}

impl Measured {
    /// Appends a later episode, renumbering its blocks after ours.
    pub fn absorb(&mut self, episode: Measured) {
        let offset = self.blocks.len() as u32;
        let mut digest = Digest::resume(self.digest);
        digest.eat(&episode.digest.to_le_bytes());
        self.digest = digest.value();
        self.episodes += episode.episodes;
        self.setup_s.extend(episode.setup_s);
        self.interval_ns = episode.interval_ns;
        self.blocks.extend(episode.blocks);
        self.reads.extend(episode.reads);
        self.reads_attempted += episode.reads_attempted;
        self.layers.add(&episode.layers);
        self.strategy_spans
            .extend(episode.strategy_spans.into_iter().map(|span| Span {
                block: span.block + offset,
                ..span
            }));
        self.engine_failures.extend(episode.engine_failures);
        self.errors.extend(episode.errors);
    }
}

fn since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}

/// One episode: `setup_reps` cold starts, then every block of
/// `scenario` streamed through the last one and checked against the
/// direct replay `oracle`.
pub fn measure(
    workload: &Workload,
    scenario: &Scenario,
    oracle: &Oracle,
    plan: &[QueryOp],
    reads: usize,
    setup_reps: usize,
    probes: Option<&Probes>,
) -> Result<Measured, String> {
    let pipeline = || match probes {
        Some(p) => trace::timed_pipeline(workload.pipeline(), workload.strategies(), &p.recorder),
        None => Ok(workload.pipeline()),
    };
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut live = None;
    for _ in 0..setup_reps.max(1) {
        drop(live.take());
        let pipeline = pipeline()?;
        let start = Instant::now();
        live = Some(cold_start(
            workload,
            scenario,
            pipeline,
            probes.map(|p| &p.journal),
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one cold start");

    let before = Layers::read(&live, probes.map(|p| &*p.journal));
    let reader = live.publisher.handle(ClientClass::Interactive);

    let interval = Duration::from_secs_f64(1.0 / workload.blocks_per_s);
    let read_interval = Duration::from_secs_f64(1.0 / workload.reads_per_s);
    let (tx, rx) = mpsc::channel::<Sealed>();
    let epoch = Instant::now();
    let recorder = probes.map(|p| &p.recorder);

    let Live {
        ingestor,
        feed_source,
        chain_source,
        driver,
        publisher,
        ..
    } = &mut live;
    let (consumed, generated, read_log) = thread::scope(|s| {
        let generator = s.spawn(|| {
            generate(
                ingestor,
                (*feed_source, *chain_source),
                &scenario.ticks,
                epoch,
                interval,
                tx,
            )
        });
        let reader = s.spawn(|| read(reader, plan, reads, epoch, read_interval));
        let consumed = consume(driver, publisher, rx, epoch, recorder);
        (
            consumed,
            generator.join().expect("generator thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });

    let mut errors = consumed.errors;
    errors.extend(read_log.errors);
    if let Err(e) = generated {
        errors.push(e);
    }
    if consumed.blocks.len() != scenario.ticks.len() {
        errors.push(format!(
            "{} of {} blocks were applied",
            consumed.blocks.len(),
            scenario.ticks.len()
        ));
    }

    let mut layers = Layers::read(&live, probes.map(|p| &*p.journal)).since(&before);
    layers.published_entries = consumed.published_entries as u64;
    let published = live.publisher.handle(ClientClass::Interactive).load();
    if let Err(e) = compare_rankings("final ranking", published.entries(), &oracle.final_ranking) {
        errors.push(e);
    }
    let failed_at = consumed.failed_at.as_ref().map(|(block, _)| *block);
    if failed_at != oracle.failed_at.as_ref().map(|(block, _)| *block) {
        errors.push(format!(
            "apply failed at block {failed_at:?}, oracle at {:?}",
            oracle.failed_at
        ));
    }
    if consumed.digest != oracle.digest {
        errors.push(format!(
            "decision digest {:016x}, oracle {:016x}",
            consumed.digest, oracle.digest
        ));
    }
    Ok(Measured {
        episodes: 1,
        setup_s,
        interval_ns: interval.as_nanos() as u64,
        blocks: consumed.blocks,
        reads: read_log.times,
        reads_attempted: reads,
        digest: consumed.digest,
        layers,
        strategy_spans: recorder.map(|r| r.take(epoch)).unwrap_or_default(),
        engine_failures: consumed
            .failed_at
            .into_iter()
            .map(|(block, error)| format!("block {block}: {error}"))
            .collect(),
        errors,
    })
}

/// A sealed block, as the generator hands it to the consumer.
struct Sealed {
    block: u32,
    due: Instant,
    woke: Instant,
    seal_start: Instant,
    seal_end: Instant,
}

/// Seals one block per interval on a fixed schedule.
fn generate(
    ingestor: &mut Ingestor,
    (feed_source, chain_source): (SourceId, SourceId),
    ticks: &[TickBatch],
    epoch: Instant,
    interval: Duration,
    tx: mpsc::Sender<Sealed>,
) -> Result<(), String> {
    for (block, batch) in ticks.iter().enumerate() {
        let due = epoch + interval.mul_f64((block + 1) as f64);
        sleep_until(due);
        let woke = Instant::now();
        ingestor
            .offer_feed_moves(feed_source, &batch.feed_moves)
            .map_err(|e| format!("block {block}: feed: {e}"))?;
        ingestor
            .offer(chain_source, batch.events.iter().copied())
            .map_err(|e| format!("block {block}: events: {e}"))?;
        let seal_start = Instant::now();
        ingestor
            .seal_block()
            .map_err(|e| format!("block {block}: seal: {e}"))?;
        let seal_end = Instant::now();
        let sealed = Sealed {
            block: block as u32,
            due,
            woke,
            seal_start,
            seal_end,
        };
        if tx.send(sealed).is_err() {
            return Err("consumer hung up".into());
        }
    }
    Ok(())
}

struct Consumed {
    blocks: Vec<BlockTimes>,
    digest: u64,
    published_entries: usize,
    /// The block whose apply failed, with the engine's error.
    failed_at: Option<(usize, String)>,
    errors: Vec<String>,
}

/// Applies and publishes each sealed block as it arrives. Never returns
/// early: the generator blocks on a full queue, so the consumer drains
/// until the generator hangs up. After an apply fails the runtime is
/// desynchronized, so later blocks are drained unapplied and count as
/// failed, as in the oracle's replay.
fn consume(
    driver: &mut IngestDriver,
    publisher: &mut Publisher,
    rx: mpsc::Receiver<Sealed>,
    epoch: Instant,
    recorder: Option<&Arc<Recorder>>,
) -> Consumed {
    let mut out = Consumed {
        blocks: Vec::new(),
        digest: 0,
        published_entries: 0,
        failed_at: None,
        errors: Vec::new(),
    };
    let mut digest = Digest::default();
    let mut last_revision = publisher.revision();
    for sealed in rx {
        if out.failed_at.is_some() {
            let drained = since(epoch, Instant::now());
            if driver.handle().try_pop().is_none() {
                out.errors
                    .push(format!("block {}: sealed but not queued", sealed.block));
            }
            out.blocks.push(BlockTimes {
                due: since(epoch, sealed.due),
                woke: since(epoch, sealed.woke),
                seal_start: since(epoch, sealed.seal_start),
                seal_end: since(epoch, sealed.seal_end),
                apply_start: drained,
                apply_end: drained,
                publish_end: drained,
                failed: true,
            });
            continue;
        }
        if let Some(r) = recorder {
            r.enter(sealed.block);
        }
        let apply_start = Instant::now();
        let step = driver.try_step();
        let apply_end = Instant::now();
        if let Some(r) = recorder {
            r.leave();
        }
        let failed = match step {
            Ok(Some(report)) => {
                digest.block(&report.opportunities);
                let source = driver.runtime().standing_revision();
                if let Some(revision) = publisher.publish_if_changed(source, &report.opportunities)
                {
                    if revision <= last_revision {
                        out.errors.push(format!(
                            "block {}: revision {revision} published after {last_revision}",
                            sealed.block
                        ));
                    }
                    last_revision = revision;
                    out.published_entries += report.opportunities.len();
                }
                false
            }
            Ok(None) => {
                out.errors
                    .push(format!("block {}: sealed but not queued", sealed.block));
                true
            }
            Err(e) => {
                out.failed_at = Some((sealed.block as usize, e.to_string()));
                true
            }
        };
        let publish_end = Instant::now();
        out.blocks.push(BlockTimes {
            due: since(epoch, sealed.due),
            woke: since(epoch, sealed.woke),
            seal_start: since(epoch, sealed.seal_start),
            seal_end: since(epoch, sealed.seal_end),
            apply_start: since(epoch, apply_start),
            apply_end: since(epoch, apply_end),
            publish_end: since(epoch, publish_end),
            failed,
        });
    }
    out.digest = digest.value();
    out
}

struct ReadLog {
    times: Vec<ReadTimes>,
    errors: Vec<String>,
}

/// Issues `count` governed reads on a fixed schedule, cycling `plan`.
/// Denied reads leave no timing; every `CHECK_EVERY`-th answer is
/// checked by brute force.
fn read(
    handle: ServeHandle,
    plan: &[QueryOp],
    count: usize,
    epoch: Instant,
    interval: Duration,
) -> ReadLog {
    let mut log = ReadLog {
        times: Vec::with_capacity(count),
        errors: Vec::new(),
    };
    let mut last_revision = 0;
    for (index, &op) in plan.iter().cycle().take(count).enumerate() {
        let due = epoch + interval.mul_f64((index + 1) as f64);
        sleep_until(due);
        let start = Instant::now();
        let Ok(snapshot) = handle.query() else {
            continue;
        };
        black_box(query_len(&snapshot, op));
        let end = Instant::now();
        log.times.push(ReadTimes {
            due: since(epoch, due),
            start: since(epoch, start),
            end: since(epoch, end),
        });
        if snapshot.revision() < last_revision {
            log.errors.push(format!(
                "read {index}: revision {} after {last_revision}",
                snapshot.revision()
            ));
        }
        last_revision = snapshot.revision();
        if index % CHECK_EVERY == 0 {
            if let Err(e) = check_query(&snapshot, op) {
                log.errors.push(e);
            }
        }
    }
    log
}

/// Block-level spans of a run, in the trace's vocabulary.
pub fn block_spans(blocks: &[BlockTimes]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(blocks.len() * 5);
    for (index, b) in blocks.iter().enumerate().filter(|(_, b)| !b.failed) {
        let block = index as u32;
        for (name, start, end) in [
            (Name::Block, b.due, b.publish_end),
            (Name::IngestSeal, b.seal_start, b.seal_end),
            (Name::IngestQueueWait, b.seal_end, b.apply_start),
            (Name::EngineApply, b.apply_start, b.apply_end),
            (Name::ServePublish, b.apply_end, b.publish_end),
        ] {
            spans.push(Span {
                name,
                block,
                start,
                end,
            });
        }
    }
    spans
}
