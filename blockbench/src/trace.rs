//! Tracing for the separate traced run: spans recorded in memory from
//! outside each layer, self time per span name, and the pass-through
//! probes (a timing `Strategy` wrapper and a counting journal `IoShim`).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use arb_core::loop_def::ArbLoop;
use arb_core::{Strategy, StrategyError, StrategyOutcome};
use arb_engine::{OpportunityPipeline, SharedStrategy};
use arb_journal::{IoShim, WriteVerdict};

/// A span name. The parent is implied by the name: `Block` is the root,
/// the four stage spans sit under it, and strategy spans sit under their
/// block's `EngineApply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Block,
    IngestSeal,
    IngestQueueWait,
    EngineApply,
    ServePublish,
    StrategyMaxMax,
    StrategyConvexOpt,
}

impl Name {
    /// Every span name, parents before children.
    pub const ALL: [Name; 7] = [
        Name::Block,
        Name::IngestSeal,
        Name::IngestQueueWait,
        Name::EngineApply,
        Name::ServePublish,
        Name::StrategyMaxMax,
        Name::StrategyConvexOpt,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Block => "block",
            Name::IngestSeal => "ingest.seal",
            Name::IngestQueueWait => "ingest.queue_wait",
            Name::EngineApply => "engine.apply",
            Name::ServePublish => "serve.publish",
            Name::StrategyMaxMax => "strategy.maxmax",
            Name::StrategyConvexOpt => "strategy.convexopt",
        }
    }

    pub fn parent(self) -> Option<Name> {
        match self {
            Name::Block => None,
            Name::StrategyMaxMax | Name::StrategyConvexOpt => Some(Name::EngineApply),
            _ => Some(Name::Block),
        }
    }
}

/// One span: nanoseconds since the run's epoch, tagged with its block.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub block: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

const NO_BLOCK: u64 = u64::MAX;

/// Collects strategy spans from the engine's worker threads. The
/// consumer names the block it is applying; evaluations outside a block
/// (the cold start) are not recorded.
#[derive(Debug)]
pub struct Recorder {
    block: AtomicU64,
    spans: Mutex<Vec<(Name, u32, Instant, Instant)>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            block: AtomicU64::new(NO_BLOCK),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Attributes strategy calls to `block` until [`Recorder::leave`].
    pub fn enter(&self, block: u32) {
        self.block.store(u64::from(block), Ordering::SeqCst);
    }

    pub fn leave(&self) {
        self.block.store(NO_BLOCK, Ordering::SeqCst);
    }

    fn record(&self, name: Name, start: Instant, end: Instant) {
        let block = self.block.load(Ordering::SeqCst);
        if block == NO_BLOCK {
            return;
        }
        self.spans
            .lock()
            .expect("a strategy worker panicked while recording")
            .push((name, block as u32, start, end));
    }

    /// Drains the recorded spans, timed in nanoseconds since `epoch`.
    pub fn take(&self, epoch: Instant) -> Vec<Span> {
        let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a strategy worker panicked while recording"),
        )
        .into_iter()
        .map(|(name, block, start, end)| Span {
            name,
            block,
            start: since(start),
            end: since(end),
        })
        .collect()
    }
}

/// A pass-through strategy that times each call of the one it wraps.
struct Timed {
    inner: SharedStrategy,
    name: Name,
    recorder: Arc<Recorder>,
}

impl Strategy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(&self, loop_: &ArbLoop, prices: &[f64]) -> Result<StrategyOutcome, StrategyError> {
        let start = Instant::now();
        let outcome = self.inner.evaluate(loop_, prices);
        self.recorder.record(self.name, start, Instant::now());
        outcome
    }
}

/// `pipeline` with each of its strategies wrapped in a timer. The
/// wrapped strategies keep their names, so rankings are unchanged.
pub fn timed_pipeline(
    pipeline: OpportunityPipeline,
    strategies: Vec<SharedStrategy>,
    recorder: &Arc<Recorder>,
) -> Result<OpportunityPipeline, String> {
    let names = pipeline.strategy_names();
    let wrapped = strategies
        .into_iter()
        .map(|inner| {
            let name = match inner.name() {
                "maxmax" => Name::StrategyMaxMax,
                "convex" => Name::StrategyConvexOpt,
                other => return Err(format!("no span for strategy {other}")),
            };
            Ok(Arc::new(Timed {
                inner,
                name,
                recorder: Arc::clone(recorder),
            }) as SharedStrategy)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pipeline = pipeline.with_strategies(wrapped);
    if pipeline.strategy_names() != names {
        return Err(format!(
            "timed strategies {:?} differ from the pipeline's {names:?}",
            pipeline.strategy_names()
        ));
    }
    Ok(pipeline)
}

/// Journal commit counters from a pass-through [`IoShim`].
#[derive(Debug, Default)]
pub struct JournalCounts {
    pub commits: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
}

/// Counts commits, bytes and syncs, and lets every one proceed.
#[derive(Debug)]
pub struct CountingShim(pub Arc<JournalCounts>);

impl IoShim for CountingShim {
    fn before_write(&mut self, bytes: usize) -> WriteVerdict {
        self.0.commits.fetch_add(1, Ordering::Relaxed);
        self.0.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        WriteVerdict::Proceed
    }

    fn before_sync(&mut self) -> Option<io::Error> {
        self.0.syncs.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_nanos(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time per span name (a span minus the union of its children),
/// summed over the run, plus the root's unattributed share.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Nanoseconds, indexed like [`Name::ALL`].
    pub nanos: [u64; 7],
    /// Summed `block` span time.
    pub block_nanos: u64,
}

impl SelfTimes {
    /// `1 - unattributed / block time`: the share of block time that a
    /// named stage span covers.
    pub fn coverage(&self) -> f64 {
        1.0 - self.nanos[0] as f64 / self.block_nanos.max(1) as f64
    }
}

/// Computes self times. `spans` holds every span of the run; spans of a
/// block are grouped by sorting on the block id.
pub fn self_times(spans: &mut [Span]) -> SelfTimes {
    spans.sort_unstable_by_key(|s| (s.block, s.start));
    let mut out = SelfTimes::default();
    let mut children = Vec::new();
    for block in spans.chunk_by(|a, b| a.block == b.block) {
        for span in block {
            let index = Name::ALL
                .iter()
                .position(|&n| n == span.name)
                .expect("every name is listed");
            let mut covered = 0;
            // Only the root and `engine.apply` have children.
            if matches!(span.name, Name::Block | Name::EngineApply) {
                children.clear();
                children.extend(
                    block
                        .iter()
                        .filter(|c| c.name.parent() == Some(span.name))
                        .map(|c| (c.start, c.end)),
                );
                covered = union_nanos(&mut children, span.start, span.end);
            }
            out.nanos[index] += span.nanos() - covered;
            if span.name == Name::Block {
                out.block_nanos += span.nanos();
            }
        }
    }
    out
}

/// Writes every span as a tab-separated line:
/// `block name parent start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut text = String::from("block\tname\tparent\tstart_ns\tend_ns\n");
    for span in spans {
        let parent = span.name.parent().map_or("-", Name::label);
        writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}",
            span.block,
            span.name.label(),
            parent,
            span.start,
            span.end
        )
        .expect("writing to a String cannot fail");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut spans = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_nanos(&mut spans, 1, 25), 2 + 7 + 5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start, end| Span {
            name,
            block: 0,
            start,
            end,
        };
        let mut spans = vec![
            span(Name::Block, 0, 100),
            span(Name::IngestSeal, 10, 20),
            span(Name::EngineApply, 30, 80),
            span(Name::StrategyMaxMax, 35, 50),
            span(Name::StrategyConvexOpt, 40, 60),
            span(Name::ServePublish, 80, 90),
        ];
        let times = self_times(&mut spans);
        assert_eq!(times.nanos[0], 100 - 10 - 50 - 10);
        assert_eq!(times.nanos[3], 50 - 25);
        assert_eq!(times.block_nanos, 100);
        assert!((times.coverage() - 0.7).abs() < 1e-12);
    }
}
