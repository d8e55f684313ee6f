//! The consumer half: drains sealed batches into a [`ShardedRuntime`].

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_engine::{OpportunityPipeline, RuntimeCheckpoint, RuntimeReport, ShardedRuntime};
use arb_obs::{Histogram, Marker, MetricValue, Obs, RegistrySnapshot, SpanTimer};

use crate::error::IngestError;
use crate::queue::IngestBatch;
use crate::source::IngestHandle;

/// Pre-resolved apply-side instruments (see [`IngestDriver::set_obs`]).
#[derive(Debug, Clone)]
struct DriverObs {
    /// Wraps feed routing + `apply_events` for one batch.
    apply: SpanTimer,
    /// Seal → ranking-updated latency per batch.
    e2e_ns: Histogram,
    /// Flight-recorder tick mark; the value is the zero-based index of
    /// the batch just applied, so a post-mortem dump shows exactly
    /// which tick the process died on.
    tick: Marker,
}

/// Consumes [`IngestBatch`]es from an [`IngestHandle`] and applies them
/// to a [`ShardedRuntime`], splitting inline [`Event::FeedPrice`]
/// updates into the owned [`PriceTable`] so the batch's chain events are
/// evaluated under the batch's final prices — the same "feed first,
/// then events" order a directly-fed runtime sees each tick.
#[derive(Debug)]
pub struct IngestDriver {
    runtime: ShardedRuntime,
    feed: PriceTable,
    handle: IngestHandle,
    scratch: Vec<Event>,
    chain_events_applied: u64,
    feed_updates_applied: u64,
    raw_events_applied: u64,
    batches_applied: u64,
    obs: Option<DriverObs>,
}

impl IngestDriver {
    /// Wraps an already-current runtime and feed around `handle`.
    pub fn new(runtime: ShardedRuntime, feed: PriceTable, handle: IngestHandle) -> Self {
        IngestDriver {
            runtime,
            feed,
            handle,
            scratch: Vec::new(),
            chain_events_applied: 0,
            feed_updates_applied: 0,
            raw_events_applied: 0,
            batches_applied: 0,
            obs: None,
        }
    }

    /// Attaches observability to the apply side — an `ingest.apply_ns`
    /// span per batch, the `ingest.e2e_ns` seal-to-ranking latency
    /// histogram, an `ingest.tick` flight mark per batch — and forwards
    /// the handle to the wrapped runtime so engine refresh/merge spans
    /// land in the same registry. The apply counters stay on the driver;
    /// [`IngestDriver::collect`] renders them.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = Some(DriverObs {
            apply: obs.span("ingest.apply_ns"),
            e2e_ns: obs.registry().histogram("ingest.e2e_ns"),
            tick: obs.marker("ingest.tick"),
        });
        self.runtime.set_obs(obs);
    }

    /// Renders the apply counters into `out`
    /// (`ingest.chain_events_applied`, `ingest.feed_updates_applied`,
    /// `ingest.raw_events_applied`), then the wrapped runtime's
    /// ([`ShardedRuntime::collect`]).
    pub fn collect(&self, out: &mut RegistrySnapshot) {
        let counters = [
            ("ingest.chain_events_applied", self.chain_events_applied),
            ("ingest.feed_updates_applied", self.feed_updates_applied),
            ("ingest.raw_events_applied", self.raw_events_applied),
        ];
        for (name, value) in counters {
            out.insert(name, MetricValue::Counter(value));
        }
        self.runtime.collect(out);
    }

    /// Applies the next queued batch if one is ready. `Ok(None)` means
    /// the queue was empty (closed or not — check
    /// [`IngestHandle::is_closed`] to tell the cases apart).
    ///
    /// # Errors
    ///
    /// [`IngestError::Engine`] when the runtime rejects the batch.
    pub fn try_step(&mut self) -> Result<Option<RuntimeReport>, IngestError> {
        match self.handle.try_pop() {
            Some(batch) => self.apply(batch).map(Some),
            None => Ok(None),
        }
    }

    /// Blocks for the next batch and applies it; `Ok(None)` once the
    /// stream is closed and fully drained.
    ///
    /// # Errors
    ///
    /// As [`IngestDriver::try_step`].
    pub fn step_blocking(&mut self) -> Result<Option<RuntimeReport>, IngestError> {
        match self.handle.pop_blocking() {
            Some(batch) => self.apply(batch).map(Some),
            None => Ok(None),
        }
    }

    /// Drains every currently queued batch and returns the report from
    /// the last one applied (`None` when nothing was queued).
    ///
    /// # Errors
    ///
    /// As [`IngestDriver::try_step`].
    pub fn drain(&mut self) -> Result<Option<RuntimeReport>, IngestError> {
        let mut last = None;
        while let Some(batch) = self.handle.try_pop() {
            last = Some(self.apply(batch)?);
        }
        Ok(last)
    }

    fn apply(&mut self, batch: IngestBatch) -> Result<RuntimeReport, IngestError> {
        let apply_span = self.obs.as_ref().map(|o| o.apply.start());
        self.scratch.clear();
        for event in &batch.events {
            if let Some((token, price)) = event.as_feed_price() {
                self.feed.set(token, price);
                self.feed_updates_applied += 1;
            } else {
                self.scratch.push(*event);
            }
        }
        self.chain_events_applied += self.scratch.len() as u64;
        self.raw_events_applied += batch.raw_events as u64;
        let report = self.runtime.apply_events(&self.scratch, &self.feed)?;
        let latency_nanos = batch.sealed_at.elapsed().as_nanos() as u64;
        drop(apply_span);
        if let Some(obs) = &self.obs {
            obs.e2e_ns.record(latency_nanos);
            obs.tick.mark(self.batches_applied);
        }
        self.batches_applied += 1;
        Ok(report)
    }

    /// Captures runtime state *plus* the current price table (sorted by
    /// token id, so the snapshot bytes are deterministic), making the
    /// checkpoint self-contained: recovery needs no live feed. The
    /// caller owns [`RuntimeCheckpoint::source_positions`].
    pub fn checkpoint(&self) -> RuntimeCheckpoint {
        let mut checkpoint = self.runtime.checkpoint();
        let mut feed: Vec<(u32, u64)> = self
            .feed
            .iter()
            .map(|(token, price)| (token.index() as u32, price.to_bits()))
            .collect();
        feed.sort_unstable_by_key(|&(token, _)| token);
        checkpoint.feed = feed;
        checkpoint
    }

    /// Rebuilds a driver from a checkpoint: the runtime restores
    /// exactly and the price table is reloaded from the checkpoint's
    /// feed section.
    ///
    /// # Errors
    ///
    /// [`IngestError::Engine`] when the runtime checkpoint fails
    /// validation.
    pub fn restore(
        pipeline: OpportunityPipeline,
        checkpoint: &RuntimeCheckpoint,
        handle: IngestHandle,
    ) -> Result<Self, IngestError> {
        let runtime = ShardedRuntime::restore(pipeline, checkpoint)?;
        let mut feed = PriceTable::new();
        for &(token, bits) in &checkpoint.feed {
            feed.set(TokenId::new(token), f64::from_bits(bits));
        }
        Ok(IngestDriver::new(runtime, feed, handle))
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &ShardedRuntime {
        &self.runtime
    }

    /// Mutable access to the driven runtime — for installing hooks
    /// ([`arb_engine::TickHook`]) or observability on an already-wired
    /// driver. Structural mutation (rebuilds, checkpoint restores) stays
    /// the driver's job; callers should limit themselves to attachments.
    pub fn runtime_mut(&mut self) -> &mut ShardedRuntime {
        &mut self.runtime
    }

    /// The owned price table (current as of the last applied batch).
    pub fn feed(&self) -> &PriceTable {
        &self.feed
    }

    /// The consumer handle this driver drains.
    pub fn handle(&self) -> &IngestHandle {
        &self.handle
    }

    /// Chain (non-feed) events handed to the runtime so far.
    pub fn chain_events_applied(&self) -> u64 {
        self.chain_events_applied
    }

    /// Inline feed updates absorbed into the price table so far.
    pub fn feed_updates_applied(&self) -> u64 {
        self.feed_updates_applied
    }

    /// Raw (pre-coalesce) events the applied batches subsumed.
    pub fn raw_events_applied(&self) -> u64 {
        self.raw_events_applied
    }

    /// Sealed batches applied to the runtime so far. The `ingest.tick`
    /// flight-recorder mark carries the zero-based index, so after `n`
    /// applied batches the newest mark reads `n - 1`.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }
}
