//! The durable bot: one journaled multiplexed stream for chain events
//! **and** CEX price moves, checkpoints, crash recovery, and panic
//! supervision.
//!
//! [`IngestBot`] runs the same per-block policy as [`crate::ArbBot`]
//! (best executable opportunity, flash-bundle submission) behind the
//! `arb-ingest` front-end:
//!
//! * every block, the CEX feed's price moves and the chain's new events
//!   are staged on separate [`arb_ingest::Ingestor`] sources, sealed
//!   into one deterministically ordered block, journaled **raw**, then
//!   coalesced and applied through an [`arb_ingest::IngestDriver`];
//! * every [`JournalSettings::checkpoint_every_events`] staged events,
//!   a snapshot of the fleet — price table and per-source stream
//!   positions included — is written at the journal's durable tail, old
//!   snapshots are pruned, and fully-snapshotted segments compacted;
//! * after a crash, [`IngestBot::recover`] rebuilds the fleet *and* the
//!   feed from disk alone — no live price feed is needed to resume —
//!   and reports what it did as a [`RecoveryStats`] one-liner.
//!
//! # Panic supervision
//!
//! The layers below the bot turn *partial* failures into degraded but
//! correct operation (source health quarantine, journal write retry,
//! checkpoint deferral). What remains is a panic that kills the tick
//! itself, e.g. inside a shard worker. [`IngestBot::step`] turns that
//! into a bounded outage:
//!
//! 1. the panic is caught at the step boundary
//!    ([`std::panic::catch_unwind`]);
//! 2. the flight recorder (when observability is on) is dumped next to
//!    the journal;
//! 3. the bot rebuilds itself in place from the journal, under the same
//!    account, and hands its observability handle and tick hook to the
//!    rebuilt parts;
//! 4. the step that panicked is retried. Retrying is safe: the step's
//!    events were sealed and journaled *before* application, so the
//!    rebuilt runtime already contains them; the retry re-offers only
//!    the caller's feed moves, which are absolute prices (idempotent),
//!    and drains no new chain events (the recovered cursor sits at the
//!    journal tail).
//!
//! [`JournalSettings::max_recoveries`] bounds the recoveries over the
//! bot's lifetime. A panic past the budget returns
//! [`BotError::RecoveryExhausted`]: a fault that reproduces on every
//! retry is a genuine bug, and retrying forever would hide it.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::chain::{Chain, EventCursor};
use arb_dexsim::state::AccountId;
use arb_engine::TickHook;
use arb_ingest::{IngestConfig, IngestDriver, IngestStats, Ingestor, SourceId};
use arb_journal::{
    JournalConfig, JournalError, JournalWriter, Recovery, RecoveryStats, SnapshotStore,
};
use arb_obs::{MetricValue, RegistrySnapshot};

use crate::bot::{pipeline_for, BotAction};
use crate::config::BotConfig;
use crate::error::BotError;
use crate::execution;
use crate::obs::{BotObs, ExportSink, ObsConfig};
use crate::scanner;

/// Durability tuning for [`IngestBot`].
#[derive(Debug, Clone)]
pub struct JournalSettings {
    /// Directory holding segments and snapshots.
    pub dir: PathBuf,
    /// Take a checkpoint after this many staged events.
    pub checkpoint_every_events: usize,
    /// Segment roll threshold ([`JournalConfig::segment_max_bytes`]).
    pub segment_max_bytes: u64,
    /// Snapshots retained after each checkpoint (older ones are pruned).
    pub keep_snapshots: usize,
    /// Panicked steps [`IngestBot::step`] recovers from over the bot's
    /// lifetime (see the module docs). At 0, the first panic returns
    /// [`BotError::RecoveryExhausted`].
    pub max_recoveries: u32,
}

impl JournalSettings {
    /// Settings with production-shaped defaults: checkpoint every 256
    /// events, 256 KiB segments, 2 retained snapshots, no panic
    /// recoveries.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalSettings {
            dir: dir.into(),
            checkpoint_every_events: 256,
            segment_max_bytes: 256 * 1024,
            keep_snapshots: 2,
            max_recoveries: 0,
        }
    }

    fn journal_config(&self) -> JournalConfig {
        JournalConfig {
            segment_max_bytes: self.segment_max_bytes,
            sync_on_commit: true,
        }
    }
}

/// An arbitrage bot whose market view survives crashes and panics. See
/// the module docs for the lifecycle.
#[derive(Debug)]
pub struct IngestBot {
    account: AccountId,
    config: BotConfig,
    settings: JournalSettings,
    ingest: IngestConfig,
    ingestor: Ingestor,
    driver: IngestDriver,
    feed_source: SourceId,
    chain_source: SourceId,
    cursor: EventCursor,
    writer: Arc<Mutex<JournalWriter>>,
    store: SnapshotStore,
    events_since_checkpoint: usize,
    checkpoints_taken: usize,
    recovery: Option<RecoveryStats>,
    recoveries: u32,
    obs: Option<BotObs>,
    tick_hook: Option<Arc<dyn TickHook>>,
}

impl IngestBot {
    /// Starts a durable bot on a live chain. The journal directory must
    /// be fresh: ingest offsets count the *multiplexed* stream (feed
    /// moves included), so adopting any other journal would silently
    /// misalign every snapshot. The initial feed and the chain's full
    /// event history are journaled first — sorted feed prices, then
    /// chain history — giving recovery a self-contained genesis prefix.
    ///
    /// # Errors
    ///
    /// Forwards journal I/O failures ([`BotError::Journal`]) and graph /
    /// engine construction failures; rejects a non-empty journal
    /// directory.
    pub fn attach(
        chain: &mut Chain,
        feed: &PriceTable,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
    ) -> Result<Self, BotError> {
        let writer = JournalWriter::open(&settings.dir, settings.journal_config())
            .map_err(JournalError::from)?;
        if writer.next_offset() != 0 {
            return Err(BotError::Journal(JournalError::Corrupt(
                "ingest attach requires a fresh journal directory (offsets count the \
                 multiplexed stream) — use IngestBot::recover to resume one"
                    .to_string(),
            )));
        }
        let writer = Arc::new(Mutex::new(writer));
        let mut ingestor = Ingestor::new(ingest).with_journal(writer.clone());
        let feed_source = ingestor.register_source("cex-feed");
        let chain_source = ingestor.register_source("dexsim");

        // Journal the genesis prefix: the full feed (sorted, so attach is
        // deterministic), then the chain's event history.
        let mut initial_prices: Vec<(TokenId, f64)> = feed.iter().collect();
        initial_prices.sort_unstable_by_key(|(token, _)| token.index());
        ingestor.offer_feed_moves(feed_source, &initial_prices)?;
        ingestor.offer(chain_source, chain.event_log().decode_from(0))?;
        ingestor.seal_block()?;
        // The runtime below is built from *current* chain state; the
        // backfill block exists for recovery replay, not for application.
        ingestor
            .handle()
            .try_pop()
            .expect("the backfill block was just sealed");

        let graph = scanner::graph_from_chain(chain)?;
        let runtime =
            arb_engine::ShardedRuntime::with_graph(pipeline_for(&config), graph, config.shards)?;
        let driver = IngestDriver::new(runtime, feed.clone(), ingestor.handle());
        let store = SnapshotStore::new(&settings.dir)?;
        let cursor = chain.subscribe();
        Ok(IngestBot {
            account: chain.create_account(),
            config,
            settings,
            ingest,
            ingestor,
            driver,
            feed_source,
            chain_source,
            cursor,
            writer,
            store,
            events_since_checkpoint: 0,
            checkpoints_taken: 0,
            recovery: None,
            recoveries: 0,
            obs: None,
            tick_hook: None,
        })
    }

    /// Rebuilds a durable bot after a crash **from disk alone**: no
    /// live price feed is passed — the journal's inline `FeedPrice`
    /// stream and the snapshot's embedded price table reconstruct it.
    /// Chain events the chain emitted while the bot was down are
    /// ingested (journaled, sealed, applied) before this returns.
    /// [`IngestBot::recovery_stats`] reports what happened — print it,
    /// it is the operator's recovery line.
    ///
    /// # Errors
    ///
    /// See [`IngestBot::attach`]; additionally fails when recovery
    /// cannot bootstrap (no snapshot and no genesis prefix).
    pub fn recover(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
    ) -> Result<Self, BotError> {
        Self::recover_impl(chain, config, settings, ingest, None)
    }

    /// [`IngestBot::recover`], resuming the pre-crash bot's `account`
    /// instead of registering a fresh one — so the profits the dead
    /// process banked keep accruing to the same balance sheet. The
    /// account id is chain state, not journal state; persist it however
    /// the deployment persists its other operator config.
    ///
    /// # Errors
    ///
    /// See [`IngestBot::recover`].
    pub fn recover_as(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
        account: AccountId,
    ) -> Result<Self, BotError> {
        Self::recover_impl(chain, config, settings, ingest, Some(account))
    }

    fn recover_impl(
        chain: &mut Chain,
        config: BotConfig,
        settings: JournalSettings,
        ingest: IngestConfig,
        account: Option<AccountId>,
    ) -> Result<Self, BotError> {
        let writer = JournalWriter::open(&settings.dir, settings.journal_config())
            .map_err(JournalError::from)?;
        let writer = Arc::new(Mutex::new(writer));

        let recovered = Recovery::new(&settings.dir, pipeline_for(&config), config.shards)
            .recover_journaled()?;

        // Reconstruct per-source positions: the snapshot's recorded
        // counts (zeros on the genesis path) plus everything the replay
        // consumed on each source.
        let snapshot_positions = &recovered.source_positions;
        let feed_position = snapshot_positions.first().copied().unwrap_or(0)
            + recovered.feed_events_replayed as u64;
        let chain_position = snapshot_positions.get(1).copied().unwrap_or(0)
            + (recovered.genesis_bootstrap_events + recovered.chain_events_replayed) as u64;

        let mut ingestor = Ingestor::new(ingest).with_journal(writer.clone());
        let feed_source = ingestor.register_source("cex-feed");
        let chain_source = ingestor.register_source("dexsim");
        ingestor.restore_positions(&[feed_position, chain_position])?;
        let driver = IngestDriver::new(recovered.runtime, recovered.feed, ingestor.handle());

        let cursor = EventCursor::at(chain_position as usize);
        let store = SnapshotStore::new(&settings.dir)?;
        let mut bot = IngestBot {
            account: account.unwrap_or_else(|| chain.create_account()),
            config,
            settings,
            ingest,
            ingestor,
            driver,
            feed_source,
            chain_source,
            cursor,
            writer,
            store,
            events_since_checkpoint: 0,
            checkpoints_taken: 0,
            recovery: Some(recovered.stats),
            recoveries: 0,
            obs: None,
            tick_hook: None,
        };
        // Catch up on blocks mined while the bot was down: journal and
        // apply them now so the first step sees a current fleet.
        let missed = chain.drain_events(&mut bot.cursor);
        if !missed.is_empty() {
            bot.ingestor.offer(bot.chain_source, missed)?;
            bot.ingestor.seal_block()?;
            bot.driver.drain()?;
        }
        Ok(bot)
    }

    /// Turns on observability: one registry + flight recorder wired
    /// through the whole pipeline this bot owns — ingest sealing
    /// (`ingest.seal_ns` → `queue_ns` spans), the apply side
    /// (`ingest.apply_ns`, `ingest.e2e_ns`, per-batch `ingest.tick`
    /// flight marks), the sharded runtime (`runtime.tick_ns`, engine
    /// spans), and the bot's own step counters. Unless the config names
    /// another directory, a panic hook is installed that dumps the
    /// flight recorder to the journal directory on crash, next to the
    /// journal the post-mortem will replay. A recovery that built this
    /// bot is reported under `journal.*`.
    ///
    /// The registry, the recorder and the one panic hook live as long
    /// as the bot: a supervised rebuild re-wires them rather than
    /// replacing them, and the hook always dumps the live recorder.
    /// Idempotent.
    pub fn enable_observability(&mut self, mut config: ObsConfig) {
        if self.obs.is_some() {
            return;
        }
        if config.panic_dump_dir.is_none() {
            config.panic_dump_dir = Some(self.settings.dir.clone());
        }
        self.obs = Some(BotObs::new(&config));
        self.wire();
    }

    /// The shared observability handle (`None` until
    /// [`IngestBot::enable_observability`]).
    pub fn obs(&self) -> Option<&arb_obs::Obs> {
        self.obs.as_ref().map(BotObs::obs)
    }

    /// Every series this bot owns, read now: the registry merged with
    /// the layers' counters — `ingest.*` from the front-end and driver,
    /// `runtime.*` and `engine.*` from the fleet — and `bot.recoveries`.
    /// A supervised recovery rebuilds the layers, so their series
    /// restart; `bot.recoveries` counts those restarts. `None` until
    /// observability is enabled.
    pub fn metrics_snapshot(&self) -> Option<RegistrySnapshot> {
        let mut snapshot = self.obs()?.snapshot();
        self.ingestor.stats().collect(&mut snapshot);
        self.driver.collect(&mut snapshot);
        snapshot.insert(
            "bot.recoveries",
            MetricValue::Counter(u64::from(self.recoveries)),
        );
        Some(snapshot)
    }

    /// [`IngestBot::metrics_snapshot`] in Prometheus text format — the
    /// body a `/metrics` pull endpoint would serve. `None` until
    /// observability is enabled.
    pub fn metrics(&self) -> Option<String> {
        self.metrics_snapshot()
            .map(|snapshot| arb_obs::export::prometheus_text(&snapshot))
    }

    /// Routes the periodic JSON-lines export (every
    /// [`ObsConfig::export_every_steps`] steps) into `sink`. No-op
    /// until observability is enabled.
    pub fn set_obs_export(&mut self, sink: ExportSink) {
        if let Some(obs) = &mut self.obs {
            obs.set_sink(sink);
        }
    }

    /// Installs an [`arb_engine::TickHook`] on the underlying sharded
    /// runtime — the seam chaos tests use to inject slow ticks and
    /// mid-tick panics into a live bot. The hook is re-installed after
    /// every supervised rebuild.
    pub fn set_tick_hook(&mut self, hook: Arc<dyn TickHook>) {
        self.driver.runtime_mut().set_tick_hook(Arc::clone(&hook));
        self.tick_hook = Some(hook);
    }

    /// The bot's account (stable across recoveries).
    pub fn account(&self) -> AccountId {
        self.account
    }

    /// The configuration.
    pub fn config(&self) -> &BotConfig {
        &self.config
    }

    /// The journal directory.
    pub fn journal_dir(&self) -> &Path {
        &self.settings.dir
    }

    /// The recovered price table / current feed view.
    pub fn feed(&self) -> &PriceTable {
        self.driver.feed()
    }

    /// Front-end counters (coalescing, queue depth, stalls) since the
    /// last (re)build.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingestor.stats()
    }

    /// The apply-side driver (batch counters, seal-to-rank latency).
    pub fn driver(&self) -> &IngestDriver {
        &self.driver
    }

    /// How the last recovery went — [`IngestBot::recover`] or a
    /// supervised rebuild (`None` after [`IngestBot::attach`] until the
    /// first panic).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Supervised panic recoveries performed so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Checkpoints written since this process started.
    pub fn checkpoints_taken(&self) -> usize {
        self.checkpoints_taken
    }

    /// One decision step: stage this block's feed moves and chain
    /// events, seal them into one journaled block, apply it through the
    /// driver, checkpoint if due, and submit a flash bundle for the best
    /// executable opportunity. A panic anywhere inside triggers the
    /// supervision protocol of the module docs and a retry of this step.
    ///
    /// # Errors
    ///
    /// Fails on journal write errors, engine failures, or bundle
    /// construction failures — not on unprofitable markets
    /// ([`BotAction::Idle`]). Returns [`BotError::RecoveryExhausted`]
    /// when a panic lands after the recovery budget is spent (the bot
    /// is then left as the panic left it), and recovery's own errors
    /// when the rebuild fails.
    pub fn step(
        &mut self,
        chain: &mut Chain,
        feed_moves: &[(TokenId, f64)],
    ) -> Result<BotAction, BotError> {
        loop {
            match panic::catch_unwind(AssertUnwindSafe(|| self.try_step(chain, feed_moves))) {
                Ok(result) => return result,
                Err(_) if self.recoveries >= self.settings.max_recoveries => {
                    return Err(BotError::RecoveryExhausted {
                        recoveries: self.recoveries,
                    });
                }
                Err(_) => {
                    self.recoveries += 1;
                    self.rebuild(chain)?;
                }
            }
        }
    }

    /// [`IngestBot::step`] without the panic supervision.
    fn try_step(
        &mut self,
        chain: &mut Chain,
        feed_moves: &[(TokenId, f64)],
    ) -> Result<BotAction, BotError> {
        let step_timer = self.obs.as_ref().map(BotObs::step_timer);
        let step_span = step_timer.as_ref().map(arb_obs::SpanTimer::start);

        self.ingestor
            .offer_feed_moves(self.feed_source, feed_moves)?;
        let events = chain.drain_events(&mut self.cursor);
        let staged = feed_moves.len() + events.len();
        self.ingestor.offer(self.chain_source, events)?;
        self.ingestor.seal_block()?;
        let report = self.driver.drain()?;

        self.events_since_checkpoint += staged;
        if self.events_since_checkpoint >= self.settings.checkpoint_every_events {
            self.checkpoint()?;
        }

        let action = match report {
            Some(report) => execution::submit_best(chain, self.account, &report.opportunities)?,
            None => BotAction::Idle,
        };
        drop(step_span);
        let submitted = matches!(action, BotAction::Submitted { .. });
        if self.obs.as_mut().is_some_and(|o| o.after_step(submitted)) {
            if let (Some(snapshot), Some(obs)) = (self.metrics_snapshot(), self.obs.as_mut()) {
                obs.export(&snapshot);
            }
        }
        Ok(action)
    }

    /// The supervised recovery: dump the flight trail, rebuild from the
    /// journal under the same account, and carry the observability
    /// handle, tick hook and counters over to the rebuilt bot.
    fn rebuild(&mut self, chain: &mut Chain) -> Result<(), BotError> {
        // The panic hook (when installed) already dumped at panic time;
        // dump again so the trail exists even when the embedding
        // application replaced the global hook.
        if let Some(obs) = self.obs() {
            let _ = obs.dump_flight_to(&self.settings.dir.join(arb_obs::FLIGHT_DUMP_FILE));
        }
        let mut rebuilt = Self::recover_impl(
            chain,
            self.config,
            self.settings.clone(),
            self.ingest,
            Some(self.account),
        )?;
        rebuilt.recoveries = self.recoveries;
        rebuilt.checkpoints_taken = self.checkpoints_taken;
        rebuilt.obs = self.obs.take();
        rebuilt.tick_hook = self.tick_hook.take();
        rebuilt.wire();
        *self = rebuilt;
        Ok(())
    }

    /// Hands the bot's observability handle and tick hook to the parts
    /// it owns: on [`IngestBot::enable_observability`], and again after
    /// a supervised rebuild replaced those parts.
    fn wire(&mut self) {
        if let Some(bot_obs) = &self.obs {
            self.ingestor.set_obs(bot_obs.obs());
            self.driver.set_obs(bot_obs.obs());
            if let Some(recovery) = &self.recovery {
                recovery.record(bot_obs.obs());
            }
        }
        if let Some(hook) = &self.tick_hook {
            self.driver.runtime_mut().set_tick_hook(Arc::clone(hook));
        }
    }

    /// Writes a snapshot of the fleet — including the price table and
    /// per-source positions — at the journal's durable tail, prunes old
    /// snapshots, and compacts journal segments below the **oldest
    /// retained** snapshot — every kept snapshot stays replayable, so if
    /// the newest one rots on disk, recovery can fall back to its
    /// predecessor. Called automatically by [`IngestBot::step`]; public
    /// for shutdown hooks.
    ///
    /// When the journal is running behind (events appended but not yet
    /// durably committed, e.g. while the writer is in degraded mode),
    /// the checkpoint is **deferred**: a snapshot taken now would claim
    /// the fleet's state is durable at an offset the disk has not
    /// reached. The due-counter is left alone so the next step retries.
    ///
    /// The writer locks tolerate poisoning: a panicked tick can never
    /// corrupt the writer mid-operation (every mutation completes or
    /// returns an error before control leaves the journal crate), so a
    /// supervised recovery is free to checkpoint afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`BotError::Journal`] on snapshot or compaction failures.
    pub fn checkpoint(&mut self) -> Result<(), BotError> {
        let (offset, pending) = {
            let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            (writer.durable_offset(), writer.pending_events())
        };
        if pending > 0 {
            return Ok(());
        }
        let mut checkpoint = self.driver.checkpoint();
        checkpoint.source_positions = self.ingestor.source_positions();
        self.store.write(offset, &checkpoint)?;
        self.store.prune(self.settings.keep_snapshots)?;
        if let Some(oldest_retained) = self.store.list()?.first().map(|(offset, _)| *offset) {
            self.writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .compact_below(oldest_retained)
                .map_err(JournalError::from)?;
        }
        self.checkpoints_taken += 1;
        self.events_since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::fee::FeeRate;
    use arb_amm::pool::PoolId;
    use arb_chaos::{ChaosInjector, ChaosTickHook, FaultKind, FaultPlan};
    use arb_dexsim::tx::Transaction;
    use arb_dexsim::units::to_raw;
    use arb_journal::{JournalReader, TempDir};
    use std::fs;

    fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    fn paper_chain() -> Chain {
        let mut chain = Chain::new();
        let fee = FeeRate::UNISWAP_V2;
        chain
            .add_pool(t(0), t(1), to_raw(100.0), to_raw(200.0), fee)
            .unwrap();
        chain
            .add_pool(t(1), t(2), to_raw(300.0), to_raw(200.0), fee)
            .unwrap();
        chain
            .add_pool(t(2), t(0), to_raw(200.0), to_raw(400.0), fee)
            .unwrap();
        chain
    }

    fn paper_feed() -> PriceTable {
        [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
            .into_iter()
            .collect()
    }

    fn scratch(label: &str) -> TempDir {
        TempDir::new(label).unwrap()
    }

    fn settings(dir: &TempDir, checkpoint_every: usize) -> JournalSettings {
        JournalSettings {
            checkpoint_every_events: checkpoint_every,
            ..JournalSettings::new(dir.path())
        }
    }

    /// A paper-market chain plus a funded whale account.
    fn whale_chain() -> (Chain, AccountId) {
        let mut chain = paper_chain();
        let whale = chain.create_account();
        chain.mint(whale, t(0), to_raw(1_000.0));
        (chain, whale)
    }

    fn attach(chain: &mut Chain, settings: JournalSettings) -> IngestBot {
        IngestBot::attach(
            chain,
            &paper_feed(),
            BotConfig::default(),
            settings,
            IngestConfig::default(),
        )
        .unwrap()
    }

    /// Per-block feed drift, a pure function of the global block index so
    /// a split run sees exactly what a continuous one did.
    fn moves_for(block: usize) -> Vec<(TokenId, f64)> {
        vec![(t(1), 10.2 + 0.05 * block as f64)]
    }

    /// Drives whale-perturbed blocks (sized by their global block index,
    /// so a split run perturbs exactly like a continuous one) through a
    /// stepper, mining the bot's submissions, and returns the decision
    /// trace.
    fn drive<S: FnMut(&mut Chain, &[(TokenId, f64)]) -> BotAction>(
        chain: &mut Chain,
        whale: AccountId,
        blocks: std::ops::Range<usize>,
        mut stepper: S,
    ) -> Vec<Option<(u64, usize)>> {
        blocks
            .map(|i| {
                chain.submit(Transaction::Swap {
                    account: whale,
                    pool: PoolId::new(0),
                    token_in: t(0),
                    amount_in: to_raw(2.0 + i as f64),
                    min_out: 0,
                });
                chain.mine_block();
                let action = stepper(chain, &moves_for(i));
                chain.mine_block();
                match action {
                    BotAction::Idle => None,
                    BotAction::Submitted { expected, hops } => {
                        Some((expected.value().to_bits(), hops))
                    }
                }
            })
            .collect()
    }

    /// The never-faulted oracle: one bot across blocks `0..8`. Returns
    /// its decision trace and the final chain digest.
    fn oracle_run() -> (Vec<Option<(u64, usize)>>, u64) {
        let dir = scratch("ibot-oracle");
        let (mut chain, whale) = whale_chain();
        let mut oracle = attach(&mut chain, settings(&dir, 4));
        let actions = drive(&mut chain, whale, 0..8, |chain, moves| {
            oracle.step(chain, moves).unwrap()
        });
        (actions, chain.state().digest())
    }

    #[test]
    fn ingest_bot_recovers_without_a_live_feed_and_decides_identically() {
        let dir = scratch("ibot-crash");
        let (oracle_actions, oracle_digest) = oracle_run();

        // The crashing run: same chain history, bot dies after block 4.
        let (mut chain, whale) = whale_chain();
        let mut bot = attach(&mut chain, settings(&dir, 4));
        assert!(bot.recovery_stats().is_none());
        let mut first_half = drive(&mut chain, whale, 0..4, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        assert!(bot.checkpoints_taken() > 0, "checkpoints were due");
        let pre_crash_account = bot.account();
        drop(bot); // 💥 events keep piling up on the chain, un-journaled

        // NO feed is passed here — the whole point of the ingest stream.
        let mut bot = IngestBot::recover_as(
            &mut chain,
            BotConfig::default(),
            settings(&dir, 4),
            IngestConfig::default(),
            pre_crash_account,
        )
        .unwrap();
        assert_eq!(
            bot.account(),
            pre_crash_account,
            "recovery resumes the balance sheet, not a fresh account"
        );
        let stats = *bot.recovery_stats().expect("recovered");
        assert!(stats.snapshot_offset.is_some(), "{stats}");
        assert!(
            stats.events_replayed < stats.journal_tail as usize,
            "snapshot recovery must replay strictly fewer events than \
             genesis: {stats}"
        );
        let line = stats.to_string();
        assert!(line.contains("snapshot@"), "{line}");
        assert!(line.contains("events replayed"), "{line}");
        assert!(!line.contains('\n'), "one-liner style: {line}");

        // The feed was reconstructed from disk: last pre-crash drift
        // applied at block 3.
        let recovered_price = bot
            .feed()
            .iter()
            .find(|(token, _)| *token == t(1))
            .map(|(_, price)| price)
            .expect("t1 priced");
        assert_eq!(
            recovered_price.to_bits(),
            (10.2f64 + 0.05 * 3.0).to_bits(),
            "recovery must replay FeedPrice events to the journal tail"
        );

        let second_half = drive(&mut chain, whale, 4..8, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        first_half.extend(second_half);
        assert_eq!(
            first_half, oracle_actions,
            "crash + feed-free recovery must not change a single decision"
        );
        assert!(
            first_half.iter().any(Option::is_some),
            "perturbations should open executable opportunities"
        );
        assert_eq!(chain.state().digest(), oracle_digest);
    }

    #[test]
    fn recovery_bootstraps_from_the_journaled_genesis_prefix() {
        let dir = scratch("ibot-genesis");
        let (mut chain, whale) = whale_chain();
        // Huge checkpoint interval: the bot dies before any snapshot.
        let mut bot = attach(&mut chain, settings(&dir, 10_000));
        drive(&mut chain, whale, 0..3, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        assert_eq!(bot.checkpoints_taken(), 0);
        drop(bot);

        let bot = IngestBot::recover(
            &mut chain,
            BotConfig::default(),
            settings(&dir, 10_000),
            IngestConfig::default(),
        )
        .unwrap();
        let stats = *bot.recovery_stats().expect("recovered");
        assert!(stats.snapshot_offset.is_none(), "genesis path: {stats}");
        // The genesis prefix carried the initial feed; the suffix carried
        // the drift. Both land in the reconstructed table.
        assert_eq!(bot.feed().len(), 3);
        let drifted = bot
            .feed()
            .iter()
            .find(|(token, _)| *token == t(1))
            .map(|(_, price)| price)
            .unwrap();
        assert_eq!(drifted.to_bits(), (10.2f64 + 0.05 * 2.0).to_bits());
    }

    #[test]
    fn attach_rejects_a_used_journal_directory() {
        let dir = scratch("ibot-fresh");
        let mut chain = paper_chain();
        drop(attach(&mut chain, settings(&dir, 100)));
        let mut second = paper_chain();
        let err = IngestBot::attach(
            &mut second,
            &paper_feed(),
            BotConfig::default(),
            settings(&dir, 100),
            IngestConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BotError::Journal(_)), "{err:?}");
        assert!(err.to_string().contains("fresh journal"), "{err}");
    }

    #[test]
    fn checkpoints_compact_the_journal() {
        let dir = scratch("ibot-compact");
        let (mut chain, whale) = whale_chain();
        let mut bot = attach(
            &mut chain,
            JournalSettings {
                checkpoint_every_events: 2,
                segment_max_bytes: 64, // force frequent segment rolls
                keep_snapshots: 2,
                ..JournalSettings::new(dir.path())
            },
        );
        drive(&mut chain, whale, 0..6, |chain, moves| {
            bot.step(chain, moves).unwrap()
        });
        assert!(bot.checkpoints_taken() >= 2);

        let snapshots = fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("snapshot-")
            })
            .count();
        assert!(
            snapshots <= 2,
            "pruning keeps the newest 2, saw {snapshots}"
        );

        // Compaction dropped segments below the *oldest retained*
        // snapshot — nothing below what any kept snapshot needs.
        let reader = JournalReader::open(dir.path()).unwrap();
        assert!(
            reader.base_offset() > 0,
            "fully-snapshotted segments should be gone"
        );
        let oldest_retained = SnapshotStore::new(dir.path())
            .unwrap()
            .list()
            .unwrap()
            .first()
            .map(|(offset, _)| *offset)
            .expect("snapshots retained");
        assert!(
            reader.base_offset() <= oldest_retained,
            "compaction must not strand a retained snapshot (base {} > \
             oldest snapshot {oldest_retained})",
            reader.base_offset()
        );
        // And recovery still works over the compacted journal…
        let config = BotConfig::default();
        let recover = || {
            Recovery::new(dir.path(), pipeline_for(&config), config.shards)
                .recover_journaled()
                .unwrap()
                .stats
        };
        let newest = recover().snapshot_offset.expect("snapshot used");
        // …including when the newest snapshot rots: the retained older
        // one must be genuinely usable, not stranded past compaction.
        fs::remove_file(dir.path().join(format!("snapshot-{newest:020}.ckpt"))).unwrap();
        assert_eq!(recover().snapshot_offset, Some(oldest_retained));
    }

    /// A plan with one mid-tick panic per shard-0 window tick; the tick
    /// axis here is the runtime's batch counter (one per sealed block).
    fn panic_plan(ticks: std::ops::Range<u64>) -> FaultPlan {
        FaultPlan::new(42).with_window(
            arb_chaos::site::shard(0),
            ticks,
            FaultKind::PanicTick,
            1_000_000,
        )
    }

    fn supervised(dir: &TempDir, max_recoveries: u32) -> JournalSettings {
        JournalSettings {
            max_recoveries,
            ..settings(dir, 4)
        }
    }

    #[test]
    fn supervised_bot_survives_injected_panics_and_decides_identically() {
        let (oracle_actions, oracle_digest) = oracle_run();

        // Supervised run: identical market, one injected mid-tick panic.
        let dir = scratch("ibot-panic");
        let (mut chain, whale) = whale_chain();
        let mut bot = attach(&mut chain, supervised(&dir, 4));
        bot.enable_observability(ObsConfig::default());
        let injector = Arc::new(ChaosInjector::new(panic_plan(2..3)));
        bot.set_tick_hook(Arc::new(ChaosTickHook::new(Arc::clone(&injector))));

        let mut events_in = Vec::new();
        let actions = drive(&mut chain, whale, 0..8, |chain, moves| {
            let action = bot.step(chain, moves).unwrap();
            assert_metrics_match_live(&bot);
            events_in.push(bot.ingest_stats().events_in);
            action
        });

        assert!(
            bot.recoveries() >= 1,
            "the panic window must force a supervised recovery"
        );
        assert!(
            events_in.windows(2).any(|pair| pair[1] < pair[0]),
            "the rebuilt front-end restarts its counters: {events_in:?}"
        );
        assert_eq!(injector.injected(), bot.recoveries() as usize);
        assert_eq!(
            actions, oracle_actions,
            "a supervised panic + journal rebuild must not change a single decision"
        );
        assert!(
            actions.iter().any(Option::is_some),
            "perturbations should open executable opportunities"
        );
        assert_eq!(chain.state().digest(), oracle_digest);
        assert!(
            dir.path().join(arb_obs::FLIGHT_DUMP_FILE).is_file(),
            "recovery leaves the flight-recorder dump next to the journal"
        );
        let snapshot = bot.metrics_snapshot().expect("obs survives the rebuild");
        assert_eq!(snapshot.counter("bot.recoveries"), Some(1));
    }

    /// Every pulled series equals the struct that owns it — after a
    /// supervised rebuild too, when those structs restart.
    fn assert_metrics_match_live(bot: &IngestBot) {
        let snapshot = bot.metrics_snapshot().expect("observability is on");
        let (ingest, runtime) = (bot.ingest_stats(), bot.driver().runtime());
        for (name, value) in [
            ("ingest.events_in", ingest.events_in),
            ("ingest.batches_delivered", ingest.batches_delivered),
            (
                "engine.strategy_evaluations",
                runtime.fleet_stats().strategy_evaluations as u64,
            ),
            ("runtime.ticks", runtime.stats().ticks as u64),
            ("bot.recoveries", u64::from(bot.recoveries())),
        ] {
            assert_eq!(snapshot.counter(name), Some(value), "{name} vs its owner");
        }
    }

    #[test]
    fn recovery_budget_exhaustion_surfaces_as_a_typed_error() {
        let dir = scratch("ibot-budget");
        let (mut chain, whale) = whale_chain();
        // No budget: the first panic must surface.
        let mut bot = attach(&mut chain, supervised(&dir, 0));
        let injector = Arc::new(ChaosInjector::new(panic_plan(0..64)));
        bot.set_tick_hook(Arc::new(ChaosTickHook::new(injector)));

        let mut saw_exhaustion = false;
        for i in 0..4 {
            chain.submit(Transaction::Swap {
                account: whale,
                pool: PoolId::new(0),
                token_in: t(0),
                amount_in: to_raw(2.0),
                min_out: 0,
            });
            chain.mine_block();
            match bot.step(&mut chain, &moves_for(i)) {
                Ok(_) => {}
                Err(BotError::RecoveryExhausted { recoveries }) => {
                    assert_eq!(recoveries, 0);
                    saw_exhaustion = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            chain.mine_block();
        }
        assert!(saw_exhaustion, "the panic window must hit within 4 steps");
        assert_eq!(bot.recoveries(), 0, "no recovery was budgeted");
    }
}
