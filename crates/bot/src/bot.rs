//! The per-block scan → evaluate → execute policy, driven by the engine.

use std::sync::Arc;

use arb_cex::feed::PriceFeed;
use arb_core::monetize::Usd;
use arb_core::{ConvexOptimization, MaxMax};
use arb_dexsim::chain::{Chain, EventCursor};
use arb_dexsim::state::AccountId;
use arb_engine::{
    ArbitrageOpportunity, OpportunityPipeline, PipelineConfig, RuntimeStats, ScreenTotals,
    ShardLoads, ShardedRuntime, SharedStrategy, StreamStats,
};
use arb_obs::RegistrySnapshot;
use arb_serve::{
    ClientClass, GovernorConfig, GovernorStats, PublishStats, Publisher, ServeHandle, Subscription,
};

use crate::config::{BotConfig, StrategyChoice};
use crate::error::BotError;
use crate::execution;
use crate::obs::{BotObs, ExportSink, ObsConfig};
use crate::scanner;

/// Builds the engine pipeline a bot configuration describes: one sizing
/// strategy, net-profit ranking, and the config's loop-length and
/// profit-floor limits.
pub fn pipeline_for(config: &BotConfig) -> OpportunityPipeline {
    let strategy: SharedStrategy = match config.strategy {
        StrategyChoice::MaxMax => Arc::new(MaxMax {
            method: config.method,
        }),
        StrategyChoice::Convex => Arc::new(ConvexOptimization {
            options: config.convex,
        }),
    };
    OpportunityPipeline::new(PipelineConfig {
        min_cycle_len: 2,
        max_cycle_len: config.max_loop_len,
        execution_cost_usd: 0.0,
        min_net_profit_usd: config.min_profit_usd,
        parallel: true,
        top_k: None,
        ..PipelineConfig::default()
    })
    .with_strategies(vec![strategy])
}

/// What the bot decided to do this block.
#[derive(Debug, Clone)]
pub enum BotAction {
    /// No opportunity above the profit floor.
    Idle,
    /// Submitted a flash bundle with this expected monetized profit.
    Submitted {
        /// Expected profit at evaluation time.
        expected: Usd,
        /// Number of hops in the executed loop.
        hops: usize,
    },
}

/// The bot's market view: a sharded runtime plus its position in the
/// chain's event log.
#[derive(Debug)]
struct MarketView {
    runtime: ShardedRuntime,
    cursor: EventCursor,
}

/// The arbitrage bot: owns an account, a configuration, the engine
/// pipeline built from it, and a [`ShardedRuntime`] (capped at
/// [`BotConfig::shards`]) kept in sync with the chain's event stream.
#[derive(Debug)]
pub struct ArbBot {
    account: AccountId,
    config: BotConfig,
    pipeline: OpportunityPipeline,
    view: Option<MarketView>,
    serving: Option<Publisher>,
    obs: Option<BotObs>,
}

impl Clone for ArbBot {
    fn clone(&self) -> Self {
        // The pipeline is a pure function of the config; rebuild it. The
        // market view re-synchronizes lazily on the clone's first step.
        // The serving side-car and observability are not cloned —
        // readers attach to one publisher, and a clone must opt back in.
        ArbBot {
            account: self.account,
            config: self.config,
            pipeline: pipeline_for(&self.config),
            view: None,
            serving: None,
            obs: None,
        }
    }
}

/// One-line serving telemetry: publish + admission counters.
#[derive(Debug, Clone, Copy)]
pub struct ServeTelemetry {
    /// Serve revision of the currently published snapshot.
    pub revision: u64,
    /// Publisher counters.
    pub publish: PublishStats,
    /// Admission counters.
    pub governor: GovernorStats,
}

impl std::fmt::Display for ServeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve: revision={} publishes={} skipped={} noop_deltas={} {}",
            self.revision,
            self.publish.publishes,
            self.publish.skipped,
            self.publish.noop_deltas,
            self.governor
        )
    }
}

impl ArbBot {
    /// Registers a bot account on the chain.
    pub fn new(chain: &mut Chain, config: BotConfig) -> Self {
        ArbBot {
            account: chain.create_account(),
            pipeline: pipeline_for(&config),
            config,
            view: None,
            serving: None,
            obs: None,
        }
    }

    /// Turns on the serving side-car: every subsequent step publishes
    /// the ranking it acted on as an immutable snapshot readers attach
    /// to via [`ArbBot::serve_handle`] / [`ArbBot::serve_subscribe`].
    /// Idempotent; a second call keeps existing readers attached.
    pub fn enable_serving(&mut self, governor: GovernorConfig) {
        if self.serving.is_none() {
            let mut publisher = Publisher::new(governor);
            if let Some(obs) = &self.obs {
                publisher.set_obs(obs.obs());
            }
            self.serving = Some(publisher);
        }
    }

    /// Turns on observability: one registry + flight recorder shared by
    /// every layer the bot owns. The live market view and the serving
    /// publisher are wired immediately if present, and lazily as they
    /// are (re)built; each step records `bot.step_ns` and the step
    /// counters. Layer counters are read at snapshot time
    /// ([`ArbBot::metrics_snapshot`]).
    /// Idempotent.
    pub fn enable_observability(&mut self, config: ObsConfig) {
        if self.obs.is_some() {
            return;
        }
        let bot_obs = BotObs::new(&config);
        if let Some(view) = &mut self.view {
            view.runtime.set_obs(bot_obs.obs());
        }
        if let Some(publisher) = &mut self.serving {
            publisher.set_obs(bot_obs.obs());
        }
        self.obs = Some(bot_obs);
    }

    /// The shared observability handle (`None` until
    /// [`ArbBot::enable_observability`]).
    pub fn obs(&self) -> Option<&arb_obs::Obs> {
        self.obs.as_ref().map(BotObs::obs)
    }

    /// Every series this bot owns, read now: the registry merged with
    /// the live layers' counters — `engine.*` and `runtime.*` from the
    /// market view, `serve.*` from the publisher. A layer's series
    /// restart with it (a desynchronized view is rebuilt from zero). `None` until observability is enabled.
    pub fn metrics_snapshot(&self) -> Option<RegistrySnapshot> {
        let mut snapshot = self.obs()?.snapshot();
        if let Some(view) = &self.view {
            view.runtime.collect(&mut snapshot);
        }
        if let Some(publisher) = &self.serving {
            publisher.collect(&mut snapshot);
        }
        Some(snapshot)
    }

    /// [`ArbBot::metrics_snapshot`] in Prometheus text format — the body
    /// a `/metrics` pull endpoint would serve. `None` until
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

    /// A wait-free reader handle in `class` (`None` until
    /// [`ArbBot::enable_serving`]).
    pub fn serve_handle(&self, class: ClientClass) -> Option<ServeHandle> {
        self.serving.as_ref().map(|p| p.handle(class))
    }

    /// A ranking-delta subscription (`None` until serving is enabled).
    pub fn serve_subscribe(&self) -> Option<Subscription> {
        self.serving.as_ref().map(Publisher::subscribe)
    }

    /// Serving telemetry one-liner (`None` until serving is enabled).
    pub fn serve_stats(&self) -> Option<ServeTelemetry> {
        self.serving.as_ref().map(|p| ServeTelemetry {
            revision: p.revision(),
            publish: p.stats(),
            governor: p.governor_stats(),
        })
    }

    /// The bot's account.
    pub fn account(&self) -> AccountId {
        self.account
    }

    /// The configuration.
    pub fn config(&self) -> &BotConfig {
        &self.config
    }

    /// The market view's engine counters, summed over every shard and
    /// cumulative across repartitions ([`ShardedRuntime::fleet_stats`]).
    /// `None` before the first step and after a desync fallback.
    pub fn stream_stats(&self) -> Option<StreamStats> {
        self.view.as_ref().map(|v| v.runtime.fleet_stats())
    }

    /// Sharded-runtime counters of the live market view (`None` before
    /// the first step and after a desync fallback).
    pub fn runtime_stats(&self) -> Option<&RuntimeStats> {
        self.view.as_ref().map(|v| v.runtime.stats())
    }

    /// Realized shard count of the live market view, if any.
    pub fn shard_count(&self) -> Option<usize> {
        self.view.as_ref().map(|v| v.runtime.shard_count())
    }

    /// Cumulative screen-discharge totals of the live market view, in
    /// one [`ScreenTotals`] `Display` line. `None` before the first
    /// step.
    pub fn screen_totals(&self) -> Option<ScreenTotals> {
        self.view.as_ref().map(|v| v.runtime.screen_totals())
    }

    /// Per-shard load picture of the live market view — routed events
    /// and evaluations per shard since the last repartition — as one
    /// [`ShardLoads`] `Display` line. `None` before the first step.
    pub fn shard_loads(&self) -> Option<ShardLoads> {
        self.view.as_ref().map(|v| v.runtime.shard_loads())
    }

    /// One decision step: bring the market view current from the chain's
    /// new events and submit a flash bundle for the best executable
    /// opportunity. The first step pays one full build (cold start); a
    /// desynchronized view is dropped and the step falls back to a full
    /// rescan ([`scanner::discover`]), re-synchronizing next step.
    ///
    /// The transaction is only *submitted*; the caller mines the block.
    ///
    /// # Errors
    ///
    /// Fails on discovery errors, not on unprofitable markets (those
    /// yield [`BotAction::Idle`]).
    pub fn step<F: PriceFeed + Sync>(
        &mut self,
        chain: &mut Chain,
        feed: &F,
    ) -> Result<BotAction, BotError> {
        let step_timer = self.obs.as_ref().map(BotObs::step_timer);
        let step_span = step_timer.as_ref().map(arb_obs::SpanTimer::start);
        let opportunities = self.market_opportunities(chain, feed)?;
        self.publish(&opportunities);
        let action = execution::submit_best(chain, self.account, &opportunities)?;
        drop(step_span);
        let submitted = matches!(action, BotAction::Submitted { .. });
        if self.obs.as_mut().is_some_and(|o| o.after_step(submitted)) {
            if let (Some(snapshot), Some(obs)) = (self.metrics_snapshot(), self.obs.as_mut()) {
                obs.export(&snapshot);
            }
        }
        Ok(action)
    }

    /// Publishes the ranking this step acted on, when serving is
    /// enabled. The live view keys the publish on its standing revision
    /// so quiet steps skip; the desync fallback's rescan (which drops
    /// the view) has no revision to anchor on and re-publishes
    /// unconditionally.
    fn publish(&mut self, opportunities: &[ArbitrageOpportunity]) {
        let Some(publisher) = self.serving.as_mut() else {
            return;
        };
        match self.view.as_ref().map(|v| v.runtime.standing_revision()) {
            Some(revision) => {
                publisher.publish_if_changed(revision, opportunities);
            }
            None => {
                publisher.reanchor();
                publisher.publish(opportunities.to_vec());
            }
        }
    }

    /// Drains new chain events into the sharded runtime and returns the
    /// merged global ranking, building the view first if there is none.
    fn market_opportunities<F: PriceFeed + Sync>(
        &mut self,
        chain: &Chain,
        feed: &F,
    ) -> Result<Vec<ArbitrageOpportunity>, BotError> {
        if self.view.is_none() {
            let mut view = self.build_view(chain)?;
            if let Some(obs) = &self.obs {
                view.runtime.set_obs(obs.obs());
            }
            self.view = Some(view);
        }
        let view = self.view.as_mut().expect("initialized above");
        let events = chain.drain_events(&mut view.cursor);
        match view.runtime.apply_events(&events, feed) {
            Ok(report) => Ok(report.opportunities),
            Err(_) => {
                // Fallback path: drop the stale view, serve this block
                // from a full rescan, rebuild the view next step.
                self.view = None;
                Ok(scanner::discover(chain, &self.pipeline, feed)?.opportunities)
            }
        }
    }

    /// Builds the sharded runtime over the chain's *current* pool set and
    /// subscribes at the current end of the event log, so the pair stays
    /// consistent: state now + every event after now. Degenerate pools
    /// enter as retired slots (keeping `PoolId`s chain-aligned) and
    /// revive through their next valid `Sync`.
    fn build_view(&self, chain: &Chain) -> Result<MarketView, BotError> {
        let graph = scanner::graph_from_chain(chain)?;
        let runtime = ShardedRuntime::with_graph(self.pipeline.clone(), graph, self.config.shards)
            .map_err(BotError::from)?;
        Ok(MarketView {
            runtime,
            cursor: chain.subscribe(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::fee::FeeRate;
    use arb_amm::token::TokenId;
    use arb_cex::feed::PriceTable;
    use arb_dexsim::tx::Transaction;
    use arb_dexsim::units::to_raw;

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
        let mut feed = PriceTable::new();
        feed.set(t(0), 2.0);
        feed.set(t(1), 10.2);
        feed.set(t(2), 20.0);
        feed
    }

    #[test]
    fn maxmax_bot_extracts_paper_profit() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        let BotAction::Submitted { expected, hops } = action else {
            panic!("expected a submission");
        };
        assert_eq!(hops, 3);
        // MaxMax expects ≈ $205.6.
        assert!((expected.value() - 205.6).abs() < 1.0, "{expected}");
        let block = chain.mine_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        // Profit banked in token Z (start of the winning rotation).
        assert!(chain.state().balance(bot.account(), t(2)) > to_raw(10.0));
    }

    #[test]
    fn convex_bot_extracts_more() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(
            &mut chain,
            BotConfig {
                strategy: StrategyChoice::Convex,
                ..BotConfig::default()
            },
        );
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        let BotAction::Submitted { expected, .. } = action else {
            panic!("expected a submission");
        };
        assert!((expected.value() - 206.1).abs() < 1.0, "{expected}");
        let block = chain.mine_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        let y = chain.state().balance(bot.account(), t(1));
        let z = chain.state().balance(bot.account(), t(2));
        assert!(y > 0 && z > 0, "convex profit spread across tokens");
    }

    #[test]
    fn idle_when_market_is_balanced() {
        let mut chain = Chain::new();
        let fee = FeeRate::UNISWAP_V2;
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            chain
                .add_pool(t(a), t(b), to_raw(1_000.0), to_raw(1_000.0), fee)
                .unwrap();
        }
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        assert!(matches!(action, BotAction::Idle));
        assert_eq!(chain.pending(), 0);
    }

    #[test]
    fn profit_floor_filters_small_opportunities() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(
            &mut chain,
            BotConfig {
                min_profit_usd: 1_000.0, // above the ~$206 available
                ..BotConfig::default()
            },
        );
        let action = bot.step(&mut chain, &paper_feed()).unwrap();
        assert!(matches!(action, BotAction::Idle));
    }

    #[test]
    fn unpriced_tokens_are_skipped() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        let empty = PriceTable::new();
        let action = bot.step(&mut chain, &empty).unwrap();
        assert!(matches!(action, BotAction::Idle));
    }

    /// The paper triangle plus a second, disjoint triangle, so the
    /// partition has two components; the feed prices both.
    fn two_component_chain() -> Chain {
        let mut chain = paper_chain();
        let fee = FeeRate::UNISWAP_V2;
        for (a, b) in [(3, 4), (4, 5), (5, 3)] {
            chain
                .add_pool(t(a), t(b), to_raw(1_000.0), to_raw(1_010.0), fee)
                .unwrap();
        }
        chain
    }

    fn two_component_feed() -> PriceTable {
        let mut feed = paper_feed();
        feed.extend((3..6).map(|i| (t(i), 1.0)));
        feed
    }

    /// Per-block decisions reduced to comparable bits, plus the final
    /// chain digest.
    type Decisions = (Vec<Option<(u64, usize)>>, u64);

    /// Six whale-perturbed blocks: before each decision a whale swaps
    /// into every `(pool, token_in)` of `flow`. The decider is an
    /// [`ArbBot`] under `config`, or — with `None` — the batch oracle: a
    /// full [`scanner::discover`] rescan plus [`execution::submit_best`]
    /// every block. Returns the decisions and the bot's realized shard
    /// count.
    fn whale_run(
        mut chain: Chain,
        feed: &PriceTable,
        flow: &[(u32, u32)],
        config: Option<BotConfig>,
    ) -> (Decisions, Option<usize>) {
        let oracle_pipeline = pipeline_for(&BotConfig::default());
        let mut bot = config.map(|config| ArbBot::new(&mut chain, config));
        let account = match &bot {
            Some(bot) => bot.account(),
            None => chain.create_account(),
        };
        let whale = chain.create_account();
        for &(_, token) in flow {
            chain.mint(whale, t(token), to_raw(1_000.0));
        }
        let mut actions = Vec::new();
        for i in 0..6 {
            for &(pool, token) in flow {
                chain.submit(Transaction::Swap {
                    account: whale,
                    pool: arb_amm::pool::PoolId::new(pool),
                    token_in: t(token),
                    amount_in: to_raw(2.0 + i as f64),
                    min_out: 0,
                });
            }
            chain.mine_block();
            let action = match bot.as_mut() {
                Some(bot) => bot.step(&mut chain, feed).unwrap(),
                None => {
                    let ranked = scanner::discover(&chain, &oracle_pipeline, feed)
                        .unwrap()
                        .opportunities;
                    execution::submit_best(&mut chain, account, &ranked).unwrap()
                }
            };
            chain.mine_block();
            actions.push(match action {
                BotAction::Idle => None,
                BotAction::Submitted { expected, hops } => Some((expected.value().to_bits(), hops)),
            });
        }
        let shards = bot.as_ref().and_then(ArbBot::shard_count);
        ((actions, chain.state().digest()), shards)
    }

    /// The runtime-stepping bot must submit exactly what a per-block full
    /// rescan does, whether it runs one engine or a fleet.
    fn assert_bot_matches_rescan(
        chain: Chain,
        feed: PriceTable,
        flow: &[(u32, u32)],
        components: usize,
    ) {
        let (oracle, _) = whale_run(chain.clone(), &feed, flow, None);
        assert!(
            oracle.0.iter().any(Option::is_some),
            "perturbations should open executable opportunities"
        );
        for shards in [1, BotConfig::default().shards] {
            let config = BotConfig {
                shards,
                ..BotConfig::default()
            };
            let (decisions, realized) = whale_run(chain.clone(), &feed, flow, Some(config));
            assert_eq!(realized, Some(shards.min(components)));
            assert_eq!(decisions, oracle, "shards={shards}");
        }
    }

    #[test]
    fn bot_decides_like_a_full_rescan_at_every_shard_cap() {
        assert_bot_matches_rescan(paper_chain(), paper_feed(), &[(0, 0)], 1);
        assert_bot_matches_rescan(
            two_component_chain(),
            two_component_feed(),
            &[(0, 0), (3, 3)],
            2,
        );
    }

    #[test]
    fn sharded_bot_tracks_events_and_reports_runtime_stats() {
        let mut chain = two_component_chain();
        let feed = two_component_feed();
        let mut bot = ArbBot::new(
            &mut chain,
            BotConfig {
                shards: 2,
                ..BotConfig::default()
            },
        );
        assert!(bot.runtime_stats().is_none());
        bot.step(&mut chain, &feed).unwrap();
        chain.mine_block();
        assert_eq!(bot.shard_count(), Some(2));

        // Whale flow between steps reaches the owning shard as events.
        let whale = chain.create_account();
        chain.mint(whale, t(0), to_raw(50.0));
        chain.submit(Transaction::Swap {
            account: whale,
            pool: arb_amm::pool::PoolId::new(0),
            token_in: t(0),
            amount_in: to_raw(5.0),
            min_out: 0,
        });
        chain.mine_block();
        bot.step(&mut chain, &feed).unwrap();
        let stats = bot.runtime_stats().unwrap();
        assert!(stats.ticks >= 2, "{stats}");
        assert!(stats.events_routed > 0, "{stats}");

        // Telemetry one-liners: screen totals and the per-shard loads.
        let totals = bot.screen_totals().unwrap();
        let line = totals.to_string();
        assert!(line.contains("screened"), "{line}");
        assert!(!line.contains('\n'));
        let loads = bot.shard_loads().unwrap();
        assert_eq!(loads.routed_events.len(), 2);
        assert!(loads.routed_events.iter().sum::<u64>() > 0, "{loads}");
        assert!(!loads.to_string().contains('\n'));
    }

    #[test]
    fn serving_bot_publishes_the_ranking_it_acts_on() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        assert!(bot.serve_handle(ClientClass::Interactive).is_none());
        assert!(bot.serve_stats().is_none());
        bot.enable_serving(GovernorConfig::default());
        let handle = bot.serve_handle(ClientClass::Interactive).unwrap();
        assert_eq!(handle.load().revision(), 0, "nothing published yet");

        bot.step(&mut chain, &paper_feed()).unwrap();
        let published = handle.load();
        assert_eq!(published.revision(), 1);
        assert_eq!(published.len(), 1, "the paper triangle ranks once");
        // Bit-identical to what the engine would rank right now.
        let guard = handle.query().unwrap();
        assert_eq!(
            guard.top_k(1)[0].net_profit.value().to_bits(),
            published.entries()[0].net_profit.value().to_bits()
        );
        drop(guard);

        // A quiet step (the bundle is pending, not mined, so no chain
        // events arrive) publishes nothing new.
        bot.step(&mut chain, &paper_feed()).unwrap();
        let stats = bot.serve_stats().unwrap();
        assert_eq!(stats.revision, 1, "{stats}");
        assert_eq!(stats.publish.skipped, 1);
        assert!(stats.governor.admitted[0] >= 1);
        let line = stats.to_string();
        assert!(line.contains("serve:"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn telemetry_is_none_before_first_step() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        assert!(bot.stream_stats().is_none());
        assert!(bot.runtime_stats().is_none());
        assert!(bot.screen_totals().is_none());
        assert!(bot.shard_loads().is_none());
        assert!(bot.shard_count().is_none());
        // The first step builds the market view; every accessor reads it.
        bot.step(&mut chain, &paper_feed()).unwrap();
        assert!(bot.stream_stats().is_some());
        assert_eq!(bot.runtime_stats().map(|s| s.ticks), Some(1));
        assert!(bot.screen_totals().is_some());
        assert_eq!(bot.shard_loads().map(|l| l.routed_events.len()), Some(1));
        assert_eq!(bot.shard_count(), Some(1), "one component, one shard");
    }

    #[test]
    fn bot_tracks_pools_created_after_cold_start() {
        let mut chain = paper_chain();
        let mut bot = ArbBot::new(&mut chain, BotConfig::default());
        // Cold start over the original triangle.
        bot.step(&mut chain, &paper_feed()).unwrap();
        chain.mine_block();
        assert!(bot.stream_stats().is_some());

        // A new pool arrives as an event, not a re-snapshot.
        chain
            .add_pool(t(0), t(1), to_raw(90.0), to_raw(210.0), FeeRate::UNISWAP_V2)
            .unwrap();
        bot.step(&mut chain, &paper_feed()).unwrap();
        let stats = bot.stream_stats().unwrap();
        assert_eq!(stats.pools_added, 1);
        assert!(stats.cycles_added > 0, "{stats}");
        let runtime = bot.runtime_stats().unwrap();
        assert_eq!((runtime.broadcasts, runtime.rebuilds), (1, 0), "{runtime}");
    }

    #[test]
    fn pipeline_reflects_config() {
        let maxmax = pipeline_for(&BotConfig::default());
        assert_eq!(maxmax.strategy_names(), vec!["maxmax"]);
        let convex = pipeline_for(&BotConfig {
            strategy: StrategyChoice::Convex,
            max_loop_len: 4,
            ..BotConfig::default()
        });
        assert_eq!(convex.strategy_names(), vec!["convex"]);
        assert_eq!(convex.config().max_cycle_len, 4);
    }
}
