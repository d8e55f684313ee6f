//! A deterministic end-to-end market simulation.
//!
//! Wires every substrate together: a synthetic snapshot seeds the chain's
//! pools and the CEX's reference prices; noise traders and LPs perturb
//! reserves each block; the CEX drifts; the bot scans, sizes (MaxMax or
//! Convex), and executes flash bundles; a ledger tracks monetized PnL.
//! Examples, integration tests, and benches all drive this harness.

use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_cex::venue::{Exchange, MarketConfig};
use arb_core::monetize::Usd;
use arb_dexsim::agents::{LiquidityAgent, RandomTrader};
use arb_dexsim::chain::Chain;
use arb_dexsim::units::to_raw;
use arb_snapshot::{Generator, SnapshotConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bot::{ArbBot, BotAction};
use crate::config::BotConfig;
use crate::error::BotError;
use crate::pnl::Ledger;

/// Market simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct MarketSimConfig {
    /// RNG seed shared by all stochastic components.
    pub seed: u64,
    /// Token universe size.
    pub num_tokens: usize,
    /// Pool count (post-filter, as in the snapshot generator).
    pub num_pools: usize,
    /// Initial pool mispricing (see [`SnapshotConfig::mispricing_std`]).
    pub mispricing_std: f64,
    /// Per-pool probability that the noise trader acts each block.
    pub trader_probability: f64,
    /// Noise trade size as a fraction of the input reserve.
    pub trader_max_fraction: f64,
    /// Per-pool probability that the LP agent acts each block.
    pub lp_probability: f64,
    /// LP deposit size as a fraction of reserves.
    pub lp_fraction: f64,
    /// CEX reference-price volatility per block.
    pub cex_volatility: f64,
    /// Bot configuration.
    pub bot: BotConfig,
}

impl Default for MarketSimConfig {
    fn default() -> Self {
        MarketSimConfig {
            seed: 42,
            num_tokens: 8,
            num_pools: 14,
            mispricing_std: 0.006,
            trader_probability: 0.3,
            trader_max_fraction: 0.02,
            lp_probability: 0.05,
            lp_fraction: 0.05,
            cex_volatility: 0.001,
            bot: BotConfig {
                min_profit_usd: 0.5,
                ..BotConfig::default()
            },
        }
    }
}

impl MarketSimConfig {
    /// A sim config reproducing a catalog workload's shape through the
    /// chain's own agents: the workload's [`arb_workloads::SimProfile`]
    /// sets the trader/LP/CEX intensities, everything else keeps the
    /// defaults. The same named scenarios that drive the engine benches
    /// therefore also drive full chain-execution runs.
    pub fn from_workload(spec: &arb_workloads::WorkloadSpec, bot: BotConfig) -> Self {
        let profile = spec.sim_profile();
        MarketSimConfig {
            mispricing_std: profile.mispricing_std,
            trader_probability: profile.trader_probability,
            trader_max_fraction: profile.trader_max_fraction,
            lp_probability: profile.lp_probability,
            lp_fraction: profile.lp_fraction,
            cex_volatility: profile.cex_volatility,
            bot,
            ..MarketSimConfig::default()
        }
    }
}

/// Summary of one simulation step (two chain blocks: agents, then bot).
#[derive(Debug, Clone)]
pub struct StepSummary {
    /// Chain height after the step.
    pub height: u64,
    /// What the bot did.
    pub action: BotAction,
    /// Bot PnL after the step.
    pub pnl: Usd,
}

/// The assembled market.
#[derive(Debug)]
pub struct MarketSim {
    chain: Chain,
    bot: ArbBot,
    trader: RandomTrader,
    lp: LiquidityAgent,
    exchange: Exchange,
    ledger: Ledger,
    rng: StdRng,
    tokens: Vec<TokenId>,
}

impl MarketSim {
    /// Builds a market from a config: generates a filtered snapshot, seeds
    /// the chain pools and the CEX markets from it, and registers agents.
    ///
    /// # Errors
    ///
    /// Forwards snapshot-generation and chain-setup failures.
    pub fn new(config: MarketSimConfig) -> Result<Self, BotError> {
        let snapshot_cfg = SnapshotConfig {
            seed: config.seed,
            num_tokens: config.num_tokens,
            num_pools: config.num_pools,
            mispricing_std: config.mispricing_std,
            ..SnapshotConfig::default()
        };
        let snapshot = Generator::new(snapshot_cfg).generate()?;
        let filtered = snapshot.filtered(&snapshot_cfg);

        let mut chain = Chain::new();
        for pool in filtered.pools() {
            chain.add_pool(
                pool.token_a(),
                pool.token_b(),
                to_raw(pool.reserve_a()),
                to_raw(pool.reserve_b()),
                pool.fee(),
            )?;
        }

        let mut exchange = Exchange::new("sim-cex");
        let tokens: Vec<TokenId> = (0..filtered.token_count() as u32)
            .map(TokenId::new)
            .collect();
        for token in &tokens {
            let price = filtered.usd_price(*token).expect("token in snapshot");
            exchange.add_market(
                *token,
                MarketConfig {
                    volatility: config.cex_volatility,
                    ..MarketConfig::new(price)
                },
            );
        }

        let bot = ArbBot::new(&mut chain, config.bot);
        let trader = RandomTrader::new(
            &mut chain,
            config.trader_probability,
            config.trader_max_fraction,
        );
        let lp = LiquidityAgent::new(&mut chain, config.lp_probability, config.lp_fraction);

        Ok(MarketSim {
            chain,
            bot,
            trader,
            lp,
            exchange,
            ledger: Ledger::new(),
            rng: StdRng::seed_from_u64(config.seed ^ 0x00c0_ffee),
            tokens,
        })
    }

    /// One step: agents trade (block N), CEX ticks, the bot scans the
    /// settled state and executes (block N+1), PnL is observed.
    ///
    /// # Errors
    ///
    /// Forwards bot scan/evaluation failures.
    pub fn step(&mut self) -> Result<StepSummary, BotError> {
        self.trader.act(&mut self.chain, &mut self.rng);
        self.lp.act(&mut self.chain, &mut self.rng);
        self.chain.mine_block();

        self.exchange.tick(&mut self.rng);
        let feed = self.exchange.price_table();

        let action = self.bot.step(&mut self.chain, &feed)?;
        self.chain.mine_block();

        let point = self.ledger.observe(
            &self.chain,
            self.bot.account(),
            self.tokens.iter().copied(),
            &feed,
        );
        Ok(StepSummary {
            height: self.chain.height(),
            action,
            pnl: point.value,
        })
    }

    /// Runs `n` steps.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step.
    pub fn run_blocks(&mut self, n: usize) -> Result<Vec<StepSummary>, BotError> {
        (0..n).map(|_| self.step()).collect()
    }

    /// The chain (for inspection).
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The bot.
    pub fn bot(&self) -> &ArbBot {
        &self.bot
    }

    /// The CEX price table right now.
    pub fn price_table(&self) -> PriceTable {
        self.exchange.price_table()
    }

    /// The PnL ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Latest bot PnL (zero before the first step).
    pub fn bot_pnl(&self) -> Usd {
        self.ledger.latest().map_or(Usd::ZERO, |p| p.value)
    }

    /// The token universe.
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyChoice;

    #[test]
    fn bot_token_balances_never_decrease() {
        // Flash bundles are risk-free: the bot can only gain tokens.
        let mut sim = MarketSim::new(MarketSimConfig::default()).unwrap();
        let tokens = sim.tokens().to_vec();
        let mut previous: Vec<u128> = tokens
            .iter()
            .map(|t| sim.chain().state().balance(sim.bot().account(), *t))
            .collect();
        for _ in 0..15 {
            sim.step().unwrap();
            let current: Vec<u128> = tokens
                .iter()
                .map(|t| sim.chain().state().balance(sim.bot().account(), *t))
                .collect();
            for (before, after) in previous.iter().zip(&current) {
                assert!(after >= before, "bot balance decreased");
            }
            previous = current;
        }
    }

    #[test]
    fn bot_eventually_profits_in_noisy_market() {
        let mut sim = MarketSim::new(MarketSimConfig {
            trader_max_fraction: 0.05,
            ..MarketSimConfig::default()
        })
        .unwrap();
        let summaries = sim.run_blocks(25).unwrap();
        let executed = summaries
            .iter()
            .filter(|s| matches!(s.action, BotAction::Submitted { .. }))
            .count();
        assert!(executed > 0, "noise flow should open opportunities");
        assert!(sim.bot_pnl().value() > 0.0, "pnl = {}", sim.bot_pnl());
    }

    #[test]
    fn convex_bot_runs_end_to_end() {
        let mut sim = MarketSim::new(MarketSimConfig {
            bot: BotConfig {
                strategy: StrategyChoice::Convex,
                min_profit_usd: 0.5,
                ..BotConfig::default()
            },
            ..MarketSimConfig::default()
        })
        .unwrap();
        sim.run_blocks(10).unwrap();
        assert!(sim.bot_pnl().value() >= 0.0);
    }

    #[test]
    fn workload_profiles_drive_the_sim() {
        // Every catalog workload must map onto a runnable market sim, and
        // the sharded bot must survive whichever shape it gets.
        for spec in arb_workloads::catalog() {
            let config = MarketSimConfig::from_workload(
                spec,
                BotConfig {
                    min_profit_usd: 0.5,
                    ..BotConfig::default()
                },
            );
            assert_eq!(
                config.trader_probability,
                spec.sim_profile().trader_probability
            );
            let mut sim = MarketSim::new(config).expect(spec.name);
            sim.run_blocks(4).expect(spec.name);
            assert!(sim.bot_pnl().value() >= 0.0, "{}", spec.name);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed: u64| {
            let mut sim = MarketSim::new(MarketSimConfig {
                seed,
                ..MarketSimConfig::default()
            })
            .unwrap();
            sim.run_blocks(8).unwrap();
            (
                sim.chain().state().digest(),
                sim.bot_pnl().value().to_bits(),
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
