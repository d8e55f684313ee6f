//! An end-to-end arbitrage bot over the simulated chain.
//!
//! This crate closes the loop the paper describes: every block, scan DEX
//! state for arbitrage loops, evaluate the profit-maximization strategies,
//! and execute the best plan atomically via a flash bundle. It glues every
//! substrate together:
//!
//! ```text
//! dexsim state ──▶ arb-engine pipeline (graph → cycles → strategies)
//!      ▲                                            │
//!      └────────── flash bundle execution ◀─────────┘
//!                        (pnl ledger)
//! ```
//!
//! * [`scanner`] — chain state → token graph → engine discovery run;
//! * [`execution`] — engine opportunity → integer-exact flash bundle;
//! * [`bot`] — the in-memory bot: the per-block policy over ranked
//!   engine opportunities;
//! * [`ingest_bot`] — the durable bot: chain events *and* CEX price
//!   moves multiplexed, journaled, and coalesced via `arb-ingest`, with
//!   periodic checkpoints, feed-free crash recovery, and panic
//!   supervision (rebuild from the journal and retry, bounded by a
//!   recovery budget);
//! * [`pnl`] — balance accounting and monetized PnL series;
//! * [`sim`] — a deterministic market harness (noise traders + LPs + CEX
//!   price drift + the bot) used by examples, tests, and benches.
//!
//! # Quickstart
//!
//! ```
//! use arb_bot::sim::{MarketSim, MarketSimConfig};
//!
//! let mut sim = MarketSim::new(MarketSimConfig {
//!     num_tokens: 5,
//!     num_pools: 8,
//!     seed: 7,
//!     ..MarketSimConfig::default()
//! }).unwrap();
//! sim.run_blocks(20).unwrap();
//! // Flash-bundle atomicity makes the bot risk-free: token balances
//! // never decrease.
//! assert!(sim.bot_pnl().value() >= 0.0);
//! ```

pub mod bot;
pub mod config;
pub mod error;
pub mod execution;
pub mod ingest_bot;
pub mod obs;
pub mod pnl;
pub mod scanner;
pub mod sim;

pub use bot::{pipeline_for, ArbBot, BotAction, ServeTelemetry};
pub use config::{BotConfig, StrategyChoice};
pub use error::BotError;
pub use ingest_bot::{IngestBot, JournalSettings};
pub use obs::{ExportSink, ObsConfig};
