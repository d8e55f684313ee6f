//! The unified arbitrage engine: discovery → evaluation → ranking.
//!
//! Every consumer of arbitrage opportunities in this workspace — the bot,
//! the examples, the benches — used to hand-roll the same loop: build a
//! [`arb_graph::TokenGraph`], enumerate cycles, assemble
//! [`arb_core::ArbLoop`]s, resolve prices, evaluate strategies, pick the
//! best. This crate is that loop, once:
//!
//! ```text
//! pools/snapshot ──▶ TokenGraph ──▶ bounded cycle enumeration
//!        │                                   │
//!   price feed ──────▶ per-cycle Strategy evaluation (parallel)
//!                                            │
//!                        ranking policy ──▶ Vec<ArbitrageOpportunity>
//! ```
//!
//! * [`pipeline::OpportunityPipeline`] — the batch engine: configured once
//!   with a strategy set ([`arb_core::Strategy`] trait objects), a
//!   [`ranking::RankingPolicy`], and a [`pipeline::PipelineConfig`]; each
//!   run is a pure function of the market state passed in.
//! * [`streaming::StreamingEngine`] — the incremental engine: owns a
//!   graph + persistent cycle index, consumes chain event batches, and
//!   re-evaluates only the cycles the events touched while keeping a
//!   standing ranked opportunity set identical to a fresh batch run.
//! * [`runtime::ShardedRuntime`] — the incremental market view every
//!   live consumer steps: partitions the universe once along connected
//!   components (repartitioning only when a new pool bridges two
//!   shards), runs one streaming engine per shard on a worker pool,
//!   routes events to their owning shard, and k-way merges the
//!   per-shard rankings into one global set that is bit-identical to a
//!   single engine over the same stream. One shard is the plain
//!   streaming engine.
//! * [`opportunity::ArbitrageOpportunity`] — the uniform result: cycle,
//!   winning strategy, per-hop optimal inputs, gross/net monetized profit.
//! * [`ranking`] — pluggable execution-priority policies.
//!
//! # Quickstart
//!
//! ```
//! use arb_amm::{fee::FeeRate, pool::Pool, token::TokenId};
//! use arb_cex::feed::PriceTable;
//! use arb_engine::{OpportunityPipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), arb_engine::EngineError> {
//! let t = TokenId::new;
//! let fee = FeeRate::UNISWAP_V2;
//! let pools = vec![
//!     Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
//!     Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
//!     Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
//! ];
//! let feed: PriceTable = [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
//!     .into_iter()
//!     .collect();
//! let report = OpportunityPipeline::new(PipelineConfig::default()).run(pools, &feed)?;
//! let best = report.best().expect("the paper's triangle is profitable");
//! assert!(best.gross_profit.value() > 200.0);
//! # Ok(())
//! # }
//! ```

mod bounds;
pub mod checkpoint;
mod dirty;
pub mod error;
pub mod opportunity;
pub mod pipeline;
pub mod ranking;
pub mod runtime;
mod scratch;
pub mod streaming;

pub use checkpoint::{EngineCheckpoint, PoolSlot, RuntimeCheckpoint};
pub use error::EngineError;
pub use opportunity::ArbitrageOpportunity;
pub use pipeline::{
    OpportunityPipeline, PipelineConfig, PipelineReport, PipelineStats, SharedStrategy,
    SnapshotPrices,
};
pub use ranking::{RankByGrossProfit, RankByNetProfit, RankByProfitPerHop, RankingPolicy};
pub use runtime::{
    RuntimeReport, RuntimeStats, ScreenTotals, ShardLoads, ShardedRuntime, TickHook,
};
pub use streaming::{StreamReport, StreamStats, StreamingEngine};
