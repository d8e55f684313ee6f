//! Bot configuration.

use arb_convex::SolverOptions;
use arb_core::traditional::Method;

/// Which strategy the bot uses to size its trades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyChoice {
    /// MaxMax: fast per-rotation closed forms (default — the paper's
    /// timing discussion favors it within one block interval).
    #[default]
    MaxMax,
    /// ConvexOptimization: highest theoretical profit, slower.
    Convex,
}

/// How the bot keeps its market view current between blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Event-driven (default): the bot subscribes to the chain's event
    /// stream, applies reserve deltas to a persistent graph + cycle
    /// index, and re-evaluates only the cycles each block touched. The
    /// first step (and any stream desync) falls back to a full batch
    /// scan and re-synchronizes.
    #[default]
    Streaming,
    /// Event-driven across a fleet: the pool universe is partitioned
    /// along connected components into [`BotConfig::shards`] shards, one
    /// streaming engine each on a worker pool, with per-shard rankings
    /// merged into the same global order streaming mode produces.
    /// Fallback behavior matches [`ScanMode::Streaming`].
    Sharded,
    /// Rebuild the graph and re-enumerate every cycle from chain state
    /// on every step — the original full-rescan behavior.
    Batch,
}

/// Bot tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct BotConfig {
    /// Scan loop flavor: incremental event-driven or full per-block
    /// rescan.
    pub mode: ScanMode,
    /// Longest loop length scanned (the paper studies 3 and 4).
    pub max_loop_len: usize,
    /// Ignore opportunities below this monetized profit (gas floor).
    pub min_profit_usd: f64,
    /// Strategy used for sizing.
    pub strategy: StrategyChoice,
    /// 1-D optimizer for MaxMax.
    pub method: Method,
    /// Solver options for Convex.
    pub convex: SolverOptions,
    /// Shard-count cap for [`ScanMode::Sharded`] (the realized count is
    /// bounded by the universe's connected components). Ignored in the
    /// other modes.
    pub shards: usize,
}

impl Default for BotConfig {
    fn default() -> Self {
        BotConfig {
            mode: ScanMode::Streaming,
            max_loop_len: 3,
            min_profit_usd: 1.0,
            strategy: StrategyChoice::MaxMax,
            method: Method::ClosedForm,
            convex: SolverOptions::default(),
            shards: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BotConfig::default();
        assert_eq!(c.mode, ScanMode::Streaming);
        assert_eq!(c.max_loop_len, 3);
        assert!(c.min_profit_usd > 0.0);
        assert_eq!(c.strategy, StrategyChoice::MaxMax);
        assert!(c.shards >= 1);
    }
}
