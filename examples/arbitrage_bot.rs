//! A live arbitrage bot on the simulated market.
//!
//! Noise traders and liquidity providers push pools out of line each
//! block; a CEX drifts token prices; the bot consumes the chain's
//! `Sync`/`Swap` event stream, routes the deltas to the sharded
//! runtime's per-component engines (each a persistent graph + cycle
//! index), re-evaluates only the loops each block touched, and executes
//! atomically via flash bundles. Its PnL can only grow —
//! bundles revert unless they settle non-negative.
//!
//! ```text
//! cargo run --release --example arbitrage_bot
//! ```

use arbloops::bot::bot::BotAction;
use arbloops::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = MarketSim::new(MarketSimConfig {
        seed: 1234,
        num_tokens: 12,
        num_pools: 24,
        trader_max_fraction: 0.04,
        bot: BotConfig {
            strategy: StrategyChoice::MaxMax,
            min_profit_usd: 0.25,
            ..BotConfig::default()
        },
        ..MarketSimConfig::default()
    })?;

    println!("block | action                              | cumulative PnL");
    println!("------+-------------------------------------+---------------");
    let mut executed = 0usize;
    for _ in 0..40 {
        let summary = sim.step()?;
        let action = match summary.action {
            BotAction::Idle => "idle".to_string(),
            BotAction::Submitted { expected, hops } => {
                executed += 1;
                format!("flash bundle, {hops} hops, expect {expected}")
            }
        };
        println!("{:>5} | {:<35} | {}", summary.height, action, summary.pnl);
    }

    println!("\nbundles executed: {executed}");
    println!("final bot PnL: {}", sim.bot_pnl());
    if let Some(stats) = sim.bot().stream_stats() {
        println!("streaming: {stats}");
    }
    let holdings = arbloops::bot::pnl::Ledger::holdings(
        sim.chain(),
        sim.bot().account(),
        sim.tokens().iter().copied(),
    );
    println!("holdings ({} tokens):", holdings.len());
    for (token, amount) in holdings {
        println!("  {token}: {amount:.4}");
    }
    Ok(())
}
