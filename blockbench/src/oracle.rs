//! The correctness gates: a direct `ShardedRuntime` replay of the same
//! block stream, the per-block decision digest, and brute-force answers
//! to reader queries.

use arb_engine::{ArbitrageOpportunity, RuntimeReport, ShardedRuntime};
use arb_serve::RankedSnapshot;
use arb_workloads::{QueryOp, Scenario};

use crate::workload::Workload;

/// FNV-1a over each block's decision: the top-1 cycle's pools, its
/// strategy and its net-profit bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Continues a digest from an earlier [`Digest::value`] (or from 0,
    /// for a digest of digests).
    pub fn resume(value: u64) -> Self {
        Digest(value)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one block's ranking in.
    pub fn block(&mut self, ranked: &[ArbitrageOpportunity]) {
        match ranked.first() {
            None => self.eat(&[0]),
            Some(top) => {
                self.eat(&[1]);
                for pool in top.cycle.pools() {
                    self.eat(&(pool.index() as u32).to_le_bytes());
                }
                self.eat(top.strategy.as_bytes());
                self.eat(&top.net_profit.value().to_bits().to_le_bytes());
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// What the direct replay decided.
#[derive(Debug)]
pub struct Oracle {
    /// The ranking after the last block that applied.
    pub final_ranking: Vec<ArbitrageOpportunity>,
    pub digest: u64,
    /// The block whose apply failed, with the engine's error. A runtime
    /// that failed an apply is desynchronized, so the replay stops there.
    pub failed_at: Option<(usize, String)>,
}

/// Replays the stream straight into a `ShardedRuntime`: feed moves
/// first, then the block's events, one `apply_events` per block.
pub fn replay(workload: &Workload, scenario: &Scenario) -> Result<Oracle, String> {
    let mut feed = scenario.feed.clone();
    let mut runtime = ShardedRuntime::new(
        workload.pipeline(),
        scenario.pools.clone(),
        workload.shards(),
    )
    .map_err(|e| format!("oracle runtime: {e}"))?;
    let mut report: RuntimeReport = runtime
        .refresh(&feed)
        .map_err(|e| format!("oracle cold start: {e}"))?;
    let mut digest = Digest::default();
    let mut failed_at = None;
    for (block, batch) in scenario.ticks.iter().enumerate() {
        batch.apply_feed(&mut feed);
        match runtime.apply_events(&batch.events, &feed) {
            Ok(next) => report = next,
            Err(e) => {
                failed_at = Some((block, e.to_string()));
                break;
            }
        }
        digest.block(&report.opportunities);
    }
    Ok(Oracle {
        final_ranking: report.opportunities,
        digest: digest.value(),
        failed_at,
    })
}

/// Bit-exact ranking comparison: cycle pools, strategy and net-profit
/// bits at every position.
pub fn compare_rankings(
    leg: &str,
    got: &[ArbitrageOpportunity],
    expected: &[ArbitrageOpportunity],
) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{leg}: {} opportunities published, oracle has {}",
            got.len(),
            expected.len()
        ));
    }
    for (position, (g, e)) in got.iter().zip(expected).enumerate() {
        if g.cycle.pools() != e.cycle.pools()
            || g.strategy != e.strategy
            || g.net_profit.value().to_bits() != e.net_profit.value().to_bits()
        {
            return Err(format!(
                "{leg}: ranking differs from the oracle at #{position}"
            ));
        }
    }
    Ok(())
}

/// The entry count of one query, read through the snapshot's indexes —
/// the work a reader does per query.
pub fn query_len(snapshot: &RankedSnapshot, op: QueryOp) -> usize {
    match op {
        QueryOp::TopK(k) => snapshot.top_k(k).len(),
        QueryOp::ByToken(token) => snapshot.by_token(token).count(),
        QueryOp::ByPool(pool) => snapshot.by_pool(pool).count(),
        QueryOp::MinNetProfit(floor) => snapshot.min_net_profit(floor).count(),
    }
}

/// Checks one query's indexed answer against a scan of the entries.
pub fn check_query(snapshot: &RankedSnapshot, op: QueryOp) -> Result<(), String> {
    let entries = snapshot.entries();
    let (indexed, mut scanned): (Vec<&ArbitrageOpportunity>, Vec<&ArbitrageOpportunity>) = match op
    {
        QueryOp::TopK(k) => (
            snapshot.top_k(k).iter().collect(),
            entries.iter().take(k).collect(),
        ),
        QueryOp::ByToken(token) => (
            snapshot.by_token(token).collect(),
            entries
                .iter()
                .filter(|o| o.cycle.tokens().contains(&token))
                .collect(),
        ),
        QueryOp::ByPool(pool) => (
            snapshot.by_pool(pool).collect(),
            entries
                .iter()
                .filter(|o| o.cycle.pools().contains(&pool))
                .collect(),
        ),
        QueryOp::MinNetProfit(floor) => (
            snapshot.min_net_profit(floor).collect(),
            entries
                .iter()
                .filter(|o| o.net_profit.value() >= floor)
                .collect(),
        ),
    };
    if let QueryOp::MinNetProfit(_) = op {
        // Descending net profit; the stable sort keeps rank order on ties.
        scanned.sort_by(|a, b| b.net_profit.value().total_cmp(&a.net_profit.value()));
    }
    let same = indexed.len() == scanned.len()
        && indexed
            .iter()
            .zip(&scanned)
            .all(|(a, b)| std::ptr::eq(*a, *b));
    if same {
        Ok(())
    } else {
        Err(format!(
            "read {op:?} at revision {}: {} indexed entries, {} by scan",
            snapshot.revision(),
            indexed.len(),
            scanned.len()
        ))
    }
}
