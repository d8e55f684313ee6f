//! The three benchmark workloads and what each one is for.

use std::sync::Arc;

use arb_bot::{pipeline_for, BotConfig, StrategyChoice};
use arb_core::{ConvexOptimization, MaxMax};
use arb_engine::{OpportunityPipeline, PipelineConfig, SharedStrategy};
use arb_workloads::{find, QueryOp, ReadStormProfile, Scenario, ScenarioConfig};

/// One named workload: a catalog scenario at a fixed size, the pipeline
/// the runtime evaluates it with, and the open-loop arrival rates.
#[derive(Debug)]
pub struct Workload {
    /// The name the benchmark is invoked with.
    pub name: &'static str,
    /// The `arb-workloads` catalog entry the block stream comes from.
    catalog: &'static str,
    pools: usize,
    intensity: f64,
    /// Blocks sealed per second, whether or not the consumer keeps up.
    /// Each rate sits at roughly a third to a half of the consumer's
    /// measured capacity on a 2-core host, so queueing shows in the
    /// tail without the backlog growing for the whole run.
    pub blocks_per_s: f64,
    /// Governed reads issued per second by the one reader thread.
    pub reads_per_s: f64,
    bot_pipeline: bool,
    /// Fresh markets per run. Work per block depends on the seeded
    /// universe's cycle structure, so one run streams several universes
    /// in turn, each from its own cold start, and pools their samples.
    pub episodes: usize,
    /// Cold starts timed per episode; `setup_s` is the median of all.
    pub setup_reps: usize,
}

/// Whale bursts move a large slice of a 3000-pool universe in one
/// block, so ConvexOpt dominates heavy ticks: the strategy, screen and
/// convex layers show here and ingest is a small share.
const WHALE: Workload = Workload {
    name: "whale-3k",
    catalog: "whale-bursts",
    pools: 3000,
    intensity: 1.0,
    blocks_per_s: 20.0,
    reads_per_s: 200.0,
    bot_pipeline: false,
    episodes: 9,
    setup_reps: 2,
};

/// Floods of drained and revived pools through the bot's MaxMax-only
/// pipeline: ingest, journal seal + fsync and retire/revive bookkeeping
/// carry the work and ConvexOpt never runs (the bypass workload for a
/// ConvexOpt change).
const FLOOD: Workload = Workload {
    name: "flood-bot",
    catalog: "degenerate-flood",
    pools: 600,
    intensity: 4.0,
    blocks_per_s: 200.0,
    reads_per_s: 200.0,
    bot_pipeline: true,
    episodes: 9,
    setup_reps: 3,
};

/// Small sparse ticks with a reader beside the writer: per-tick fan-out,
/// merge and publish overheads, and read latency under concurrent
/// publishing.
const STEADY: Workload = Workload {
    name: "steady-read",
    catalog: "steady-sparse",
    pools: 600,
    intensity: 1.0,
    blocks_per_s: 60.0,
    reads_per_s: 1000.0,
    bot_pipeline: false,
    episodes: 9,
    setup_reps: 3,
};

/// Every workload, in the order the benchmark documents them.
pub const ALL: [&Workload; 3] = [&WHALE, &FLOOD, &STEADY];

impl Workload {
    /// Looks a workload up by its benchmark name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// Shard count of the production bot.
    pub fn shards(&self) -> usize {
        BotConfig::default().shards
    }

    /// Blocks per episode in a run of `seconds`.
    pub fn episode_blocks(&self, seconds: u64) -> usize {
        ((self.blocks_per_s * seconds as f64 / self.episodes as f64).round() as usize).max(1)
    }

    /// Reads per episode in a run of `seconds`.
    pub fn episode_reads(&self, seconds: u64) -> usize {
        (self.reads_per_s * seconds as f64 / self.episodes as f64).round() as usize
    }

    /// The scenario seed of episode `episode` in the run seeded `seed`;
    /// distinct run seeds never share an episode.
    pub fn episode_seed(&self, seed: u64, episode: usize) -> u64 {
        seed.wrapping_mul(self.episodes as u64)
            .wrapping_add(episode as u64)
    }

    /// The pipeline the runtime (and its oracle) evaluate with.
    pub fn pipeline(&self) -> OpportunityPipeline {
        if self.bot_pipeline {
            pipeline_for(&BotConfig::default())
        } else {
            OpportunityPipeline::new(PipelineConfig::default())
        }
    }

    /// The strategies of [`Workload::pipeline`], in its evaluation order,
    /// for the traced run to wrap.
    pub fn strategies(&self) -> Vec<SharedStrategy> {
        if self.bot_pipeline {
            let config = BotConfig::default();
            vec![match config.strategy {
                StrategyChoice::MaxMax => Arc::new(MaxMax {
                    method: config.method,
                }),
                StrategyChoice::Convex => Arc::new(ConvexOptimization {
                    options: config.convex,
                }),
            }]
        } else {
            vec![
                Arc::new(MaxMax::default()),
                Arc::new(ConvexOptimization::default()),
            ]
        }
    }

    /// The seeded block stream: `blocks` ticks of the catalog scenario.
    pub fn scenario(&self, seed: u64, blocks: usize) -> Result<Scenario, String> {
        let spec = find(self.catalog).ok_or_else(|| format!("{} not in catalog", self.catalog))?;
        spec.scenario(&ScenarioConfig {
            seed,
            ticks: blocks,
            intensity: self.intensity,
            ..ScenarioConfig::sized(self.pools)
        })
        .map_err(|e| format!("{}: scenario: {e}", self.name))
    }

    /// The reader's query cycle: one interactive-class plan from the
    /// read-storm profile, drawn over the scenario's initial universe.
    pub fn read_plan(&self, seed: u64, scenario: &Scenario) -> Vec<QueryOp> {
        let tokens = scenario
            .pools
            .iter()
            .flat_map(|p| [p.token_a().index(), p.token_b().index()])
            .max()
            .map_or(0, |max| max + 1);
        let profile = ReadStormProfile {
            seed: seed ^ 0x7ead_5eed,
            readers: 1,
            ..ReadStormProfile::default()
        };
        let plan = profile.plans(tokens, scenario.pools.len()).remove(0);
        debug_assert_eq!(plan.class_index, 0, "reader 0 is interactive");
        plan.ops
    }
}
