//! The observability layer's correctness oracle: instrumentation must
//! be a pure observer.
//!
//! Two runs of the same seeded scenario — one with `arb-obs` wired in,
//! one without — must make bit-identical decisions and report identical
//! stats. And the instrumented run's exported snapshot
//! (`metrics_snapshot()`) must reproduce the `StreamStats` /
//! `IngestStats` displays counter for counter: the structs are the only
//! copy of those counters, and the snapshot reads them.

use arbloops::bot::BotAction;
use arbloops::prelude::*;

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

/// One whale-perturbed block: deterministic swap, mine, decide, mine.
/// Returns the decision reduced to comparable bits.
fn perturb_and_mine(chain: &mut Chain, whale: AccountId, block: usize) {
    chain.submit(Transaction::Swap {
        account: whale,
        pool: PoolId::new(0),
        token_in: t(0),
        amount_in: to_raw(2.0 + block as f64),
        min_out: 0,
    });
    chain.mine_block();
}

type AccountId = arbloops::dexsim::state::AccountId;

fn action_bits(action: &BotAction) -> Option<(u64, usize)> {
    match action {
        BotAction::Idle => None,
        BotAction::Submitted { expected, hops } => Some((expected.value().to_bits(), *hops)),
    }
}

const BLOCKS: usize = 8;

/// Asserts every `engine.*` counter in `snapshot` equals its
/// `StreamStats` source field.
fn assert_stream_stats_mirrored(snapshot: &RegistrySnapshot, stats: &StreamStats) {
    let expected: [(&str, usize); 20] = [
        ("engine.events_applied", stats.events_applied),
        ("engine.syncs_applied", stats.syncs_applied),
        ("engine.pools_added", stats.pools_added),
        ("engine.pools_retired", stats.pools_retired),
        ("engine.pools_revived", stats.pools_revived),
        ("engine.cycles_added", stats.cycles_added),
        ("engine.cycles_retired", stats.cycles_retired),
        ("engine.cycles_dirtied", stats.cycles_dirtied),
        ("engine.cycles_evaluated", stats.cycles_evaluated),
        ("engine.strategy_evaluations", stats.strategy_evaluations),
        ("engine.evaluations_saved", stats.evaluations_saved),
        ("engine.refreshes", stats.refreshes),
        ("engine.cycles_screened_out", stats.cycles_screened_out),
        ("engine.cycles_floor_screened", stats.cycles_floor_screened),
        ("engine.cycles_hop_screened", stats.cycles_hop_screened),
        (
            "engine.cycles_degenerate_skipped",
            stats.cycles_degenerate_skipped,
        ),
        ("engine.screen_delta_updates", stats.screen_delta_updates),
        ("engine.screen_resummations", stats.screen_resummations),
        ("engine.scratch_grow_events", stats.scratch_grow_events),
        ("engine.dirty_bitset_capacity", stats.dirty_bitset_capacity),
    ];
    for (metric, legacy) in expected {
        assert_eq!(
            snapshot.counter(metric),
            Some(legacy as u64),
            "{metric} diverged from StreamStats"
        );
    }
}

#[test]
fn streaming_bot_registry_reproduces_stream_stats_without_perturbing_decisions() {
    let config = BotConfig::default();
    let feed = paper_feed();

    let run = |instrument: bool| {
        let mut chain = paper_chain();
        let whale = chain.create_account();
        chain.mint(whale, t(0), to_raw(1_000.0));
        let mut bot = ArbBot::new(&mut chain, config);
        if instrument {
            bot.enable_observability(ObsConfig::default());
        }
        let mut actions = Vec::new();
        for block in 0..BLOCKS {
            perturb_and_mine(&mut chain, whale, block);
            let action = bot.step(&mut chain, &feed).unwrap();
            actions.push(action_bits(&action));
            chain.mine_block();
        }
        let stats = bot.stream_stats().expect("the market view ran");
        let snapshot = bot.metrics_snapshot();
        let metrics = bot.metrics();
        (actions, stats, snapshot, metrics)
    };

    let (plain_actions, plain_stats, none_snapshot, none_metrics) = run(false);
    assert!(none_snapshot.is_none() && none_metrics.is_none());
    let (obs_actions, obs_stats, snapshot, metrics) = run(true);

    // The observer observed: decisions and legacy stats are untouched.
    assert_eq!(
        plain_actions, obs_actions,
        "instrumentation changed decisions"
    );
    assert_eq!(
        plain_stats, obs_stats,
        "instrumentation changed StreamStats"
    );
    assert!(
        obs_stats.events_applied > 0,
        "scenario exercised the engine"
    );
    assert!(obs_stats.strategy_evaluations > 0);

    // One exported snapshot reproduces the legacy display.
    let snapshot = snapshot.unwrap();
    assert_stream_stats_mirrored(&snapshot, &obs_stats);
    assert_eq!(
        snapshot.histogram("engine.refresh.eval_ns").unwrap().count,
        obs_stats.refreshes as u64,
        "one refresh span per refresh pass"
    );
    assert_eq!(snapshot.counter("bot.steps"), Some(BLOCKS as u64));

    // And the pull surface renders the same numbers.
    let metrics = metrics.unwrap();
    assert!(metrics.contains(&format!(
        "engine_events_applied {}\n",
        obs_stats.events_applied
    )));
    assert!(metrics.contains(&format!("bot_steps {BLOCKS}\n")));
}

#[test]
fn ingest_bot_registry_reproduces_ingest_stats_without_perturbing_decisions() {
    let run = |instrument: bool, scratch: &TempDir| {
        let mut chain = paper_chain();
        let whale = chain.create_account();
        chain.mint(whale, t(0), to_raw(1_000.0));
        let mut bot = IngestBot::attach(
            &mut chain,
            &paper_feed(),
            BotConfig::default(),
            JournalSettings::new(scratch.path()),
            IngestConfig::default(),
        )
        .unwrap();
        if instrument {
            bot.enable_observability(ObsConfig {
                // Keep this run's hook out of the process: hooks are
                // global and another test binary owns that behavior.
                panic_dump_dir: Some(scratch.path().join("unused-dump-dir")),
                ..ObsConfig::default()
            });
        }
        let mut actions = Vec::new();
        for block in 0..BLOCKS {
            perturb_and_mine(&mut chain, whale, block);
            let action = bot
                .step(&mut chain, &[(t(1), 10.2 + 0.05 * block as f64)])
                .unwrap();
            actions.push(action_bits(&action));
            chain.mine_block();
        }
        let stats = bot.ingest_stats();
        let batches = bot.driver().batches_applied();
        let snapshot = bot.metrics_snapshot();
        (actions, stats, batches, snapshot)
    };

    let plain_scratch = TempDir::new("obseq-plain").unwrap();
    let obs_scratch = TempDir::new("obseq-obs").unwrap();
    let (plain_actions, plain_stats, plain_batches, _) = run(false, &plain_scratch);
    let (obs_actions, obs_stats, obs_batches, snapshot) = run(true, &obs_scratch);

    assert_eq!(
        plain_actions, obs_actions,
        "instrumentation changed decisions"
    );
    assert_eq!(
        plain_stats, obs_stats,
        "instrumentation changed IngestStats"
    );
    assert_eq!(plain_batches, obs_batches);
    assert!(obs_stats.events_in > 0, "scenario exercised the front-end");

    let snapshot = snapshot.unwrap();
    let expected: [(&str, u64); 7] = [
        ("ingest.events_in", obs_stats.events_in),
        ("ingest.events_out", obs_stats.events_out),
        ("ingest.coalesced_away", obs_stats.coalesced_away),
        ("ingest.batches_sealed", obs_stats.batches_sealed),
        ("ingest.batches_delivered", obs_stats.batches_delivered),
        ("ingest.degraded_merges", obs_stats.degraded_merges),
        ("ingest.depth_high_water", obs_stats.depth_high_water as u64),
    ];
    for (metric, legacy) in expected {
        assert_eq!(
            snapshot.counter(metric),
            Some(legacy),
            "{metric} diverged from IngestStats"
        );
    }
    assert_eq!(
        snapshot.gauge("ingest.coalesce_ratio"),
        Some(obs_stats.coalesce_ratio())
    );
    // Every applied batch timed one apply span and one e2e latency.
    assert_eq!(
        snapshot.histogram("ingest.apply_ns").unwrap().count,
        obs_batches
    );
    assert_eq!(
        snapshot.histogram("ingest.e2e_ns").unwrap().count,
        obs_batches
    );
}
