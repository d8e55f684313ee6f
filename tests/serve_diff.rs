//! Diff-stream reconstruction oracle.
//!
//! A subscriber that attaches mid-run and applies every delta it is
//! pushed must hold, at all times, a ranking bit-identical to the
//! latest published [`RankedSnapshot`] — including across a
//! repartition (a bridge pool merges two shards' components and the
//! fleet is rebuilt from cold) and a checkpoint/restore (the runtime's
//! revision counter restarts, the publisher re-anchors, readers and
//! subscriptions stay attached).

use arbloops::prelude::*;
use arbloops::serve::{apply, GovernorConfig, ServeRuntime, SubscriptionUpdate};
use arbloops::workloads::ScenarioConfig;

type Fingerprint = Vec<(Vec<PoolId>, String, u64)>;

fn fingerprint(entries: &[ArbitrageOpportunity]) -> Fingerprint {
    entries
        .iter()
        .map(|opp| {
            (
                opp.cycle.pools().to_vec(),
                opp.strategy.to_string(),
                opp.net_profit.value().to_bits(),
            )
        })
        .collect()
}

fn config(seed: u64, ticks: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        domains: 4,
        num_tokens: 20,
        num_pools: 40,
        ticks,
        intensity: 1.0,
    }
}

/// Drives one workload through a serving runtime with a mid-run
/// subscriber, applying deltas every tick and checkpoint/restoring at
/// `restore_at`. Returns (repartitions while the subscriber was
/// attached, deltas applied, noop deltas).
fn replay(workload: &'static str, seed: u64, ticks: usize) -> (usize, usize, u64) {
    let spec = arbloops::workloads::find(workload).expect("workload in catalog");
    let scenario = spec
        .scenario(&config(seed, ticks))
        .expect("scenario generates");
    let mut feed = scenario.feed.clone();
    let subscribe_at = scenario.ticks.len() / 4;
    let restore_at = scenario.ticks.len() / 2;

    let runtime = ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
        .expect("runtime");
    let mut serve = ServeRuntime::new(runtime, GovernorConfig::default());
    serve.refresh(&feed).expect("cold start");

    let handle = serve.handle(arbloops::serve::ClientClass::Analytics);
    let mut subscription = None;
    let mut view: Vec<ArbitrageOpportunity> = Vec::new();
    let mut deltas_applied = 0usize;
    // Repartitions while subscribed; a restore restarts the counter.
    let mut rebuilds = 0usize;
    let mut rebuilds_at = 0usize;

    for (tick, batch) in scenario.ticks.iter().enumerate() {
        if tick == subscribe_at {
            // Attach mid-run: the first poll resyncs to the current
            // snapshot, from which deltas alone must suffice.
            let mut sub = serve.subscribe();
            let SubscriptionUpdate::Resync(base) = sub.poll() else {
                panic!("first poll must resync");
            };
            view = base.entries().to_vec();
            subscription = Some(sub);
            rebuilds_at = serve.runtime().stats().rebuilds;
        }
        if tick == restore_at {
            // Checkpoint/restore the compute side; the serving side
            // (cell, handles, subscription) survives the swap.
            let (runtime, publisher) = serve.into_parts();
            rebuilds += runtime.stats().rebuilds - rebuilds_at;
            rebuilds_at = 0;
            let checkpoint = runtime.checkpoint();
            let restored = ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint)
                .expect("restore");
            serve = ServeRuntime::with_publisher(restored, publisher);
        }
        batch.apply_feed(&mut feed);
        serve.apply_events(&batch.events, &feed).expect("tick");

        if let Some(sub) = subscription.as_mut() {
            match sub.poll() {
                SubscriptionUpdate::Current => {}
                SubscriptionUpdate::Deltas(chain) => {
                    for delta in chain {
                        view = apply(&view, &delta).expect("delta applies");
                        deltas_applied += 1;
                    }
                }
                SubscriptionUpdate::Resync(_) => {
                    panic!("{workload} tick {tick}: per-tick polling must never fall behind")
                }
            }
            // The reconstructed view is bit-identical to the latest
            // published snapshot, every tick.
            let published = handle.load();
            assert_eq!(
                fingerprint(&view),
                fingerprint(published.entries()),
                "{workload} tick {tick}: delta reconstruction diverged"
            );
            assert_eq!(sub.seen_revision(), Some(published.revision()));
        }
    }

    rebuilds += serve.runtime().stats().rebuilds - rebuilds_at;
    (rebuilds, deltas_applied, serve.publish_stats().noop_deltas)
}

#[test]
fn deltas_reconstruct_across_rebuild_and_restore() {
    let mut total_rebuilds = 0usize;
    let mut total_deltas = 0usize;
    for (i, spec) in arbloops::workloads::catalog().iter().enumerate() {
        // `pool-churn` runs long enough for its rare cross-domain bridge
        // pools to force repartitions while the subscriber is attached.
        let ticks = if spec.name == "pool-churn" { 96 } else { 24 };
        let (rebuilds, deltas, _noops) = replay(spec.name, 4_242 + i as u64, ticks);
        total_rebuilds += rebuilds;
        total_deltas += deltas;
    }
    assert!(
        total_rebuilds > 0,
        "no workload repartitioned — the across-rebuild claim is vacuous"
    );
    assert!(
        total_deltas > 0,
        "no deltas ever streamed — the reconstruction claim is vacuous"
    );
}

/// The restore must also hold when the subscriber attaches *before* the
/// checkpoint and the ranking is actively changing around it: the
/// publisher re-anchor forces a publish whose delta is usually a noop
/// (the restored fleet reproduces the ranking bit-for-bit).
#[test]
fn restore_publishes_a_noop_delta_when_ranking_is_stable() {
    let spec = arbloops::workloads::find("steady-sparse").expect("in catalog");
    let scenario = spec.scenario(&config(7_777, 24)).expect("scenario");
    let mut feed = scenario.feed.clone();
    let runtime = ShardedRuntime::new(OpportunityPipeline::default(), scenario.pools.clone(), 4)
        .expect("runtime");
    let mut serve = ServeRuntime::new(runtime, GovernorConfig::default());
    serve.refresh(&feed).expect("cold start");
    let revision_before = serve.published_revision();

    // Restore with no intervening events: the refresh after restore
    // must re-publish (re-anchored) and the delta must be a noop.
    let (runtime, publisher) = serve.into_parts();
    let checkpoint = runtime.checkpoint();
    let restored =
        ShardedRuntime::restore(OpportunityPipeline::default(), &checkpoint).expect("restore");
    let mut serve = ServeRuntime::with_publisher(restored, publisher);
    let mut sub = serve.subscribe();
    let SubscriptionUpdate::Resync(base) = sub.poll() else {
        panic!("first poll must resync");
    };
    let noops_before = serve.publish_stats().noop_deltas;
    serve.refresh(&feed).expect("post-restore refresh");
    assert_eq!(serve.published_revision(), revision_before + 1);
    assert_eq!(
        serve.publish_stats().noop_deltas,
        noops_before + 1,
        "a bit-identical restore must publish a noop delta"
    );
    let SubscriptionUpdate::Deltas(chain) = sub.poll() else {
        panic!("the re-anchor publish must stream to subscribers");
    };
    assert_eq!(chain.len(), 1);
    assert!(chain[0].is_noop());
    let view = apply(base.entries(), &chain[0]).expect("noop applies");
    assert_eq!(fingerprint(&view), fingerprint(base.entries()));

    // And ticking on from the restored fleet keeps streaming real deltas.
    let mut moved = false;
    let mut view = view;
    for batch in &scenario.ticks {
        batch.apply_feed(&mut feed);
        serve.apply_events(&batch.events, &feed).expect("tick");
        if let SubscriptionUpdate::Deltas(chain) = sub.poll() {
            for delta in chain {
                moved |= !delta.is_noop();
                view = apply(&view, &delta).expect("delta applies");
            }
        }
    }
    let final_snapshot = serve.handle(arbloops::serve::ClientClass::Bulk).load();
    assert_eq!(fingerprint(&view), fingerprint(final_snapshot.entries()));
    assert!(moved, "the tick stream never produced a real delta");
}
