//! Backpressure contract: a stalled consumer never causes drops or
//! reordering under `LagPolicy::BlockSource`, and never unbounded queue
//! growth under `LagPolicy::CoalesceHarder`.

use std::thread;
use std::time::Duration;

use arb_amm::pool::PoolId;
use arb_dexsim::events::Event;
use arb_ingest::{HealthState, IngestConfig, IngestError, Ingestor, LagPolicy};

fn sync(pool: u32, reserve: u128) -> Event {
    Event::Sync {
        pool: PoolId::new(pool),
        reserve_a: reserve,
        reserve_b: reserve + 1,
    }
}

#[test]
fn stalled_consumer_never_drops_or_reorders_events() {
    const BLOCKS: u64 = 50;
    const PER_BLOCK: u64 = 4;

    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 2,
        lag_policy: LagPolicy::BlockSource,
        // Raw delivery: every event must come out exactly as it went in.
        coalesce: false,
        ..IngestConfig::default()
    });
    let chain = ingestor.register_source("chain");
    let handle = ingestor.handle();

    let sent: Vec<Event> = (0..BLOCKS * PER_BLOCK)
        // All targeting pool 0: maximally coalescible, so only the
        // `coalesce: false` config (and no silent drop) can preserve them.
        .map(|i| sync(0, u128::from(i)))
        .collect();

    let producer = {
        let sent = sent.clone();
        thread::spawn(move || {
            for block in sent.chunks(PER_BLOCK as usize) {
                ingestor
                    .offer(chain, block.iter().copied())
                    .expect("chain source is registered");
                ingestor.seal_block().expect("seal while open");
            }
            let stats = ingestor.stats();
            ingestor.close();
            stats
        })
    };

    // Let the producer slam into the full queue before draining.
    thread::sleep(Duration::from_millis(60));
    let mut received: Vec<Event> = Vec::new();
    let mut offsets: Vec<u64> = Vec::new();
    while let Some(batch) = handle.pop_blocking() {
        offsets.push(batch.first_offset);
        received.extend(batch.events);
    }
    let producer_stats = producer.join().expect("producer thread panics");

    assert_eq!(received, sent, "no drops, no reorders, no coalescing");
    let mut sorted = offsets.clone();
    sorted.sort_unstable();
    assert_eq!(offsets, sorted, "batches arrive in stream order");
    assert!(
        producer_stats.stall_nanos > 0,
        "the producer must have blocked on the full queue: {producer_stats}"
    );
    let stats = handle.stats();
    assert_eq!(stats.events_in, BLOCKS * PER_BLOCK);
    assert_eq!(stats.events_out + stats.coalesced_away, stats.events_in);
    assert_eq!(stats.coalesced_away, 0);
    assert_eq!(stats.depth_high_water, 2, "bounded at capacity");
    assert_eq!(stats.batches_delivered, BLOCKS);
}

#[test]
fn coalesce_harder_bounds_depth_without_losing_final_state() {
    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 1,
        lag_policy: LagPolicy::CoalesceHarder,
        coalesce: true,
        ..IngestConfig::default()
    });
    let chain = ingestor.register_source("chain");
    let handle = ingestor.handle();

    // Nobody consumes: 32 sealed blocks of 3 pools each pile into one
    // merged batch instead of growing the queue.
    for round in 0..32u128 {
        for pool in 0..3u32 {
            ingestor
                .offer(chain, [sync(pool, 1000 * round + u128::from(pool))])
                .expect("registered");
        }
        ingestor.seal_block().expect("seal while open");
    }
    ingestor.close();

    assert_eq!(handle.depth(), 1, "degraded mode keeps the queue bounded");
    let batch = handle.pop_blocking().expect("one merged batch");
    assert!(handle.pop_blocking().is_none(), "closed after the drain");
    assert_eq!(batch.first_offset, 0, "merged batch keeps earliest offset");
    assert_eq!(batch.raw_events, 32 * 3);
    // Last write wins per pool across every merged block.
    assert_eq!(
        batch.events,
        vec![sync(0, 31_000), sync(1, 31_001), sync(2, 31_002)]
    );

    let stats = handle.stats();
    assert_eq!(stats.events_in, 32 * 3);
    assert_eq!(stats.events_out, 3);
    assert_eq!(stats.events_out + stats.coalesced_away, stats.events_in);
    assert_eq!(stats.degraded_merges, 31);
    assert_eq!(stats.depth_high_water, 1);
    assert!(stats.coalesce_ratio() >= 30.0, "{stats}");
}

#[test]
fn freeing_a_slot_unblocks_a_stalled_producer() {
    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 1,
        lag_policy: LagPolicy::BlockSource,
        coalesce: true,
        ..IngestConfig::default()
    });
    let chain = ingestor.register_source("chain");
    let handle = ingestor.handle();

    ingestor.offer(chain, [sync(0, 1)]).expect("registered");
    ingestor.seal_block().expect("first seal fits");
    let producer = thread::spawn(move || {
        ingestor.offer(chain, [sync(0, 2)]).expect("registered");
        // Queue is full and nobody pops: this blocks until close().
        ingestor.seal_block()
    });

    thread::sleep(Duration::from_millis(30));
    let first = handle.pop_blocking().expect("first sealed batch");
    assert_eq!(first.events, vec![sync(0, 1)]);
    let sealed = producer.join().expect("producer thread panics");
    assert!(sealed.is_ok(), "freed slot lets the stalled seal finish");
    assert_eq!(
        handle.pop_blocking().expect("second batch").events,
        vec![sync(0, 2)]
    );
}

#[test]
fn max_stall_watchdog_degrades_instead_of_blocking_forever() {
    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 1,
        lag_policy: LagPolicy::BlockSource,
        coalesce: true,
        max_stall: Some(Duration::from_millis(20)),
        ..IngestConfig::default()
    });
    let chain = ingestor.register_source("chain");
    let handle = ingestor.handle();

    ingestor.offer(chain, [sync(0, 1)]).expect("registered");
    ingestor.seal_block().expect("first seal fits");
    ingestor.offer(chain, [sync(0, 2)]).expect("registered");
    // Queue full, nobody popping: the watchdog must fire instead of
    // parking this thread forever.
    let err = ingestor.seal_block().expect_err("watchdog fires");
    assert!(
        matches!(err, IngestError::StallTimeout { waited_nanos } if waited_nanos > 0),
        "unexpected error: {err}"
    );
    assert_eq!(
        ingestor.consumer_health().state(),
        HealthState::Lagging,
        "a watchdog timeout demotes the consumer site"
    );

    // Backpressure, not data loss: the sealed block was merged into the
    // queue tail, last-write-wins.
    let batch = handle.pop_blocking().expect("merged batch");
    assert_eq!(batch.events, vec![sync(0, 2)]);
    assert_eq!(batch.raw_events, 2);
    let stats = handle.stats();
    assert_eq!(stats.stall_timeouts, 1);
    assert_eq!(stats.degraded_merges, 1);
    assert!(stats.ledger_balanced(0), "{stats}");

    // Once the consumer drains, the producer recovers on its next seal.
    ingestor.offer(chain, [sync(0, 3)]).expect("registered");
    ingestor.seal_block().expect("room again");
    assert_eq!(ingestor.consumer_health().state(), HealthState::Recovered);
}

/// An `IoShim` that fails the next `n` commits outright.
#[derive(Debug)]
struct FailNext(u32);

impl arb_journal::IoShim for FailNext {
    fn before_write(&mut self, _bytes: usize) -> arb_journal::WriteVerdict {
        if self.0 > 0 {
            self.0 -= 1;
            arb_journal::WriteVerdict::Fail(std::io::Error::other("injected write failure"))
        } else {
            arb_journal::WriteVerdict::Proceed
        }
    }
}

#[test]
fn journal_failures_degrade_serving_instead_of_aborting_it() {
    use std::sync::{Arc, Mutex};

    use arb_journal::{JournalConfig, JournalReader, JournalWriter, TempDir};

    let dir = TempDir::new("ingest-degraded").expect("scratch dir");
    let mut writer =
        JournalWriter::open(dir.path(), JournalConfig::default()).expect("open journal");
    writer.set_io_shim(Box::new(FailNext(2)));
    let writer = Arc::new(Mutex::new(writer));

    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 8,
        ..IngestConfig::default()
    })
    .with_journal(Arc::clone(&writer));
    let chain = ingestor.register_source("chain");
    let handle = ingestor.handle();

    // Two seals hit the broken disk: both still deliver their batches.
    for round in 0..2u128 {
        ingestor.offer(chain, [sync(0, round)]).expect("registered");
        ingestor
            .seal_block()
            .expect("journal failure must not abort the seal");
    }
    assert!(ingestor.journal_degraded(), "backlog pending retry");
    assert!(ingestor.last_journal_error().is_some());
    assert_eq!(ingestor.journal_health().state(), HealthState::Lagging);
    assert_eq!(handle.stats().journal_write_failures, 2);
    assert_eq!(
        writer.lock().unwrap().durable_offset(),
        0,
        "nothing durable while degraded"
    );

    // The disk heals: the next seal recommits the whole backlog.
    ingestor.offer(chain, [sync(0, 2)]).expect("registered");
    ingestor.seal_block().expect("seal after heal");
    assert!(!ingestor.journal_degraded(), "backlog drained");
    assert!(ingestor.last_journal_error().is_none());
    assert_eq!(handle.stats().journal_recommits, 1);
    assert_eq!(writer.lock().unwrap().durable_offset(), 3);

    // Delivery never paused, and the journal caught up to the full raw
    // stream.
    ingestor.close();
    let mut delivered = Vec::new();
    while let Some(batch) = handle.pop_blocking() {
        delivered.extend(batch.events);
    }
    assert_eq!(delivered, vec![sync(0, 0), sync(0, 1), sync(0, 2)]);
    drop(writer);
    let replayed = JournalReader::open(dir.path())
        .expect("reopen journal")
        .read_from(0)
        .expect("read journal");
    assert_eq!(replayed, delivered, "journal holds the raw stream");
}
