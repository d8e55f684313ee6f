//! Journal writer/reader behavior: round trips, segment rolling,
//! compaction, cursor semantics, snapshot store basics.

use std::fs;

use arb_amm::fee::FeeRate;
use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;
use arb_dexsim::events::Event;
use arb_engine::{OpportunityPipeline, ShardedRuntime};
use arb_journal::{
    JournalConfig, JournalCursor, JournalReader, JournalWriter, SnapshotStore, TempDir,
};

fn sync(pool: u32, a: u128, b: u128) -> Event {
    Event::Sync {
        pool: PoolId::new(pool),
        reserve_a: a,
        reserve_b: b,
    }
}

fn events(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| match i % 3 {
            0 => sync(i as u32, i as u128, (i + 1) as u128),
            1 => Event::Swap {
                pool: PoolId::new(i as u32),
                token_in: TokenId::new(i as u32),
                amount_in: u128::MAX - i as u128,
                amount_out: i as u128,
            },
            _ => Event::PoolCreated {
                pool: PoolId::new(i as u32),
                token_a: TokenId::new(i as u32),
                token_b: TokenId::new(i as u32 + 1),
                reserve_a: 1,
                reserve_b: 2,
                fee: FeeRate::UNISWAP_V2,
            },
        })
        .collect()
}

#[test]
fn write_reopen_read_round_trip() {
    let scratch = TempDir::new("round-trip").unwrap();
    let batch = events(25);

    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    assert_eq!(writer.next_offset(), 0);
    writer.append_batch(&batch[..10]);
    assert_eq!(writer.next_offset(), 10);
    assert_eq!(writer.durable_offset(), 0, "nothing durable pre-commit");
    assert_eq!(writer.commit().unwrap(), 10);
    writer.append_batch(&batch[10..]);
    writer.commit().unwrap();
    drop(writer);

    // Reopen both sides: the tail and every event survive.
    let writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    assert_eq!(writer.durable_offset(), 25);
    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 25);
    assert_eq!(reader.read_from(0).unwrap(), batch);
    assert_eq!(reader.read_from(17).unwrap(), batch[17..]);
    assert_eq!(reader.read_from(25).unwrap(), vec![]);
    assert!(matches!(
        reader.read_from(26),
        Err(arb_journal::JournalError::OffsetPastTail {
            offset: 26,
            tail: 25
        })
    ));
}

#[test]
fn uncommitted_appends_do_not_survive_a_crash() {
    let scratch = TempDir::new("uncommitted").unwrap();
    let batch = events(8);
    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    writer.append_batch(&batch[..5]);
    writer.commit().unwrap();
    writer.append_batch(&batch[5..]); // never committed
    drop(writer); // 💥

    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 5);
    assert_eq!(reader.read_from(0).unwrap(), batch[..5]);
}

#[test]
fn segments_roll_and_cursors_drain() {
    let scratch = TempDir::new("rolling").unwrap();
    let config = JournalConfig {
        segment_max_bytes: 128, // tiny: force many segments
        sync_on_commit: false,
    };
    let batch = events(40);
    let mut writer = JournalWriter::open(scratch.path(), config).unwrap();
    for event in &batch {
        writer.append(event);
        writer.commit().unwrap();
    }
    let segment_files = fs::read_dir(scratch.path())
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("segment-")
        })
        .count();
    assert!(segment_files > 2, "expected rolling, got {segment_files}");

    let reader = JournalReader::open(scratch.path()).unwrap();
    let mut cursor = JournalCursor::genesis();
    assert_eq!(reader.drain(&mut cursor).unwrap(), batch);
    assert_eq!(cursor.position(), 40);
    assert!(reader.drain(&mut cursor).unwrap().is_empty());

    let mut resumed = JournalCursor::at(33);
    assert_eq!(reader.drain(&mut resumed).unwrap(), batch[33..]);

    // Reopening mid-stream continues the same offset space.
    let mut writer = JournalWriter::open(scratch.path(), config).unwrap();
    assert_eq!(writer.append(&batch[0]), 40);
    writer.commit().unwrap();
    assert_eq!(
        JournalReader::open(scratch.path()).unwrap().tail_offset(),
        41
    );
}

#[test]
fn compaction_drops_fully_snapshotted_segments() {
    let scratch = TempDir::new("compaction").unwrap();
    let config = JournalConfig {
        segment_max_bytes: 128,
        sync_on_commit: false,
    };
    let batch = events(60);
    let mut writer = JournalWriter::open(scratch.path(), config).unwrap();
    for event in &batch {
        writer.append(event);
        writer.commit().unwrap();
    }
    let removed = writer.compact_below(35).unwrap();
    assert!(removed > 0, "tiny segments must be compactable");

    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 60, "tail unaffected");
    let base = reader.base_offset();
    assert!(base > 0 && base <= 35, "kept the segment containing 35");
    assert_eq!(reader.read_from(35).unwrap(), batch[35..]);
    assert!(
        reader.read_from(0).is_err(),
        "compacted prefix is gone, not silently empty"
    );

    // The writer keeps appending over the compacted journal.
    assert_eq!(writer.append(&batch[0]), 60);
    writer.commit().unwrap();
    assert_eq!(
        JournalReader::open(scratch.path()).unwrap().tail_offset(),
        61
    );
}

#[test]
fn snapshot_store_lists_prunes_and_round_trips() {
    let scratch = TempDir::new("snapshots").unwrap();
    let fee = FeeRate::UNISWAP_V2;
    let t = TokenId::new;
    let pools = vec![
        arb_amm::pool::Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
        arb_amm::pool::Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
        arb_amm::pool::Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
    ];
    let runtime = ShardedRuntime::new(OpportunityPipeline::default(), pools, 2).unwrap();
    let checkpoint = runtime.checkpoint();

    let store = SnapshotStore::new(scratch.path()).unwrap();
    for offset in [3u64, 7, 11] {
        store.write(offset, &checkpoint).unwrap();
    }
    let listed: Vec<u64> = store.list().unwrap().into_iter().map(|(o, _)| o).collect();
    assert_eq!(listed, vec![3, 7, 11]);

    let (offset, loaded) = store.newest_valid(0, u64::MAX).unwrap().unwrap();
    assert_eq!(offset, 11);
    assert_eq!(loaded, checkpoint);

    // Restoring the loaded checkpoint yields a working runtime.
    assert!(ShardedRuntime::restore(OpportunityPipeline::default(), &loaded).is_ok());

    assert_eq!(store.prune(2).unwrap(), 1);
    let listed: Vec<u64> = store.list().unwrap().into_iter().map(|(o, _)| o).collect();
    assert_eq!(listed, vec![7, 11]);
}

// --- I/O fault shim ------------------------------------------------------

/// A scripted [`arb_journal::IoShim`]: plays back one verdict per commit
/// (in order), then proceeds normally.
#[derive(Debug, Default)]
struct ScriptedShim {
    write_script: Vec<Option<ScriptedFault>>,
    commits: usize,
    fail_next_sync: bool,
}

#[derive(Debug, Clone, Copy)]
enum ScriptedFault {
    Fail,
    Torn(usize),
    FsyncError,
}

impl arb_journal::IoShim for ScriptedShim {
    fn before_write(&mut self, bytes: usize) -> arb_journal::WriteVerdict {
        let fault = self.write_script.get(self.commits).copied().flatten();
        self.commits += 1;
        match fault {
            None => arb_journal::WriteVerdict::Proceed,
            Some(ScriptedFault::Fail) => {
                arb_journal::WriteVerdict::Fail(std::io::Error::other("scripted write error"))
            }
            Some(ScriptedFault::Torn(keep)) => arb_journal::WriteVerdict::Torn {
                keep: keep.min(bytes),
            },
            Some(ScriptedFault::FsyncError) => {
                self.fail_next_sync = true;
                arb_journal::WriteVerdict::Proceed
            }
        }
    }

    fn before_sync(&mut self) -> Option<std::io::Error> {
        self.fail_next_sync
            .then(|| std::io::Error::other("scripted fsync error"))
            .inspect(|_| self.fail_next_sync = false)
    }
}

#[test]
fn shimmed_write_error_keeps_pending_and_retries_cleanly() {
    let scratch = TempDir::new("shim-write-error").unwrap();
    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    writer.set_io_shim(Box::new(ScriptedShim {
        write_script: vec![Some(ScriptedFault::Fail)],
        ..ScriptedShim::default()
    }));

    writer.append_batch(&events(4));
    let err = writer.commit().unwrap_err();
    assert!(err.to_string().contains("scripted write error"));
    // The batch is retained for retry; nothing is durable yet.
    assert_eq!(writer.pending_events(), 4);
    assert_eq!(writer.durable_offset(), 0);
    // The next commit (script exhausted) lands the same batch.
    assert_eq!(writer.commit().unwrap(), 4);
    assert_eq!(writer.pending_events(), 0);

    drop(writer);
    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.read_from(0).unwrap(), events(4));
}

#[test]
fn torn_and_fsync_faults_roll_back_to_the_durable_boundary() {
    let scratch = TempDir::new("shim-torn").unwrap();
    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    writer.append_batch(&events(3));
    writer.commit().unwrap();

    writer.set_io_shim(Box::new(ScriptedShim {
        write_script: vec![
            Some(ScriptedFault::Torn(5)),
            Some(ScriptedFault::FsyncError),
        ],
        ..ScriptedShim::default()
    }));
    writer.append_batch(&events(2));
    assert!(writer.commit().unwrap_err().to_string().contains("torn"));
    // Rollback cut the segment back: a reopen (simulated crash) sees
    // exactly the previously durable prefix, no torn bytes.
    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 3);

    // Fsync failure behaves the same: written bytes are rolled back.
    assert!(writer.commit().unwrap_err().to_string().contains("fsync"));
    assert_eq!(writer.durable_offset(), 3);
    // Third try has no scripted fault left and lands everything.
    assert_eq!(writer.commit().unwrap(), 5);
    drop(writer);
    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 5);
}
