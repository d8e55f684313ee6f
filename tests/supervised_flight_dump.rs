//! Post-mortem after a supervised recovery: the flight dump a panic
//! leaves behind must be the *live* recorder's, not the one the bot had
//! before it rebuilt itself from the journal.
//!
//! A bot installs at most one panic hook. If each supervised rebuild
//! installed another, the hooks would chain newest first and the oldest
//! one — holding the pre-recovery recorder — would run last and
//! overwrite the dump with a stale trail.
//!
//! Panic hooks are process-global, so this test lives in its own
//! integration-test binary.

use std::fs;
use std::sync::Arc;

use arbloops::chaos::site;
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

#[test]
fn panic_after_a_supervised_recovery_dumps_the_live_recorder() {
    let scratch = TempDir::new("supervised-dump").unwrap();
    let mut chain = paper_chain();
    let whale = chain.create_account();
    chain.mint(whale, t(0), to_raw(1_000.0));

    // Silence the default hook: the bot's hook chains to it, and the
    // deliberate panics below would otherwise print backtraces.
    std::panic::set_hook(Box::new(|_| {}));

    let mut bot = IngestBot::attach(
        &mut chain,
        &paper_feed(),
        BotConfig::default(),
        JournalSettings {
            checkpoint_every_events: 4,
            max_recoveries: 1,
            ..JournalSettings::new(scratch.path())
        },
        IngestConfig::default(),
    )
    .unwrap();
    bot.enable_observability(ObsConfig::default());
    // One mid-tick panic on the third sealed block.
    let plan =
        FaultPlan::new(42).with_window(site::shard(0), 2..3, FaultKind::PanicTick, 1_000_000);
    bot.set_tick_hook(Arc::new(ChaosTickHook::new(Arc::new(ChaosInjector::new(
        plan,
    )))));

    for i in 0..8 {
        chain.submit(Transaction::Swap {
            account: whale,
            pool: PoolId::new(0),
            token_in: t(0),
            amount_in: to_raw(2.0 + i as f64),
            min_out: 0,
        });
        chain.mine_block();
        bot.step(&mut chain, &[(t(1), 10.2 + 0.05 * i as f64)])
            .unwrap();
        chain.mine_block();
    }
    assert_eq!(bot.recoveries(), 1, "the fault plan forces one recovery");

    // Kill the run after the recovery; the hook fires before
    // catch_unwind returns.
    let crash = std::panic::catch_unwind(|| panic!("simulated crash"));
    assert!(crash.is_err());

    let dump = fs::read_to_string(scratch.path().join(arbloops::obs::FLIGHT_DUMP_FILE))
        .expect("panic hook wrote the flight dump");
    let live = bot.obs().expect("observability on").dump_flight();
    assert_eq!(
        dump.lines().count(),
        live.lines().count(),
        "the dump must hold the live recorder's trail"
    );
    assert_eq!(dump, live);
}
