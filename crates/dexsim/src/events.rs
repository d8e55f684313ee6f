//! Uniswap-style chain events with a compact binary codec.
//!
//! Real arbitrage monitors consume `Sync`/`Swap` event logs; the simulator
//! emits the same shape. Events encode to a tagged little-endian binary
//! frame via [`bytes`] so the log can be persisted or streamed compactly.

use arb_amm::fee::FeeRate;
use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::state::AccountId;

/// A chain event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// Reserve update after any pool mutation (Uniswap V2 `Sync`).
    Sync {
        /// Affected pool.
        pool: PoolId,
        /// New reserve of token A.
        reserve_a: u128,
        /// New reserve of token B.
        reserve_b: u128,
    },
    /// A swap executed (Uniswap V2 `Swap`).
    Swap {
        /// Pool traded against.
        pool: PoolId,
        /// Token paid in.
        token_in: TokenId,
        /// Raw input amount.
        amount_in: u128,
        /// Raw output amount.
        amount_out: u128,
    },
    /// LP shares minted.
    Mint {
        /// Pool.
        pool: PoolId,
        /// Receiving account.
        account: AccountId,
        /// Shares created.
        shares: u128,
    },
    /// LP shares burned.
    Burn {
        /// Pool.
        pool: PoolId,
        /// Burning account.
        account: AccountId,
        /// Shares destroyed.
        shares: u128,
    },
    /// A pool was deployed (Uniswap factory `PairCreated` + initial
    /// reserves). Emitted so streaming consumers can extend their graph
    /// without re-snapshotting the chain.
    PoolCreated {
        /// The id assigned to the new pool.
        pool: PoolId,
        /// First token of the pair.
        token_a: TokenId,
        /// Second token of the pair.
        token_b: TokenId,
        /// Initial reserve of token A.
        reserve_a: u128,
        /// Initial reserve of token B.
        reserve_b: u128,
        /// The pool's swap fee.
        fee: FeeRate,
    },
    /// A CEX feed price update, as carried on the multiplexed ingest
    /// stream (`arb-ingest`). The chain itself never emits this event;
    /// it exists so one journaled stream is self-contained — recovery
    /// can rebuild the price table from the journal alone instead of
    /// needing a live feed. The price travels as raw `f64` bits so the
    /// event stays `Eq` and the value round-trips bit-exactly.
    FeedPrice {
        /// The priced token.
        token: TokenId,
        /// USD price, as [`f64::to_bits`].
        price_bits: u64,
    },
}

const TAG_SYNC: u8 = 1;
const TAG_SWAP: u8 = 2;
const TAG_MINT: u8 = 3;
const TAG_BURN: u8 = 4;
const TAG_POOL_CREATED: u8 = 5;
const TAG_FEED_PRICE: u8 = 6;

impl Event {
    /// Appends the binary encoding of this event to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        match *self {
            Event::Sync {
                pool,
                reserve_a,
                reserve_b,
            } => {
                buf.put_u8(TAG_SYNC);
                buf.put_u32_le(pool.index() as u32);
                buf.put_u128_le(reserve_a);
                buf.put_u128_le(reserve_b);
            }
            Event::Swap {
                pool,
                token_in,
                amount_in,
                amount_out,
            } => {
                buf.put_u8(TAG_SWAP);
                buf.put_u32_le(pool.index() as u32);
                buf.put_u32_le(token_in.index() as u32);
                buf.put_u128_le(amount_in);
                buf.put_u128_le(amount_out);
            }
            Event::Mint {
                pool,
                account,
                shares,
            } => {
                buf.put_u8(TAG_MINT);
                buf.put_u32_le(pool.index() as u32);
                buf.put_u32_le(account.index() as u32);
                buf.put_u128_le(shares);
            }
            Event::Burn {
                pool,
                account,
                shares,
            } => {
                buf.put_u8(TAG_BURN);
                buf.put_u32_le(pool.index() as u32);
                buf.put_u32_le(account.index() as u32);
                buf.put_u128_le(shares);
            }
            Event::PoolCreated {
                pool,
                token_a,
                token_b,
                reserve_a,
                reserve_b,
                fee,
            } => {
                buf.put_u8(TAG_POOL_CREATED);
                buf.put_u32_le(pool.index() as u32);
                buf.put_u32_le(token_a.index() as u32);
                buf.put_u32_le(token_b.index() as u32);
                buf.put_u128_le(reserve_a);
                buf.put_u128_le(reserve_b);
                buf.put_u32_le(fee.ppm());
            }
            Event::FeedPrice { token, price_bits } => {
                buf.put_u8(TAG_FEED_PRICE);
                buf.put_u32_le(token.index() as u32);
                buf.put_u64_le(price_bits);
            }
        }
    }

    /// A [`Event::FeedPrice`] for `token` at `price` USD.
    pub fn feed_price(token: TokenId, price: f64) -> Event {
        Event::FeedPrice {
            token,
            price_bits: price.to_bits(),
        }
    }

    /// The `(token, price)` of a [`Event::FeedPrice`], decoded back to
    /// `f64`; `None` for every other variant.
    pub fn as_feed_price(&self) -> Option<(TokenId, f64)> {
        match *self {
            Event::FeedPrice { token, price_bits } => Some((token, f64::from_bits(price_bits))),
            _ => None,
        }
    }

    /// Decodes one event from the front of `buf`, advancing it.
    ///
    /// Returns `None` on an empty/truncated/unknown-tag frame.
    pub fn decode(buf: &mut Bytes) -> Option<Event> {
        if buf.is_empty() {
            return None;
        }
        let tag = buf.get_u8();
        match tag {
            TAG_SYNC => {
                if buf.remaining() < 4 + 32 {
                    return None;
                }
                Some(Event::Sync {
                    pool: PoolId::new(buf.get_u32_le()),
                    reserve_a: buf.get_u128_le(),
                    reserve_b: buf.get_u128_le(),
                })
            }
            TAG_SWAP => {
                if buf.remaining() < 8 + 32 {
                    return None;
                }
                Some(Event::Swap {
                    pool: PoolId::new(buf.get_u32_le()),
                    token_in: TokenId::new(buf.get_u32_le()),
                    amount_in: buf.get_u128_le(),
                    amount_out: buf.get_u128_le(),
                })
            }
            TAG_POOL_CREATED => {
                if buf.remaining() < 12 + 32 + 4 {
                    return None;
                }
                let pool = PoolId::new(buf.get_u32_le());
                let token_a = TokenId::new(buf.get_u32_le());
                let token_b = TokenId::new(buf.get_u32_le());
                let reserve_a = buf.get_u128_le();
                let reserve_b = buf.get_u128_le();
                // A fee ≥ 100% can never have been encoded from a valid
                // FeeRate; treat it like an unknown tag.
                let fee = FeeRate::from_ppm(buf.get_u32_le()).ok()?;
                Some(Event::PoolCreated {
                    pool,
                    token_a,
                    token_b,
                    reserve_a,
                    reserve_b,
                    fee,
                })
            }
            TAG_FEED_PRICE => {
                if buf.remaining() < 4 + 8 {
                    return None;
                }
                Some(Event::FeedPrice {
                    token: TokenId::new(buf.get_u32_le()),
                    price_bits: buf.get_u64_le(),
                })
            }
            TAG_MINT | TAG_BURN => {
                if buf.remaining() < 8 + 16 {
                    return None;
                }
                let pool = PoolId::new(buf.get_u32_le());
                let account = account_from_index(buf.get_u32_le());
                let shares = buf.get_u128_le();
                Some(if tag == TAG_MINT {
                    Event::Mint {
                        pool,
                        account,
                        shares,
                    }
                } else {
                    Event::Burn {
                        pool,
                        account,
                        shares,
                    }
                })
            }
            _ => None,
        }
    }
}

// AccountId has no public u32 constructor by design; the event codec is
// the one place that rebuilds one from its wire index.
fn account_from_index(index: u32) -> AccountId {
    AccountId::from_wire(index)
}

/// An append-only encoded event log with per-event offsets, so consumers
/// can resume decoding from any sequence number (the drain API in
/// [`crate::chain::Chain`] builds on this).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    buffer: BytesMut,
    /// Byte offset where each event's frame starts.
    offsets: Vec<usize>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.offsets.push(self.buffer.len());
        event.encode(&mut self.buffer);
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Size of the encoded log in bytes.
    pub fn encoded_size(&self) -> usize {
        self.buffer.len()
    }

    /// Decodes the single event at sequence number `offset` (0-based).
    /// Returns `None` when `offset` is at or past the end — callers
    /// replaying the log get a bounds-checked lookup instead of indexing
    /// raw vectors.
    pub fn get(&self, offset: usize) -> Option<Event> {
        let start = *self.offsets.get(offset)?;
        let end = self
            .offsets
            .get(offset + 1)
            .copied()
            .unwrap_or(self.buffer.len());
        let mut bytes = Bytes::copy_from_slice(&self.buffer[start..end]);
        Event::decode(&mut bytes)
    }

    /// Decodes the full log back into events.
    pub fn decode_all(&self) -> Vec<Event> {
        self.decode_from(0)
    }

    /// Decodes events starting at sequence number `from` (0-based).
    /// Returns an empty vector when `from` is at or past the end.
    pub fn decode_from(&self, from: usize) -> Vec<Event> {
        if from >= self.offsets.len() {
            return Vec::new();
        }
        let mut bytes = Bytes::copy_from_slice(&self.buffer[self.offsets[from]..]);
        let mut events = Vec::with_capacity(self.offsets.len() - from);
        while let Some(e) = Event::decode(&mut bytes) {
            events.push(e);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_events() -> Vec<Event> {
        let mut state = crate::state::ChainState::new();
        let account = state.create_account();
        vec![
            Event::Sync {
                pool: PoolId::new(3),
                reserve_a: u128::MAX - 5,
                reserve_b: 12345,
            },
            Event::Swap {
                pool: PoolId::new(0),
                token_in: TokenId::new(7),
                amount_in: 1,
                amount_out: 2,
            },
            Event::Mint {
                pool: PoolId::new(1),
                account,
                shares: 999,
            },
            Event::Burn {
                pool: PoolId::new(1),
                account,
                shares: 100,
            },
            Event::PoolCreated {
                pool: PoolId::new(4),
                token_a: TokenId::new(0),
                token_b: TokenId::new(9),
                reserve_a: u128::MAX,
                reserve_b: 1,
                fee: FeeRate::UNISWAP_V2,
            },
            Event::feed_price(TokenId::new(2), 1234.5),
        ]
    }

    #[test]
    fn feed_price_round_trips_bit_exactly() {
        // Non-finite and negative prices are representable on the wire
        // (the consumer's PriceTable::set is what rejects them); the
        // codec must carry the exact bits either way.
        for price in [0.0, -1.5, f64::NAN, f64::INFINITY, 1e-308, 20.25] {
            let event = Event::feed_price(TokenId::new(7), price);
            let mut buf = BytesMut::new();
            event.encode(&mut buf);
            let mut bytes = buf.freeze();
            let decoded = Event::decode(&mut bytes).expect("decodes");
            assert_eq!(decoded, event);
            let (token, got) = decoded.as_feed_price().expect("is a feed price");
            assert_eq!(token, TokenId::new(7));
            assert_eq!(got.to_bits(), price.to_bits(), "bit-exact, NaN included");
        }
        assert_eq!(sample_events()[0].as_feed_price(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        for event in sample_events() {
            let mut buf = BytesMut::new();
            event.encode(&mut buf);
            let mut bytes = buf.freeze();
            assert_eq!(Event::decode(&mut bytes), Some(event));
            assert!(bytes.is_empty(), "decoder must consume the frame exactly");
        }
    }

    #[test]
    fn log_round_trip_preserves_order() {
        let mut log = EventLog::new();
        let events = sample_events();
        for e in &events {
            log.push(*e);
        }
        assert_eq!(log.len(), events.len());
        assert_eq!(log.decode_all(), events);
    }

    #[test]
    fn truncated_frame_returns_none() {
        let mut buf = BytesMut::new();
        sample_events()[0].encode(&mut buf);
        let mut truncated = buf.freeze().slice(0..10);
        assert_eq!(Event::decode(&mut truncated), None);
    }

    #[test]
    fn unknown_tag_returns_none() {
        let mut bytes = Bytes::from_static(&[0xFFu8, 1, 2, 3]);
        assert_eq!(Event::decode(&mut bytes), None);
    }

    #[test]
    fn empty_log() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.decode_all(), vec![]);
        assert_eq!(log.decode_from(0), vec![]);
    }

    #[test]
    fn decode_from_resumes_mid_log() {
        let mut log = EventLog::new();
        let events = sample_events();
        for e in &events {
            log.push(*e);
        }
        for from in 0..=events.len() {
            assert_eq!(log.decode_from(from), events[from..], "from={from}");
        }
        assert_eq!(log.decode_from(events.len() + 10), vec![]);
    }

    #[test]
    fn get_is_bounds_checked_random_access() {
        let mut log = EventLog::new();
        let events = sample_events();
        for e in &events {
            log.push(*e);
        }
        for (offset, expected) in events.iter().enumerate() {
            assert_eq!(log.get(offset), Some(*expected), "offset={offset}");
        }
        assert_eq!(log.get(events.len()), None);
        assert_eq!(log.get(usize::MAX), None);
        assert_eq!(EventLog::new().get(0), None);
    }

    /// Builds the event variant selected by `tag` from raw field material.
    /// `a`/`b` carry the u128 payloads so every variant exercises wide
    /// words, including the exact `u128::MAX` boundary via `flip`.
    fn build_event(tag: u8, pool: u32, idx: u32, a: u128, b: u128) -> Event {
        let pool = PoolId::new(pool);
        match tag {
            0 => Event::Sync {
                pool,
                reserve_a: a,
                reserve_b: b,
            },
            1 => Event::Swap {
                pool,
                token_in: TokenId::new(idx),
                amount_in: a,
                amount_out: b,
            },
            2 => Event::Mint {
                pool,
                account: account_from_index(idx),
                shares: a,
            },
            3 => Event::Burn {
                pool,
                account: account_from_index(idx),
                shares: b,
            },
            4 => Event::PoolCreated {
                pool,
                token_a: TokenId::new(idx),
                token_b: TokenId::new(idx ^ 1),
                reserve_a: a,
                reserve_b: b,
                fee: FeeRate::from_ppm(idx % arb_amm::fee::PPM).unwrap(),
            },
            _ => Event::FeedPrice {
                token: TokenId::new(idx),
                price_bits: a as u64,
            },
        }
    }

    proptest! {
        #[test]
        fn codec_round_trips_every_variant(
            tag in 0u8..6,
            pool in 0u32..u32::MAX,
            idx in 0u32..u32::MAX,
            a in 0u128..u128::MAX,
            b in 0u128..u128::MAX,
            flip in 0u8..4,
        ) {
            // Push the wide words to the exact boundaries in a quarter of
            // the cases: the codec must survive u128::MAX and 0.
            let (a, b) = match flip {
                0 => (u128::MAX, b),
                1 => (a, u128::MAX),
                2 => (0, 0),
                _ => (a, b),
            };
            let event = build_event(tag, pool, idx, a, b);
            let mut buf = BytesMut::new();
            event.encode(&mut buf);
            let mut bytes = buf.freeze();
            prop_assert_eq!(Event::decode(&mut bytes), Some(event));
            prop_assert!(bytes.is_empty(), "decoder must consume the frame exactly");
        }

        #[test]
        fn log_round_trips_random_sequences(
            tags in proptest::collection::vec(0u8..6, 0..32),
            seed in 0u128..u128::MAX,
        ) {
            let events: Vec<Event> = tags
                .iter()
                .enumerate()
                .map(|(i, &tag)| {
                    build_event(tag, i as u32, i as u32, seed, seed.rotate_left(i as u32))
                })
                .collect();
            let mut log = EventLog::new();
            for e in &events {
                log.push(*e);
            }
            prop_assert_eq!(log.len(), events.len());
            prop_assert_eq!(log.decode_all(), events.clone());
            let mid = events.len() / 2;
            prop_assert_eq!(log.decode_from(mid), events[mid..].to_vec());
        }
    }
}
