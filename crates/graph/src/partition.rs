//! Connected-component-aware pool partitioning for sharded runtimes.
//!
//! A directed arbitrage cycle is connected, so it can never straddle two
//! connected components of the token graph. That makes components the
//! natural unit of sharding: assign every component wholly to one shard
//! and each shard's cycle universe is exactly the global cycle universe
//! restricted to its pools — no cycle is split, none is duplicated, and a
//! per-shard engine fleet produces the same opportunity set as one global
//! engine (`arb-engine`'s sharded runtime builds on this invariant).
//!
//! Components are computed over **every pool slot**, live and retired: a
//! retired pool can revive through a later valid `Sync`, and it must
//! revive inside the shard that already owns the rest of its component.
//! Balancing is greedy: components are placed largest-first onto the
//! least-loaded shard, which is within a factor of the optimum for the
//! typical DEX shape (one giant hub component plus a tail of islands) and
//! — more importantly here — fully deterministic.

use arb_amm::pool::PoolId;
use arb_amm::token::TokenId;

use crate::token_graph::TokenGraph;

/// A deterministic assignment of pool slots (and their tokens) to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `shard_of_pool[p]` is the shard owning pool slot `p`.
    shard_of_pool: Vec<usize>,
    /// `shard_of_token[t]` is the shard owning token `t`'s component
    /// (`None` for isolated tokens that touch no pool).
    shard_of_token: Vec<Option<usize>>,
    /// Pools per shard, in slot order.
    members: Vec<Vec<PoolId>>,
}

impl Partition {
    /// Partitions `graph`'s pool slots into at most `max_shards` shards,
    /// never splitting a connected component. The realized shard count is
    /// `min(max_shards, component count)`; `max_shards == 0` is treated
    /// as 1.
    ///
    /// The result is a pure function of `(graph, max_shards)` — no
    /// randomness, no iteration-order dependence — so identical inputs
    /// (e.g. a replayed event journal) always yield the identical
    /// partition.
    pub fn new(graph: &TokenGraph, max_shards: usize) -> Self {
        let pool_count = graph.pool_count();
        let token_count = graph.token_count();

        // Union-find over tokens, driven by every pool slot (live or
        // retired — retired pools keep their component claim so a revive
        // stays shard-local).
        let mut parent: Vec<usize> = (0..token_count).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for pool in graph.pools() {
            let a = find(&mut parent, pool.token_a().index());
            let b = find(&mut parent, pool.token_b().index());
            if a != b {
                // Union by smaller root index: keeps roots (and therefore
                // component ordering below) independent of pool order.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi] = lo;
            }
        }

        // Group pool slots by component root, preserving slot order. The
        // root is the component's smallest token index (unions always
        // keep the smaller root), making it a deterministic tiebreak.
        let mut component_of_root: Vec<Option<usize>> = vec![None; token_count];
        let mut component_pools: Vec<Vec<PoolId>> = Vec::new();
        let mut component_roots: Vec<usize> = Vec::new();
        for (index, pool) in graph.pools().iter().enumerate() {
            let root = find(&mut parent, pool.token_a().index());
            let component = *component_of_root[root].get_or_insert_with(|| {
                component_pools.push(Vec::new());
                component_roots.push(root);
                component_pools.len() - 1
            });
            component_pools[component].push(PoolId::new(index as u32));
        }

        // Largest component first; ties broken by the component's
        // smallest token index so the order is a pure function of the
        // graph.
        let mut units: Vec<(Vec<PoolId>, usize)> =
            component_pools.into_iter().zip(component_roots).collect();
        units.sort_by_key(|(pools, root)| (std::cmp::Reverse(pools.len()), *root));

        let shard_count = max_shards.max(1).min(units.len().max(1));
        let mut members: Vec<Vec<PoolId>> = vec![Vec::new(); shard_count];
        let mut shard_of_pool = vec![0usize; pool_count];
        for (pools, _) in units {
            let shard = (0..shard_count)
                .min_by_key(|&s| (members[s].len(), s))
                .expect("at least one shard");
            for &pool in &pools {
                shard_of_pool[pool.index()] = shard;
            }
            members[shard].extend(pools);
        }
        for shard in &mut members {
            shard.sort_by_key(|p| p.index());
        }

        // Token ownership: claim both tokens of every slot in slot order —
        // exactly how `from_assignments` re-derives it, so checkpoint
        // round trips reproduce the partition bit-for-bit.
        let mut shard_of_token = vec![None; token_count];
        for (index, &shard) in shard_of_pool.iter().enumerate() {
            let pool = &graph.pools()[index];
            shard_of_token[pool.token_a().index()] = Some(shard);
            shard_of_token[pool.token_b().index()] = Some(shard);
        }

        Partition {
            shard_of_pool,
            shard_of_token,
            members,
        }
    }

    /// Reconstructs a partition from a checkpointed per-slot shard
    /// assignment (`owners[p]` = shard owning pool slot `p`). Token
    /// ownership and member lists are re-derived by claiming both tokens
    /// of every slot in slot order — exactly how [`Partition::new`] and
    /// [`Partition::register_pool`] built them originally, so a
    /// checkpoint → restore round trip reproduces the partition
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::InvalidCheckpoint`] when the
    /// assignment does not cover `graph`'s slots exactly, names a shard
    /// at or beyond `shard_count`, or `shard_count` is zero.
    pub fn from_assignments(
        graph: &TokenGraph,
        owners: &[usize],
        shard_count: usize,
    ) -> Result<Self, crate::GraphError> {
        if shard_count == 0 {
            return Err(crate::GraphError::InvalidCheckpoint(
                "partition needs at least one shard",
            ));
        }
        if owners.len() != graph.pool_count() {
            return Err(crate::GraphError::InvalidCheckpoint(
                "partition assignment does not cover every pool slot",
            ));
        }
        let mut members: Vec<Vec<PoolId>> = vec![Vec::new(); shard_count];
        let mut shard_of_token = vec![None; graph.token_count()];
        for (index, &shard) in owners.iter().enumerate() {
            if shard >= shard_count {
                return Err(crate::GraphError::InvalidCheckpoint(
                    "partition assignment names an unknown shard",
                ));
            }
            let pool = &graph.pools()[index];
            members[shard].push(PoolId::new(index as u32));
            shard_of_token[pool.token_a().index()] = Some(shard);
            shard_of_token[pool.token_b().index()] = Some(shard);
        }
        Ok(Partition {
            shard_of_pool: owners.to_vec(),
            shard_of_token,
            members,
        })
    }

    /// Number of shards actually produced.
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// The shard owning pool slot `pool` (`None` for unknown slots).
    pub fn shard_of_pool(&self, pool: PoolId) -> Option<usize> {
        self.shard_of_pool.get(pool.index()).copied()
    }

    /// The shard owning `token`'s component (`None` for tokens that touch
    /// no pool).
    pub fn shard_of_token(&self, token: TokenId) -> Option<usize> {
        self.shard_of_token.get(token.index()).copied().flatten()
    }

    /// The pool slots owned by `shard`, in slot order.
    pub fn members(&self, shard: usize) -> &[PoolId] {
        self.members.get(shard).map_or(&[], Vec::as_slice)
    }

    /// Pool counts per shard (the balance the greedy placement achieved).
    pub fn loads(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }

    /// Registers a pool appended after partitioning (one new slot at a
    /// time, in slot order). The pool joins `shard`; both its tokens are
    /// claimed for that shard. Callers decide `shard` via
    /// [`Partition::shard_of_token`] — a pool bridging two *different*
    /// shards' components cannot be registered and requires repartitioning
    /// (that is exactly the rebuild trigger in `arb-engine`'s runtime).
    pub fn register_pool(&mut self, pool: PoolId, a: TokenId, b: TokenId, shard: usize) {
        debug_assert_eq!(pool.index(), self.shard_of_pool.len(), "slot order");
        debug_assert!(shard < self.members.len());
        self.shard_of_pool.push(shard);
        let needed = a.index().max(b.index()) + 1;
        if needed > self.shard_of_token.len() {
            self.shard_of_token.resize(needed, None);
        }
        self.shard_of_token[a.index()] = Some(shard);
        self.shard_of_token[b.index()] = Some(shard);
        self.members[shard].push(pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::fee::FeeRate;
    use arb_amm::pool::Pool;

    fn t(i: u32) -> TokenId {
        TokenId::new(i)
    }

    fn p(i: u32) -> PoolId {
        PoolId::new(i)
    }

    /// Two triangles and one pair: three components of sizes 3, 3, 1.
    fn three_islands() -> TokenGraph {
        let fee = FeeRate::UNISWAP_V2;
        TokenGraph::new(vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
            Pool::new(t(3), t(4), 10.0, 10.0, fee).unwrap(),
            Pool::new(t(4), t(5), 10.0, 10.0, fee).unwrap(),
            Pool::new(t(5), t(3), 10.0, 10.0, fee).unwrap(),
            Pool::new(t(6), t(7), 5.0, 5.0, fee).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn components_are_never_split() {
        let graph = three_islands();
        for shards in 1..=4 {
            let partition = Partition::new(&graph, shards);
            // Pools of one component share a shard.
            for component in [[0u32, 1, 2], [3, 4, 5]] {
                let owner = partition.shard_of_pool(p(component[0])).unwrap();
                for &pool in &component {
                    assert_eq!(partition.shard_of_pool(p(pool)), Some(owner));
                }
            }
            // Every pool appears in exactly one member list.
            let mut seen = vec![0usize; graph.pool_count()];
            for shard in 0..partition.shard_count() {
                for pool in partition.members(shard) {
                    seen[pool.index()] += 1;
                    assert_eq!(partition.shard_of_pool(*pool), Some(shard));
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        }
    }

    #[test]
    fn shard_count_caps_at_component_count() {
        let graph = three_islands();
        let partition = Partition::new(&graph, 8);
        assert_eq!(partition.shard_count(), 3);
        assert_eq!(partition.loads().iter().sum::<usize>(), 7);
        // Greedy largest-first: the two triangles land on different
        // shards, the pair on the third.
        let mut loads = partition.loads();
        loads.sort_unstable();
        assert_eq!(loads, vec![1, 3, 3]);
    }

    #[test]
    fn zero_shards_treated_as_one() {
        let graph = three_islands();
        let partition = Partition::new(&graph, 0);
        assert_eq!(partition.shard_count(), 1);
        assert_eq!(partition.members(0).len(), 7);
    }

    #[test]
    fn token_ownership_follows_pools() {
        let graph = three_islands();
        let partition = Partition::new(&graph, 3);
        let groups: [(&[u32], u32); 3] = [(&[0, 1, 2], 0), (&[3, 4, 5], 3), (&[6, 7], 6)];
        for (tokens, pool) in groups {
            let owner = partition.shard_of_pool(p(pool));
            for &token in tokens {
                assert_eq!(partition.shard_of_token(t(token)), owner);
            }
        }
        assert_eq!(partition.shard_of_token(t(99)), None);
    }

    #[test]
    fn deterministic_across_calls() {
        let graph = three_islands();
        assert_eq!(Partition::new(&graph, 4), Partition::new(&graph, 4));
    }

    #[test]
    fn retired_pools_keep_their_component_claim() {
        let fee = FeeRate::UNISWAP_V2;
        let mut graph = TokenGraph::new(vec![
            Pool::new(t(0), t(1), 10.0, 10.0, fee).unwrap(),
            Pool::new(t(1), t(2), 10.0, 10.0, fee).unwrap(),
            Pool::new(t(3), t(4), 10.0, 10.0, fee).unwrap(),
        ])
        .unwrap();
        // Retiring the bridge pool must not move it (or its tokens) to
        // another shard: a later revive has to stay shard-local.
        graph.remove_pool(p(1)).unwrap();
        let partition = Partition::new(&graph, 2);
        assert_eq!(
            partition.shard_of_pool(p(0)),
            partition.shard_of_pool(p(1)),
            "retired pool stays with its component"
        );
        assert_eq!(
            partition.shard_of_token(t(2)),
            partition.shard_of_pool(p(1))
        );
    }

    #[test]
    fn assignments_round_trip_bit_for_bit() {
        let graph = three_islands();
        let mut partition = Partition::new(&graph, 3);
        // Exercise the append path too, so the round trip covers state no
        // fresh `Partition::new` would produce.
        let shard = partition.shard_of_token(t(6)).unwrap();
        let mut graph = graph;
        graph.add_pool(Pool::new(t(6), t(9), 5.0, 5.0, FeeRate::UNISWAP_V2).unwrap());
        partition.register_pool(p(7), t(6), t(9), shard);

        let owners: Vec<usize> = (0..graph.pool_count())
            .map(|i| partition.shard_of_pool(p(i as u32)).unwrap())
            .collect();
        let restored =
            Partition::from_assignments(&graph, &owners, partition.shard_count()).unwrap();
        assert_eq!(restored, partition);
    }

    #[test]
    fn invalid_assignments_rejected() {
        let graph = three_islands();
        let owners = vec![0usize; graph.pool_count()];
        assert!(matches!(
            Partition::from_assignments(&graph, &owners, 0),
            Err(crate::GraphError::InvalidCheckpoint(_))
        ));
        assert!(matches!(
            Partition::from_assignments(&graph, &owners[1..], 1),
            Err(crate::GraphError::InvalidCheckpoint(_))
        ));
        let bad = vec![5usize; graph.pool_count()];
        assert!(matches!(
            Partition::from_assignments(&graph, &bad, 2),
            Err(crate::GraphError::InvalidCheckpoint(_))
        ));
        assert!(Partition::from_assignments(&graph, &owners, 1).is_ok());
    }

    #[test]
    fn register_pool_extends_ownership() {
        let graph = three_islands();
        let mut partition = Partition::new(&graph, 3);
        let shard = partition.shard_of_token(t(6)).unwrap();
        partition.register_pool(p(7), t(6), t(9), shard);
        assert_eq!(partition.shard_of_pool(p(7)), Some(shard));
        assert_eq!(partition.shard_of_token(t(9)), Some(shard));
        assert!(partition.members(shard).contains(&p(7)));
    }
}
