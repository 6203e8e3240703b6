//! Hashing for maps and sets keyed by [`NodeId`].
//!
//! The standard library's default hasher (SipHash-1-3) is keyed per process
//! so that an adversary who picks the keys cannot force collisions. That
//! protection costs tens of nanoseconds per lookup, and the samplers' hot
//! loops do millions of lookups keyed by node: per-step visit counts of the
//! walk history, neighbor-list caches, crawl indexes.
//!
//! [`NodeIdHasher`] is an unkeyed multiplicative hash instead. That is safe
//! here because these keys are never arbitrary input: a [`NodeId`] is a
//! dense graph-internal index in `0..n`, bounded by the node count, and a
//! map keyed by it holds at most `n` entries. The hash (a multiply by an odd
//! 64-bit constant, then an xor-fold) is a bijection on the id, so distinct
//! ids never share a full hash, and both dense and strided ids fill a
//! table's buckets about as evenly as a random hash would.
//!
//! ```
//! use wnw_graph::{NodeId, NodeMap, NodeSet};
//!
//! let mut visits: NodeMap<u64> = NodeMap::default();
//! *visits.entry(NodeId(3)).or_insert(0) += 1;
//! assert_eq!(visits.get(&NodeId(3)), Some(&1));
//!
//! let seen: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
//! assert!(seen.contains(&NodeId(2)));
//! ```

use crate::NodeId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit golden-ratio constant of Fibonacci hashing (odd, so
/// multiplication by it is invertible modulo 2^64).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// An unkeyed multiplicative hasher for [`NodeId`] keys.
///
/// A `NodeId` hashes as one `u32` write: the state is mixed with the id and
/// multiplied by an odd constant. [`finish`](Hasher::finish) folds the
/// product's high half into its low half, so the low bits the table uses to
/// pick a bucket depend on every bit of the id; ids that share their low
/// bits (such as multiples of a power of two) therefore still spread. Other
/// writes fold in byte by byte, so the hasher works (slowly) for any key
/// type.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeIdHasher(u64);

impl NodeIdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for NodeIdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by [`NodeId`] with the unkeyed [`NodeIdHasher`].
/// Create one with `NodeMap::default()`.
pub type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// A `HashSet` of [`NodeId`]s with the unkeyed [`NodeIdHasher`].
/// Create one with `NodeSet::default()`.
pub type NodeSet = HashSet<NodeId, BuildHasherDefault<NodeIdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: NodeId) -> u64 {
        BuildHasherDefault::<NodeIdHasher>::default().hash_one(v)
    }

    #[test]
    fn distinct_ids_hash_distinctly() {
        let hashes: HashSet<u64> = (0..100_000u32).map(|i| hash_of(NodeId(i))).collect();
        assert_eq!(hashes.len(), 100_000);
    }

    #[test]
    fn strided_ids_spread_over_low_bits() {
        // Multiples of 1024 share their low ten bits; after the fold the low
        // bits the table indexes by still take many values.
        let buckets: HashSet<u64> = (0..1024u32)
            .map(|i| hash_of(NodeId(i << 10)) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} buckets used", buckets.len());
    }

    #[test]
    fn dense_ids_fill_buckets_like_a_random_hash() {
        // A random hash puts n keys into about 63 % of n buckets.
        let n = 1u64 << 14;
        let buckets: HashSet<u64> = (0..n as u32)
            .map(|i| hash_of(NodeId(i)) & (n - 1))
            .collect();
        assert!(
            buckets.len() as u64 > n / 2,
            "{} buckets used",
            buckets.len()
        );
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut map: NodeMap<u64> = NodeMap::default();
        for i in 0..1000u32 {
            *map.entry(NodeId(i % 100)).or_insert(0) += 1;
        }
        assert_eq!(map.len(), 100);
        assert!(map.values().all(|&c| c == 10));
        let set: NodeSet = (0..10u32).map(NodeId).collect();
        assert!(set.contains(&NodeId(9)) && !set.contains(&NodeId(10)));
    }

    #[test]
    fn non_node_keys_still_hash() {
        let mut a = NodeIdHasher::default();
        "abc".hash(&mut a);
        let mut b = NodeIdHasher::default();
        "abd".hash(&mut b);
        assert_ne!(a.finish(), b.finish());
    }
}
