//! Columnar RTT table: block → round-trip time, in fixed-point `u32`
//! nanoseconds.
//!
//! The scan pipeline's RTTs are probe-to-reply intervals that survive the
//! §4 cleaning cutoff (15 minutes by default, but every kept reply in
//! practice returns within seconds), so a `u32` nanosecond column — max
//! ~4.29 s — represents each kept RTT **exactly**; storage drops from the
//! tree's per-entry nodes to 8 bytes of payload per block across two
//! contiguous columns. Exactness is asserted in debug builds at insertion:
//! the fixed-point representation is a storage optimization, never a
//! rounding step, so [`RttTable::get`] returns bit-identical
//! [`SimDuration`]s to the historical `BTreeMap<Block24, SimDuration>`.

use vp_net::{conv, Block24, SimDuration};

/// Sorted block column plus a parallel fixed-point RTT column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RttTable {
    /// Mapped blocks, strictly ascending.
    blocks: Vec<Block24>,
    /// RTT of `blocks[i]` in nanoseconds, parallel to `blocks`.
    rtt_ns: Vec<u32>,
}

/// Packs an RTT into the fixed-point column representation.
///
/// Saturates at ~4.29 s in release builds; debug builds assert the value is
/// representable (cleaning admits nothing close to the limit — the probe
/// cutoff would have to exceed `u32::MAX` nanoseconds for a kept reply to
/// saturate).
fn pack_ns(rtt: SimDuration) -> u32 {
    debug_assert!(
        rtt.as_nanos() <= u64::from(u32::MAX),
        "RTT {} ns exceeds the u32 fixed-point range",
        rtt.as_nanos()
    );
    conv::sat_u32(rtt.as_nanos())
}

impl RttTable {
    /// Builds a table from `(block, rtt)` pairs. Input order is arbitrary;
    /// later pairs win on duplicate blocks, matching map-insert semantics.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Block24, SimDuration)>) -> RttTable {
        let mut rows: Vec<(Block24, u32)> =
            pairs.into_iter().map(|(b, r)| (b, pack_ns(r))).collect(); // vp-lint: allow(p1): one row buffer per table; a scan builds its table once per engine, after the event loop.
        // Stable sort + keep-last reproduces `BTreeMap::insert` semantics.
        rows.sort_by_key(|&(b, _)| b);
        let mut blocks = Vec::with_capacity(rows.len());
        let mut rtt_ns = Vec::with_capacity(rows.len());
        for (b, ns) in rows {
            if blocks.last() == Some(&b) {
                // vp-lint: allow(h2): last() == Some above proves non-emptiness.
                *rtt_ns.last_mut().expect("parallel columns") = ns;
            } else {
                blocks.push(b);
                rtt_ns.push(ns);
            }
        }
        RttTable { blocks, rtt_ns }
    }

    /// Number of blocks with a recorded RTT.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The RTT recorded for `block`, if any.
    pub fn get(&self, block: Block24) -> Option<SimDuration> {
        self.blocks
            .binary_search(&block)
            .ok()
            .map(|i| SimDuration::from_nanos(u64::from(self.rtt_ns[i]))) // vp-lint: allow(g1): binary_search ranks are below len and the columns are parallel.
    }

    /// Iterates `(block, rtt)` in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (Block24, SimDuration)> + '_ {
        self.blocks
            .iter()
            .copied()
            .zip(self.rtt_ns.iter().map(|&ns| SimDuration::from_nanos(u64::from(ns))))
    }

    /// Iterates RTT values in ascending block order.
    pub fn values(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.rtt_ns
            .iter()
            .map(|&ns| SimDuration::from_nanos(u64::from(ns)))
    }

    /// Absorbs another table's entries (disjoint union of per-shard
    /// tables; `other` wins where both map a block). Linear zip of sorted
    /// columns, with an O(1)-copy fast path for the append-only shard case.
    // vp-lint: merge-tested(RttTable::merge, suite=columnar_equivalence)
    pub fn merge(&mut self, other: &RttTable) {
        if other.is_empty() {
            return;
        }
        if self.blocks.last() < other.blocks.first() {
            self.blocks.extend_from_slice(&other.blocks);
            self.rtt_ns.extend_from_slice(&other.rtt_ns);
            return;
        }
        let mut blocks = Vec::with_capacity(self.blocks.len() + other.blocks.len());
        let mut rtt_ns = Vec::with_capacity(self.rtt_ns.len() + other.rtt_ns.len());
        let (mut i, mut j) = (0, 0);
        while i < self.blocks.len() && j < other.blocks.len() {
            let (a, b) = (self.blocks[i], other.blocks[j]); // vp-lint: allow(g1): i and j are bounded by the loop condition.
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    blocks.push(a);
                    rtt_ns.push(self.rtt_ns[i]); // vp-lint: allow(g1): columns are parallel.
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    blocks.push(b);
                    rtt_ns.push(other.rtt_ns[j]); // vp-lint: allow(g1): columns are parallel.
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    blocks.push(b);
                    rtt_ns.push(other.rtt_ns[j]); // vp-lint: allow(g1): columns are parallel; other wins like map insert.
                    i += 1;
                    j += 1;
                }
            }
        }
        blocks.extend_from_slice(&self.blocks[i..]); // vp-lint: allow(g1): i never exceeds len, per the loop condition.
        rtt_ns.extend_from_slice(&self.rtt_ns[i..]); // vp-lint: allow(g1): i never exceeds len, per the loop condition.
        blocks.extend_from_slice(&other.blocks[j..]); // vp-lint: allow(g1): j never exceeds len, per the loop condition.
        rtt_ns.extend_from_slice(&other.rtt_ns[j..]); // vp-lint: allow(g1): j never exceeds len, per the loop condition.
        self.blocks = blocks;
        self.rtt_ns = rtt_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(u32, u64)]) -> RttTable {
        RttTable::from_pairs(
            rows.iter()
                .map(|&(b, ms)| (Block24(b), SimDuration::from_millis(ms))),
        )
    }

    #[test]
    fn lookup_and_order() {
        let t = table(&[(5, 20), (1, 10), (3, 30)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(Block24(3)), Some(SimDuration::from_millis(30)));
        assert_eq!(t.get(Block24(4)), None);
        let order: Vec<u32> = t.iter().map(|(b, _)| b.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
        let values: Vec<u64> = t.values().map(|r| r.as_nanos()).collect();
        assert_eq!(values, vec![10_000_000, 30_000_000, 20_000_000]);
    }

    #[test]
    fn fixed_point_is_exact_for_kept_rtts() {
        // Sub-nanosecond-resolution values across the whole representable
        // range round-trip exactly.
        for ns in [0u64, 1, 999, 1_000_000, 123_456_789, u64::from(u32::MAX)] {
            let t = RttTable::from_pairs([(Block24(1), SimDuration::from_nanos(ns))]);
            assert_eq!(t.get(Block24(1)), Some(SimDuration::from_nanos(ns)));
        }
    }

    #[test]
    fn last_pair_wins_on_duplicates() {
        let t = table(&[(7, 10), (7, 25)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(Block24(7)), Some(SimDuration::from_millis(25)));
    }

    #[test]
    fn merge_matches_map_semantics() {
        let mut a = table(&[(1, 10), (5, 50)]);
        a.merge(&table(&[(3, 30)])); // interleave
        a.merge(&table(&[(9, 90)])); // append fast path
        a.merge(&RttTable::default());
        let got: Vec<(u32, u64)> = a.iter().map(|(b, r)| (b.0, r.as_nanos())).collect();
        assert_eq!(
            got,
            vec![
                (1, 10_000_000),
                (3, 30_000_000),
                (5, 50_000_000),
                (9, 90_000_000)
            ]
        );
    }

    #[test]
    fn empty_table() {
        let t = RttTable::default();
        assert!(t.is_empty());
        assert_eq!(t.get(Block24(0)), None);
        assert_eq!(t.values().count(), 0);
    }
}
