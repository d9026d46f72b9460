//! The assembled synthetic Internet.

use rand::SeedableRng;
use rand_pcg::Pcg64;
use vp_geo::GeoDb;
use vp_net::{Asn, BitSet, Block24, Ipv4Addr};

use crate::blocks::{generate_blocks, BlockInfo};
use crate::config::TopologyConfig;
use crate::graph::AsGraph;
use crate::index::BlockIndex;
use crate::lpm::ArenaLpm;
use crate::prefixes::{allocate_prefixes, PrefixInfo};

/// A complete generated world: AS graph, announced prefixes, populated
/// blocks, geolocation database and origin (Route Views-style) table.
///
/// Block-keyed state is columnar: a [`BlockIndex`] maps each `/24` to a
/// dense `u32` id (its rank in the sorted block universe), and boolean
/// attributes like responsiveness are packed [`BitSet`] columns over those
/// ids — the layout the million-block scan core indexes into directly.
#[derive(Debug, Clone)]
pub struct Internet {
    pub config: TopologyConfig,
    pub graph: AsGraph,
    pub prefixes: Vec<PrefixInfo>,
    pub blocks: Vec<BlockInfo>,
    pub geodb: GeoDb,
    /// Longest-prefix-match table from announced prefix to origin AS
    /// (arena-packed and path-compressed; node count stays `O(prefixes)`
    /// even for /24-heavy million-block tables).
    pub origin_table: ArenaLpm<Asn>,
    block_index: BlockIndex,
    /// Responsiveness column, keyed by dense block id.
    responsive: BitSet,
    /// `(lat, lon)` per block, parallel to `blocks`: the geodb location,
    /// or the homing PoP's for unlocatable blocks.
    locations: Vec<(f64, f64)>,
    prefixes_per_as: Vec<u32>,
}

impl Internet {
    /// Generates a world from the configuration (deterministic in the seed).
    pub fn generate(config: TopologyConfig) -> Internet {
        let mut rng = Pcg64::seed_from_u64(config.seed);
        let graph = AsGraph::generate(&config, &mut rng);
        let prefixes = allocate_prefixes(&graph, &config, &mut rng);
        let (blocks, geodb, locations) = generate_blocks(&graph, &prefixes, &config, &mut rng);

        let mut origin_table = ArenaLpm::new();
        let mut prefixes_per_as = vec![0u32; graph.len()];
        for info in &prefixes {
            origin_table.insert(info.prefix, info.origin);
            // vp-lint: allow(g1): prefix origins are AS ids drawn from this graph.
            prefixes_per_as[info.origin.index()] += 1;
        }
        let block_index = BlockIndex::from_pairs(
            blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (b.block, i as u32)),
        );
        let mut responsive = BitSet::new(blocks.len());
        for (id, (_, pos)) in block_index.iter().enumerate() {
            if blocks[vp_net::conv::index(pos)].responsive { // vp-lint: allow(g1): positions are indices into blocks, recorded at construction.
                responsive.set(id);
            }
        }

        Internet {
            config,
            graph,
            prefixes,
            blocks,
            geodb,
            origin_table,
            block_index,
            responsive,
            locations,
            prefixes_per_as,
        }
    }

    /// Attribute record for a block, if populated.
    pub fn block(&self, block: Block24) -> Option<&BlockInfo> {
        self.block_index
            .position_of(block)
            .map(|i| &self.blocks[i as usize]) // vp-lint: allow(g1): index positions are indices into blocks, recorded at construction.
    }

    /// Index of a populated block in [`Internet::blocks`].
    pub fn block_idx(&self, block: Block24) -> Option<u32> {
        self.block_index.position_of(block)
    }

    /// Where the block at `block_idx` in [`Internet::blocks`] sits: its
    /// geodb location, or its PoP's when the geodb has no entry for it.
    /// A column read — the simulator's per-packet latency lookup.
    pub fn block_location(&self, block_idx: u32) -> (f64, f64) {
        self.locations[vp_net::conv::index(block_idx)] // vp-lint: allow(g1): block positions index blocks, and locations is parallel to it.
    }

    /// Dense id of a populated block: its rank in the sorted block
    /// universe. Columns produced by the scan core are keyed by this id.
    pub fn block_id(&self, block: Block24) -> Option<u32> {
        self.block_index.id_of(block)
    }

    /// The columnar block index itself (id mint of the scan core).
    pub fn block_index(&self) -> &BlockIndex {
        &self.block_index
    }

    /// Whether the block with dense id `id` answers pings (bitset column).
    pub fn responsive_id(&self, id: u32) -> bool {
        self.responsive.get(vp_net::conv::index(id))
    }

    /// The packed responsiveness column, keyed by dense block id.
    pub fn responsive_bits(&self) -> &BitSet {
        &self.responsive
    }

    /// Iterates populated blocks in ascending block (= dense id) order —
    /// the canonical order of every column and of the hitlist. Streaming
    /// consumers use this instead of materializing a sorted copy.
    pub fn blocks_in_order(&self) -> impl Iterator<Item = &BlockInfo> + '_ {
        self.block_index
            .iter()
            .map(|(_, pos)| &self.blocks[vp_net::conv::index(pos)]) // vp-lint: allow(g1): index positions are indices into blocks, recorded at construction.
    }

    /// The origin AS announcing the covering prefix of `ip`, if any.
    pub fn origin_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.origin_table.longest_match(ip).map(|(_, asn)| *asn)
    }

    /// Number of prefixes announced by `asn`.
    pub fn announced_prefixes(&self, asn: Asn) -> u32 {
        self.prefixes_per_as[asn.index()] // vp-lint: allow(g1): prefixes_per_as is sized to the AS count of the world that minted asn.
    }

    /// Iterator over blocks whose representative address answers pings.
    pub fn responsive_blocks(&self) -> impl Iterator<Item = &BlockInfo> {
        self.blocks.iter().filter(|b| b.responsive)
    }

    /// Total daily queries across all blocks (the DITL-day volume).
    pub fn total_daily_queries(&self) -> f64 {
        self.blocks.iter().map(|b| b.daily_queries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(11))
    }

    #[test]
    fn block_lookup_roundtrip() {
        let w = world();
        for b in w.blocks.iter().take(100) {
            let got = w.block(b.block).unwrap();
            assert_eq!(got.block, b.block);
        }
        assert!(w.block(Block24(0)).is_none()); // below 1.0.0.0
    }

    #[test]
    fn origin_table_agrees_with_blocks() {
        let w = world();
        for b in w.blocks.iter().take(200) {
            let origin = w.origin_of(b.block.addr(1)).unwrap();
            assert_eq!(origin, b.origin);
        }
    }

    #[test]
    fn announced_prefix_counts_sum() {
        let w = world();
        let total: u32 = (0..w.graph.len() as u32)
            .map(|i| w.announced_prefixes(Asn(i)))
            .sum();
        assert_eq!(total as usize, w.prefixes.len());
    }

    #[test]
    fn responsive_iterator_filters() {
        let w = world();
        assert!(w.responsive_blocks().all(|b| b.responsive));
        let n = w.responsive_blocks().count();
        assert!(n > 0 && n < w.blocks.len());
    }

    #[test]
    fn responsive_bitset_matches_block_attributes() {
        let w = world();
        assert_eq!(w.responsive_bits().len(), w.blocks.len());
        assert_eq!(
            w.responsive_bits().count_ones(),
            w.responsive_blocks().count()
        );
        for b in w.blocks.iter().take(200) {
            let id = w.block_id(b.block).unwrap();
            assert_eq!(w.responsive_id(id), b.responsive, "block {}", b.block);
        }
    }

    #[test]
    fn dense_ids_are_sorted_block_ranks() {
        let w = world();
        let mut prev = None;
        for (id, b) in w.blocks_in_order().enumerate() {
            if let Some(p) = prev {
                assert!(p < b.block, "blocks_in_order not strictly ascending");
            }
            prev = Some(b.block);
            assert_eq!(w.block_id(b.block), Some(id as u32));
        }
        assert_eq!(w.blocks_in_order().count(), w.blocks.len());
    }

    #[test]
    fn location_column_matches_geodb_or_pop() {
        // Every tenth block unlocatable, so both branches are exercised.
        let w = Internet::generate(TopologyConfig {
            unlocatable_fraction: 0.1,
            ..TopologyConfig::tiny(11)
        });
        for (i, b) in w.blocks.iter().enumerate() {
            let want = match w.geodb.locate(b.block) {
                Some(loc) => (loc.lat, loc.lon),
                None => {
                    let pop = &w.graph.pops[b.pop.index()];
                    (pop.lat, pop.lon)
                }
            };
            assert_eq!(w.block_location(i as u32), want, "block {}", b.block);
        }
        assert!(w.geodb.len() < w.blocks.len(), "no unlocatable block drawn");
    }

    #[test]
    fn total_daily_queries_positive() {
        let w = world();
        assert!(w.total_daily_queries() > 0.0);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = Internet::generate(TopologyConfig::tiny(5));
        let b = Internet::generate(TopologyConfig::tiny(5));
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert_eq!(a.prefixes.len(), b.prefixes.len());
    }
}
