//! Catchment oracles: who receives a packet sent to the anycast prefix.
//!
//! The engine resolves the receiving site of anycast-bound traffic through
//! a [`CatchmentOracle`] so that measurements can run against a converged
//! routing table ([`StaticOracle`]) or one with per-round instability
//! ([`FlippingOracle`], used for the Fig. 9 / Table 7 stability study).

use std::sync::Arc;

use vp_bgp::{FlipModel, RoutingTable, SiteId};
use vp_net::{SimDuration, SimTime};
use vp_topology::blocks::BlockInfo;
use vp_topology::graph::AsGraph;

/// Resolves which anycast site traffic from a block reaches at an instant.
pub trait CatchmentOracle {
    /// The receiving site, or `None` if the block's AS has no route.
    fn site_of_block(&self, block: &BlockInfo, at: SimTime) -> Option<SiteId>;
}

/// A time-invariant oracle over a converged routing table.
///
/// The table is held behind an [`Arc`] so that the sharded scan path can
/// hand every shard its own boxed oracle while sharing one converged
/// table: [`StaticOracle::shared`] costs a refcount bump where a deep
/// table clone costs thousands of allocations (the §17 allocation
/// witness counts shard setup against the scan's budget).
#[derive(Debug, Clone)]
pub struct StaticOracle {
    table: Arc<RoutingTable>,
}

impl StaticOracle {
    pub fn new(table: RoutingTable) -> Self {
        StaticOracle {
            table: Arc::new(table),
        }
    }

    /// Builds an oracle over an already-shared table without copying it.
    pub fn shared(table: Arc<RoutingTable>) -> Self {
        StaticOracle { table }
    }

    pub fn table(&self) -> &RoutingTable {
        &self.table
    }
}

impl CatchmentOracle for StaticOracle {
    fn site_of_block(&self, block: &BlockInfo, _at: SimTime) -> Option<SiteId> {
        self.table.site_of_pop(block.pop)
    }
}

/// An oracle whose choice may flip between measurement rounds.
///
/// Table, graph and flip model sit behind [`Arc`]s for the same reason as
/// [`StaticOracle`]'s table: every engine of every round gets its own
/// boxed oracle, and [`FlippingOracle::shared`] makes that a refcount
/// bump instead of three deep clones.
#[derive(Debug, Clone)]
pub struct FlippingOracle {
    table: Arc<RoutingTable>,
    graph: Arc<AsGraph>,
    model: Arc<FlipModel>,
    round: SimDuration,
}

impl FlippingOracle {
    /// Wraps a converged table with a flip model; `round` is the interval
    /// after which a new flip decision is drawn (15 min in the paper).
    pub fn new(
        table: RoutingTable,
        graph: AsGraph,
        model: FlipModel,
        round: SimDuration,
    ) -> Self {
        Self::shared(Arc::new(table), Arc::new(graph), Arc::new(model), round)
    }

    /// Builds an oracle over already-shared inputs without copying them.
    pub fn shared(
        table: Arc<RoutingTable>,
        graph: Arc<AsGraph>,
        model: Arc<FlipModel>,
        round: SimDuration,
    ) -> Self {
        assert!(round > SimDuration::ZERO, "round must be positive");
        FlippingOracle {
            table,
            graph,
            model,
            round,
        }
    }

    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    fn round_of(&self, at: SimTime) -> u32 {
        vp_net::conv::sat_u32(at.as_nanos() / self.round.as_nanos())
    }
}

impl CatchmentOracle for FlippingOracle {
    fn site_of_block(&self, block: &BlockInfo, at: SimTime) -> Option<SiteId> {
        self.model
            .site_of_pop_at_round(&self.table, &self.graph, block.pop, self.round_of(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_bgp::{Announcement, BgpSim};
    use vp_topology::{broot_specs, pick_host_ases, Internet, TopologyConfig};

    fn setup() -> (Internet, RoutingTable) {
        let w = Internet::generate(TopologyConfig::tiny(13));
        let ann = Announcement::from_placements(&pick_host_ases(&w, &broot_specs()), 0);
        let table = BgpSim::new(&w.graph, 1).route(&ann);
        (w, table)
    }

    #[test]
    fn static_oracle_is_time_invariant() {
        let (w, table) = setup();
        let oracle = StaticOracle::new(table);
        for b in w.blocks.iter().take(50) {
            let s0 = oracle.site_of_block(b, SimTime::ZERO);
            let s1 = oracle.site_of_block(b, SimTime(1u64 << 50));
            assert_eq!(s0, s1);
            assert!(s0.is_some());
        }
    }

    #[test]
    fn flipping_oracle_matches_static_in_round_zero() {
        let (w, table) = setup();
        let st = StaticOracle::new(table.clone());
        let fl = FlippingOracle::new(
            table,
            w.graph.clone(),
            FlipModel::stable(1),
            SimDuration::from_mins(15),
        );
        let t = SimTime::ZERO + SimDuration::from_mins(5); // still round 0
        for b in w.blocks.iter().take(50) {
            assert_eq!(st.site_of_block(b, t), fl.site_of_block(b, t));
        }
    }

    #[test]
    fn round_boundaries_quantize_time() {
        let (w, table) = setup();
        let fl = FlippingOracle::new(
            table,
            w.graph.clone(),
            FlipModel::stable(1),
            SimDuration::from_mins(15),
        );
        assert_eq!(fl.round_of(SimTime::ZERO), 0);
        assert_eq!(fl.round_of(SimTime::ZERO + SimDuration::from_mins(14)), 0);
        assert_eq!(fl.round_of(SimTime::ZERO + SimDuration::from_mins(15)), 1);
        assert_eq!(fl.round_of(SimTime::ZERO + SimDuration::from_hours(24)), 96);
        // Keep `w` alive for clarity of the borrowed graph clone.
        drop(w);
    }
}
