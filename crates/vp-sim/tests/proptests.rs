//! Property-based tests of the discrete-event engine.

use bytes::Bytes;
use proptest::prelude::*;
use vp_bgp::Announcement;
use vp_net::{Ipv4Addr, SimTime};
use vp_packet::{IcmpMessage, Ipv4Packet, Protocol};
use vp_sim::{FaultConfig, NetworkSim, Scenario, StaticOracle};
use vp_topology::TopologyConfig;

fn scenario(seed: u64) -> Scenario {
    Scenario::broot(
        TopologyConfig {
            seed,
            num_ases: 80,
            num_tier1: 4,
            max_blocks: 1000,
            max_prefixes_per_as: 20,
            max_blocks_per_prefix: 16,
            ..TopologyConfig::default()
        },
        7,
    )
}

fn probe(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, seq: u16) -> Ipv4Packet {
    Ipv4Packet::new(
        src,
        dst,
        Protocol::Icmp,
        IcmpMessage::echo_request(ident, seq, Bytes::new()).emit(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation: every injected probe is lost, undeliverable, or
    /// delivered — and capture counts never exceed generated replies plus
    /// unsolicited traffic.
    #[test]
    fn packet_conservation(world_seed in 0u64..3000, sim_seed in any::<u64>(), loss in 0.0f64..0.5) {
        let s = scenario(world_seed);
        let ann = s.announcement.clone();
        let meas = ann.measurement_addr();
        let faults = FaultConfig { loss, unsolicited_prob: 0.01, ..FaultConfig::default() };
        let mut sim = NetworkSim::new(&s.world, faults, sim_seed);
        let svc = sim.register_service(ann, Box::new(StaticOracle::new(s.routing())), false);
        let n = s.world.blocks.len().min(300);
        for (i, b) in s.world.blocks.iter().take(n).enumerate() {
            sim.send_at(SimTime(i as u64 * 1_000_000), probe(meas, b.representative(), 1, i as u16));
        }
        sim.run();
        let st = sim.stats();
        prop_assert_eq!(st.injected, n as u64);
        // Every transmission (probes + replies + dups + unsolicited) ends
        // in exactly one of: lost, host delivery, site delivery, undeliverable.
        let transmissions = st.injected + st.replies + st.duplicates + st.unsolicited;
        prop_assert_eq!(
            transmissions,
            st.lost + st.delivered_to_hosts + st.delivered_to_sites + st.undeliverable,
            "conservation violated: {:?}", st
        );
        prop_assert!(sim.captures(svc).len() as u64 <= st.delivered_to_sites);
    }

    /// Replies never outnumber delivered probes (modulo duplicates), and
    /// with faults off the reply count equals up-block deliveries.
    #[test]
    fn clean_channel_reply_accounting(world_seed in 0u64..3000) {
        let s = scenario(world_seed);
        let ann = s.announcement.clone();
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 1);
        let svc = sim.register_service(ann, Box::new(StaticOracle::new(s.routing())), false);
        let mut expected = 0u64;
        for (i, b) in s.world.blocks.iter().enumerate() {
            sim.send_at(SimTime(i as u64 * 100_000), probe(meas, b.representative(), 2, i as u16));
            if b.responsive {
                expected += 1;
            }
        }
        sim.run();
        prop_assert_eq!(sim.stats().replies, expected);
        prop_assert_eq!(sim.captures(svc).len() as u64, expected);
        prop_assert_eq!(sim.stats().duplicates, 0);
        prop_assert_eq!(sim.stats().lost, 0);
    }

    /// Arrival times never precede transmission times.
    #[test]
    fn causality(world_seed in 0u64..3000, offset_ms in 0u64..100_000) {
        let s = scenario(world_seed);
        let ann = s.announcement.clone();
        let meas = ann.measurement_addr();
        let start = SimTime::ZERO + vp_net::SimDuration::from_millis(offset_ms);
        let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 3);
        let svc = sim.register_service(ann, Box::new(StaticOracle::new(s.routing())), false);
        for (i, b) in s.world.responsive_blocks().take(100).enumerate() {
            sim.send_at(start, probe(meas, b.representative(), 3, i as u16));
        }
        sim.run();
        for cap in sim.captures(svc) {
            prop_assert!(cap.at >= start, "capture at {} before send at {}", cap.at, start);
        }
    }
}

/// Three responsive blocks homed on one PoP of a world whose blocks all
/// sit at their PoP: every hop among them takes exactly the latency floor.
fn co_located(s: &Scenario) -> (Ipv4Addr, Ipv4Addr, Ipv4Addr) {
    let mut by_pop: std::collections::BTreeMap<u32, Vec<Ipv4Addr>> = Default::default();
    for b in s.world.responsive_blocks() {
        by_pop.entry(b.pop.0).or_default().push(b.representative());
    }
    let hosts = by_pop.into_values().max_by_key(Vec::len).unwrap_or_default();
    assert!(hosts.len() >= 3, "need three co-located responsive blocks");
    (hosts[0], hosts[1], hosts[2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming sends through `dispatch_before` at random cut points
    /// dispatches exactly what injecting everything and then `run` does.
    /// Sends land on 1 ms slots, so many share a send time; with every
    /// reply late by a whole number of slots, the late reply to a request
    /// `a` → `b` reaches `a` at the instant a packet injected toward `a`
    /// later does. A cut between the two makes the engine push the reply
    /// first, and only the injected-before-dispatched tie-break restores
    /// the inject-all order.
    #[test]
    fn streamed_dispatch_matches_inject_all(
        world_seed in 0u64..3000,
        late_ms in 1u64..40,
        sends in prop::collection::vec((0u64..300, 0u8..3, any::<bool>()), 1..400),
    ) {
        let s = Scenario::broot(
            TopologyConfig { unlocatable_fraction: 1.0, ..TopologyConfig::tiny(world_seed) },
            7,
        );
        let (a, b, c) = co_located(&s);
        let meas = s.announcement.measurement_addr();
        let responsive: Vec<Ipv4Addr> =
            s.world.responsive_blocks().map(|b| b.representative()).collect();
        let ms = vp_net::SimDuration::from_millis(1).as_nanos();
        // kind 0: a probe; 1: a request `a` → `b`; 2: the request plus the
        // packet toward `a` that ties with its late reply. The flag marks a
        // cut before the send.
        let mut schedule: Vec<(SimTime, Ipv4Packet, bool)> = Vec::new();
        for (i, &(slot, kind, cut)) in sends.iter().enumerate() {
            let at = SimTime(slot * ms);
            let seq = i as u16;
            match kind {
                0 => schedule.push((at, probe(meas, responsive[i % responsive.len()], 1, seq), cut)),
                _ => {
                    schedule.push((at, probe(a, b, 2, seq), cut));
                    if kind == 2 {
                        let lag = SimTime(at.0 + 2 * ms + late_ms * ms);
                        let icmp = IcmpMessage::EchoReply { ident: 3, seq, payload: Bytes::new() };
                        schedule.push((lag, Ipv4Packet::new(c, a, Protocol::Icmp, icmp.emit()), cut));
                    }
                }
            }
        }
        schedule.sort_by_key(|&(at, _, _)| at);
        let faults = FaultConfig {
            late_prob: 1.0,
            late_delay: vp_net::SimDuration::from_millis(late_ms),
            ..FaultConfig::default()
        };
        let run = |stream: bool| {
            let mut sim = NetworkSim::new(&s.world, faults.clone(), 5);
            let svc = sim.register_service(
                s.announcement.clone(),
                Box::new(StaticOracle::new(s.routing())),
                false,
            );
            for (at, packet, cut) in &schedule {
                if stream && *cut {
                    sim.dispatch_before(*at);
                }
                sim.send_at(*at, packet.clone());
            }
            sim.run();
            let caps: Vec<(u8, u64, Ipv4Packet)> =
                sim.captures(svc).iter().map(|c| (c.site.0, c.at.0, c.packet.clone())).collect();
            let hosts: Vec<(u64, Ipv4Packet)> =
                sim.host_deliveries().iter().map(|d| (d.at.0, d.packet.clone())).collect();
            (caps, hosts, sim.stats(), sim.now())
        };
        let (want, got) = (run(false), run(true));
        prop_assert_eq!(got.0, want.0, "captures differ");
        prop_assert_eq!(got.1, want.1, "host deliveries differ");
        prop_assert_eq!(got.2, want.2, "stats differ");
        prop_assert_eq!(got.3, want.3, "final clocks differ");
    }
}

#[test]
fn service_registration_order_is_stable() {
    let s = scenario(1);
    let ann_a = s.announcement.clone();
    let ann_b = {
        let placements = vp_topology::pick_host_ases(&s.world, &[("X", "DE"), ("Y", "JP")]);
        Announcement::from_placements(&placements, 3)
    };
    let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 4);
    let a = sim.register_service(ann_a, Box::new(StaticOracle::new(s.routing())), false);
    let table_b = s.routing_for(&ann_b);
    let b = sim.register_service(ann_b, Box::new(StaticOracle::new(table_b)), true);
    assert_ne!(a.0, b.0);
    assert!(sim.captures(a).is_empty());
    assert!(sim.captures(b).is_empty());
}

// Merge algebra for the per-shard statistics counters.
// vp-lint: merge-tested(SimStats::merge)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SimStats::merge` is field-wise addition — including the variable-
    /// length `per_site_captures` vector, which sums element-wise with
    /// zero-padding — so folding any permutation of shard stats must give
    /// the same totals, and grouping must not matter:
    /// (a + b) + c == a + (b + c).
    #[test]
    fn sim_stats_merge_is_associative_and_commutative(
        counts in prop::collection::vec(
            (
                (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
                (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
                (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
                // Per-site capture vectors of *different* lengths, so the
                // zero-padding path is exercised in every merge order.
                prop::collection::vec(0u64..1_000_000, 0..5),
            ),
            1..6,
        ),
    ) {
        let stats: Vec<vp_sim::SimStats> = counts
            .iter()
            .map(|&((i, dh, ds), (l, r, d), (a, u, n), ref sites)| vp_sim::SimStats {
                injected: i,
                delivered_to_hosts: dh,
                delivered_to_sites: ds,
                lost: l,
                replies: r,
                duplicates: d,
                aliases: a,
                unsolicited: u,
                undeliverable: n,
                per_site_captures: sites.clone(),
            })
            .collect();

        // Forward and reverse folds agree.
        let mut forward = vp_sim::SimStats::default();
        for s in &stats {
            forward.merge(s);
        }
        let mut reverse = vp_sim::SimStats::default();
        for s in stats.iter().rev() {
            reverse.merge(s);
        }
        prop_assert_eq!(&forward, &reverse);

        // Each per-site slot is the sum over inputs long enough to have it.
        let want_len = stats.iter().map(|s| s.per_site_captures.len()).max().unwrap_or(0);
        prop_assert_eq!(forward.per_site_captures.len(), want_len);
        for slot in 0..want_len {
            let want: u64 = stats
                .iter()
                .filter_map(|s| s.per_site_captures.get(slot))
                .sum();
            prop_assert_eq!(forward.per_site_captures[slot], want);
        }

        // Associativity on the first three (padded with defaults).
        let a = stats.first().cloned().unwrap_or_default();
        let b = stats.get(1).cloned().unwrap_or_default();
        let c = stats.get(2).cloned().unwrap_or_default();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);

        // The empty stats value is a two-sided identity.
        let mut id = vp_sim::SimStats::default();
        id.merge(&a);
        prop_assert_eq!(&id, &a);
        let mut right = a.clone();
        right.merge(&vp_sim::SimStats::default());
        prop_assert_eq!(&right, &a);
    }
}
