//! Reply collection: per-site capture, central aggregation.
//!
//! §3.1: "We must capture traffic for the measurement address ... These
//! captures must happen concurrently at all anycast sites" and "we copy
//! all responses to a central site for analysis ... with a custom program
//! that forwards traffic after tagging it with its site." This module is
//! that custom program: each site's log is parsed in site-id order into
//! one stream with a deterministic (time, site, source) merge order.

use vp_bgp::SiteId;
use vp_net::{Ipv4Addr, SimTime};
use vp_packet::IcmpMessage;
use vp_sim::SiteCapture;

/// A reply as it arrives at the central analysis point: parsed, tagged with
/// the capturing site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawReply {
    pub site: SiteId,
    pub at: SimTime,
    pub src: Ipv4Addr,
    /// ICMP identifier of the reply.
    pub ident: u16,
    /// Decoded hitlist index from the payload, if the payload was ours.
    pub index: Option<u64>,
}

/// Parses one site capture into a [`RawReply`]; non-ICMP or non-echo-reply
/// traffic is discarded here (the capture filter on the measurement
/// address).
pub fn parse_capture(cap: &SiteCapture) -> Option<RawReply> {
    if cap.packet.protocol != vp_packet::Protocol::Icmp {
        return None;
    }
    match IcmpMessage::parse_view(&cap.packet.payload) {
        Ok(IcmpMessage::EchoReply { ident, payload, .. }) => Some(RawReply {
            site: cap.site,
            at: cap.at,
            src: cap.packet.src,
            ident,
            index: crate::prober::Prober::decode_payload(&payload),
        }),
        _ => None,
    }
}

/// Forwards per-site captures to the central aggregator: each site's
/// log is parsed in site-id order and the merged stream is returned
/// sorted by `(time, site, src)`, so downstream processing sees one
/// deterministic arrival timeline.
pub fn forward_to_central(captures_by_site: Vec<Vec<SiteCapture>>) -> Vec<RawReply> {
    // One pre-sized allocation (replies never outnumber captures);
    // parsing filters without regrowth.
    let mut all: Vec<RawReply> = Vec::with_capacity(captures_by_site.iter().map(Vec::len).sum());
    for caps in &captures_by_site {
        all.extend(caps.iter().filter_map(parse_capture));
    }
    // The sort is total on (at, site, src).
    all.sort_by_key(|r| (r.at, r.site, r.src));
    all
}

/// Splits a flat capture log into per-site logs (what each site's capture
/// box would have recorded locally).
pub fn split_by_site(captures: Vec<SiteCapture>, num_sites: usize) -> Vec<Vec<SiteCapture>> {
    // vp-lint: allow(p1): one log per site, split once per engine after the event loop.
    let mut by_site: Vec<Vec<SiteCapture>> = (0..num_sites).map(|_| Vec::new()).collect();
    for cap in captures {
        let idx = cap.site.index();
        assert!(idx < num_sites, "capture at unknown site {}", cap.site);
        by_site[idx].push(cap); // vp-lint: allow(g1): idx is asserted in range on the line above.
    }
    by_site
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use vp_packet::{Ipv4Packet, Protocol};

    fn reply_capture(site: u8, at: u64, src: u32, ident: u16, index: u64) -> SiteCapture {
        let icmp = IcmpMessage::EchoReply {
            ident,
            seq: 0,
            payload: crate::prober::Prober::encode_payload(index),
        };
        SiteCapture {
            site: SiteId(site),
            at: SimTime(at),
            packet: Ipv4Packet::new(
                Ipv4Addr(src),
                Ipv4Addr::new(240, 0, 0, 1),
                Protocol::Icmp,
                icmp.emit(),
            ),
        }
    }

    #[test]
    fn parse_extracts_fields() {
        let cap = reply_capture(2, 55, 0x01020304, 9, 42);
        let r = parse_capture(&cap).unwrap();
        assert_eq!(r.site, SiteId(2));
        assert_eq!(r.at, SimTime(55));
        assert_eq!(r.src, Ipv4Addr(0x01020304));
        assert_eq!(r.ident, 9);
        assert_eq!(r.index, Some(42));
    }

    #[test]
    fn parse_drops_requests_and_non_icmp() {
        let req = IcmpMessage::echo_request(1, 2, Bytes::new());
        let cap = SiteCapture {
            site: SiteId(0),
            at: SimTime(0),
            packet: Ipv4Packet::new(Ipv4Addr(1), Ipv4Addr(2), Protocol::Icmp, req.emit()),
        };
        assert!(parse_capture(&cap).is_none());
        let udp = SiteCapture {
            site: SiteId(0),
            at: SimTime(0),
            packet: Ipv4Packet::new(Ipv4Addr(1), Ipv4Addr(2), Protocol::Udp, Bytes::new()),
        };
        assert!(parse_capture(&udp).is_none());
    }

    #[test]
    fn foreign_payload_has_no_index() {
        let icmp = IcmpMessage::EchoReply {
            ident: 1,
            seq: 2,
            payload: Bytes::from_static(b"something else"),
        };
        let cap = SiteCapture {
            site: SiteId(0),
            at: SimTime(0),
            packet: Ipv4Packet::new(Ipv4Addr(1), Ipv4Addr(2), Protocol::Icmp, icmp.emit()),
        };
        let r = parse_capture(&cap).unwrap();
        assert_eq!(r.index, None);
    }

    #[test]
    fn forwarding_merges_all_sites_deterministically() {
        let caps = vec![
            vec![reply_capture(0, 30, 10, 1, 0), reply_capture(0, 10, 11, 1, 1)],
            vec![reply_capture(1, 20, 12, 1, 2)],
            vec![],
        ];
        let merged = forward_to_central(caps.clone());
        assert_eq!(merged.len(), 3);
        // Sorted by time across sites.
        assert_eq!(merged[0].at, SimTime(10));
        assert_eq!(merged[1].at, SimTime(20));
        assert_eq!(merged[2].at, SimTime(30));
        // Re-run gives identical output.
        assert_eq!(forward_to_central(caps), merged);
    }

    #[test]
    fn split_by_site_partitions() {
        let flat = vec![
            reply_capture(0, 1, 1, 1, 0),
            reply_capture(2, 2, 2, 1, 1),
            reply_capture(0, 3, 3, 1, 2),
        ];
        let split = split_by_site(flat, 3);
        assert_eq!(split[0].len(), 2);
        assert_eq!(split[1].len(), 0);
        assert_eq!(split[2].len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn split_rejects_out_of_range_site() {
        split_by_site(vec![reply_capture(5, 1, 1, 1, 0)], 3);
    }
}
