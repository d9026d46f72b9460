//! The discrete-event engine: packet delivery, host behaviours, captures.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use rand::SeedableRng;
use rand_pcg::Pcg64;
use vp_bgp::{Announcement, SiteId};
use vp_net::conv;
use vp_net::{Ipv4Addr, SimTime};
use vp_packet::{DnsMessage, IcmpMessage, Ipv4Packet, Protocol, UdpDatagram};
use vp_topology::blocks::BlockInfo;
use vp_topology::Internet;

use crate::faults::FaultConfig;
use crate::latency::LatencyModel;
use crate::oracle::CatchmentOracle;

/// Handle of a registered anycast service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceHandle(pub usize);

// Domain-separation tags for keyed stochastic draws. Every fault decision
// hashes (round seed ^ tag, event key) so outcomes are pure functions of
// packet identity — independent of the order events are processed in, and
// therefore identical whether one engine or K sharded engines run the scan.
const TAG_LOSS: u64 = 0x1055_0001;
const TAG_UNSOLICITED: u64 = 0xbac0_0002;
const TAG_UNSOLICITED_PICK: u64 = 0xbac0_0003;
const TAG_JITTER: u64 = 0x1177_0004;
const TAG_ALIAS: u64 = 0xa11a_0005;
const TAG_ALIAS_OCTET: u64 = 0xa11a_0006;
const TAG_LATE: u64 = 0x1a7e_0007;
const TAG_DUPLICATE: u64 = 0xd0b1_0008;
const TAG_DUPLICATE_COUNT: u64 = 0xd0b1_0009;

/// The seed for one shard's auxiliary RNG stream, derived from the round
/// seed so every shard gets a distinct, reproducible stream. Keyed fault
/// draws do NOT use this (they use the round seed directly, which is what
/// makes sharded runs bit-identical to serial ones); the derived seed only
/// decorrelates whatever auxiliary entropy an engine instance consumes.
pub fn derive_shard_seed(round_seed: u64, shard_index: u64) -> u64 {
    mix(round_seed ^ 0x51a4_d5ee_d000_0000, shard_index)
}

/// A packet captured by a site's collector, tagged with site and time —
/// exactly what the paper's per-site capture systems (custom capture,
/// LANDER, tcpdump; §3.1) forward to the central analysis.
#[derive(Debug, Clone)]
pub struct SiteCapture {
    pub site: SiteId,
    pub at: SimTime,
    pub packet: Ipv4Packet,
}

/// A packet delivered to an ordinary host (e.g. an Atlas VP receiving its
/// DNS answer) that the engine did not auto-consume.
#[derive(Debug, Clone)]
pub struct HostDelivery {
    pub at: SimTime,
    pub packet: Ipv4Packet,
}

/// Counters over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets injected by applications.
    pub injected: u64,
    /// Packets that reached an ordinary host.
    pub delivered_to_hosts: u64,
    /// Packets that reached an anycast site collector.
    pub delivered_to_sites: u64,
    /// Transmissions dropped by the loss fault.
    pub lost: u64,
    /// Echo replies generated by hosts (excluding duplicates).
    pub replies: u64,
    /// Extra duplicate replies generated.
    pub duplicates: u64,
    /// Replies sourced from an alias address.
    pub aliases: u64,
    /// Unsolicited packets injected toward services.
    pub unsolicited: u64,
    /// Packets with no deliverable destination.
    pub undeliverable: u64,
    /// Captures per anycast site, indexed by `SiteId` — the per-site
    /// telemetry the paper's capture systems report (§3.1). Shorter than
    /// the site count when high-numbered sites captured nothing.
    pub per_site_captures: Vec<u64>,
}

impl SimStats {
    /// Field-wise accumulation; used to merge per-shard runs. Addition of
    /// counters is associative and commutative, so the merge order of
    /// disjoint shard results cannot change the total.
    pub fn merge(&mut self, other: &SimStats) {
        self.injected += other.injected;
        self.delivered_to_hosts += other.delivered_to_hosts;
        self.delivered_to_sites += other.delivered_to_sites;
        self.lost += other.lost;
        self.replies += other.replies;
        self.duplicates += other.duplicates;
        self.aliases += other.aliases;
        self.unsolicited += other.unsolicited;
        self.undeliverable += other.undeliverable;
        // Element-wise sum with zero-padding: the empty vector is the
        // identity, and padding keeps the fold associative when shards saw
        // different site-index ranges.
        if self.per_site_captures.len() < other.per_site_captures.len() {
            self.per_site_captures
                .resize(other.per_site_captures.len(), 0);
        }
        for (mine, theirs) in self
            .per_site_captures
            .iter_mut()
            .zip(&other.per_site_captures)
        {
            *mine += theirs;
        }
    }
}

/// Per-engine observability state: a metrics registry, a tracer, and the
/// shared sim-time cell the event loop advances. Attached on demand with
/// [`NetworkSim::attach_obs`]; everything recorded here derives from
/// simulated time and event content, so an attached engine stays exactly
/// as deterministic as a bare one.
pub struct EngineObs {
    pub registry: vp_obs::Registry,
    pub tracer: vp_obs::Tracer,
    clock: vp_obs::SimClock,
}

impl EngineObs {
    /// Ring-buffer capacity for `Full`-level event traces, per engine.
    pub const EVENT_CAPACITY: usize = 256;

    pub fn new(level: vp_obs::TraceLevel) -> EngineObs {
        let clock = vp_obs::SimClock::new();
        EngineObs {
            registry: vp_obs::Registry::new(),
            tracer: vp_obs::Tracer::new(Box::new(clock.clone()), level, Self::EVENT_CAPACITY),
            clock,
        }
    }
}

struct Service {
    announcement: Announcement,
    oracle: Box<dyn CatchmentOracle>,
    captures: Vec<SiteCapture>,
    /// Whether site hosts answer DNS (hostname.bind) and pings.
    serve_dns: bool,
    /// `hostname.bind` answer per site, precomputed at registration so the
    /// per-reply DNS path never formats a hostname (rule p1).
    hostnames: Vec<String>,
}

enum Target {
    Site { service: usize, site: SiteId },
    Host { block_idx: u32 },
}

/// Which side of the event loop pushed an event. Application sends (and
/// the backscatter they spawn) are `Injected`; traffic pushed while an
/// event is being dispatched is `Dispatched`. At equal arrival times
/// injected events go first: the order of an inject-everything-then-run
/// engine, which streamed injection ([`NetworkSim::dispatch_before`])
/// must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Injected,
    Dispatched,
}

struct Scheduled {
    at: SimTime,
    phase: Phase,
    /// Push order within `phase`.
    seq: u64,
    packet: Ipv4Packet,
    target: Target,
    /// Precomputed echo-reply wire image riding along with a probe
    /// (see [`NetworkSim::send_probe_at`]); `None` for all other traffic.
    /// Never part of the event identity: ordering keys on
    /// `(at, phase, seq)` and fault draws on the packet content alone.
    reply_image: Option<bytes::Bytes>,
}

impl Scheduled {
    fn key(&self) -> (SimTime, Phase, u64) {
        (self.at, self.phase, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The discrete-event network simulator.
///
/// Applications inject packets with [`NetworkSim::send_at`]; [`run`]
/// processes the event queue to completion; results are read from
/// [`captures`], [`host_deliveries`] and [`stats`]. A sender whose send
/// times never decrease may interleave its sends with
/// [`dispatch_before`], so the queue holds only traffic in flight; the
/// dispatch order is the same as injecting everything before [`run`].
///
/// [`run`]: NetworkSim::run
/// [`dispatch_before`]: NetworkSim::dispatch_before
/// [`captures`]: NetworkSim::captures
/// [`host_deliveries`]: NetworkSim::host_deliveries
/// [`stats`]: NetworkSim::stats
pub struct NetworkSim<'w> {
    world: &'w Internet,
    services: Vec<Service>,
    faults: FaultConfig,
    latency: LatencyModel,
    rng: Pcg64,
    seed: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Push counters of the two [`Phase`]s.
    injected_seq: u64,
    dispatched_seq: u64,
    /// The last `t` given to [`NetworkSim::dispatch_before`]; later sends
    /// may not be earlier.
    horizon: SimTime,
    now: SimTime,
    /// Events dispatched, and the first one's time, since the last
    /// [`NetworkSim::run`] reported them.
    dispatched: u64,
    first_at: Option<SimTime>,
    host_deliveries: Vec<HostDelivery>,
    stats: SimStats,
    obs: Option<EngineObs>,
}

/// Seed capacity for the event queue: covers the in-flight window of a
/// paced scan (probes outstanding between send and reply) so steady-state
/// pushes reuse the initial arena; the heap doubles beyond it.
const EVENT_QUEUE_SEED_CAPACITY: usize = 1024;

impl<'w> NetworkSim<'w> {
    /// Creates a simulator over a generated world.
    ///
    /// # Panics
    /// Panics if `faults` fails validation.
    // vp-lint: cold(fn): engine construction is scan setup, once per run.
    pub fn new(world: &'w Internet, faults: FaultConfig, seed: u64) -> Self {
        Self::new_shard(world, faults, seed, 0)
    }

    /// Creates the engine for one shard of a partitioned scan.
    ///
    /// The round `seed` drives every keyed fault draw (shared by all
    /// shards so their union reproduces the serial run exactly); the
    /// shard index only selects this engine's auxiliary RNG stream via
    /// [`derive_shard_seed`], so no two engines share generator state.
    ///
    /// # Panics
    /// Panics if `faults` fails validation.
    // vp-lint: cold(fn): shard construction runs once per shard, before the event loop.
    pub fn new_shard(
        world: &'w Internet,
        faults: FaultConfig,
        seed: u64,
        shard_index: u64,
    ) -> Self {
        // vp-lint: allow(h2): documented `# Panics` contract of this constructor.
        faults.validate().expect("invalid fault config");
        NetworkSim {
            world,
            services: Vec::with_capacity(1),
            faults,
            latency: LatencyModel::default(),
            rng: Pcg64::seed_from_u64(derive_shard_seed(seed, shard_index) ^ 0x51e7_0a11),
            seed,
            queue: BinaryHeap::with_capacity(EVENT_QUEUE_SEED_CAPACITY),
            injected_seq: 0,
            dispatched_seq: 0,
            horizon: SimTime::ZERO,
            now: SimTime::ZERO,
            dispatched: 0,
            first_at: None,
            host_deliveries: Vec::new(),
            stats: SimStats::default(),
            obs: None,
        }
    }

    /// Attaches an observability sidecar: a metrics registry plus a tracer
    /// driven by this engine's sim clock. Call before [`NetworkSim::run`];
    /// collect with [`NetworkSim::take_obs`] afterwards.
    // vp-lint: cold(fn): sidecar attachment happens once, before the event loop.
    pub fn attach_obs(&mut self, level: vp_obs::TraceLevel) {
        self.obs = Some(EngineObs::new(level));
    }

    /// Detaches and returns the observability sidecar, if one is attached.
    pub fn take_obs(&mut self) -> Option<EngineObs> {
        self.obs.take()
    }

    /// This engine's auxiliary RNG stream. Fault decisions never touch it
    /// (they are keyed on packet identity); it exists so each engine has
    /// private, reproducible entropy, and so tests can observe that
    /// distinct shards draw from distinct streams.
    pub fn aux_rng(&mut self) -> &mut Pcg64 {
        &mut self.rng
    }

    /// Registers an anycast service; its collectors start capturing
    /// immediately. `serve_dns` makes the site hosts answer `hostname.bind`
    /// CHAOS queries and pings addressed to the service prefix.
    // vp-lint: cold(fn): service registration is scan setup, once per service.
    pub fn register_service(
        &mut self,
        announcement: Announcement,
        oracle: Box<dyn CatchmentOracle>,
        serve_dns: bool,
    ) -> ServiceHandle {
        let handle = ServiceHandle(self.services.len());
        // Precompute every site's hostname.bind answer here so the
        // per-reply DNS path in `arrive_at_site` never formats one.
        let hostnames = announcement
            .sites
            .iter()
            .map(|s| Self::site_hostname(handle, &s.name))
            .collect();
        self.services.push(Service {
            announcement,
            oracle,
            captures: Vec::new(),
            serve_dns,
            hostnames,
        });
        handle
    }

    /// The hostname a site's DNS server reports in `hostname.bind` replies.
    // vp-lint: cold(fn): computed once per site at service registration.
    pub fn site_hostname(service: ServiceHandle, site_name: &str) -> String {
        format!("{}.svc{}.example", site_name.to_ascii_lowercase(), service.0)
    }

    /// Current simulated time (the timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Injects a packet at simulated time `at`.
    ///
    /// The packet is routed by destination: into a service prefix (anycast,
    /// resolved through the sender's catchment), to a populated block's
    /// representative host, or dropped as undeliverable.
    pub fn send_at(&mut self, at: SimTime, packet: Ipv4Packet) {
        self.inject(at, packet, None);
    }

    /// [`send_at`] for probes carrying a precomputed echo-reply wire
    /// image (built batched by the prober alongside the probe itself).
    /// If the probe reaches a responsive host, the responder answers
    /// with `reply_image` instead of serializing a fresh reply — the
    /// image is asserted (in debug builds) byte-identical to the
    /// parse → reply → emit chain it replaces, so routing, fault draws
    /// and captures cannot tell the difference; the only observable
    /// change is zero per-reply allocations (the witness test's
    /// contract).
    ///
    /// [`send_at`]: NetworkSim::send_at
    pub fn send_probe_at(&mut self, at: SimTime, packet: Ipv4Packet, reply_image: bytes::Bytes) {
        self.inject(at, packet, Some(reply_image));
    }

    fn inject(&mut self, at: SimTime, packet: Ipv4Packet, reply_image: Option<bytes::Bytes>) {
        debug_assert!(
            at >= self.horizon,
            "send at {at:?} is earlier than an already dispatched horizon {:?}",
            self.horizon
        );
        self.stats.injected += 1;
        self.transmit(at, packet, Phase::Injected, true, 0, reply_image);
    }

    /// `copy` distinguishes otherwise-identical transmissions (duplicate
    /// fault copies of one reply) so each gets independent keyed draws.
    fn transmit(
        &mut self,
        at: SimTime,
        packet: Ipv4Packet,
        phase: Phase,
        may_spawn_unsolicited: bool,
        copy: u32,
        reply_image: Option<bytes::Bytes>,
    ) {
        // Identity of this transmission: packet content + send time + copy.
        // All stochastic outcomes below hash this, never a shared stream.
        let ek = mix(
            packet_key(&packet),
            at.as_nanos() ^ ((copy as u64) << 48),
        );
        if self.faults.loss > 0.0 && unit(mix(self.seed ^ TAG_LOSS, ek)) < self.faults.loss {
            self.stats.lost += 1;
            return;
        }
        // Unsolicited backscatter: a random block spontaneously answers the
        // measurement address when a probe goes out.
        if may_spawn_unsolicited
            && self.faults.unsolicited_prob > 0.0
            && self.service_of(packet.src).is_some()
            && unit(mix(self.seed ^ TAG_UNSOLICITED, ek)) < self.faults.unsolicited_prob
        {
            self.spawn_unsolicited(at, packet.src, ek);
        }

        let Some((target, src_idx)) = self.resolve(&packet, at) else {
            self.stats.undeliverable += 1;
            if let Some(obs) = &self.obs {
                if obs.tracer.is_full() {
                    obs.clock.set(at.as_nanos());
                    obs.tracer
                        .event("engine.undeliverable", format!("dst {}", packet.dst)); // vp-lint: allow(p1): event text only exists when a Full-level tracer is attached, never in measurement runs.
                }
            }
            return;
        };
        let delay = self.delay_for(&packet, &target, src_idx, ek);
        let seq = match phase {
            Phase::Injected => &mut self.injected_seq,
            Phase::Dispatched => &mut self.dispatched_seq,
        };
        *seq += 1;
        self.queue.push(Reverse(Scheduled {
            at: at + delay,
            phase,
            seq: *seq,
            packet,
            target,
            reply_image,
        }));
    }

    fn service_of(&self, addr: Ipv4Addr) -> Option<usize> {
        self.services
            .iter()
            .position(|s| s.announcement.prefix.contains(addr))
    }

    /// The packet's target, plus the sender's position in
    /// [`Internet::blocks`] when routing had to look it up — the one block
    /// search per packet, reused by [`NetworkSim::delay_for`].
    fn resolve(&self, packet: &Ipv4Packet, at: SimTime) -> Option<(Target, Option<u32>)> {
        if let Some(service) = self.service_of(packet.dst) {
            // Anycast-bound: the *sender's* catchment decides the site.
            let src_idx = self.world.block_idx(packet.src.block())?;
            let info = &self.world.blocks[conv::index(src_idx)]; // vp-lint: allow(g1): block_idx returns positions in this same blocks vec.
            let site = self.services[service].oracle.site_of_block(info, at)?; // vp-lint: allow(g1): service is a position returned by service_of over this same services vec.
            return Some((Target::Site { service, site }, Some(src_idx)));
        }
        let idx = self.world.block_idx(packet.dst.block())?;
        let info = &self.world.blocks[conv::index(idx)]; // vp-lint: allow(g1): block_idx returns positions in this same blocks vec.
        if packet.dst == info.representative() {
            return Some((Target::Host { block_idx: idx }, None));
        }
        None
    }

    // vp-lint: allow(g1): service/site/pop ids are minted by the world and services this engine owns.
    fn delay_for(
        &self,
        packet: &Ipv4Packet,
        target: &Target,
        src_idx: Option<u32>,
        ek: u64,
    ) -> vp_net::SimDuration {
        let from = self.loc_of_addr(packet.src, src_idx);
        let to = match target {
            Target::Site { service, site } => {
                let s = &self.services[*service].announcement.sites[site.index()];
                let pop = &self.world.graph.pops[s.pop.index()];
                (pop.lat, pop.lon)
            }
            Target::Host { block_idx } => self.world.block_location(*block_idx),
        };
        self.latency.delay(from, to, mix(self.seed ^ TAG_JITTER, ek))
    }

    /// Where `addr` sends from; `block_idx` is its block's position when
    /// the caller already looked it up.
    fn loc_of_addr(&self, addr: Ipv4Addr, block_idx: Option<u32>) -> (f64, f64) {
        if let Some(service) = self.service_of(addr) {
            // Measurement traffic originates "from the anycast system";
            // physically we charge it to the first site's PoP.
            let s = &self.services[service].announcement.sites[0];
            let pop = &self.world.graph.pops[s.pop.index()];
            return (pop.lat, pop.lon);
        }
        match block_idx.or_else(|| self.world.block_idx(addr.block())) {
            Some(idx) => self.world.block_location(idx),
            None => (0.0, 0.0),
        }
    }

    /// Whether a block is up at `at`, combining static responsiveness and
    /// per-round churn.
    pub fn block_up(&self, info: &BlockInfo, at: SimTime) -> bool {
        if !info.responsive {
            return false;
        }
        if self.faults.churn_down_prob <= 0.0 {
            return true;
        }
        let epoch = at.as_nanos() / self.faults.churn_round.as_nanos();
        let h = mix(self.seed ^ 0xc4u64, (info.block.0 as u64) << 24 | epoch);
        unit(h) >= self.faults.churn_down_prob
    }

    fn spawn_unsolicited(&mut self, at: SimTime, toward: Ipv4Addr, trigger_key: u64) {
        // Everything about the backscatter packet derives from the probe
        // that triggered it, so the spawn is placement-independent.
        let h = mix(self.seed ^ TAG_UNSOLICITED_PICK, trigger_key);
        let idx = conv::sat_usize(h % self.world.blocks.len() as u64);
        let src = self.world.blocks[idx].representative(); // vp-lint: allow(g1): idx is reduced modulo blocks.len(), and generated worlds always hold at least one block.
        let icmp = IcmpMessage::EchoReply {
            ident: conv::sat_u16(mix(h, 1) & 0xffff),
            seq: conv::sat_u16(mix(h, 2) & 0xffff),
            payload: bytes::Bytes::new(), // vp-lint: allow(p1): backscatter is a rare fault-injection event, not the per-probe path.
        };
        let pkt = Ipv4Packet::new(src, toward, Protocol::Icmp, icmp.emit());
        self.stats.unsolicited += 1;
        self.transmit(at, pkt, Phase::Injected, false, 0, None);
    }

    /// Dispatches every queued event that arrives before `t`. A paced
    /// sender calls this before injecting sends at `t` or later, so the
    /// queue holds only traffic in flight; the events and their order
    /// are those of injecting everything first and calling
    /// [`NetworkSim::run`]. Later sends must not be earlier than `t`
    /// (checked in debug builds).
    pub fn dispatch_before(&mut self, t: SimTime) {
        debug_assert!(t >= self.horizon, "dispatch horizon moved back to {t:?}");
        self.horizon = t;
        loop {
            let Some(head) = self.queue.peek_mut() else { break };
            if head.0.at >= t {
                break;
            }
            let Reverse(ev) = PeekMut::pop(head);
            self.dispatch(ev);
        }
    }

    /// Processes the event queue to completion.
    pub fn run(&mut self) {
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.dispatch(ev);
        }
        let dispatched = std::mem::take(&mut self.dispatched);
        let first_at = self.first_at.take();
        if let Some(obs) = &mut self.obs {
            // Events dispatched (here and by `dispatch_before` since the
            // last run) is conserved across sharding (each event belongs
            // to exactly one shard), so summed shard registries match the
            // serial engine's.
            obs.registry.counter_add("engine.events", &[], dispatched);
            if let Some(first) = first_at {
                // The whole-run phase span, in sim-time: first event to last.
                obs.tracer
                    .record_span("engine.run", first.as_nanos(), self.now.as_nanos());
            }
        }
    }

    fn dispatch(&mut self, ev: Scheduled) {
        self.now = ev.at;
        if let Some(obs) = &self.obs {
            obs.clock.set(ev.at.as_nanos());
        }
        self.dispatched += 1;
        self.first_at.get_or_insert(ev.at);
        match ev.target {
            Target::Site { service, site } => self.arrive_at_site(service, site, ev),
            Target::Host { block_idx } => self.arrive_at_host(block_idx, ev),
        }
    }

    // vp-lint: allow(g1): service and site ids come from this engine's own service table; per-site counters are resized before indexing.
    fn arrive_at_site(&mut self, service: usize, site: SiteId, ev: Scheduled) {
        self.stats.delivered_to_sites += 1;
        if self.stats.per_site_captures.len() <= site.index() {
            self.stats.per_site_captures.resize(site.index() + 1, 0);
        }
        self.stats.per_site_captures[site.index()] += 1;
        let at = ev.at;
        let packet = ev.packet;
        // vp-lint: allow(p1): capture log grows by doubling — O(log n) allocations per scan, pinned by the allocation witness test.
        self.services[service].captures.push(SiteCapture {
            site,
            at,
            packet: packet.clone(),
        });
        if !self.services[service].serve_dns {
            return;
        }
        // Site host behaviour: answer pings and hostname.bind queries.
        match packet.protocol {
            Protocol::Icmp => {
                if let Ok(msg) = IcmpMessage::parse_view(&packet.payload) {
                    if let Some(reply) = msg.reply() {
                        let out = Ipv4Packet::new(packet.dst, packet.src, Protocol::Icmp, reply.emit());
                        self.transmit(at, out, Phase::Dispatched, false, 0, None);
                    }
                }
            }
            Protocol::Udp => {
                let Ok(udp) = UdpDatagram::parse(&packet.payload, packet.src, packet.dst) else {
                    return;
                };
                if udp.dst_port != 53 {
                    return;
                }
                let Ok(query) = DnsMessage::parse(&udp.payload) else {
                    return;
                };
                let response = {
                    let name = &self.services[service].hostnames[site.index()];
                    DnsMessage::hostname_bind_response(&query, name)
                };
                let out_udp = UdpDatagram::new(udp.dst_port, udp.src_port, response.emit());
                let out = Ipv4Packet::new(
                    packet.dst,
                    packet.src,
                    Protocol::Udp,
                    out_udp.emit(packet.dst, packet.src),
                );
                self.transmit(at, out, Phase::Dispatched, false, 0, None);
            }
            Protocol::Other(_) => {}
        }
    }

    fn arrive_at_host(&mut self, block_idx: u32, ev: Scheduled) {
        self.stats.delivered_to_hosts += 1;
        let info = &self.world.blocks[conv::index(block_idx)]; // vp-lint: allow(g1): block indices are minted by routing over this same world.
        let at = ev.at;
        let packet = ev.packet;
        let reply_image = ev.reply_image;
        // Echo responder behaviour.
        if packet.protocol == Protocol::Icmp {
            if let Ok(msg @ IcmpMessage::EchoRequest { .. }) = IcmpMessage::parse_view(&packet.payload) {
                if !self.block_up(info, at) {
                    return;
                }
                let Some(reply) = msg.reply() else {
                    return;
                };
                let block = info.block;
                let rep = info.representative();
                // Identity of this reception: the probe's content plus its
                // (deterministic) arrival time keys every fault decision.
                let hk = mix(packet_key(&packet), at.as_nanos());

                // Alias fault: reply from a different address in the block.
                let src = if self.faults.alias_prob > 0.0
                    && unit(mix(self.seed ^ TAG_ALIAS, hk)) < self.faults.alias_prob
                {
                    self.stats.aliases += 1;
                    let mut octet = 1 + conv::sat_u8(mix(self.seed ^ TAG_ALIAS_OCTET, hk) % 254);
                    if block.addr(octet) == rep {
                        octet = octet.wrapping_add(1).max(1);
                    }
                    block.addr(octet)
                } else {
                    rep
                };

                // Late fault.
                let mut when = at;
                if self.faults.late_prob > 0.0
                    && unit(mix(self.seed ^ TAG_LATE, hk)) < self.faults.late_prob
                {
                    when = when + self.faults.late_delay;
                }

                // Duplicate fault: heavy-tailed extra copies.
                let copies = if self.faults.duplicate_prob > 0.0
                    && unit(mix(self.seed ^ TAG_DUPLICATE, hk)) < self.faults.duplicate_prob
                {
                    let u = unit(mix(self.seed ^ TAG_DUPLICATE_COUNT, hk)).max(1e-6);
                    let extra = conv::sat_f64_to_u32(u.powf(-0.7)).clamp(1, self.faults.max_duplicates);
                    self.stats.duplicates += extra as u64;
                    1 + extra
                } else {
                    1
                };

                self.stats.replies += 1;
                // Answer with the probe's precomputed reply image when it
                // carries one — a refcounted view, no per-reply
                // serialization or allocation. The image is pinned
                // byte-identical to the emit chain it replaces, here and
                // in the packet-layer equivalence tests.
                let payload = match reply_image {
                    Some(image) => {
                        debug_assert_eq!(
                            &image[..],
                            &reply.emit()[..],
                            "precomputed reply image diverges from the responder's emit"
                        );
                        image
                    }
                    None => reply.emit(),
                };
                let out = Ipv4Packet {
                    src,
                    dst: packet.src,
                    protocol: Protocol::Icmp,
                    ttl: 64,
                    ident: 0,
                    payload,
                };
                for copy in 0..copies {
                    self.transmit(when, out.clone(), Phase::Dispatched, false, copy, None);
                }
                return;
            }
        }
        // Anything else is handed to the application (Atlas VPs read their
        // DNS answers here).
        // vp-lint: allow(p1): app-delivery log grows by doubling — O(log n) allocations per scan, pinned by the allocation witness test.
        self.host_deliveries.push(HostDelivery { at, packet });
    }

    /// Captured packets at the sites of a service, in arrival order.
    pub fn captures(&self, handle: ServiceHandle) -> &[SiteCapture] {
        &self.services[handle.0].captures // vp-lint: allow(g1): ServiceHandles are minted by add_service on this sim.
    }

    /// Takes (drains) the captures of a service.
    pub fn take_captures(&mut self, handle: ServiceHandle) -> Vec<SiteCapture> {
        std::mem::take(&mut self.services[handle.0].captures) // vp-lint: allow(g1): ServiceHandles are minted by add_service on this sim.
    }

    /// Packets delivered to ordinary hosts that the engine didn't consume.
    pub fn host_deliveries(&self) -> &[HostDelivery] {
        &self.host_deliveries
    }

    /// Run counters.
    pub fn stats(&self) -> SimStats {
        self.stats.clone()
    }

    /// The world this simulator runs over.
    pub fn world(&self) -> &'w Internet {
        self.world
    }
}

/// Stable identity hash of a packet's full content (addresses, protocol,
/// header fields, payload bytes). Fault and jitter draws key on this —
/// mixed with the round seed, send time and a copy index — so that every
/// stochastic outcome is a pure function of *what* is transmitted, never
/// of how many draws some shared generator has already served. This is
/// the property that makes a K-way sharded scan bit-identical to the
/// serial one (see DESIGN.md, "Parallel scan & determinism").
fn packet_key(packet: &Ipv4Packet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in packet.payload.iter() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= (packet.src.0 as u64) << 32 | packet.dst.0 as u64;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (packet.protocol.number() as u64) << 24
        | (packet.ttl as u64) << 16
        | packet.ident as u64;
    mix(0x9ac4_e700_0000_0000, h)
}

fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::StaticOracle;
    use bytes::Bytes;
    use vp_bgp::BgpSim;
    use vp_net::SimDuration;
    use vp_topology::{broot_specs, pick_host_ases, Internet, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(99))
    }

    fn service(world: &Internet) -> (Announcement, StaticOracle) {
        let ann = Announcement::from_placements(&pick_host_ases(world, &broot_specs()), 0);
        let table = BgpSim::new(&world.graph, 1).route(&ann);
        (ann, StaticOracle::new(table))
    }

    fn probe(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, seq: u16) -> Ipv4Packet {
        let icmp = IcmpMessage::echo_request(ident, seq, Bytes::from_static(b"vp"));
        Ipv4Packet::new(src, dst, Protocol::Icmp, icmp.emit())
    }

    #[test]
    fn probe_reply_arrives_at_senders_catchment_site() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let table = oracle.table().clone();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 1);
        let svc = sim.register_service(ann, Box::new(oracle), false);

        // Probe every responsive block once.
        let mut expected = Vec::new();
        for (i, b) in w.responsive_blocks().enumerate() {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 7, i as u16));
            expected.push((b.representative(), table.site_of_pop(b.pop).unwrap()));
        }
        sim.run();

        let caps = sim.captures(svc);
        assert_eq!(caps.len(), expected.len(), "one reply per responsive block");
        for cap in caps {
            let (_, want_site) = expected
                .iter()
                .find(|(addr, _)| *addr == cap.packet.src)
                .expect("reply from a probed address");
            assert_eq!(cap.site, *want_site, "reply captured at wrong site");
            let msg = IcmpMessage::parse(&cap.packet.payload).unwrap();
            assert_eq!(msg.ident(), Some(7));
        }
    }

    #[test]
    fn unresponsive_blocks_stay_silent() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 1);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        for b in w.blocks.iter().filter(|b| !b.responsive).take(50) {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        }
        sim.run();
        assert!(sim.captures(svc).is_empty());
        assert_eq!(sim.stats().replies, 0);
    }

    #[test]
    fn dns_hostname_bind_names_the_receiving_site() {
        let w = world();
        let (ann, oracle) = service(&w);
        let table = oracle.table().clone();
        let anycast = ann.measurement_addr();
        let sites = ann.sites.clone();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 2);
        let svc = sim.register_service(ann, Box::new(oracle), true);

        let vp = w.responsive_blocks().next().unwrap();
        let expected_site = table.site_of_pop(vp.pop).unwrap();
        let query = DnsMessage::hostname_bind_query(0xabcd, false);
        let udp = UdpDatagram::new(40000, 53, query.emit());
        let pkt = Ipv4Packet::new(
            vp.representative(),
            anycast,
            Protocol::Udp,
            udp.emit(vp.representative(), anycast),
        );
        sim.send_at(SimTime::ZERO, pkt);
        sim.run();

        // The query was captured at the VP's catchment site...
        assert_eq!(sim.captures(svc).len(), 1);
        assert_eq!(sim.captures(svc)[0].site, expected_site);
        // ...and the VP received an answer naming that site.
        let deliveries = sim.host_deliveries();
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        let udp = UdpDatagram::parse(&d.packet.payload, d.packet.src, d.packet.dst).unwrap();
        let resp = DnsMessage::parse(&udp.payload).unwrap();
        assert_eq!(resp.id, 0xabcd);
        let name = resp.first_txt().unwrap();
        let site_name = &sites[expected_site.index()].name;
        assert_eq!(
            name,
            NetworkSim::site_hostname(ServiceHandle(0), site_name)
        );
    }

    #[test]
    fn site_answers_pings_to_the_service_address() {
        let w = world();
        let (ann, oracle) = service(&w);
        let anycast = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 3);
        let _svc = sim.register_service(ann, Box::new(oracle), true);
        let vp = w.responsive_blocks().next().unwrap();
        sim.send_at(SimTime::ZERO, probe(vp.representative(), anycast, 5, 6));
        sim.run();
        // The VP's echo reply comes back as a host delivery? No: the VP's
        // *request* is answered by the site; the reply to the VP is ICMP,
        // and the VP host consumes echo REPLIES by logging them.
        let d = sim.host_deliveries();
        assert_eq!(d.len(), 1);
        let msg = IcmpMessage::parse(&d[0].packet.payload).unwrap();
        assert_eq!(msg.ident(), Some(5));
        assert!(matches!(msg, IcmpMessage::EchoReply { .. }));
    }

    #[test]
    fn loss_drops_packets() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            loss: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 4);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        for b in w.responsive_blocks().take(20) {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        }
        sim.run();
        assert_eq!(sim.stats().lost, 20);
        assert!(sim.captures(svc).is_empty());
    }

    #[test]
    fn duplicates_and_aliases_are_injected() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            duplicate_prob: 1.0,
            max_duplicates: 5,
            alias_prob: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 5);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        let targets: Vec<_> = w.responsive_blocks().take(10).collect();
        for b in &targets {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        }
        sim.run();
        let caps = sim.captures(svc);
        assert!(caps.len() > targets.len(), "no duplicates captured");
        assert_eq!(sim.stats().aliases, 10);
        // All replies come from alias addresses, none from representatives.
        for cap in caps {
            let block = cap.packet.src.block();
            let info = w.block(block).unwrap();
            assert_ne!(cap.packet.src, info.representative());
        }
    }

    #[test]
    fn late_replies_are_delayed() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            late_prob: 1.0,
            late_delay: SimDuration::from_mins(20),
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 6);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        let b = w.responsive_blocks().next().unwrap();
        sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        sim.run();
        let caps = sim.captures(svc);
        assert_eq!(caps.len(), 1);
        assert!(caps[0].at >= SimTime::ZERO + SimDuration::from_mins(20));
    }

    #[test]
    fn churn_takes_some_blocks_down_per_round() {
        let w = world();
        let (ann, oracle) = service(&w);
        let faults = FaultConfig {
            churn_down_prob: 0.5,
            churn_round: SimDuration::from_mins(15),
            ..FaultConfig::none()
        };
        let sim_owner;
        {
            let mut sim = NetworkSim::new(&w, faults, 7);
            sim.register_service(ann, Box::new(oracle), false);
            sim_owner = sim;
        }
        let sim = sim_owner;
        let t0 = SimTime::ZERO;
        let t1 = SimTime::ZERO + SimDuration::from_mins(15);
        let blocks: Vec<_> = w.responsive_blocks().collect();
        let up0 = blocks.iter().filter(|b| sim.block_up(b, t0)).count();
        let changed = blocks
            .iter()
            .filter(|b| sim.block_up(b, t0) != sim.block_up(b, t1))
            .count();
        assert!(up0 > 0 && up0 < blocks.len(), "churn has no effect");
        assert!(changed > 0, "no churn transitions between rounds");
    }

    #[test]
    fn undeliverable_packets_are_counted() {
        let w = world();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 8);
        // Destination outside any populated block or service.
        let pkt = probe(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(250, 250, 250, 250),
            1,
            1,
        );
        sim.send_at(SimTime::ZERO, pkt);
        sim.run();
        assert_eq!(sim.stats().undeliverable, 1);
    }

    #[test]
    fn unsolicited_replies_reach_the_collector() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            unsolicited_prob: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 9);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        // Probe an unresponsive block: the only capture can be unsolicited.
        let b = w.blocks.iter().find(|b| !b.responsive).unwrap();
        sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        sim.run();
        assert_eq!(sim.stats().unsolicited, 1);
        // The unsolicited source is random; it may or may not route (its
        // block always exists), so at most one capture, usually one.
        assert!(sim.captures(svc).len() <= 1);
    }

    /// Late replies wait this long before they leave (see
    /// [`tie_heavy_schedule`]).
    const LATE: SimDuration = SimDuration::from_millis(100);

    /// A paced, tie-heavy send schedule over a world whose blocks all sit
    /// at their PoP: probes from `meas` to every responsive block in turn,
    /// one slot per 200 µs, plus echo traffic among three blocks homed on
    /// one PoP. Co-located hops take exactly the latency floor, and with
    /// every reply [`LATE`], the reply to a request `a` → `b` sent at `t`
    /// reaches `a` at `t + 2·floor + LATE` — the instant a packet injected
    /// toward `a` at `t + floor + LATE` arrives. The reply is pushed while
    /// the request is dispatched, long before that packet is injected, so
    /// a streamed engine holds the two in the opposite push order of an
    /// inject-everything engine: their host-delivery order is decided by
    /// the phase tie-break alone.
    fn tie_heavy_schedule(w: &Internet, meas: Ipv4Addr, slots: u64) -> Vec<(SimTime, Ipv4Packet)> {
        let responsive: Vec<&BlockInfo> = w.responsive_blocks().collect();
        let mut by_pop: std::collections::BTreeMap<u32, Vec<Ipv4Addr>> = Default::default();
        for b in &responsive {
            by_pop.entry(b.pop.0).or_default().push(b.representative());
        }
        let hosts = by_pop.into_values().max_by_key(Vec::len).unwrap();
        assert!(hosts.len() >= 3, "need three co-located responsive blocks");
        let (a, b, c) = (hosts[0], hosts[1], hosts[2]);
        let slot = 200_000;
        let floor = LatencyModel::default().base;
        let lag = (floor + LATE).as_nanos() / slot;
        assert_eq!(lag * slot, (floor + LATE).as_nanos(), "the tie needs slot-aligned delays");
        let mut sends = Vec::new();
        for i in 0..slots {
            let at = SimTime(i * slot);
            let dst = responsive[i as usize % responsive.len()].representative();
            sends.push((at, probe(meas, dst, 7, i as u16)));
            if i % 3 == 0 {
                sends.push((at, probe(a, b, 9, i as u16)));
            }
            if i >= lag && (i - lag) % 3 == 0 {
                let icmp = IcmpMessage::EchoReply { ident: 11, seq: i as u16, payload: Bytes::new() };
                sends.push((at, Ipv4Packet::new(c, a, Protocol::Icmp, icmp.emit())));
            }
        }
        sends
    }

    type Observed = (Vec<(u8, u64, Ipv4Packet)>, Vec<(u64, Ipv4Packet)>, SimStats);

    fn observe(sim: &NetworkSim<'_>, svc: ServiceHandle) -> Observed {
        let caps = sim.captures(svc).iter().map(|c| (c.site.0, c.at.0, c.packet.clone())).collect();
        let hosts = sim.host_deliveries().iter().map(|d| (d.at.0, d.packet.clone())).collect();
        (caps, hosts, sim.stats())
    }

    #[test]
    fn streamed_injection_dispatches_like_inject_all_then_run() {
        let w = Internet::generate(TopologyConfig {
            unlocatable_fraction: 1.0,
            ..TopologyConfig::tiny(99)
        });
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let sends = tie_heavy_schedule(&w, meas, 20_000);
        let engine = || {
            let faults = FaultConfig { late_prob: 1.0, late_delay: LATE, ..FaultConfig::default() };
            let mut sim = NetworkSim::new(&w, faults, 21);
            sim.attach_obs(vp_obs::TraceLevel::Summary);
            let svc = sim.register_service(ann.clone(), Box::new(oracle.clone()), false);
            (sim, svc)
        };

        let (mut all, svc) = engine();
        for (at, packet) in &sends {
            all.send_at(*at, packet.clone());
        }
        let inject_all_peak = all.queue.len();
        all.run();

        // The scan's shape: dispatch what is due, then inject a batch.
        let (mut streamed, svc2) = engine();
        let mut peak = 0;
        for batch in sends.chunks(1024) {
            streamed.dispatch_before(batch[0].0);
            for (at, packet) in batch {
                streamed.send_at(*at, packet.clone());
            }
            peak = peak.max(streamed.queue.len());
        }
        streamed.run();

        assert!(inject_all_peak > 20_000, "inject-all holds the whole schedule");
        assert!(peak < 3_000, "streamed queue peaked at {peak} events");
        let (want, got) = (observe(&all, svc), observe(&streamed, svc2));
        assert!(want.1.len() > 1_000, "the schedule must produce host deliveries");
        assert_eq!(got.0, want.0, "captures differ");
        assert_eq!(got.1, want.1, "host deliveries differ");
        assert_eq!(got.2, want.2, "stats differ");
        assert_eq!(streamed.now(), all.now());
        // `engine.events` and the `engine.run` span count the events
        // dispatched early too.
        let (a, b) = (all.take_obs().unwrap(), streamed.take_obs().unwrap());
        assert_eq!(a.registry.to_canonical_json(), b.registry.to_canonical_json());
        assert_eq!(a.tracer.drain().to_canonical_json(), b.tracer.drain().to_canonical_json());
    }

    #[test]
    fn runs_are_deterministic() {
        let w = world();
        let run = || {
            let (ann, oracle) = service(&w);
            let meas = ann.measurement_addr();
            let mut sim = NetworkSim::new(&w, FaultConfig::default(), 10);
            let svc = sim.register_service(ann, Box::new(oracle), false);
            for (i, b) in w.responsive_blocks().enumerate() {
                sim.send_at(
                    SimTime(i as u64 * 1000),
                    probe(meas, b.representative(), 3, i as u16),
                );
            }
            sim.run();
            let caps: Vec<(u8, u64, u32)> = sim
                .captures(svc)
                .iter()
                .map(|c| (c.site.0, c.at.0, c.packet.src.0))
                .collect();
            (caps, sim.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}
