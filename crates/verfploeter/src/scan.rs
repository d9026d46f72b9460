//! A full Verfploeter measurement: probe → capture → forward → clean → map.

use vp_bgp::Announcement;
use vp_hitlist::Hitlist;
use vp_net::conv;
use vp_net::{SimDuration, SimTime};
use vp_sim::{CatchmentOracle, FaultConfig, NetworkSim, ShardExecutor};
use vp_topology::Internet;

use crate::catchment::CatchmentMap;
use crate::cleaning::{clean, CleaningStats};
use crate::collector::{forward_to_central, split_by_site};
use crate::prober::{ProbeConfig, Prober, PROBE_BATCH};
use crate::rtt::RttTable;

/// Configuration of one measurement round.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Dataset tag, e.g. "SBV-5-15".
    pub name: String,
    /// Probing parameters (rate, round identifier, order seed).
    pub probe: ProbeConfig,
    /// Late-reply cutoff from measurement start (15 minutes in §4).
    pub cutoff: SimDuration,
    /// Trace detail recorded into [`ScanResult::obs`]. Affects only the
    /// trace summary (spans/events), never the metrics registry or any
    /// measurement output.
    pub trace: vp_obs::TraceLevel,
    /// Optional wall-time flight channel. When a binary attaches one
    /// (library code never constructs wall clocks — lint rule d4), the
    /// scan records host-time phase and shard intervals into
    /// [`ScanObs::wall_flight`]. Affects only that timeline: the
    /// measurement outputs, the registry, and the sim-time flight channel
    /// stay byte-identical with or without it.
    pub wall: Option<vp_obs::WallChannel>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            name: "SBV".to_owned(),
            probe: ProbeConfig::default(),
            cutoff: SimDuration::from_mins(15),
            trace: vp_obs::TraceLevel::Summary,
            wall: None,
        }
    }
}

/// The outcome of one measurement round.
#[derive(Debug, Clone)]
pub struct ScanResult {
    pub catchments: CatchmentMap,
    pub cleaning: CleaningStats,
    /// Probes transmitted (one per hitlist entry).
    pub probes_sent: u64,
    /// When the round started / when the last probe left.
    pub started: SimTime,
    pub last_probe: SimTime,
    /// Round-trip time per mapped block (probe transmission to reply
    /// arrival at the capturing site). The paper's §7 notes these RTTs
    /// "can be used to suggest where new anycast sites would be helpful".
    /// Keyed in block order so downstream reports iterate deterministically;
    /// stored as a fixed-point columnar [`RttTable`] (exact — see its docs).
    pub rtts: RttTable,
    /// Simulator counters for the round.
    pub sim_stats: vp_sim::SimStats,
    /// Observability snapshot for the round (metrics + trace).
    pub obs: ScanObs,
}

/// The observability snapshot of one scan: a metrics registry, a trace
/// summary, and the shard layout.
///
/// The **registry** holds only shard-count-invariant series — pure sums of
/// per-packet or per-index contributions — so `run_scan` and
/// `run_scan_sharded(K)` produce byte-identical registries for every K
/// (asserted by the sharded-equivalence suite via
/// [`vp_obs::Registry::to_canonical_json`]). Anything that legitimately
/// depends on the shard layout (per-shard probe counts, per-engine run
/// spans in [`ScanObs::trace`]) lives *outside* the registry.
#[derive(Debug, Clone)]
pub struct ScanObs {
    /// Merged metrics: `scan.*`, `sim.*`, `clean.*`, `catchment.*`,
    /// `engine.*` series. Shard-count-invariant.
    pub registry: vp_obs::Registry,
    /// Merged span aggregates and (at `Full` level) events. Per-engine
    /// spans like `engine.run` appear once per engine, so this is NOT
    /// shard-count-invariant — diagnostics, not results.
    pub trace: vp_obs::TraceSummary,
    /// Sim-time at which the last event was processed (max across shards;
    /// equals the serial engine's final clock, and is asserted so).
    pub sim_end: SimTime,
    /// Probes assigned per shard, in shard order (length 1 for the serial
    /// path). Feeds the shard-balance section of run reports.
    pub shard_probes: Vec<u64>,
    /// Sim-time flight timeline for the round (DESIGN.md §15): phase
    /// intervals derived from shard-invariant sim-time marks, so it is
    /// **inside** the §7 contract — byte-identical serial vs sharded for
    /// every K (asserted via [`vp_obs::FlightTimeline::to_canonical_json`]).
    pub flight: vp_obs::FlightTimeline,
    /// Wall-time flight timeline, populated only when
    /// [`ScanConfig::wall`] carries a channel: host-time phase spans plus
    /// per-shard executor intervals (queue wait / compute / barrier
    /// wait). Explicitly **outside** the determinism contract.
    pub wall_flight: vp_obs::FlightTimeline,
}

/// RTT histogram bucket bounds in nanoseconds: 1 ms to ~25 min, growing
/// ×1.5 per bucket — wide enough for every in-cutoff reply at fine-grained
/// low-latency resolution.
pub fn rtt_bucket_bounds() -> Vec<u64> {
    vp_obs::Histogram::exponential(1_000_000, 3, 2, 36)
        .bounds()
        .to_vec()
}

/// Ring capacity for the wall-time flight recorders: generous for one
/// round's phase + executor spans, bounded against runaway instrumentation.
const FLIGHT_CAPACITY: usize = 4096;

/// A recorder on the scan's wall-time flight channel, if one is attached.
fn wall_recorder(config: &ScanConfig) -> Option<vp_obs::FlightRecorder> {
    let channel = config.wall.clone()?;
    Some(vp_obs::FlightRecorder::new(Box::new(channel), FLIGHT_CAPACITY)) // vp-lint: allow(p1): one recorder per engine and per round, never per probe.
}

/// Builds the round's **sim-time** flight timeline from shard-invariant
/// marks: round start, last probe transmission, and the final sim clock.
/// The merge derives these from the engines' merged artifacts, so the
/// timeline is inside the §7 contract by construction — it cannot see the
/// shard layout at all.
fn sim_flight(started: SimTime, last_probe: SimTime, sim_end: SimTime) -> vp_obs::FlightTimeline {
    let t0 = started.as_nanos();
    let tp = last_probe.as_nanos().max(t0);
    let te = sim_end.as_nanos().max(tp);
    let rec = vp_obs::FlightRecorder::new(Box::new(vp_obs::SimClock::new()), 16);
    rec.record_interval("scan.round", "round", None, t0, te);
    // Schedule walk and probe build happen while probes leave: in
    // sim-time both occupy [start, last probe].
    rec.record_interval("scan.schedule_walk", "probe", None, t0, tp);
    rec.record_interval("scan.probe_build", "probe", None, t0, tp);
    // The simulator then drains in-flight traffic until the last event.
    rec.record_interval("scan.sim_dispatch", "sim", None, tp, te);
    // Cleaning and catchment building run after the simulation: zero
    // sim-time width at the round's end mark.
    rec.record_interval("scan.cleaning", "clean", None, te, te);
    rec.record_interval("scan.catchment_build", "map", None, te, te);
    rec.drain()
}

impl ScanResult {
    /// Blocks that were probed but produced no (usable) reply.
    ///
    /// Saturates at zero: a caller may pass the length of a *stale*
    /// hitlist (e.g. the previous round's, shorter after block churn), and
    /// a map can never meaningfully have negative non-responders.
    pub fn non_responding(&self, hitlist_len: usize) -> usize {
        hitlist_len.saturating_sub(self.catchments.len())
    }

    /// Response rate over the hitlist.
    pub fn response_rate(&self, hitlist_len: usize) -> f64 {
        self.catchments.len() as f64 / hitlist_len as f64
    }
}

/// The reused buffers of one probe batch: scheduled indices and send
/// times accumulate until [`ProbeBatch::flush`] builds and injects them.
struct ProbeBatch {
    indices: Vec<u64>,
    ats: Vec<SimTime>,
    packets: Vec<vp_packet::Ipv4Packet>,
    reply_images: Vec<bytes::Bytes>,
}

impl ProbeBatch {
    fn new() -> Self {
        ProbeBatch {
            indices: Vec::with_capacity(PROBE_BATCH),
            ats: Vec::with_capacity(PROBE_BATCH),
            packets: Vec::with_capacity(PROBE_BATCH),
            reply_images: Vec::with_capacity(PROBE_BATCH),
        }
    }

    /// Builds the batch's packets **and their precomputed reply images**
    /// through the allocation-amortized
    /// [`Prober::build_probes_with_replies`] (two shared wire buffers,
    /// incremental checksums) and injects them in schedule order, which
    /// keeps the engine's per-packet sequence numbers — and therefore the
    /// §7 keyed fault draws — identical whatever the shard layout.
    /// Responders answer with the precomputed image, so the reply path
    /// allocates nothing per probe.
    ///
    /// Pacing is monotone, so every event due before the batch's first
    /// send is dispatched first: the engine's queue holds one batch plus
    /// the traffic in flight, never the whole schedule.
    fn flush(
        &mut self,
        prober: &Prober,
        hitlist: &Hitlist,
        source: vp_net::Ipv4Addr,
        sim: &mut NetworkSim<'_>,
    ) {
        if let Some(&first) = self.ats.first() {
            sim.dispatch_before(first);
        }
        let (packets, images) = (&mut self.packets, &mut self.reply_images);
        prober.build_probes_with_replies(hitlist, &self.indices, source, packets, images);
        for ((packet, image), &at) in packets.drain(..).zip(images.drain(..)).zip(&self.ats) {
            sim.send_probe_at(at, packet, image);
        }
        self.indices.clear();
        self.ats.clear();
    }
}

/// One round's shared inputs: everything an engine needs besides its
/// shard coordinates and its oracle.
struct Round<'a> {
    world: &'a Internet,
    hitlist: &'a Hitlist,
    announcement: &'a Announcement,
    faults: FaultConfig,
    start: SimTime,
    config: &'a ScanConfig,
    sim_seed: u64,
}

/// What one engine hands to the merge. Tracers and flight recorders hold
/// `Rc` state, so an engine drains both into detached (`Send`) values
/// before its outcome crosses a thread boundary.
struct EngineOutcome {
    catchments: CatchmentMap,
    cleaning: CleaningStats,
    rtts: RttTable,
    sim_stats: vp_sim::SimStats,
    /// Probes per engine, in shard order (one entry until merged).
    shard_probes: Vec<u64>,
    last_probe: SimTime,
    sim_end: SimTime,
    obs_registry: vp_obs::Registry,
    obs_trace: vp_obs::TraceSummary,
    /// The engine's wall-time phase spans; empty without a wall channel.
    wall_flight: vp_obs::FlightTimeline,
}

impl EngineOutcome {
    /// Folds the next engine's outcome into this one. Engines cover
    /// disjoint hitlist ranges, so the unions are disjoint and the sums
    /// exact.
    fn merge(&mut self, o: EngineOutcome) {
        self.catchments.merge(&o.catchments);
        self.cleaning.merge(&o.cleaning);
        self.rtts.merge(&o.rtts);
        self.sim_stats.merge(&o.sim_stats);
        self.shard_probes.extend(o.shard_probes);
        self.last_probe = self.last_probe.max(o.last_probe);
        // The union of the engines' event streams is the one-engine
        // event stream, so the max final clock is its final clock.
        self.sim_end = self.sim_end.max(o.sim_end);
        self.obs_registry.merge(&o.obs_registry);
        self.obs_trace.merge(&o.obs_trace);
        self.wall_flight.merge(&o.wall_flight);
    }

    /// Turns the merged outcome of a round into its result, adding the
    /// registry series derived from the merged (shard-invariant) round
    /// artifacts, so registries agree byte for byte whatever the shard
    /// count.
    // vp-lint: cold(fn): once-per-round observability assembly, after the event loops have drained.
    fn into_result(self, started: SimTime, announcement: &Announcement) -> ScanResult {
        let probes_sent = self.shard_probes.iter().sum();
        let mut registry = self.obs_registry;
        let flight = sim_flight(started, self.last_probe, self.sim_end);
        // Only the sim channel's overflow count may enter the registry: wall
        // channel depth varies with the shard layout, and the registry must
        // stay shard-count-invariant.
        registry.counter_add("flight.dropped_records", &[], flight.dropped);

        let site_name = |idx: usize| {
            announcement
                .sites
                .get(idx)
                .map_or("unknown", |s| s.name.as_str())
        };

        registry.counter_add("scan.probes_sent", &[], probes_sent);
        registry.counter_add("scan.blocks_mapped", &[], self.catchments.len() as u64);

        registry.counter_add("sim.injected", &[], self.sim_stats.injected);
        registry.counter_add("sim.replies", &[], self.sim_stats.replies);
        registry.counter_add("sim.lost", &[], self.sim_stats.lost);
        registry.counter_add("sim.duplicates", &[], self.sim_stats.duplicates);
        registry.counter_add("sim.aliases", &[], self.sim_stats.aliases);
        registry.counter_add("sim.unsolicited", &[], self.sim_stats.unsolicited);
        registry.counter_add("sim.undeliverable", &[], self.sim_stats.undeliverable);
        registry.counter_add("sim.delivered_to_hosts", &[], self.sim_stats.delivered_to_hosts);
        registry.counter_add("sim.delivered_to_sites", &[], self.sim_stats.delivered_to_sites);
        for (idx, n) in self.sim_stats.per_site_captures.iter().enumerate() {
            registry.counter_add("sim.site_captures", &[("site", site_name(idx))], *n);
        }

        registry.counter_add("clean.total", &[], self.cleaning.total);
        registry.counter_add("clean.duplicates", &[], self.cleaning.duplicates);
        registry.counter_add("clean.foreign", &[], self.cleaning.foreign);
        registry.counter_add("clean.unprobed_source", &[], self.cleaning.unprobed_source);
        registry.counter_add("clean.late", &[], self.cleaning.late);
        registry.counter_add("clean.kept", &[], self.cleaning.kept);

        for (site, count) in self.catchments.site_counts() {
            registry.counter_add(
                "catchment.blocks",
                &[("site", site_name(site.index()))],
                count as u64,
            );
        }

        // One insert for the whole RTT column: `histogram_observe` allocates
        // its `MetricKey` on every call, which at ~one reply per probe was the
        // single largest allocator source in the scan (the §17 witness counts
        // it). Building the histogram locally and inserting once produces the
        // identical registry state — including its absence when no reply
        // carried an RTT.
        if !self.rtts.is_empty() {
            let mut hist = vp_obs::Histogram::new(rtt_bucket_bounds());
            for rtt in self.rtts.values() {
                hist.observe(rtt.as_nanos());
            }
            registry.insert_histogram("scan.rtt_ns", &[], hist);
        }

        ScanResult {
            catchments: self.catchments,
            cleaning: self.cleaning,
            probes_sent,
            started,
            last_probe: self.last_probe,
            rtts: self.rtts,
            sim_stats: self.sim_stats,
            obs: ScanObs {
                registry,
                trace: self.obs_trace,
                sim_end: self.sim_end,
                shard_probes: self.shard_probes,
                flight,
                wall_flight: self.wall_flight,
            },
        }
    }
}

impl Round<'_> {
    /// The scan pipeline of engine `k` out of `shards` — its only copy:
    /// [`run_scan`] runs engine 0 of 1, [`run_scan_sharded_on`] runs
    /// engines `0..shards` on an executor.
    ///
    /// The engine walks the round's global schedule itself, so every
    /// probe keeps the send time and relative injection order it has in
    /// a one-engine round. It keeps the indices in its contiguous
    /// [`Hitlist::shard_bounds`] range and streams them in
    /// [`PROBE_BATCH`] bursts into a private simulator, which dispatches
    /// what is due before each burst, drains the simulator, then
    /// forwards, cleans (§4) and maps its replies. Send times are kept
    /// for its own range only.
    fn scan_engine(
        &self,
        k: usize,
        shards: usize,
        oracle: Box<dyn CatchmentOracle>, // vp-lint: allow(p4): each engine takes ownership of its oracle once, at setup.
    ) -> EngineOutcome {
        let (hitlist, config, start) = (self.hitlist, self.config, self.start);
        let range = hitlist.shard_bounds(shards)[k].clone(); // vp-lint: allow(g1): both scan entry points only run engines k < shards.
        let shard_id = Some(u32::try_from(k).unwrap_or(u32::MAX));
        let wall_rec = wall_recorder(config);
        // Each engine gets the round seed (keyed fault draws must agree
        // across layouts) but an engine-distinct auxiliary RNG stream.
        let mut sim =
            NetworkSim::new_shard(self.world, self.faults.clone(), self.sim_seed, k as u64);
        sim.attach_obs(config.trace);
        let svc = sim.register_service(self.announcement.clone(), oracle, false);
        let source = self.announcement.measurement_addr();

        // Walk, probe building and the dispatch of events due before each
        // batch interleave, so one span covers them all.
        let guard = wall_rec
            .as_ref()
            .map(|r| r.span("scan.probe_build", "probe", shard_id));
        let prober = Prober::new(config.probe.clone());
        let mut last_probe = start;
        let mut send_time = vec![SimTime::ZERO; range.len()]; // vp-lint: allow(p1): one send-time column per engine, sized before the probe loop.
        let mut batch = ProbeBatch::new();
        prober.walk_schedule(hitlist.len() as u64, start, |index, at| {
            // Pacing is monotone and every engine walks the whole
            // schedule, so each one ends on the round's last send time.
            last_probe = at;
            let i = conv::sat_usize(index);
            if !range.contains(&i) {
                return;
            }
            send_time[i - range.start] = at; // vp-lint: allow(g1): i lies in range, which send_time is sized to.
            batch.indices.push(index);
            batch.ats.push(at);
            if batch.indices.len() == PROBE_BATCH {
                batch.flush(&prober, hitlist, source, &mut sim);
            }
        });
        if !batch.indices.is_empty() {
            batch.flush(&prober, hitlist, source, &mut sim);
        }
        drop(guard);
        let guard = wall_rec
            .as_ref()
            .map(|r| r.span("scan.sim_dispatch", "sim", shard_id));
        sim.run();
        drop(guard);

        let captures = sim.take_captures(svc);
        let central = forward_to_central(split_by_site(captures, self.announcement.sites.len()));
        let guard = wall_rec
            .as_ref()
            .map(|r| r.span("scan.cleaning", "clean", shard_id));
        let (clean_replies, cleaning) =
            clean(&central, hitlist, config.probe.ident, start, config.cutoff);
        drop(guard);
        let guard = wall_rec
            .as_ref()
            .map(|r| r.span("scan.catchment_build", "map", shard_id));
        let catchments = CatchmentMap::from_replies(&config.name, &clean_replies, hitlist);
        let rtts = RttTable::from_pairs(clean_replies.iter().map(|r| {
            let i = conv::sat_usize(r.index);
            (hitlist.entry(i).block, r.at.since(send_time[i - range.start])) // vp-lint: allow(g1): replies are shard-closed (§7), so every kept index lies in this engine's range.
        }));
        drop(guard);
        let (obs_registry, obs_trace) = sim
            .take_obs()
            .map(|obs| (obs.registry, obs.tracer.drain()))
            .unwrap_or_default();
        EngineOutcome {
            catchments,
            cleaning,
            rtts,
            sim_stats: sim.stats(),
            shard_probes: vec![range.len() as u64], // vp-lint: allow(p1): one allocation per engine, at its end.
            last_probe,
            sim_end: sim.now(),
            obs_registry,
            obs_trace,
            wall_flight: wall_rec.map(|r| r.drain()).unwrap_or_default(),
        }
    }

    /// Runs the round: `engines` returns every engine's outcome in
    /// shard-id order (plus the executor's per-shard timing marks, if an
    /// executor ran them), and the outcomes merge into the result.
    fn run(
        &self,
        engines: impl FnOnce() -> (Vec<EngineOutcome>, Vec<vp_sim::exec::ShardTiming>),
    ) -> ScanResult {
        // Orchestrator-level wall channel (shard = None) for the round
        // and the merge. Engines record their phases on recorders of
        // their own: recorder handles are `Rc`-based and never cross a
        // thread boundary.
        let wall_rec = wall_recorder(self.config);
        let round_guard = wall_rec.as_ref().map(|r| r.span("scan.round", "round", None));
        let (outcomes, shard_timings) = engines();
        // Executor-level wall intervals: one queue-wait / compute /
        // barrier-wait triple per shard (none without an executor).
        if let Some(rec) = wall_rec.as_ref() {
            for t in &shard_timings {
                let sid = Some(u32::try_from(t.shard).unwrap_or(u32::MAX));
                rec.record_interval("shard.queue_wait", "exec", sid, t.queued_ns, t.started_ns);
                rec.record_interval("shard.compute", "exec", sid, t.started_ns, t.finished_ns);
                rec.record_interval("shard.barrier_wait", "exec", sid, t.finished_ns, t.merged_ns);
            }
        }

        let merge_guard = wall_rec.as_ref().map(|r| r.span("scan.merge", "merge", None));
        let merged = outcomes.into_iter().reduce(|mut acc, o| {
            acc.merge(o);
            acc
        });
        // vp-lint: allow(g1): both entry points run at least one engine.
        let Some(mut merged) = merged else { unreachable!("a round runs at least one engine") };
        drop(merge_guard);
        drop(round_guard);
        if let Some(rec) = wall_rec {
            merged.wall_flight.merge(&rec.drain());
        }
        merged.into_result(self.start, self.announcement)
    }
}

/// Runs one full Verfploeter measurement at `start` over a fresh simulator.
///
/// This is the paper's §3.1 pipeline end to end: probes are emitted from
/// the measurement address in pseudorandom paced order, replies are
/// captured concurrently at all sites, forwarded (tagged with their site)
/// to the central point, cleaned per §4, and folded into a catchment map.
/// One engine runs it on the calling thread (a boxed oracle is not
/// `Send`).
pub fn run_scan(
    world: &Internet,
    hitlist: &Hitlist,
    announcement: &Announcement,
    oracle: Box<dyn CatchmentOracle>,
    faults: FaultConfig,
    start: SimTime,
    config: &ScanConfig,
    sim_seed: u64,
) -> ScanResult {
    let round = Round {
        world,
        hitlist,
        announcement,
        faults,
        start,
        config,
        sim_seed,
    };
    round.run(|| (vec![round.scan_engine(0, 1, oracle)], Vec::new()))
}

/// Runs one full Verfploeter measurement partitioned over `shards`
/// independent simulator engines on a thread pool, producing a
/// [`ScanResult`] **bit-identical** to [`run_scan`] with the same inputs.
///
/// The hitlist is split into contiguous, block-ordered shards
/// ([`Hitlist::shard_bounds`]); every engine walks the global probe
/// schedule (so every probe keeps its serial transmission time and
/// payload index) and injects only its own shard's probes into a private
/// engine seeded for that shard. Equivalence to the serial run rests on
/// two invariants:
///
/// 1. **Order-independent fault draws.** Every stochastic outcome in
///    [`vp_sim`] is a keyed hash of the round seed and the packet's
///    identity, not a draw from a shared sequential stream — so an engine
///    simulating a subset of the traffic makes exactly the decisions the
///    serial engine makes for that subset.
/// 2. **Shard-closed reply traffic.** A probe to hitlist index `i` can
///    only produce replies attributed to index `i` (aliases stay inside
///    the block; unsolicited traffic carries no payload and is always
///    cleaned as foreign), so every reply lands in the engine that owns
///    its index, per-shard cleaning sees the same competition between
///    replies as the serial pass, and the per-shard maps/counters merge
///    disjointly.
///
/// `make_oracle` builds one oracle per shard engine (each engine owns its
/// oracle box); it must return equivalent oracles for equivalence to hold.
/// Merging happens in shard-index order, though the merge itself is
/// order-insensitive (disjoint unions and commutative sums).
///
/// Threading goes through the blessed [`ShardExecutor`] (DESIGN.md §14)
/// bounded by the host's available parallelism; use
/// [`run_scan_sharded_on`] to pin a specific worker count.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn run_scan_sharded(
    world: &Internet,
    hitlist: &Hitlist,
    announcement: &Announcement,
    make_oracle: &(dyn Fn() -> Box<dyn CatchmentOracle> + Sync), // vp-lint: allow(p4): the oracle factory is invoked once per shard at engine setup, never per probe.
    faults: FaultConfig,
    start: SimTime,
    config: &ScanConfig,
    sim_seed: u64,
    shards: usize,
) -> ScanResult {
    run_scan_sharded_on(
        &ShardExecutor::host_parallel(shards),
        world,
        hitlist,
        announcement,
        make_oracle,
        faults,
        start,
        config,
        sim_seed,
        shards,
    )
}

/// [`run_scan_sharded`] with an explicit executor: callers (benchmarks,
/// equivalence tests) pick how many OS threads run the shard engines,
/// from fully inline ([`ShardExecutor::serial`]) to a fixed thread count
/// ([`ShardExecutor::new`]). The result is bit-identical across all of
/// them — the executor only schedules work, the merge is always in
/// shard-id order.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn run_scan_sharded_on(
    exec: &ShardExecutor,
    world: &Internet,
    hitlist: &Hitlist,
    announcement: &Announcement,
    make_oracle: &(dyn Fn() -> Box<dyn CatchmentOracle> + Sync), // vp-lint: allow(p4): the oracle factory is invoked once per shard at engine setup, never per probe.
    faults: FaultConfig,
    start: SimTime,
    config: &ScanConfig,
    sim_seed: u64,
    shards: usize,
) -> ScanResult {
    assert!(shards > 0, "cannot scan with zero shards");
    let round = Round {
        world,
        hitlist,
        announcement,
        faults,
        start,
        config,
        sim_seed,
    };
    round.run(|| {
        exec.run_sharded_timed(
            shards,
            |k| round.scan_engine(k, shards, make_oracle()),
            config
                .wall
                .as_ref()
                .map(|w| w as &(dyn vp_obs::Clock + Sync)), // vp-lint: allow(p4): one clock cast per scan, handing the wall channel to the executor.
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_hitlist::HitlistConfig;
    use vp_sim::{Scenario, StaticOracle};
    use vp_topology::TopologyConfig;

    fn setup() -> (Scenario, Hitlist) {
        let s = Scenario::broot(TopologyConfig::tiny(81), 7);
        let hl = Hitlist::from_internet(
            &s.world,
            &HitlistConfig {
                wrong_addr_prob: 0.0,
                ..HitlistConfig::default()
            },
        );
        (s, hl)
    }

    #[test]
    fn clean_channel_maps_every_responsive_block_correctly() {
        let (s, hl) = setup();
        let table = s.routing();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(table.clone())),
            FaultConfig::none(),
            SimTime::ZERO,
            &ScanConfig::default(),
            1,
        );
        let responsive = s.world.responsive_blocks().count();
        assert_eq!(result.catchments.len(), responsive);
        assert_eq!(result.probes_sent, hl.len() as u64);
        assert!(result.cleaning.is_consistent());
        // Ground truth check: every mapped block matches the routing table.
        for (block, site) in result.catchments.iter() {
            let info = s.world.block(block).unwrap();
            assert_eq!(Some(site), table.site_of_pop(info.pop), "block {block}");
        }
    }

    #[test]
    fn response_rate_tracks_world_responsiveness() {
        let (s, hl) = setup();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            SimTime::ZERO,
            &ScanConfig::default(),
            1,
        );
        let rate = result.response_rate(hl.len());
        let world_rate = s.world.responsive_blocks().count() as f64 / s.world.blocks.len() as f64;
        assert!((rate - world_rate).abs() < 1e-9);
        assert_eq!(
            result.non_responding(hl.len()),
            hl.len() - result.catchments.len()
        );
    }

    #[test]
    fn faults_are_cleaned_out() {
        let (s, hl) = setup();
        let faults = FaultConfig {
            duplicate_prob: 0.3,
            max_duplicates: 10,
            alias_prob: 0.2,
            late_prob: 0.05,
            late_delay: SimDuration::from_mins(20),
            unsolicited_prob: 0.05,
            ..FaultConfig::none()
        };
        let table = s.routing();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(table.clone())),
            faults,
            SimTime::ZERO,
            &ScanConfig::default(),
            2,
        );
        let st = result.cleaning;
        assert!(st.is_consistent());
        assert!(st.duplicates > 0, "no duplicates seen: {st:?}");
        assert!(st.unprobed_source > 0, "no aliased replies seen: {st:?}");
        assert!(st.late > 0, "no late replies seen: {st:?}");
        // Despite the noise, all surviving mappings are correct.
        for (block, site) in result.catchments.iter() {
            let info = s.world.block(block).unwrap();
            assert_eq!(Some(site), table.site_of_pop(info.pop));
        }
    }

    #[test]
    fn wrong_hitlist_targets_reduce_coverage() {
        let (s, _) = setup();
        let hl_bad = Hitlist::from_internet(
            &s.world,
            &HitlistConfig {
                wrong_addr_prob: 0.5,
                seed: 3,
            },
        );
        let result = run_scan(
            &s.world,
            &hl_bad,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            SimTime::ZERO,
            &ScanConfig::default(),
            1,
        );
        let responsive = s.world.responsive_blocks().count();
        assert!(
            result.catchments.len() < responsive * 3 / 4,
            "wrong targets should cut coverage: {} vs {responsive}",
            result.catchments.len()
        );
    }

    #[test]
    fn distinct_round_idents_separate_datasets() {
        let (s, hl) = setup();
        // Round 2's cleaning must reject replies carrying round 1's ident;
        // here we just check the config plumbs through.
        let cfg = ScanConfig {
            probe: ProbeConfig {
                ident: 42,
                ..ProbeConfig::default()
            },
            ..ScanConfig::default()
        };
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            SimTime::ZERO,
            &cfg,
            1,
        );
        assert!(result.cleaning.kept > 0);
        assert_eq!(result.cleaning.foreign, 0);
    }

    /// Asserts every observable field of two scan results is bit-identical.
    fn assert_results_identical(a: &ScanResult, b: &ScanResult) {
        assert_eq!(a.cleaning, b.cleaning, "cleaning stats differ");
        assert_eq!(a.probes_sent, b.probes_sent);
        assert_eq!(a.started, b.started);
        assert_eq!(a.last_probe, b.last_probe);
        assert_eq!(a.catchments.len(), b.catchments.len(), "map sizes differ");
        for (block, site) in a.catchments.iter() {
            assert_eq!(b.catchments.site_of(block), Some(site), "block {block}");
        }
        assert_eq!(a.rtts.len(), b.rtts.len(), "rtt map sizes differ");
        for (block, rtt) in a.rtts.iter() {
            assert_eq!(b.rtts.get(block), Some(rtt), "rtt of {block}");
        }
        assert_eq!(a.sim_stats, b.sim_stats, "sim stats differ");
        // The observability layer must not break under sharding either:
        // metrics registries are byte-identical (trace summaries are not
        // compared — per-engine spans legitimately differ per K).
        assert_eq!(
            a.obs.registry.to_canonical_json(),
            b.obs.registry.to_canonical_json(),
            "obs registries differ"
        );
        // The sim-time flight channel is in the contract too; the wall
        // channel is explicitly excluded (host timing).
        assert_eq!(
            a.obs.flight.to_canonical_json(),
            b.obs.flight.to_canonical_json(),
            "sim flight timelines differ"
        );
        assert_eq!(a.obs.sim_end, b.obs.sim_end, "sim end times differ");
    }

    /// The fast equivalence gate: on the tiny topology, the sharded scan
    /// must reproduce the serial scan bit-for-bit under heavy faults, for
    /// every shard count.
    #[test]
    fn sharded_scan_is_bit_identical_to_serial() {
        let (s, hl) = setup();
        let faults = FaultConfig::default();
        let serial = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            faults.clone(),
            SimTime::ZERO,
            &ScanConfig::default(),
            77,
        );
        for shards in [1, 2, 7, 16] {
            let sharded = run_scan_sharded(
                &s.world,
                &hl,
                &s.announcement,
                &|| Box::new(StaticOracle::new(s.routing())),
                faults.clone(),
                SimTime::ZERO,
                &ScanConfig::default(),
                77,
                shards,
            );
            assert_results_identical(&serial, &sharded);
            // Shard bookkeeping: every probe is owned by exactly one shard.
            assert_eq!(sharded.obs.shard_probes.len(), shards);
            assert_eq!(
                sharded.obs.shard_probes.iter().sum::<u64>(),
                sharded.probes_sent
            );
        }
        assert_eq!(serial.obs.shard_probes, vec![serial.probes_sent]);
    }

    /// The registry carries the round's headline numbers, consistent with
    /// the structured result fields.
    #[test]
    fn scan_obs_registry_reflects_result() {
        let (s, hl) = setup();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            5,
        );
        let reg = &result.obs.registry;
        assert_eq!(reg.counter_value("scan.probes_sent", &[]), result.probes_sent);
        assert_eq!(
            reg.counter_value("scan.blocks_mapped", &[]),
            result.catchments.len() as u64
        );
        assert_eq!(reg.counter_value("clean.kept", &[]), result.cleaning.kept);
        assert_eq!(
            reg.counter_value("sim.injected", &[]),
            result.sim_stats.injected
        );
        // Per-site capture counters sum to total site deliveries.
        let per_site: u64 = s
            .announcement
            .sites
            .iter()
            .map(|site| reg.counter_value("sim.site_captures", &[("site", site.name.as_str())]))
            .sum();
        assert_eq!(per_site, result.sim_stats.delivered_to_sites);
        // Catchment block counters match the map's site counts.
        for (site, count) in result.catchments.site_counts() {
            let name = s.announcement.sites[site.index()].name.as_str();
            assert_eq!(
                reg.counter_value("catchment.blocks", &[("site", name)]),
                count as u64
            );
        }
        // The RTT histogram saw every mapped block once.
        let hist = result.obs.registry.histogram("scan.rtt_ns", &[]);
        assert_eq!(hist.map(|h| h.count()), Some(result.rtts.len() as u64));
        // The engine ran and profiled its event loop in sim-time.
        assert!(reg.counter_value("engine.events", &[]) > 0);
        let span = result.obs.trace.spans.get("engine.run");
        assert!(span.is_some_and(|agg| agg.count == 1 && agg.total_nanos > 0));
        assert!(result.obs.sim_end.as_nanos() > 0);
    }

    /// `trace: Full` records bounded events without changing any
    /// measurement output or the metrics registry.
    #[test]
    fn full_trace_level_does_not_change_results() {
        let (s, hl) = setup();
        let run = |trace| {
            run_scan(
                &s.world,
                &hl,
                &s.announcement,
                Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &ScanConfig {
                    trace,
                    ..ScanConfig::default()
                },
                13,
            )
        };
        let summary = run(vp_obs::TraceLevel::Summary);
        let full = run(vp_obs::TraceLevel::Full);
        assert_results_identical(&summary, &full);
        assert!(summary.obs.trace.events.is_empty());
    }

    /// The sim-time flight channel tiles the round: the walk/probe spans
    /// cover [start, last_probe], dispatch covers [last_probe, sim_end],
    /// and the round span covers it all — with no wall channel attached,
    /// the wall timeline stays empty.
    #[test]
    fn sim_flight_channel_tiles_the_round() {
        let (s, hl) = setup();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            5,
        );
        let flight = &result.obs.flight;
        assert!(result.obs.wall_flight.is_empty(), "no wall channel attached");
        assert_eq!(flight.dropped, 0);
        let by_name = |n: &str| {
            flight
                .spans
                .iter()
                .find(|sp| sp.name == n)
                .unwrap_or_else(|| panic!("missing span {n}: {flight:?}"))
        };
        let round = by_name("scan.round");
        assert_eq!(round.start_ns, result.started.as_nanos());
        assert_eq!(round.end_ns, result.obs.sim_end.as_nanos());
        let walk = by_name("scan.schedule_walk");
        assert_eq!(walk.end_ns, result.last_probe.as_nanos());
        let dispatch = by_name("scan.sim_dispatch");
        assert_eq!(dispatch.start_ns, walk.end_ns);
        assert_eq!(dispatch.end_ns, round.end_ns);
        assert_eq!(
            result.obs.registry.counter_value("flight.dropped_records", &[]),
            0
        );
    }

    #[test]
    fn scan_is_deterministic() {
        let (s, hl) = setup();
        let run = || {
            run_scan(
                &s.world,
                &hl,
                &s.announcement,
                Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &ScanConfig::default(),
                9,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.cleaning, b.cleaning);
        assert_eq!(a.catchments.len(), b.catchments.len());
        for (block, site) in a.catchments.iter() {
            assert_eq!(b.catchments.site_of(block), Some(site));
        }
    }
}
