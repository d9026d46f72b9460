//! The traced run's per-layer measurements. Every span here is taken in
//! the benchmark's own code, around calls into one layer's public API;
//! nothing is traced inside the program.
//!
//! The centrepiece is [`scan_layers`]: it rebuilds one serial scan from
//! the public calls `run_scan` makes (prober batches → engine inject →
//! engine dispatch → collector → cleaning → catchment), times each layer,
//! reports the interval no layer covers, and checks that the rebuilt
//! round equals `run_scan`'s on the same inputs.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

use bytes::Bytes;
use verfploeter::catchment::CatchmentMap;
use verfploeter::cleaning::clean;
use verfploeter::collector::{forward_to_central, split_by_site};
use verfploeter::prober::{Prober, PROBE_BATCH};
use verfploeter::rtt::RttTable;
use verfploeter::scan::{run_scan, run_scan_sharded_on, ScanConfig, ScanResult};
use vp_bgp::Announcement;
use vp_experiments::{experiments, Lab};
use vp_hitlist::Hitlist;
use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::load_round_file;
use vp_monitor::stream::{build_scrape, build_status_doc, DaemonMeta, DriftTracker};
use vp_net::{Ipv4Addr, SimTime};
use vp_obs::Registry;
use vp_packet::Ipv4Packet;
use vp_sim::{CatchmentOracle, FaultConfig, NetworkSim, Scenario, ShardExecutor};
use vp_topology::Internet;

use crate::util::{clock, median, ms_since, proc_status_mib, Outcome};

/// Builds one oracle per engine, as `run_scan_sharded` takes it.
pub type OracleFactory<'a> = &'a (dyn Fn() -> Box<dyn CatchmentOracle> + Sync);

/// Everything one scan round needs, shared by `run_scan`, the sharded
/// scan and the recomposition.
pub struct ScanInput<'a> {
    pub world: &'a Internet,
    pub hitlist: &'a Hitlist,
    pub announcement: &'a Announcement,
    pub make_oracle: OracleFactory<'a>,
    pub start: SimTime,
    pub config: ScanConfig,
    pub sim_seed: u64,
}

impl ScanInput<'_> {
    /// The round through the program's own serial entry point.
    pub fn run_scan(&self) -> ScanResult {
        run_scan(
            self.world,
            self.hitlist,
            self.announcement,
            (self.make_oracle)(),
            FaultConfig::default(),
            self.start,
            &self.config,
            self.sim_seed,
        )
    }

    /// The round on `exec`, split into `shards` engines.
    pub fn run_sharded(&self, exec: &ShardExecutor, shards: usize) -> ScanResult {
        run_scan_sharded_on(
            exec,
            self.world,
            self.hitlist,
            self.announcement,
            self.make_oracle,
            FaultConfig::default(),
            self.start,
            &self.config,
            self.sim_seed,
            shards,
        )
    }
}

/// The rebuilt round and the time each layer took in it.
struct Recomposed {
    catchments: CatchmentMap,
    cleaning: verfploeter::cleaning::CleaningStats,
    sim_stats: vp_sim::SimStats,
    rtts: RttTable,
    events: u64,
    wall: Duration,
    /// Schedule walk plus probe encoding (the prober layer).
    prober: Duration,
    /// The `build_probes_with_replies` part of `prober`.
    encode: Duration,
    /// `send_probe_at` calls (engine injection).
    inject: Duration,
    /// `NetworkSim::run` (engine dispatch).
    dispatch: Duration,
    /// `take_captures` + `split_by_site` + `forward_to_central`.
    collector: Duration,
    cleaning_time: Duration,
    /// `CatchmentMap::from_replies` + `RttTable::from_pairs`.
    catchment: Duration,
}

/// Reusable buffers of one probe batch.
struct Batch {
    indices: Vec<u64>,
    ats: Vec<SimTime>,
    packets: Vec<Ipv4Packet>,
    replies: Vec<Bytes>,
    encode: Duration,
    inject: Duration,
}

impl Batch {
    /// Encodes the pending batch and injects it in schedule order, as
    /// `run_scan` does, timing the two layers apart.
    fn flush(
        &mut self,
        prober: &Prober,
        hitlist: &Hitlist,
        source: Ipv4Addr,
        sim: &mut NetworkSim<'_>,
    ) {
        let t = clock();
        prober.build_probes_with_replies(
            hitlist,
            &self.indices,
            source,
            &mut self.packets,
            &mut self.replies,
        );
        let t_inject = clock();
        for ((packet, image), &at) in self
            .packets
            .drain(..)
            .zip(self.replies.drain(..))
            .zip(self.ats.iter())
        {
            sim.send_probe_at(at, packet, image);
        }
        self.inject += t_inject.elapsed();
        self.encode += t_inject - t;
        self.indices.clear();
        self.ats.clear();
    }
}

fn recompose(input: &ScanInput<'_>) -> Recomposed {
    let t_wall = clock();
    let hitlist = input.hitlist;
    let mut sim = NetworkSim::new(input.world, FaultConfig::default(), input.sim_seed);
    sim.attach_obs(input.config.trace);
    let svc = sim.register_service(input.announcement.clone(), (input.make_oracle)(), false);
    let source = input.announcement.measurement_addr();
    let prober = Prober::new(input.config.probe.clone());

    let t_walk = clock();
    let mut send_time = vec![SimTime::ZERO; hitlist.len()];
    let mut batch = Batch {
        indices: Vec::with_capacity(PROBE_BATCH),
        ats: Vec::with_capacity(PROBE_BATCH),
        packets: Vec::with_capacity(PROBE_BATCH),
        replies: Vec::with_capacity(PROBE_BATCH),
        encode: Duration::ZERO,
        inject: Duration::ZERO,
    };
    prober.walk_schedule(hitlist.len() as u64, input.start, |index, at| {
        send_time[index as usize] = at;
        batch.indices.push(index);
        batch.ats.push(at);
        if batch.indices.len() == PROBE_BATCH {
            batch.flush(&prober, hitlist, source, &mut sim);
        }
    });
    if !batch.indices.is_empty() {
        batch.flush(&prober, hitlist, source, &mut sim);
    }
    let walk = t_walk.elapsed();

    let t = clock();
    sim.run();
    let dispatch = t.elapsed();

    let t = clock();
    let captures = sim.take_captures(svc);
    let by_site = split_by_site(captures, input.announcement.sites.len());
    let central = forward_to_central(by_site);
    let collector = t.elapsed();

    let t = clock();
    let (kept, cleaning) = clean(
        &central,
        hitlist,
        input.config.probe.ident,
        input.start,
        input.config.cutoff,
    );
    let cleaning_time = t.elapsed();

    let t = clock();
    let catchments = CatchmentMap::from_replies(&input.config.name, &kept, hitlist);
    let rtts = RttTable::from_pairs(kept.iter().map(|r| {
        let i = r.index as usize;
        (hitlist.entry(i).block, r.at.since(send_time[i]))
    }));
    let catchment = t.elapsed();

    let sim_stats = sim.stats();
    let events = sim
        .take_obs()
        .map_or(0, |obs| obs.registry.counter_value("engine.events", &[]));
    Recomposed {
        catchments,
        cleaning,
        sim_stats,
        rtts,
        events,
        wall: t_wall.elapsed(),
        prober: walk.saturating_sub(batch.inject),
        encode: batch.encode,
        inject: batch.inject,
        dispatch,
        collector,
        cleaning_time,
        catchment,
    }
}

/// Per-rep samples of the scan-layer metrics.
#[derive(Default)]
struct ScanSamples {
    prober_ns: Vec<f64>,
    build_ns: Vec<f64>,
    inject_ns: Vec<f64>,
    dispatch_ns: Vec<f64>,
    collector_ms: Vec<f64>,
    cleaning_ms: Vec<f64>,
    catchment_ms: Vec<f64>,
    covered_ms: Vec<f64>,
    uncovered_ms: Vec<f64>,
    recomposed_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    overhead: Vec<f64>,
}

/// Times `run_scan` and its recomposition `reps` times on `input`,
/// checks that every recomposed round equals `run_scan`'s (catchment map,
/// cleaning counters, simulator counters, RTTs), and records the scan
/// layer metrics. The layer times do not nest, so with
/// `scan.uncovered_ms` (engine construction and the gaps between the
/// timed calls) they add up to the recomposed round's wall time. Returns
/// `run_scan`'s result for further use.
pub fn scan_layers(out: &mut Outcome, input: &ScanInput<'_>, reps: usize) -> Option<ScanResult> {
    let mut s = ScanSamples::default();
    let mut last = None;
    let mut events = 0u64;
    let mut kept_ratio = f64::NAN;
    let mut mapped_ratio = f64::NAN;
    for rep in 0..reps.max(1) {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let t = clock();
            let reference = input.run_scan();
            let untraced = t.elapsed();
            (reference, untraced, recompose(input))
        }));
        let Ok((reference, untraced, r)) = attempt else {
            out.op(Some(format!("scan recomposition rep {rep} panicked")));
            return None;
        };
        let mut diffs = Vec::new();
        if r.catchments != reference.catchments {
            diffs.push("catchment map");
        }
        if r.cleaning != reference.cleaning {
            diffs.push("cleaning stats");
        }
        if r.sim_stats != reference.sim_stats {
            diffs.push("sim stats");
        }
        if r.rtts != reference.rtts {
            diffs.push("rtt table");
        }
        out.op((!diffs.is_empty()).then(|| {
            format!(
                "recomposed scan differs from run_scan in: {}",
                diffs.join(", ")
            )
        }));

        let probes = reference.probes_sent as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let covered =
            r.prober + r.inject + r.dispatch + r.collector + r.cleaning_time + r.catchment;
        s.prober_ns.push(r.prober.as_nanos() as f64 / probes);
        s.build_ns.push(r.encode.as_nanos() as f64 / probes);
        s.inject_ns.push(r.inject.as_nanos() as f64 / probes);
        s.dispatch_ns
            .push(r.dispatch.as_nanos() as f64 / r.events.max(1) as f64);
        s.collector_ms.push(ms(r.collector));
        s.cleaning_ms.push(ms(r.cleaning_time));
        s.catchment_ms.push(ms(r.catchment));
        s.covered_ms.push(ms(covered));
        s.uncovered_ms.push(ms(r.wall.saturating_sub(covered)));
        s.recomposed_ms.push(ms(r.wall));
        s.untraced_ms.push(ms(untraced));
        s.overhead
            .push(r.wall.as_secs_f64() / untraced.as_secs_f64());
        events = r.events;
        kept_ratio = r.cleaning.kept as f64 / r.cleaning.total.max(1) as f64;
        mapped_ratio = r.catchments.len() as f64 / probes;
        out.info("scan.probes", reference.probes_sent);
        last = Some(reference);
    }
    out.info("scan.reps", s.overhead.len());
    out.info("scan.untraced_ms", median(&s.untraced_ms));
    out.info("scan.recomposed_ms", median(&s.recomposed_ms));
    out.info("scan.layers_covered_ms", median(&s.covered_ms));
    out.info("prober.build_ns_per_probe", median(&s.build_ns));
    out.metric("prober.encode_ns_per_probe", "ns", median(&s.prober_ns));
    out.metric("engine.inject_ns_per_probe", "ns", median(&s.inject_ns));
    out.metric("engine.dispatch_ns_per_event", "ns", median(&s.dispatch_ns));
    out.metric("engine.events", "count", events as f64);
    out.metric("collector.forward_ms", "ms", median(&s.collector_ms));
    out.metric("cleaning.clean_ms", "ms", median(&s.cleaning_ms));
    out.metric("cleaning.kept_ratio", "ratio", kept_ratio);
    out.metric("catchment.build_ms", "ms", median(&s.catchment_ms));
    out.metric("catchment.mapped_ratio", "ratio", mapped_ratio);
    out.metric("scan.uncovered_ms", "ms", median(&s.uncovered_ms));
    out.metric("trace.overhead_ratio", "ratio", median(&s.overhead));
    last
}

/// The same round timed on the inline executor and on `nproc` OS
/// threads (both split into `nproc` shards); checks the two maps agree.
pub fn exec_speedup(out: &mut Outcome, input: &ScanInput<'_>, nproc: usize, reps: usize) {
    let shards = nproc.max(1);
    let mut ratios = Vec::new();
    for _ in 0..reps.max(1) {
        let t = clock();
        let serial = input.run_sharded(&ShardExecutor::serial(), shards);
        let serial_ms = ms_since(t);
        let t = clock();
        let threaded = input.run_sharded(&ShardExecutor::new(shards), shards);
        let threaded_ms = ms_since(t);
        out.op((serial.catchments != threaded.catchments)
            .then(|| "threaded scan map differs from the inline one".to_owned()));
        ratios.push(serial_ms / threaded_ms);
    }
    out.metric("exec.speedup", "ratio", median(&ratios));
}

/// The follower's per-round layers over a round sequence, each map
/// through the same calls the follow loop makes: encode and publish the
/// snapshot (`to_json` + write), ingest it (`load_round_file`), fold it
/// (`DriftTracker::observe_round`), and render the daemon surfaces
/// (`build_status_doc` + `build_scrape`). Checks every ingested map
/// equals the map written.
pub fn round_sequence_layers(
    out: &mut Outcome,
    maps: &[CatchmentMap],
    origins: Option<Origins>,
    site_names: &BTreeMap<u8, String>,
    dir: &Path,
) {
    let meta = DaemonMeta {
        source: "perfbench".to_owned(),
        scale: "bench".to_owned(),
        shards: 1,
        interval_ns: 900_000_000_000,
        rounds_total: maps.len() as u64,
    };
    let registry = Registry::new();
    let mut tracker = DriftTracker::new(AlertConfig::default(), 8, origins);
    let (mut encode, mut parse, mut bytes, mut observe, mut publish) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    if let Err(e) = std::fs::create_dir_all(dir) {
        out.op(Some(format!("create {}: {e}", dir.display())));
    }
    for (i, map) in maps.iter().enumerate() {
        let path = dir.join(format!("r{i:03}.json"));
        let t = clock();
        let text = map.to_json();
        let written = std::fs::write(&path, &text);
        encode.push(ms_since(t));
        bytes.push(text.len() as f64);
        let t = clock();
        let loaded = load_round_file(&path);
        parse.push(ms_since(t));
        let (problem, loaded) = checked_round_trip(written, loaded, map, &path);
        out.op(problem);
        let t = clock();
        tracker.observe_round(loaded, None);
        observe.push(ms_since(t));
        let t = clock();
        let status = build_status_doc(&meta, &tracker, None);
        let scrape = build_scrape(&meta, &tracker, &registry, site_names);
        publish.push(ms_since(t));
        std::hint::black_box((status, scrape));
    }
    out.metric("snapshot.encode_ms", "ms", median(&encode));
    out.metric("ingest.parse_ms", "ms", median(&parse));
    out.metric("ingest.bytes", "bytes", median(&bytes));
    out.metric("monitor.observe_ms", "ms", median(&observe));
    out.metric("monitor.publish_ms", "ms", median(&publish));
}

/// Judges one round-file round trip: the write must succeed and the
/// ingested map must equal the map written. Returns the problem, if any,
/// and the map to fold next: the ingested one, or the original when the
/// round trip failed.
pub fn checked_round_trip(
    written: std::io::Result<()>,
    loaded: Result<CatchmentMap, String>,
    map: &CatchmentMap,
    path: &Path,
) -> (Option<String>, CatchmentMap) {
    match (written, loaded) {
        (Ok(()), Ok(m)) if m == *map => (None, m),
        (Err(e), _) => (Some(format!("write {}: {e}", path.display())), map.clone()),
        (_, Err(e)) => (Some(e), map.clone()),
        (_, Ok(_)) => (
            Some(format!("{}: ingested map differs", path.display())),
            map.clone(),
        ),
    }
}

/// Block → origin AS over the scenario's world, for per-AS flip
/// attribution.
pub fn origins(scenario: &Scenario) -> Origins {
    scenario
        .world
        .blocks
        .iter()
        .map(|b| (b.block, b.origin))
        .collect()
}

/// The Lab layers on a fresh `lab`: Atlas scans, the STV-3-23 rounds,
/// every experiment's analysis with caches warm, and the JSON writes.
/// Writes the experiments' outputs under `dir`.
pub fn lab_layers(out: &mut Outcome, lab: &mut Lab, dir: &Path) {
    let t = clock();
    let (broot, tangled) = (lab.broot(), lab.tangled());
    let (broot_panel, tangled_panel) = (lab.atlas_broot(), lab.atlas_tangled());
    out.info("lab.worlds_and_panels_ms", ms_since(t));
    let t = clock();
    lab.atlas_scan(
        "perfbench-atlas-broot",
        broot,
        broot_panel,
        &broot.announcement,
    );
    lab.atlas_scan(
        "perfbench-atlas-tangled",
        tangled,
        tangled_panel,
        &tangled.announcement,
    );
    out.metric("atlas.scan_ms", "ms", ms_since(t));
    let t = clock();
    let rounds = lab.tangled_rounds();
    out.metric("lab.rounds_ms", "ms", ms_since(t));
    out.info("lab.rounds", rounds.len());

    // Cold pass: fills every cache and writes the outputs.
    lab.out_dir = Some(dir.to_path_buf());
    let cold = catch_unwind(AssertUnwindSafe(|| {
        for (_, run) in experiments::all() {
            run(lab);
        }
    }));
    out.op(cold
        .is_err()
        .then(|| "an experiment panicked in the cold pass".to_owned()));
    // Warm pass without an output directory: analysis only.
    lab.out_dir = None;
    let t = clock();
    for (_, run) in experiments::all() {
        std::hint::black_box(run(lab));
    }
    out.metric("experiments.analysis_ms", "ms", ms_since(t));

    // The JSON layer alone: rewrite the cold pass's outputs.
    let mut values = Vec::new();
    for (name, path) in crate::paper::json_outputs(dir) {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str::<serde_json::Value>(&t).map_err(|e| e.to_string()))
        {
            Ok(v) => values.push((name, v)),
            Err(e) => out.op(Some(format!("{}: {e}", path.display()))),
        }
    }
    lab.out_dir = Some(dir.join("rewrite"));
    let t = clock();
    for (name, value) in &values {
        lab.write_json(name, value);
    }
    out.metric("experiments.write_json_ms", "ms", ms_since(t));
    out.info("experiments.json_outputs", values.len());
}

/// The layers a workload has no inputs for, measured on a fresh
/// `Scale::Tiny` Lab: the Lab layers outside paper-regen, and the round
/// sequence layers on scan-1m (one scan, no rounds). `wanted` names the
/// groups to measure: `"lab"` and/or `"rounds"`.
pub fn tiny_reference(out: &mut Outcome, wanted: &[&str], dir: &Path) {
    let mut lab = Lab::new(vp_experiments::Scale::Tiny);
    if wanted.contains(&"lab") {
        lab_layers(out, &mut lab, &dir.join("tiny-lab"));
    }
    if wanted.contains(&"rounds") {
        let rounds = lab.tangled_rounds();
        let world = &lab.tangled().world;
        let origins = world.blocks.iter().map(|b| (b.block, b.origin)).collect();
        let names = site_names(&lab.tangled().announcement);
        round_sequence_layers(
            out,
            &rounds,
            Some(origins),
            &names,
            &dir.join("tiny-rounds"),
        );
    }
    out.info("per_layer.tiny_reference", wanted.join("+"));
}

/// Site id → site name, as the daemon's scrape labels them.
pub fn site_names(announcement: &Announcement) -> BTreeMap<u8, String> {
    announcement
        .sites
        .iter()
        .map(|s| (s.id.0, s.name.clone()))
        .collect()
}

/// Records the world-building layers from their timings.
pub fn world_metrics(
    out: &mut Outcome,
    topology_ms: f64,
    hitlist_ms: f64,
    route_ms: f64,
    routes: usize,
) {
    out.metric("topology.generate_ms", "ms", topology_ms);
    out.metric("hitlist.build_ms", "ms", hitlist_ms);
    out.metric("bgp.route_ms", "ms", route_ms);
    out.metric("bgp.routes", "count", routes as f64);
}

/// Routed ASes in a routing table.
pub fn routes(table: &vp_bgp::RoutingTable) -> usize {
    table.per_as.iter().filter(|r| r.is_some()).count()
}

/// Current resident set after a workload's setup.
pub fn rss_after_setup(out: &mut Outcome) {
    out.metric(
        "rss.after_setup_mib",
        "MiB",
        proc_status_mib("VmRSS:").unwrap_or(f64::NAN),
    );
}
