//! `follow-replay`: `vp-monitor` as a follower over real STV-3-23 round
//! maps of the `Scale::Small` Tangled world (about 15k mapped blocks,
//! 160 KB per file). Per round the writer publishes the map (`to_json` +
//! a file write), the follower ingests it (`load_round_file`) and folds
//! it (`DriftTracker::observe_round`); then a cold catch-up re-ingests
//! the directory. No scan runs in the timed part. The workload seed picks
//! which consecutive rounds of the day are replayed.

use std::collections::BTreeMap;
use std::path::Path;

use verfploeter::catchment::CatchmentMap;
use vp_experiments::{Lab, Scale};
use vp_hitlist::Hitlist;
use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{load_round_file, load_rounds_dir};
use vp_monitor::pipeline::run_diff_pipeline;
use vp_monitor::stream::DriftTracker;
use vp_sim::{CatchmentOracle, Scenario};

use crate::layers::{self, ScanInput};
use crate::stv;
use crate::util::{clock, median, ms_since, secs_since, setup_median, Outcome};
use crate::Ctx;

/// Setups timed for `setup_s`.
const SETUP_REPS: usize = 5;
/// Rounds replayed per pass.
const ROUNDS: u32 = 8;
/// Rounds in the STV-3-23 day.
const DAY: u32 = 96;
/// Names the replayed stream in the drift and alert documents.
const SOURCE: &str = "perfbench/follow-replay";

/// The first replayed round for `seed`: any start whose rounds all fall
/// inside the day.
fn first_round(seed: u64) -> u32 {
    (seed % u64::from(DAY - ROUNDS + 1)) as u32
}

struct Setup {
    maps: Vec<CatchmentMap>,
    origins: Origins,
}

/// Rounds `first..first + ROUNDS`, each a serial `run_scan`: with no
/// worker threads, the process's memory peak does not depend on how
/// threads happened to share the allocator.
fn scan_rounds(scenario: &Scenario, hitlist: &Hitlist, first: u32) -> Vec<CatchmentMap> {
    let (table, model) = stv::routing(scenario);
    let make_oracle = || -> Box<dyn CatchmentOracle> { stv::oracle(scenario, &table, &model) };
    (first..first + ROUNDS)
        .map(|r| {
            let (config, start, sim_seed) = stv::round(r);
            let input = ScanInput {
                world: &scenario.world,
                hitlist,
                announcement: &scenario.announcement,
                make_oracle: &make_oracle,
                start,
                config,
                sim_seed,
            };
            input.run_scan().catchments
        })
        .collect()
}

fn build(seed: u64) -> Setup {
    let lab = Lab::new(Scale::Small);
    let scenario = lab.tangled();
    let maps = scan_rounds(scenario, lab.tangled_hitlist(), first_round(seed));
    Setup {
        maps,
        origins: layers::origins(scenario),
    }
}

/// One pass: publish, ingest and fold every round, timing each round's
/// lag; then the cold catch-up. Returns the per-round lags (ms) and the
/// catch-up time (s).
fn pass(out: &mut Outcome, setup: &Setup, dir: &Path) -> (Vec<f64>, f64) {
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        out.op(Some(format!("create {}: {e}", dir.display())));
    }
    let mut tracker = DriftTracker::new(AlertConfig::default(), 8, Some(setup.origins.clone()));
    let mut lags = Vec::with_capacity(setup.maps.len());
    for (i, map) in setup.maps.iter().enumerate() {
        let path = dir.join(format!("r{i:03}.json"));
        let t = clock();
        let written = std::fs::write(&path, map.to_json());
        let loaded = load_round_file(&path);
        let ingest_ms = ms_since(t);
        let (problem, loaded) = layers::checked_round_trip(written, loaded, map, &path);
        let t = clock();
        tracker.observe_round(loaded, None);
        lags.push(ingest_ms + ms_since(t));
        out.op(problem);
    }

    let t = clock();
    let reloaded = load_rounds_dir(dir);
    let catchup_s = secs_since(t);
    let batch = run_diff_pipeline(
        SOURCE,
        &setup.maps,
        Some(&setup.origins),
        None,
        &AlertConfig::default(),
    );
    let problem = match reloaded {
        Err(e) => Some(e),
        Ok(maps) if maps != setup.maps => {
            Some("catch-up maps differ from the maps written".to_owned())
        }
        Ok(_) if tracker.drift_doc(SOURCE) != batch.drift_doc => {
            Some("followed drift doc differs from the batch pipeline's".to_owned())
        }
        Ok(_) if tracker.alert_doc(SOURCE) != batch.alert_doc => {
            Some("followed alert doc differs from the batch pipeline's".to_owned())
        }
        Ok(_) => None,
    };
    out.op(problem);
    (lags, catchup_s)
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) {
    let seed = ctx.seed;
    let (setup, setup_s) = setup_median(SETUP_REPS, || build(seed));
    let dir = ctx.work.join("rounds");
    let (mut lags, mut catchups) = (Vec::new(), Vec::new());
    let start = clock();
    while catchups.is_empty() || secs_since(start) < ctx.seconds {
        let (l, c) = pass(out, &setup, &dir);
        lags.extend(l);
        catchups.push(c);
    }
    out.metric("setup_s", "s", setup_s);
    out.metric("op_ms.p50", "ms", median(&lags));
    out.info("follow_lag_ms.p50", median(&lags));
    out.info("catchup_s", median(&catchups));
    out.info("passes", catchups.len());
    out.info("first_round", first_round(seed));
}

pub fn trace(ctx: &mut Ctx, out: &mut Outcome) {
    let lab = Lab::new(Scale::Small);
    let t = clock();
    let scenario = lab.tangled();
    let topology_ms = ms_since(t);
    let t = clock();
    let hitlist = lab.tangled_hitlist();
    let hitlist_ms = ms_since(t);
    let t = clock();
    let table = scenario.routing();
    let route_ms = ms_since(t);
    layers::world_metrics(
        out,
        topology_ms,
        hitlist_ms,
        route_ms,
        layers::routes(&table),
    );
    let model = scenario.flip_model(stv::FLIP_SEED, &table);
    let first = first_round(ctx.seed);
    let maps = scan_rounds(scenario, hitlist, first);
    layers::rss_after_setup(out);

    let make_oracle = || -> Box<dyn CatchmentOracle> { stv::oracle(scenario, &table, &model) };
    let (config, start, sim_seed) = stv::round(first);
    let input = ScanInput {
        world: &scenario.world,
        hitlist,
        announcement: &scenario.announcement,
        make_oracle: &make_oracle,
        start,
        config,
        sim_seed,
    };
    layers::scan_layers(out, &input, 3);
    layers::exec_speedup(out, &input, ctx.nproc, 3);

    let names: BTreeMap<u8, String> = layers::site_names(&scenario.announcement);
    layers::round_sequence_layers(
        out,
        &maps,
        Some(layers::origins(scenario)),
        &names,
        &ctx.work.join("rounds"),
    );
    layers::tiny_reference(out, &["lab"], &ctx.work.join("tiny"));
}
