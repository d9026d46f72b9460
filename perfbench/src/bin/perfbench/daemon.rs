//! `daemon-rounds`: the operator's path. One `Scale::Default` daemon
//! (the 120k-block, nine-site Tangled world with route flips) sharded
//! over `nproc` OS threads runs rounds back to back and publishes its
//! status document and scrape after each. The daemon fixes its own
//! seeds, so the workload seed does not change the inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use serde_json::Value;
use vp_experiments::{Daemon, DaemonConfig, Lab, Scale};
use vp_sim::{CatchmentOracle, ShardExecutor};

use crate::layers::{self, ScanInput};
use crate::stv;
use crate::util::{clock, digest, median, ms_since, quantile, secs_since, setup_median, Outcome};
use crate::Ctx;

/// Daemon constructions timed for `setup_s`.
const SETUP_REPS: usize = 9;
/// Rounds per run at least, so ten samples lie beyond the p90.
const MIN_ROUNDS: usize = 100;
/// Rounds per run at most: the rounds with pinned digests.
const MAX_ROUNDS: usize = 160;

fn config(nproc: usize) -> DaemonConfig {
    DaemonConfig {
        shards: nproc,
        ..DaemonConfig::new(Scale::Default)
    }
}

/// Writes the status document and the scrape, as `vp_daemon --out`
/// does after each round.
fn publish(status: &Value, scrape: &str, dir: &Path) -> Result<(), String> {
    let text = serde_json::to_string_pretty(status).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("status.json"), text + "\n").map_err(|e| e.to_string())?;
    std::fs::write(dir.join("metrics.prom"), scrape).map_err(|e| e.to_string())
}

/// The digest of one round's published surfaces with the shard count
/// masked, so the pins hold on any core count. The daemon exposes no
/// round map; the surfaces carry the round's diff against the previous
/// map, its site shares and the cumulative scan counters.
fn round_digest(status: &Value, scrape: &str) -> String {
    let mut status = status.clone();
    if let Value::Object(doc) = &mut status {
        doc.insert("shards".to_owned(), Value::U64(0));
    }
    let scrape: Vec<&str> = scrape
        .lines()
        .filter(|l| !l.starts_with("daemon_shards "))
        .collect();
    let text = serde_json::to_string(&status).unwrap_or_default();
    digest(format!("{text}\n{}", scrape.join("\n")).as_bytes())
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) {
    let config = config(ctx.nproc);
    let (mut daemon, setup_s) = setup_median(SETUP_REPS, || Daemon::new(&config));
    let dir = ctx.work.clone();
    let mut rounds = Vec::with_capacity(MAX_ROUNDS);
    let start = clock();
    while rounds.len() < MAX_ROUNDS
        && (rounds.len() < MIN_ROUNDS || secs_since(start) < ctx.seconds)
    {
        let r = rounds.len();
        let t = clock();
        let step = catch_unwind(AssertUnwindSafe(|| {
            daemon.run_round();
            let status = daemon.status_doc();
            let scrape = daemon.scrape();
            let published = publish(&status, &scrape, &dir);
            (status, scrape, published)
        }));
        let elapsed = ms_since(t);
        let Ok((status, scrape, published)) = step else {
            out.op(Some(format!("round {r} panicked")));
            break;
        };
        rounds.push(elapsed);
        let problem = match published {
            Err(e) => Some(format!("round {r}: publish: {e}")),
            Ok(()) => ctx
                .pins
                .check(&format!("round{r:03}"), round_digest(&status, &scrape)),
        };
        out.op(problem);
    }
    out.metric("setup_s", "s", setup_s);
    out.metric("op_ms.p50", "ms", median(&rounds));
    out.info("round_ms.p50", median(&rounds));
    out.info("round_ms.p90", quantile(&rounds, 0.9));
    out.info("rounds", rounds.len());
}

pub fn trace(ctx: &mut Ctx, out: &mut Outcome) {
    let lab = Lab::new(Scale::Default);
    let t = clock();
    let scenario = lab.tangled();
    let topology_ms = ms_since(t);
    let t = clock();
    let hitlist = lab.tangled_hitlist();
    let hitlist_ms = ms_since(t);
    let t = clock();
    let table = scenario.routing();
    let route_ms = ms_since(t);
    let t = clock();
    let model = scenario.flip_model(stv::FLIP_SEED, &table);
    out.info("bgp.flip_model_ms", ms_since(t));
    layers::world_metrics(
        out,
        topology_ms,
        hitlist_ms,
        route_ms,
        layers::routes(&table),
    );
    layers::rss_after_setup(out);

    let make_oracle = || -> Box<dyn CatchmentOracle> { stv::oracle(scenario, &table, &model) };
    let input_for = |r: u32| {
        let (config, start, sim_seed) = stv::round(r);
        ScanInput {
            world: &scenario.world,
            hitlist,
            announcement: &scenario.announcement,
            make_oracle: &make_oracle,
            start,
            config,
            sim_seed,
        }
    };
    let first = layers::scan_layers(out, &input_for(0), 3);
    layers::exec_speedup(out, &input_for(0), ctx.nproc, 3);

    // Two consecutive rounds through the follower's layers.
    let second = input_for(1).run_sharded(&ShardExecutor::new(ctx.nproc), ctx.nproc);
    let maps: Vec<_> = first
        .into_iter()
        .map(|r| r.catchments)
        .chain([second.catchments])
        .collect();
    let origins = Some(layers::origins(scenario));
    let names = layers::site_names(&scenario.announcement);
    layers::round_sequence_layers(out, &maps, origins, &names, &ctx.work.join("rounds"));

    // The daemon's own publication surfaces replace the generic ones.
    let mut daemon = Daemon::new(&config(ctx.nproc));
    let mut publish_ms = Vec::new();
    for _ in 0..3 {
        daemon.run_round();
        let t = clock();
        std::hint::black_box((daemon.status_doc(), daemon.scrape()));
        publish_ms.push(ms_since(t));
    }
    out.metric("monitor.publish_ms", "ms", median(&publish_ms));

    layers::tiny_reference(out, &["lab"], &ctx.work.join("tiny"));
}
