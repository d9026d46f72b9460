//! `scan-1m`: one serial B-Root scan of 10^6 targets under a static
//! routing oracle — the engine's largest event heap, with flipping,
//! threads and the monitor absent. The workload seed generates the world.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use verfploeter::scan::{run_scan, ScanConfig, ScanResult};
use vp_bench::{bench_hitlist, bench_scenario_scaled};
use vp_bgp::RoutingTable;
use vp_hitlist::Hitlist;
use vp_net::SimTime;
use vp_sim::{CatchmentOracle, FaultConfig, Scenario, StaticOracle};

use crate::layers::{self, ScanInput};
use crate::util::{clock, digest, median, ms_since, secs_since, setup_median, Outcome};
use crate::Ctx;

const TARGETS: usize = 1_000_000;
/// World builds timed for `setup_s`.
const SETUP_REPS: usize = 3;

struct Setup {
    scenario: Scenario,
    hitlist: Hitlist,
    table: Arc<RoutingTable>,
}

fn build(seed: u64) -> Setup {
    let scenario = bench_scenario_scaled(seed, TARGETS);
    let hitlist = bench_hitlist(&scenario);
    let table = Arc::new(scenario.routing());
    Setup {
        scenario,
        hitlist,
        table,
    }
}

/// Checks a scan against ground truth (every mapped block maps to the
/// site its PoP routes to, cleaning accounts for every reply) and, for
/// a seed with pins, against the pinned catchment and registry digests.
fn check(ctx: &mut Ctx, setup: &Setup, result: &ScanResult) -> Option<String> {
    let world = &setup.scenario.world;
    let mut problems = Vec::new();
    if result.probes_sent != setup.hitlist.len() as u64 {
        problems.push(format!(
            "{} probes for {} targets",
            result.probes_sent,
            setup.hitlist.len()
        ));
    }
    let wrong = result
        .catchments
        .iter()
        .filter(|&(block, site)| {
            world
                .block(block)
                .and_then(|info| setup.table.site_of_pop(info.pop))
                != Some(site)
        })
        .count();
    if wrong > 0 {
        problems.push(format!(
            "{wrong} blocks mapped to a site their route does not reach"
        ));
    }
    if result.catchments.len() > world.responsive_blocks().count() {
        problems.push("more blocks mapped than respond".to_owned());
    }
    if !result.cleaning.is_consistent() {
        problems.push(format!(
            "inconsistent cleaning counters {:?}",
            result.cleaning
        ));
    }
    let key = format!("seed{}", ctx.seed);
    if ctx.pins.has(&format!("{key}.catchments")) || ctx.pins.writing() {
        problems.extend(ctx.pins.check(
            &format!("{key}.catchments"),
            digest(result.catchments.to_json().as_bytes()),
        ));
        problems.extend(ctx.pins.check(
            &format!("{key}.registry"),
            digest(result.obs.registry.to_canonical_json().as_bytes()),
        ));
    }
    (!problems.is_empty()).then(|| problems.join("; "))
}

fn scan(setup: &Setup, seed: u64) -> ScanResult {
    run_scan(
        &setup.scenario.world,
        &setup.hitlist,
        &setup.scenario.announcement,
        Box::new(StaticOracle::shared(Arc::clone(&setup.table))),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        seed,
    )
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) {
    let seed = ctx.seed;
    let (setup, setup_s) = setup_median(SETUP_REPS, || build(seed));
    let mut scans = Vec::new();
    let start = clock();
    while scans.is_empty() || secs_since(start) < ctx.seconds {
        let t = clock();
        let Ok(result) = catch_unwind(AssertUnwindSafe(|| scan(&setup, seed))) else {
            out.op(Some("run_scan panicked".to_owned()));
            break;
        };
        scans.push(secs_since(t));
        let verdict = check(ctx, &setup, &result);
        out.op(verdict);
    }
    out.metric("setup_s", "s", setup_s);
    out.metric("op_ms.p50", "ms", median(&scans) * 1e3);
    out.info("scan_s", median(&scans));
    out.info("scans", scans.len());
    out.info(
        "pinned_seed",
        ctx.pins.has(&format!("seed{seed}.catchments")),
    );
}

pub fn trace(ctx: &mut Ctx, out: &mut Outcome) {
    let seed = ctx.seed;
    let t = clock();
    let scenario = bench_scenario_scaled(seed, TARGETS);
    let topology_ms = ms_since(t);
    let t = clock();
    let hitlist = bench_hitlist(&scenario);
    let hitlist_ms = ms_since(t);
    let t = clock();
    let table = Arc::new(scenario.routing());
    let route_ms = ms_since(t);
    layers::world_metrics(
        out,
        topology_ms,
        hitlist_ms,
        route_ms,
        layers::routes(&table),
    );
    layers::rss_after_setup(out);

    let make_oracle =
        || -> Box<dyn CatchmentOracle> { Box::new(StaticOracle::shared(Arc::clone(&table))) };
    let input = ScanInput {
        world: &scenario.world,
        hitlist: &hitlist,
        announcement: &scenario.announcement,
        make_oracle: &make_oracle,
        start: SimTime::ZERO,
        config: ScanConfig::default(),
        sim_seed: seed,
    };
    let reference = layers::scan_layers(out, &input, 1);
    let setup = Setup {
        scenario,
        hitlist,
        table: Arc::clone(&table),
    };
    if let Some(result) = reference {
        let verdict = check(ctx, &setup, &result);
        out.op(verdict);
    }
    let input = ScanInput {
        world: &setup.scenario.world,
        hitlist: &setup.hitlist,
        announcement: &setup.scenario.announcement,
        make_oracle: &make_oracle,
        start: SimTime::ZERO,
        config: ScanConfig::default(),
        sim_seed: seed,
    };
    layers::exec_speedup(out, &input, ctx.nproc, 1);
    layers::tiny_reference(out, &["lab", "rounds"], &ctx.work.join("tiny"));
}
