//! `paper-regen`: all 15 experiments on one `Scale::Small` Lab with JSON
//! outputs written — the researcher's `run_all` path. The Lab fixes its
//! own seeds, so the workload seed does not change the inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use vp_experiments::{experiments, Lab, Scale};
use vp_sim::CatchmentOracle;

use crate::layers::{self, ScanInput};
use crate::stv;
use crate::util::{clock, digest, median, ms_since, secs_since, setup_median, Outcome};
use crate::Ctx;

/// Throwaway world builds timed for `setup_s`.
const SETUP_REPS: usize = 15;
/// Every experiment writes exactly one JSON output.
const OUTPUTS: usize = 15;
/// Rounds of the Lab's STV-3-23 dataset the traced run replays through
/// the follower's layers.
const TRACE_ROUNDS: usize = 8;

/// The experiments' JSON outputs in `dir`, by name, sorted.
pub fn json_outputs(dir: &Path) -> Vec<(String, PathBuf)> {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.strip_suffix(".json")?.to_owned();
            Some((name, p))
        })
        .collect();
    files.sort();
    files
}

/// One full regeneration into `dir`, as `run_all` does it: every
/// experiment in paper order, each followed by its run report.
fn regen(dir: &Path) -> Vec<(&'static str, String)> {
    let mut lab = Lab::new(Scale::Small);
    lab.out_dir = Some(dir.to_path_buf());
    let mut reports = Vec::with_capacity(OUTPUTS);
    for (name, run) in experiments::all() {
        reports.push((name, run(&lab)));
        lab.write_obs_report(name);
    }
    reports
}

/// Whether a report's shape-check line says the paper's shape holds:
/// "holds" without "VIOLATED", or a step count that rose in every step.
fn shape_holds(line: &str) -> bool {
    if line.contains("VIOLATED") {
        return false;
    }
    if line.contains("holds") {
        return true;
    }
    let steps = line
        .split_once("steps")
        .and_then(|(head, _)| head.split_whitespace().last())
        .and_then(|frac| frac.split_once('/'));
    matches!(steps, Some((a, b)) if a == b)
}

/// Checks one regeneration: the JSON outputs match their pins and every
/// shape-check line holds. Also returns the number of shape-check lines.
fn check(ctx: &mut Ctx, dir: &Path, reports: &[(&'static str, String)]) -> (Option<String>, usize) {
    let mut problems = Vec::new();
    let outputs = json_outputs(dir);
    if outputs.len() != OUTPUTS {
        problems.push(format!(
            "{} JSON outputs, expected {OUTPUTS}",
            outputs.len()
        ));
    }
    for (name, path) in outputs {
        match std::fs::read(&path) {
            Ok(bytes) => problems.extend(ctx.pins.check(&name, digest(&bytes))),
            Err(e) => problems.push(format!("read {}: {e}", path.display())),
        }
    }
    let mut shape_lines = 0;
    for (name, text) in reports {
        for line in text
            .lines()
            .filter(|l| l.contains("Shape check") || l.contains("Paper shapes"))
        {
            shape_lines += 1;
            if !shape_holds(line) {
                problems.push(format!("{name}: {line}"));
            }
        }
    }
    if shape_lines == 0 {
        problems.push("no shape-check lines in the reports".to_owned());
    }
    (
        (!problems.is_empty()).then(|| problems.join("; ")),
        shape_lines,
    )
}

/// The two Small worlds and their hitlists in a throwaway Lab. The timed
/// regenerations build them again: every `run_all` user pays for them.
fn build_worlds() -> Lab {
    let lab = Lab::new(Scale::Small);
    lab.broot_hitlist();
    lab.tangled_hitlist();
    lab
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) {
    let (_, setup_s) = setup_median(SETUP_REPS, build_worlds);
    let dir = ctx.work.join("out");
    let mut regens = Vec::new();
    let start = clock();
    while regens.is_empty() || secs_since(start) < ctx.seconds {
        let _ = std::fs::remove_dir_all(&dir);
        let t = clock();
        let Ok(reports) = catch_unwind(AssertUnwindSafe(|| regen(&dir))) else {
            out.op(Some("an experiment panicked".to_owned()));
            break;
        };
        regens.push(secs_since(t));
        let (verdict, shape_lines) = check(ctx, &dir, &reports);
        out.op(verdict);
        out.info("shape_check_lines", shape_lines);
    }
    out.metric("setup_s", "s", setup_s);
    out.metric("op_ms.p50", "ms", median(&regens) * 1e3);
    out.info("regen_s", median(&regens));
    out.info("regens", regens.len());
}

pub fn trace(ctx: &mut Ctx, out: &mut Outcome) {
    let mut lab = Lab::new(Scale::Small);
    let t = clock();
    let (broot, tangled) = (lab.broot(), lab.tangled());
    let topology_ms = ms_since(t);
    let t = clock();
    lab.broot_hitlist();
    lab.tangled_hitlist();
    let hitlist_ms = ms_since(t);
    let t = clock();
    let tables = [broot.routing(), tangled.routing()];
    let route_ms = ms_since(t);
    let routes = tables.iter().map(layers::routes).sum();
    layers::world_metrics(out, topology_ms, hitlist_ms, route_ms, routes);
    layers::rss_after_setup(out);

    let dir = ctx.work.join("trace");
    layers::lab_layers(out, &mut lab, &dir.join("lab"));

    let scenario = lab.tangled();
    let (table, model) = stv::routing(scenario);
    let make_oracle = || -> Box<dyn CatchmentOracle> { stv::oracle(scenario, &table, &model) };
    let (config, start, sim_seed) = stv::round(0);
    let input = ScanInput {
        world: &scenario.world,
        hitlist: lab.tangled_hitlist(),
        announcement: &scenario.announcement,
        make_oracle: &make_oracle,
        start,
        config,
        sim_seed,
    };
    layers::scan_layers(out, &input, 3);
    layers::exec_speedup(out, &input, ctx.nproc, 3);

    let rounds = lab.tangled_rounds();
    let origins = Some(layers::origins(scenario));
    let names = layers::site_names(&scenario.announcement);
    let maps = &rounds[..TRACE_ROUNDS.min(rounds.len())];
    layers::round_sequence_layers(out, maps, origins, &names, &dir.join("rounds"));
}
