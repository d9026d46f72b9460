//! The repository benchmark: four workloads over the Verfploeter
//! reproduction's public API, each run in its own process.
//!
//! ```text
//! perfbench --workload <paper-regen|daemon-rounds|scan-1m|follow-replay>
//!           --seed <n> --seconds <s> --trace <0|1> [--write-pins]
//! ```
//!
//! Run from the repository root (`perfbench/run.py` builds and runs it).
//! With `--trace 0` it times the workload end to end; with `--trace 1`
//! it times each layer's public calls instead (see `layers.rs`). Every
//! run checks the program's outputs and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Working
//! files go under `.bench_work/<workload>/`, emptied at the start and
//! removed at the end of each run. `--write-pins` records the output
//! digests it sees into `perfbench/pins/<workload>.json` instead of
//! checking them; use it only after an intended output change.

mod daemon;
mod follow;
mod layers;
mod paper;
mod scan;
mod stv;
mod util;

use std::path::PathBuf;

use util::{proc_status_mib, Outcome, Pins};

/// What every workload run sees.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed loop runs, at least.
    pub seconds: f64,
    /// This run's working directory.
    pub work: PathBuf,
    pub pins: Pins,
    pub nproc: usize,
}

type Workload = fn(&mut Ctx, &mut Outcome);

/// Name, end-to-end run, traced run, and whether the workload's inputs
/// are fixed by the program (the seed then changes nothing).
const WORKLOADS: [(&str, Workload, Workload, bool); 4] = [
    ("paper-regen", paper::run, paper::trace, true),
    ("daemon-rounds", daemon::run, daemon::trace, true),
    ("scan-1m", scan::run, scan::trace, false),
    ("follow-replay", follow::run, follow::trace, false),
];

const END_TO_END: [&str; 3] = ["setup_s", "peak_rss_mib", "op_ms.p50"];

const PER_LAYER: [&str; 26] = [
    "topology.generate_ms",
    "hitlist.build_ms",
    "bgp.route_ms",
    "bgp.routes",
    "atlas.scan_ms",
    "lab.rounds_ms",
    "experiments.analysis_ms",
    "experiments.write_json_ms",
    "prober.encode_ns_per_probe",
    "engine.inject_ns_per_probe",
    "engine.dispatch_ns_per_event",
    "engine.events",
    "collector.forward_ms",
    "cleaning.clean_ms",
    "cleaning.kept_ratio",
    "catchment.build_ms",
    "catchment.mapped_ratio",
    "scan.uncovered_ms",
    "exec.speedup",
    "monitor.observe_ms",
    "monitor.publish_ms",
    "snapshot.encode_ms",
    "ingest.parse_ms",
    "ingest.bytes",
    "rss.after_setup_mib",
    "trace.overhead_ratio",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        write_pins: false,
    };
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let bad = |flag: &str| format!("{flag} needs a value");
        match args[i].as_str() {
            "--workload" => parsed.workload = value.ok_or_else(|| bad("--workload"))?.to_owned(),
            "--seed" => {
                parsed.seed = value
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--seed"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("--seconds"))?;
            }
            "--trace" => {
                parsed.trace = match value {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                };
            }
            "--write-pins" => {
                parsed.write_pins = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if parsed.seconds == 0.0 {
        return Err("--seconds is required".to_owned());
    }
    Ok(parsed)
}

fn main() {
    // vp-lint: allow(d2): command-line arguments select the workload, seed and run length.
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let Some(&(name, run, trace, fixed_seed)) = WORKLOADS.iter().find(|w| w.0 == args.workload)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; use one of {}",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };

    let work = PathBuf::from(".bench_work").join(name);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        pins: Pins::load(&PathBuf::from("perfbench/pins"), name, args.write_pins),
        nproc,
    };
    println!(
        "workload {name}: seed {} ({}), nproc {nproc}, trace {}",
        args.seed,
        if fixed_seed {
            "inputs fixed by the program; the seed changes nothing"
        } else {
            "generates the inputs"
        },
        u8::from(args.trace),
    );

    let mut out = Outcome::default();
    let expected: &[&str] = if args.trace {
        trace(&mut ctx, &mut out);
        &PER_LAYER
    } else {
        run(&mut ctx, &mut out);
        out.metric(
            "peak_rss_mib",
            "MiB",
            proc_status_mib("VmHWM:").unwrap_or(f64::NAN),
        );
        &END_TO_END
    };
    if let Err(e) = ctx.pins.save() {
        out.problems.push(format!("write pins: {e}"));
    }
    for name in expected {
        if !out.metrics.iter().any(|m| m.name == *name) {
            out.problems.push(format!("metric {name} was not measured"));
        }
    }
    out.metrics.sort_by_key(|m| {
        expected
            .iter()
            .position(|n| *n == m.name)
            .unwrap_or(usize::MAX)
    });

    for (key, value) in &out.info {
        println!("  {key:<34} {value}");
    }
    for m in &out.metrics {
        println!("  {:<34} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<34} {} of {} operations",
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
    for p in &out.problems {
        println!("  check failed: {p}");
    }
    if args.trace {
        let doc = PathBuf::from(".bench_work").join(format!("{name}.trace.json"));
        if let Err(e) = std::fs::write(&doc, out.result_json() + "\n") {
            eprintln!("perfbench: write {}: {e}", doc.display());
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", out.result_json());
}
