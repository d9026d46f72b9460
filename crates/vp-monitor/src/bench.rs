//! Perf-regression gating: compares a fresh `BENCH_scan.json` against the
//! committed baseline trajectory in `results/monitor/bench_baseline.json`.
//!
//! Wall-clock benchmarks are noisy, so the gate is deliberately
//! conservative:
//!
//! * Per shard count it compares **min-of-reps** — the minimum is the
//!   least noisy location statistic for a "how fast can this go"
//!   benchmark (medians drift with scheduler load; minima only improve
//!   with more reps).
//! * The baseline is the best min over the whole committed **trajectory**
//!   of runs, not just the latest — one lucky historical run should keep
//!   counting.
//! * A shard count regresses only if
//!   `current_min * 1000 > baseline_best * (1000 + tolerance_permille)`.
//!   The committed default tolerance is 500‰ (1.5×): generous enough for
//!   shared CI machines, tight enough to catch a real algorithmic
//!   regression (the serial-vs-sharded gap the benchmark exists to watch
//!   is itself bounded by the cross-check in `bench_scan`).
//!
//! Everything here is pure parsing + integer comparison; reading clocks
//! stays in vp-bench where lint rule d2 allows it.

use serde_json::Value;

/// One (targets, shard-count) entry of a `vp-bench-scan/v1` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchRun {
    /// Hitlist scale of this entry. Entries without their own `targets`
    /// field (pre-multi-scale documents) inherit the document-level one.
    pub targets: u64,
    pub shards: u64,
    /// True when the entry ran on the OS-thread executor
    /// (`ShardExecutor::host_parallel`); absent in pre-threading
    /// documents, which parse as `false` (the serial executor).
    pub threaded: bool,
    pub reps: u64,
    pub min_ns: u64,
    pub median_ns: u64,
    pub p90_ns: u64,
    pub max_ns: u64,
}

/// A parsed `BENCH_scan.json` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchScanDoc {
    /// Monotonic run counter (`run` field); 0 for pre-counter documents.
    pub run: u64,
    pub targets: u64,
    pub series: Vec<BenchRun>,
    /// Host core count the run was recorded on; absent in older runs.
    pub nproc: Option<u64>,
    /// Peak resident set size of the whole bench process in kiB; absent
    /// in older runs.
    pub peak_rss_kib: Option<u64>,
}

/// The committed baseline: a trajectory of past bench documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchBaseline {
    pub tolerance_permille: u64,
    pub runs: Vec<BenchScanDoc>,
}

fn parse_series(doc: &Value, doc_targets: u64, what: &str) -> Result<Vec<BenchRun>, String> {
    let Some(series) = doc.get("series").and_then(Value::as_array) else {
        return Err(format!("{what}: missing series array"));
    };
    let mut runs = Vec::with_capacity(series.len());
    for (i, entry) in series.iter().enumerate() {
        let field = |key: &str| -> Result<u64, String> {
            entry
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{what}: series[{i}] missing {key}"))
        };
        runs.push(BenchRun {
            targets: entry
                .get("targets")
                .and_then(Value::as_u64)
                .unwrap_or(doc_targets),
            shards: field("shards")?,
            threaded: entry
                .get("threaded")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            reps: field("reps")?,
            min_ns: field("min_ns")?,
            median_ns: field("median_ns")?,
            p90_ns: field("p90_ns")?,
            max_ns: field("max_ns")?,
        });
    }
    Ok(runs)
}

fn parse_scan_doc(doc: &Value, what: &str) -> Result<BenchScanDoc, String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some("vp-bench-scan/v1") => {}
        other => return Err(format!("{what}: unexpected schema {other:?}")),
    }
    let targets = doc
        .get("targets")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{what}: missing targets"))?;
    Ok(BenchScanDoc {
        run: doc.get("run").and_then(Value::as_u64).unwrap_or(0),
        targets,
        series: parse_series(doc, targets, what)?,
        nproc: doc.get("nproc").and_then(Value::as_u64),
        peak_rss_kib: doc.get("peak_rss_kib").and_then(Value::as_u64),
    })
}

/// Parses a `BENCH_scan.json` (`vp-bench-scan/v1`) document.
pub fn parse_bench_scan(text: &str, what: &str) -> Result<BenchScanDoc, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("{what}: invalid JSON: {e}"))?;
    parse_scan_doc(&doc, what)
}

/// Parses a `vp-bench-baseline/v1` trajectory document.
pub fn parse_baseline(text: &str, what: &str) -> Result<BenchBaseline, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("{what}: invalid JSON: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("vp-bench-baseline/v1") => {}
        other => return Err(format!("{what}: unexpected schema {other:?}")),
    }
    let tolerance_permille = doc
        .get("tolerance_permille")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{what}: missing tolerance_permille"))?;
    let Some(runs) = doc.get("runs").and_then(Value::as_array) else {
        return Err(format!("{what}: missing runs array"));
    };
    let runs = runs
        .iter()
        .enumerate()
        .map(|(i, r)| parse_scan_doc(r, &format!("{what}: runs[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    if runs.is_empty() {
        return Err(format!("{what}: baseline has no runs"));
    }
    Ok(BenchBaseline {
        tolerance_permille,
        runs,
    })
}

/// The verdict for one (targets, shards, threaded) series entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardVerdict {
    pub targets: u64,
    pub shards: u64,
    pub threaded: bool,
    pub current_min_ns: u64,
    /// Best (lowest) min over the baseline trajectory; `None` if the
    /// baseline has no entry for this (targets, shards, threaded) key.
    pub baseline_best_ns: Option<u64>,
    /// `current * 1000 / baseline_best`; 1000 = exactly baseline.
    pub ratio_permille: Option<u64>,
    pub regressed: bool,
}

/// The overall check-bench verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchVerdict {
    pub tolerance_permille: u64,
    /// Host speed factor the allowance was scaled by (1000 = the host
    /// the baselines were recorded on).
    pub host_factor_permille: u64,
    pub shards: Vec<ShardVerdict>,
}

impl BenchVerdict {
    /// True if any shard count regressed.
    pub fn regressed(&self) -> bool {
        self.shards.iter().any(|s| s.regressed)
    }

    /// One report line per shard count, for CLI output.
    pub fn report_lines(&self) -> Vec<String> {
        self.shards
            .iter()
            .map(|s| {
                let mode = if s.threaded { " threaded" } else { "" };
                match (s.baseline_best_ns, s.ratio_permille) {
                    (Some(best), Some(ratio)) => format!(
                        "targets={targets} K={shards}{mode}: min {cur:.1}ms vs baseline best \
                         {best:.1}ms (ratio {ratio} permille, limit {limit}) — {verdict}",
                        targets = s.targets,
                        shards = s.shards,
                        cur = s.current_min_ns as f64 / 1e6,
                        best = best as f64 / 1e6,
                        limit =
                            (1000 + self.tolerance_permille) * self.host_factor_permille / 1000,
                        verdict = if s.regressed { "REGRESSED" } else { "ok" },
                    ),
                    _ => format!(
                        "targets={} K={}{mode}: no baseline entry — skipped \
                         (commit a new baseline run)",
                        s.targets, s.shards
                    ),
                }
            })
            .collect()
    }
}

/// Applies the noise-aware min-of-reps rule: each current (targets,
/// shards, threaded) entry is compared against the best min across the
/// whole baseline trajectory **at the same key** — a 100k-block min must
/// never be judged against a 15k-block baseline, and a threaded series
/// must never be judged against the serial executor's (or vice versa).
/// Keys absent from the baseline are reported but never regress (a new
/// scale, K, or execution mode needs a committed baseline first).
pub fn check_bench(current: &BenchScanDoc, baseline: &BenchBaseline) -> BenchVerdict {
    check_bench_scaled(current, baseline, 1000)
}

/// [`check_bench`] with a host speed factor (permille, 1000 = the host
/// the committed baselines were recorded on). A CI box measured ~1.3×
/// slower than the baseline host passes `host_factor_permille = 1300`
/// and its allowance scales accordingly:
/// `current * 1_000_000 > best * (1000 + tolerance) * host_factor`.
/// This keeps the committed baselines portable instead of silently
/// re-recording them per machine. Factors below 1000 tighten the gate
/// (a faster host should also be held to its speed).
pub fn check_bench_scaled(
    current: &BenchScanDoc,
    baseline: &BenchBaseline,
    host_factor_permille: u64,
) -> BenchVerdict {
    let shards = current
        .series
        .iter()
        .map(|cur| {
            let best = baseline
                .runs
                .iter()
                .flat_map(|run| run.series.iter())
                .filter(|b| {
                    b.shards == cur.shards
                        && b.targets == cur.targets
                        && b.threaded == cur.threaded
                })
                .map(|b| b.min_ns)
                .min();
            let ratio = best.map(|b| cur.min_ns.saturating_mul(1000) / b.max(1));
            let regressed = match best {
                Some(b) => {
                    u128::from(cur.min_ns) * 1_000_000
                        > u128::from(b)
                            * u128::from(1000 + baseline.tolerance_permille)
                            * u128::from(host_factor_permille)
                }
                None => false,
            };
            ShardVerdict {
                targets: cur.targets,
                shards: cur.shards,
                threaded: cur.threaded,
                current_min_ns: cur.min_ns,
                baseline_best_ns: best,
                ratio_permille: ratio,
                regressed,
            }
        })
        .collect();
    BenchVerdict {
        tolerance_permille: baseline.tolerance_permille,
        host_factor_permille,
        shards,
    }
}

fn run_value(doc: &BenchScanDoc) -> Value {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert(
        "schema".to_owned(),
        Value::Str("vp-bench-scan/v1".to_owned()),
    );
    obj.insert("run".to_owned(), Value::U64(doc.run));
    obj.insert("targets".to_owned(), Value::U64(doc.targets));
    if let Some(n) = doc.nproc {
        obj.insert("nproc".to_owned(), Value::U64(n));
    }
    if let Some(kib) = doc.peak_rss_kib {
        obj.insert("peak_rss_kib".to_owned(), Value::U64(kib));
    }
    obj.insert(
        "series".to_owned(),
        Value::Array(
            doc.series
                .iter()
                .map(|r| {
                    let mut e = std::collections::BTreeMap::new();
                    e.insert("targets".to_owned(), Value::U64(r.targets));
                    e.insert("shards".to_owned(), Value::U64(r.shards));
                    e.insert("threaded".to_owned(), Value::Bool(r.threaded));
                    e.insert("reps".to_owned(), Value::U64(r.reps));
                    e.insert("min_ns".to_owned(), Value::U64(r.min_ns));
                    e.insert("median_ns".to_owned(), Value::U64(r.median_ns));
                    e.insert("p90_ns".to_owned(), Value::U64(r.p90_ns));
                    e.insert("max_ns".to_owned(), Value::U64(r.max_ns));
                    Value::Object(e)
                })
                .collect(),
        ),
    );
    Value::Object(obj)
}

/// Renders a baseline, optionally with `current` appended to the
/// trajectory, as the canonical `vp-bench-baseline/v1` document
/// (`vp-monitor check-bench --append` uses this to extend the committed
/// baseline after an accepted run).
pub fn build_baseline_doc(baseline: &BenchBaseline, append: Option<&BenchScanDoc>) -> Value {
    let mut doc = std::collections::BTreeMap::new();
    doc.insert(
        "schema".to_owned(),
        Value::Str("vp-bench-baseline/v1".to_owned()),
    );
    doc.insert(
        "tolerance_permille".to_owned(),
        Value::U64(baseline.tolerance_permille),
    );
    doc.insert(
        "runs".to_owned(),
        Value::Array(
            baseline
                .runs
                .iter()
                .chain(append)
                .map(run_value)
                .collect(),
        ),
    );
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(run_no: u64, mins: &[(u64, u64)]) -> BenchScanDoc {
        run_at(run_no, &mins.iter().map(|&(s, m)| (15000, s, m)).collect::<Vec<_>>())
    }

    fn run_at(run_no: u64, mins: &[(u64, u64, u64)]) -> BenchScanDoc {
        BenchScanDoc {
            run: run_no,
            targets: mins.first().map_or(15000, |&(t, _, _)| t),
            series: mins
                .iter()
                .map(|&(targets, shards, min_ns)| BenchRun {
                    targets,
                    shards,
                    threaded: false,
                    reps: 9,
                    min_ns,
                    median_ns: min_ns + 10,
                    p90_ns: min_ns + 20,
                    max_ns: min_ns + 30,
                })
                .collect(),
            nproc: None,
            peak_rss_kib: None,
        }
    }

    fn mark_threaded(mut doc: BenchScanDoc) -> BenchScanDoc {
        for r in &mut doc.series {
            r.threaded = true;
        }
        doc
    }

    fn baseline(tolerance: u64, runs: Vec<BenchScanDoc>) -> BenchBaseline {
        BenchBaseline {
            tolerance_permille: tolerance,
            runs,
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let base = baseline(500, vec![run(1, &[(1, 1000), (2, 600)])]);
        let verdict = check_bench(&run(2, &[(1, 1400), (2, 800)]), &base);
        assert!(!verdict.regressed(), "{:?}", verdict.shards);
        assert_eq!(verdict.shards[0].ratio_permille, Some(1400));
    }

    #[test]
    fn beyond_tolerance_regresses() {
        let base = baseline(500, vec![run(1, &[(1, 1000)])]);
        let verdict = check_bench(&run(2, &[(1, 1501)]), &base);
        assert!(verdict.regressed());
        assert!(verdict.report_lines()[0].contains("REGRESSED"));
        // Exactly at the limit still passes (strict inequality).
        assert!(!check_bench(&run(2, &[(1, 1500)]), &base).regressed());
    }

    #[test]
    fn trajectory_best_is_min_over_all_runs() {
        // Run 2 was lucky (fast); run 3 slower. Best = 800.
        let base = baseline(
            500,
            vec![run(1, &[(1, 1000)]), run(2, &[(1, 800)]), run(3, &[(1, 1100)])],
        );
        let verdict = check_bench(&run(4, &[(1, 1201)]), &base);
        assert!(verdict.regressed()); // 1201 > 800 * 1.5
        assert_eq!(verdict.shards[0].baseline_best_ns, Some(800));
    }

    #[test]
    fn unknown_shard_count_never_regresses() {
        let base = baseline(500, vec![run(1, &[(1, 1000)])]);
        let verdict = check_bench(&run(2, &[(1, 1000), (16, 99999)]), &base);
        assert!(!verdict.regressed());
        assert!(verdict.report_lines()[1].contains("no baseline entry"));
    }

    #[test]
    fn scales_are_gated_independently() {
        // 100k entries compare only against 100k baselines: a slow 100k
        // min must not hide behind a fast 15k baseline, and a new scale
        // never regresses before its baseline is committed.
        let base = baseline(
            500,
            vec![run_at(1, &[(15000, 1, 1000), (100_000, 1, 8000)])],
        );
        let slow_big = run_at(2, &[(15000, 1, 1100), (100_000, 1, 12_001)]);
        let verdict = check_bench(&slow_big, &base);
        assert!(verdict.regressed());
        assert!(!verdict.shards[0].regressed, "15k within tolerance");
        assert!(verdict.shards[1].regressed, "100k beyond tolerance");
        assert_eq!(verdict.shards[1].baseline_best_ns, Some(8000));
        assert!(verdict.report_lines()[1].contains("targets=100000"));

        let new_scale = run_at(3, &[(1_000_000, 1, 999_999_999)]);
        assert!(!check_bench(&new_scale, &base).regressed());
    }

    #[test]
    fn threaded_series_gate_independently_of_serial() {
        // A threaded K=8 entry must not be judged against the serial
        // K=8 baseline (the threaded series has its own cost profile),
        // and before a threaded baseline is committed it never regresses.
        let base = baseline(500, vec![run(1, &[(8, 1000)])]);
        let slow_threaded = mark_threaded(run(2, &[(8, 99_999)]));
        let verdict = check_bench(&slow_threaded, &base);
        assert!(!verdict.regressed());
        assert!(verdict.report_lines()[0].contains("K=8 threaded"));
        assert!(verdict.report_lines()[0].contains("no baseline entry"));

        // Once a threaded baseline exists, the threaded series gates —
        // and the serial series still compares against serial only.
        let base2 = baseline(
            500,
            vec![run(1, &[(8, 1000)]), mark_threaded(run(2, &[(8, 700)]))],
        );
        let mut mixed = run(3, &[(8, 1400), (8, 1051)]);
        mixed.series[1].threaded = true;
        let verdict = check_bench(&mixed, &base2);
        assert!(!verdict.shards[0].regressed, "serial 1400 vs 1000*1.5");
        assert!(verdict.shards[1].regressed, "threaded 1051 > 700*1.5");
        assert_eq!(verdict.shards[1].baseline_best_ns, Some(700));
    }

    #[test]
    fn threaded_flag_roundtrips_and_defaults_false() {
        let text = r#"{
            "schema": "vp-bench-scan/v1", "run": 1, "targets": 15000,
            "series": [
                {"max_ns": 5, "median_ns": 4, "min_ns": 3, "p90_ns": 5,
                 "reps": 9, "shards": 1},
                {"max_ns": 5, "median_ns": 4, "min_ns": 2, "p90_ns": 5,
                 "reps": 9, "shards": 8, "threaded": true}
            ]
        }"#;
        let doc = parse_bench_scan(text, "test").unwrap();
        assert!(!doc.series[0].threaded, "absent parses as serial");
        assert!(doc.series[1].threaded);
        let base = baseline(500, vec![doc.clone()]);
        let rendered = serde_json::to_string(&build_baseline_doc(&base, None)).unwrap();
        let back = parse_baseline(&rendered, "test").unwrap();
        assert_eq!(back.runs[0], doc);
    }

    #[test]
    fn host_factor_scales_the_allowance() {
        // Baseline 1000ns, tolerance 500‰ → serial limit 1500ns. A
        // current min of 1800ns regresses on the baseline host but is
        // within allowance on a host vouched 1.3× slower (limit 1950ns).
        let base = baseline(500, vec![run(1, &[(1, 1000)])]);
        let cur = run(2, &[(1, 1800)]);
        assert!(check_bench(&cur, &base).regressed());
        let scaled = check_bench_scaled(&cur, &base, 1300);
        assert!(!scaled.regressed(), "{:?}", scaled.shards);
        assert!(scaled.report_lines()[0].contains("limit 1950"));
        // Strict inequality at the scaled limit: 1950 passes, 1951 fails.
        assert!(!check_bench_scaled(&run(2, &[(1, 1950)]), &base, 1300).regressed());
        assert!(check_bench_scaled(&run(2, &[(1, 1951)]), &base, 1300).regressed());
        // A factor below 1000 tightens the gate for a faster host.
        assert!(check_bench_scaled(&run(2, &[(1, 1400)]), &base, 900).regressed());
    }

    #[test]
    fn entry_targets_default_to_doc_level() {
        // Pre-multi-scale documents carry targets only at the document
        // level; their entries must still match same-scale baselines.
        let text = r#"{
            "schema": "vp-bench-scan/v1", "run": 1, "targets": 15000,
            "series": [{"max_ns": 5, "median_ns": 4, "min_ns": 3,
                        "p90_ns": 5, "reps": 9, "shards": 1}]
        }"#;
        let doc = parse_bench_scan(text, "test").unwrap();
        assert_eq!(doc.series[0].targets, 15000);
        let base = baseline(500, vec![doc]);
        let verdict = check_bench(&run(2, &[(1, 4)]), &base);
        assert_eq!(verdict.shards[0].baseline_best_ns, Some(3));
    }

    #[test]
    fn parse_roundtrip_through_baseline_doc() {
        let base = baseline(500, vec![run(1, &[(1, 1000), (2, 600)])]);
        // Host facts ride along into the trajectory when a run has them.
        let appended = BenchScanDoc {
            nproc: Some(2),
            peak_rss_kib: Some(300_000),
            ..run(2, &[(1, 900), (2, 550)])
        };
        let doc = build_baseline_doc(&base, Some(&appended));
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = parse_baseline(&text, "test").unwrap();
        assert_eq!(back.runs.len(), 2);
        assert_eq!(back.runs[1], appended);
        assert_eq!(back.tolerance_permille, 500);
    }

    #[test]
    fn real_bench_scan_document_parses() {
        // Shape of the committed BENCH_scan.json (pre-`run` documents get
        // run 0).
        let text = r#"{
            "benchmark": "run_scan", "schema": "vp-bench-scan/v1",
            "targets": 15000,
            "series": [{"max_ns": 5, "median_ns": 4, "min_ns": 3,
                        "p90_ns": 5, "reps": 5, "shards": 1}]
        }"#;
        let doc = parse_bench_scan(text, "test").unwrap();
        assert_eq!(doc.run, 0);
        assert_eq!(doc.series[0].min_ns, 3);
        assert!(parse_bench_scan("{}", "test").is_err());
        assert!(parse_baseline(r#"{"schema":"vp-bench-baseline/v1","tolerance_permille":500,"runs":[]}"#, "t").is_err());
    }
}
