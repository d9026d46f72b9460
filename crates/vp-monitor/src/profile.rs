//! The `vp-monitor profile` attribution engine: turns a `vp-obs-flight/v1`
//! document into a text report answering *where the time went*.
//!
//! Per channel: self/total time per phase (self = a span's duration minus
//! its direct children's, by interval containment), per-shard compute
//! imbalance in permille, the critical path (prepass, slowest worker,
//! merge), and the top-N widest spans. The sim channel is deterministic (§7 contract); the
//! wall channel is host timing and varies run to run — the report labels
//! both accordingly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;
use vp_obs::{FlightDoc, FlightSpan, FlightTimeline};

/// Parses a `vp-obs-flight/v1` JSON document back into a [`FlightDoc`].
/// `ctx` names the source (a path, usually) for error messages.
pub fn parse_flight_doc(doc: &Value, ctx: &str) -> Result<FlightDoc, String> {
    let tag = doc.get("schema").and_then(Value::as_str);
    if tag != Some("vp-obs-flight/v1") {
        return Err(format!("{ctx}: not a vp-obs-flight/v1 document (tag {tag:?})"));
    }
    let source = doc
        .get("source")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: missing source"))?
        .to_owned();
    let channels = doc
        .get("channels")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{ctx}: missing channels object"))?;
    let sim = parse_timeline(
        channels
            .get("sim")
            .ok_or_else(|| format!("{ctx}: missing sim channel"))?,
        &format!("{ctx}: channels.sim"),
    )?;
    let wall = parse_timeline(
        channels
            .get("wall")
            .ok_or_else(|| format!("{ctx}: missing wall channel"))?,
        &format!("{ctx}: channels.wall"),
    )?;
    Ok(FlightDoc { source, sim, wall })
}

fn parse_timeline(value: &Value, ctx: &str) -> Result<FlightTimeline, String> {
    let dropped = value
        .get("dropped")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{ctx}: missing dropped count"))?;
    let raw = value
        .get("spans")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing spans array"))?;
    let mut spans = Vec::with_capacity(raw.len());
    for (i, sp) in raw.iter().enumerate() {
        let field = |key: &str| {
            sp.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{ctx}: span {i} missing {key}"))
        };
        let num = |key: &str| {
            sp.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{ctx}: span {i} missing {key}"))
        };
        let shard = match sp.get("shard") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: span {i} shard not an integer"))?;
                Some(
                    u32::try_from(n)
                        .map_err(|_| format!("{ctx}: span {i} shard {n} out of range"))?,
                )
            }
        };
        spans.push(FlightSpan {
            name: field("name")?,
            phase: field("phase")?,
            shard,
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
        });
    }
    Ok(FlightTimeline::from_spans(spans, dropped))
}

/// Aggregated self/total time for one phase of one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub phase: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The per-channel attribution: phase rows, shard compute totals, and the
/// derived imbalance / critical-path numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelProfile {
    pub spans: usize,
    pub dropped: u64,
    /// Duration of the channel's root span (the widest interval over all
    /// orchestrator spans; usually `scan.round`).
    pub root_ns: u64,
    pub phases: Vec<PhaseRow>,
    /// Compute nanoseconds attributed to each shard, in shard-id order.
    pub shards: Vec<(u32, u64)>,
    /// `(max - min) * 1000 / max` over shard compute times; `None` with no
    /// shard-attributed spans.
    pub imbalance_permille: Option<u64>,
    /// The round's critical path, read off the span structure: the time
    /// from the root span's start to the first shard's start, plus the
    /// slowest worker's makespan, plus the time from the last shard's end
    /// to the root's end (the merge). Shard intervals are clamped into
    /// the root, so this never exceeds `root_ns`. `None` without a root
    /// span or shard-attributed spans (the sim channel). Only meaningful
    /// for the wall channel, where shards overlap in real time.
    pub critical_path_ns: Option<u64>,
    /// The widest spans, duration-descending.
    pub widest: Vec<FlightSpan>,
}

/// Spans sorted canonically nest by containment under a stack walk: a
/// span's *self* time is its duration minus its direct children's.
fn contains(outer: &FlightSpan, inner: &FlightSpan) -> bool {
    outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns
}

/// Computes the attribution for one timeline. `top_n` bounds the widest-
/// span list.
pub fn profile_channel(tl: &FlightTimeline, top_n: usize) -> ChannelProfile {
    // Group by shard key (None first, then ascending ids); within a group
    // the canonical order (start asc, wider first) makes nesting a stack
    // walk. Self time = duration − Σ direct children.
    let mut phases: BTreeMap<String, PhaseRow> = BTreeMap::new();
    let mut shards: BTreeMap<u32, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    let mut root: Option<&FlightSpan> = None;
    let mut stack: Vec<(usize, u64)> = Vec::new(); // (span index, children total)
    let mut self_ns = vec![0u64; tl.spans.len()];

    let flush = |stack: &mut Vec<(usize, u64)>, self_ns: &mut Vec<u64>, upto: Option<&FlightSpan>, spans: &[FlightSpan]| {
        while let Some(&(top_idx, children)) = stack.last() {
            let Some(top) = spans.get(top_idx) else { break };
            if let Some(next) = upto {
                if next.shard == top.shard && contains(top, next) {
                    break;
                }
            }
            stack.pop();
            if let Some(slot) = self_ns.get_mut(top_idx) {
                *slot = top.duration_ns().saturating_sub(children);
            }
            if let Some((_, parent_children)) = stack.last_mut() {
                *parent_children += top.duration_ns();
            }
        }
    };

    for (i, span) in tl.spans.iter().enumerate() {
        // Close finished spans (and all spans when the shard changes).
        flush(&mut stack, &mut self_ns, Some(span), &tl.spans);
        stack.push((i, 0));
    }
    flush(&mut stack, &mut self_ns, None, &tl.spans);

    for (span, &span_self) in tl.spans.iter().zip(self_ns.iter()) {
        let dur = span.duration_ns();
        match span.shard {
            None => {
                if root.map_or(true, |r| dur > r.duration_ns()) {
                    root = Some(span);
                }
                root_ns = root_ns.max(dur);
            }
            Some(k) => {
                // Shard compute: prefer the executor's explicit compute
                // spans; otherwise any shard-attributed span counts.
                if span.name == "shard.compute" {
                    *shards.entry(k).or_insert(0) += dur;
                }
            }
        }
        let row = phases
            .entry(span.phase.clone())
            .or_insert_with(|| PhaseRow {
                phase: span.phase.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
        row.count += 1;
        row.total_ns = row.total_ns.saturating_add(dur);
        row.self_ns = row.self_ns.saturating_add(span_self);
    }
    // No explicit executor spans: fall back to summing every shard's spans'
    // *self* time, which tiles each shard's busy time without double count.
    if shards.is_empty() {
        for (span, &span_self) in tl.spans.iter().zip(self_ns.iter()) {
            if let Some(k) = span.shard {
                *shards.entry(k).or_insert(0) += span_self;
            }
        }
    }

    let shards: Vec<(u32, u64)> = shards.into_iter().collect();
    let imbalance_permille = if shards.is_empty() {
        None
    } else {
        let max = shards.iter().map(|&(_, v)| v).max().unwrap_or(0);
        let min = shards.iter().map(|&(_, v)| v).min().unwrap_or(0);
        Some((max - min) * 1000 / max.max(1))
    };
    let critical_path_ns = root.and_then(|r| critical_path(&tl.spans, r));

    let mut widest: Vec<FlightSpan> = tl.spans.clone();
    widest.sort_by(|a, b| b.duration_ns().cmp(&a.duration_ns()));
    widest.truncate(top_n);

    ChannelProfile {
        spans: tl.spans.len(),
        dropped: tl.dropped,
        root_ns,
        phases: phases.into_values().collect(),
        shards,
        imbalance_permille,
        critical_path_ns,
        widest,
    }
}

/// The critical path of a round whose root span is `root`: prepass,
/// slowest worker, merge (see [`ChannelProfile::critical_path_ns`]).
///
/// Each shard is one job spanning its `shard.compute` intervals (or all
/// its spans, when the executor recorded none), clamped into the root.
/// The timeline does not say which worker ran which shard, but a
/// worker's jobs never overlap, so the jobs are packed into chains in
/// start order, each onto the free chain that finished last (a new chain
/// when none is free); a chain's makespan runs from its first job's start
/// to its last job's end.
fn critical_path(spans: &[FlightSpan], root: &FlightSpan) -> Option<u64> {
    let (root_start, root_end) = (root.start_ns, root.end_ns.max(root.start_ns));
    let has_compute = spans.iter().any(|s| s.shard.is_some() && s.name == "shard.compute");
    let mut jobs: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let Some(k) = s.shard else { continue };
        if has_compute && s.name != "shard.compute" {
            continue;
        }
        let start = s.start_ns.clamp(root_start, root_end);
        let end = s.end_ns.clamp(start, root_end);
        let job = jobs.entry(k).or_insert((start, end));
        *job = (job.0.min(start), job.1.max(end));
    }
    let mut jobs: Vec<(u64, u64)> = jobs.into_values().collect();
    jobs.sort_unstable();
    let first_start = jobs.first()?.0;
    let last_end = jobs.iter().map(|&(_, end)| end).max()?;
    // (first start, last end) per chain.
    let mut chains: Vec<(u64, u64)> = Vec::new();
    for &(start, end) in &jobs {
        let free = chains
            .iter_mut()
            .filter(|c| c.1 <= start)
            .max_by_key(|c| c.1);
        match free {
            Some(chain) => chain.1 = end,
            None => chains.push((start, end)),
        }
    }
    let makespan = chains.iter().map(|&(s, e)| e - s).max()?;
    Some((first_start - root_start) + makespan + (root_end - last_end))
}

fn ms(ns: u64) -> String {
    format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

fn render_channel(out: &mut String, label: &str, contract: &str, tl: &FlightTimeline, top_n: usize) {
    let p = profile_channel(tl, top_n);
    let _ = writeln!(out, "== {label} channel ({contract}) ==");
    if tl.spans.is_empty() {
        let _ = writeln!(out, "  (empty)");
        return;
    }
    let _ = writeln!(
        out,
        "  spans {}  dropped {}  root {}",
        p.spans,
        p.dropped,
        ms(p.root_ns)
    );
    let _ = writeln!(out, "  phase           count     total        self");
    for row in &p.phases {
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>11} {:>11}",
            row.phase,
            row.count,
            ms(row.total_ns),
            ms(row.self_ns)
        );
    }
    if !p.shards.is_empty() {
        let _ = writeln!(out, "  shard compute:");
        for (k, v) in &p.shards {
            let _ = writeln!(out, "    shard {k:>3}  {:>11}", ms(*v));
        }
        if let Some(imb) = p.imbalance_permille {
            let _ = writeln!(out, "  imbalance {imb} permille (max-min over max)");
        }
        if let Some(cp) = p.critical_path_ns {
            let _ = writeln!(out, "  critical path (prepass + slowest worker + merge) {}", ms(cp));
        }
    }
    let _ = writeln!(out, "  widest spans:");
    for sp in &p.widest {
        let shard = match sp.shard {
            None => "-".to_owned(),
            Some(k) => k.to_string(),
        };
        let _ = writeln!(
            out,
            "    {:<22} phase {:<7} shard {:>3}  {:>11}",
            sp.name,
            sp.phase,
            shard,
            ms(sp.duration_ns())
        );
    }
}

/// Renders the full attribution report for a flight document.
pub fn render_report(doc: &FlightDoc, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "flight profile: {}", doc.source);
    render_channel(
        &mut out,
        "sim",
        "deterministic, inside the \u{a7}7 contract",
        &doc.sim,
        top_n,
    );
    render_channel(
        &mut out,
        "wall",
        "host timing, outside the determinism contract",
        &doc.wall,
        top_n,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, phase: &str, shard: Option<u32>, start: u64, end: u64) -> FlightSpan {
        FlightSpan {
            name: name.to_owned(),
            phase: phase.to_owned(),
            shard,
            start_ns: start,
            end_ns: end,
        }
    }

    /// The sim channel's standard shape: round [0,100], walk+build [0,60]
    /// (equal intervals), dispatch [60,100], zero-width tail marks.
    fn sim_timeline() -> FlightTimeline {
        FlightTimeline::from_spans(
            vec![
                span("scan.round", "round", None, 0, 100),
                span("scan.schedule_walk", "probe", None, 0, 60),
                span("scan.probe_build", "probe", None, 0, 60),
                span("scan.sim_dispatch", "sim", None, 60, 100),
                span("scan.cleaning", "clean", None, 100, 100),
                span("scan.catchment_build", "map", None, 100, 100),
            ],
            0,
        )
    }

    #[test]
    fn phase_self_times_sum_to_root_total() {
        let p = profile_channel(&sim_timeline(), 3);
        assert_eq!(p.root_ns, 100);
        let self_sum: u64 = p.phases.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, p.root_ns, "self times must tile the round");
        // Equal sibling intervals nest one inside the other (canonical
        // order breaks the tie): probe self = inner 60 + outer 0.
        let probe = p.phases.iter().find(|r| r.phase == "probe").unwrap_or_else(|| panic!("no probe row"));
        assert_eq!(probe.total_ns, 120);
        assert_eq!(probe.self_ns, 60);
        let round = p.phases.iter().find(|r| r.phase == "round").unwrap_or_else(|| panic!("no round row"));
        assert_eq!(round.self_ns, 0, "round is fully covered by its children");
        assert_eq!(p.shards, Vec::new());
        assert_eq!(p.imbalance_permille, None);
    }

    #[test]
    fn shard_compute_drives_imbalance_and_critical_path() {
        let tl = FlightTimeline::from_spans(
            vec![
                span("scan.round", "round", None, 0, 100),
                span("shard.compute", "exec", Some(0), 10, 50),
                span("shard.compute", "exec", Some(1), 10, 30),
                span("shard.barrier_wait", "exec", Some(1), 30, 50),
            ],
            0,
        );
        let p = profile_channel(&tl, 5);
        assert_eq!(p.shards, vec![(0, 40), (1, 20)]);
        assert_eq!(p.imbalance_permille, Some(500));
        // Prepass 10 + slowest worker 40 + merge 50: the whole round.
        assert_eq!(p.critical_path_ns, Some(100));
        assert_eq!(p.widest[0].name, "scan.round");
        assert_eq!(p.widest.len(), 4);
    }

    #[test]
    fn critical_path_follows_the_slowest_worker_chain() {
        // Two workers, four shards: worker A runs shards 0 and 2 back to
        // back, worker B starts late and runs shards 1 and 3.
        let tl = FlightTimeline::from_spans(
            vec![
                span("scan.round", "round", None, 0, 100),
                span("shard.compute", "exec", Some(0), 10, 30),
                span("shard.compute", "exec", Some(1), 20, 50),
                span("shard.compute", "exec", Some(2), 30, 60),
                span("shard.compute", "exec", Some(3), 50, 70),
                span("scan.merge", "merge", None, 70, 95),
            ],
            0,
        );
        let p = profile_channel(&tl, 5);
        // Prepass 10 + worker B's 50 (20..70) + merge 30 (70..100) = 90:
        // the idle 10 before worker B starts is off the path.
        assert_eq!(p.critical_path_ns, Some(90));
        // No root span, no critical path.
        let shards_only =
            FlightTimeline::from_spans(tl.spans.iter().filter(|s| s.shard.is_some()).cloned().collect(), 0);
        assert_eq!(profile_channel(&shards_only, 5).critical_path_ns, None);
    }

    #[test]
    fn shard_attribution_falls_back_to_self_times() {
        let tl = FlightTimeline::from_spans(
            vec![
                span("scan.probe_build", "probe", Some(0), 0, 30),
                span("scan.sim_dispatch", "sim", Some(0), 30, 90),
                span("scan.probe_build", "probe", Some(1), 0, 40),
            ],
            0,
        );
        let p = profile_channel(&tl, 2);
        assert_eq!(p.shards, vec![(0, 90), (1, 40)]);
        assert_eq!(p.widest.len(), 2, "top-N truncates");
    }

    #[test]
    fn parse_round_trips_canonical_json() {
        let doc = FlightDoc {
            source: "unit".to_owned(),
            sim: sim_timeline(),
            wall: FlightTimeline::from_spans(vec![span("w", "exec", Some(3), 5, 9)], 2),
        };
        let value: Value = serde_json::from_str(&doc.to_canonical_json())
            .unwrap_or_else(|e| panic!("canonical json must parse: {e}"));
        let back = parse_flight_doc(&value, "t").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back, doc);
        // And the parsed document re-serializes to the same bytes.
        assert_eq!(back.to_canonical_json(), doc.to_canonical_json());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        let bad: Value = serde_json::from_str(r#"{"schema":"nope/v1"}"#).unwrap_or_else(|e| panic!("{e}"));
        assert!(parse_flight_doc(&bad, "t").is_err());
        let missing: Value = serde_json::from_str(
            r#"{"schema":"vp-obs-flight/v1","source":"x","channels":{"sim":{"spans":[],"dropped":0}}}"#,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(parse_flight_doc(&missing, "t")
            .unwrap_err()
            .contains("wall"));
        let bad_span: Value = serde_json::from_str(
            r#"{"schema":"vp-obs-flight/v1","source":"x","channels":{"sim":{"spans":[{"name":"a"}],"dropped":0},"wall":{"spans":[],"dropped":0}}}"#,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(parse_flight_doc(&bad_span, "t").is_err());
    }

    #[test]
    fn report_mentions_both_channels_and_the_round() {
        let doc = FlightDoc {
            source: "unit".to_owned(),
            sim: sim_timeline(),
            wall: FlightTimeline::default(),
        };
        let text = render_report(&doc, 4);
        assert!(text.contains("flight profile: unit"), "{text}");
        assert!(text.contains("== sim channel"), "{text}");
        assert!(text.contains("== wall channel"), "{text}");
        assert!(text.contains("scan.round"), "{text}");
        assert!(text.contains("(empty)"), "{text}");
    }
}
