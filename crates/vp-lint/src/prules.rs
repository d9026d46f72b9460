//! The hot-path cost rules: layer five of the graph engine.
//!
//! | id | rule |
//! |----|------|
//! | p1 | no heap allocation in the per-probe region: `Vec::new`/`push` without a capacity witness, `Box::new`, `String`/`format!`/`to_string`, `collect`, `to_vec`, `clone` of a columnar collection |
//! | p2 | no per-probe `BTreeMap::get`/`contains_key` where a dense `BlockIndex`/column lookup exists |
//! | p3 | no loop-invariant checksum/encode helper call inside a probe loop — hoist it or use the incremental/batched API |
//! | p4 | no dynamic dispatch (`dyn`, `Box<dyn ..>`) in the hot region |
//! | p5 | no per-probe error/string construction: formatted panic messages, `Err(format!(..))` |
//!
//! ## The hot region
//!
//! The region is the forward closure of the scan inner loops over the
//! PR 7 call graph:
//!
//! * the prober walk and batch encoder (`Prober::walk_schedule` /
//!   `build_probes_with_replies`) and the scan engine body that drives
//!   them (`Round::scan_engine`, run by the serial and sharded scans alike),
//! * the six engine phases (`NetworkSim::send_at` / `transmit` /
//!   `resolve` / `run` / `arrive_at_site` / `arrive_at_host`),
//! * every parallel-region entry (the closure handed to the blessed
//!   shard executor — [`crate::crules`]'s region entries).
//!
//! The closure does **not** traverse into:
//!
//! * fns annotated `vp-lint: cold(fn)` — setup/teardown that runs once
//!   per scan, not once per probe;
//! * the blessed executor file itself (its spawn/join plumbing runs once
//!   per shard);
//! * crates outside [`P_CRATES`] — observability and tooling crates are
//!   not on the per-probe path even when the engine calls into them.
//!
//! ## Suppression model (mirrors c1–c4)
//!
//! * line allows are consumed at **index time**: `allow(p1)` on the
//!   allocation, `allow(p2)` on the lookup, `allow(p3)` on the call,
//!   `allow(p4)` on the `dyn`, `allow(p5)` on the construction;
//! * on a **fn definition line**: `allow(pN)` audits the whole fn for
//!   that rule — its facts are vouched amortized/intentional. The
//!   fn-level allow is live (for g3) only if the fn actually has facts
//!   for the audited rule.
//!
//! Facts themselves are extracted intraprocedurally at index time
//! ([`crate::index`]); this module only decides *which fns' facts become
//! findings* — membership in the hot region — and renders the g1-style
//! witness path from a root to the fact.

use std::collections::BTreeSet;

use crate::crules::parallel_region;
use crate::graph::Graph;
use crate::rules::{Finding, RuleId, BLESSED_EXECUTOR_FILE};

/// Crates whose fns can be hot-region members. Everything else (lint,
/// observability, CLI frontends) is off the per-probe path by
/// construction.
pub const P_CRATES: [&str; 8] = [
    "vp-packet",
    "vp-net",
    "vp-geo",
    "vp-topology",
    "vp-bgp",
    "vp-hitlist",
    "vp-sim",
    "verfploeter",
];

/// The scan inner loops: (impl type, fn name) pairs that root the hot
/// region even when no executor entry reaches them (the serial path).
const HOT_ROOTS: [(&str, &str); 9] = [
    ("Prober", "walk_schedule"),
    ("Prober", "build_probes_with_replies"),
    ("Round", "scan_engine"),
    ("NetworkSim", "send_at"),
    ("NetworkSim", "transmit"),
    ("NetworkSim", "resolve"),
    ("NetworkSim", "run"),
    ("NetworkSim", "arrive_at_site"),
    ("NetworkSim", "arrive_at_host"),
];

/// The hot region: roots (scan inner loops + parallel-region entries)
/// and their forward closure.
pub struct HotRegion {
    /// Root node indices, sorted.
    pub roots: Vec<usize>,
    /// Forward closure of the roots (includes them), cold fns, the
    /// blessed executor and non-[`P_CRATES`] crates excluded.
    pub members: BTreeSet<usize>,
}

/// Whether node `i` is traversable by the hot-region closure.
fn traversable(g: &Graph, i: usize) -> bool {
    let n = &g.nodes[i];
    !n.info.is_cold
        && n.file != BLESSED_EXECUTOR_FILE
        && P_CRATES.contains(&n.crate_name.as_str())
}

/// Computes the hot region from the call graph.
pub fn hot_region(g: &Graph) -> HotRegion {
    let mut roots: Vec<usize> = Vec::new();
    for i in 0..g.nodes.len() {
        let n = &g.nodes[i];
        if HOT_ROOTS
            .iter()
            .any(|(ty, f)| n.info.impl_type.as_deref() == Some(*ty) && n.info.name == *f)
            && traversable(g, i)
        {
            roots.push(i);
        }
    }
    for e in parallel_region(g).entries {
        if traversable(g, e) && !roots.contains(&e) {
            roots.push(e);
        }
    }
    roots.sort_unstable();
    let mut members: BTreeSet<usize> = BTreeSet::new();
    let mut stack: Vec<usize> = roots.clone();
    while let Some(i) = stack.pop() {
        if !traversable(g, i) || !members.insert(i) {
            continue;
        }
        for e in &g.edges[i] {
            if !members.contains(&e.callee) {
                stack.push(e.callee);
            }
        }
    }
    HotRegion { roots, members }
}

/// BFS parents from the roots, for witness paths. Deterministic: the
/// frontier is expanded in sorted order and a node keeps its first
/// (smallest-id-root, shortest) parent.
fn bfs_parents(g: &Graph, region: &HotRegion) -> Vec<Option<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut seen: BTreeSet<usize> = region.roots.iter().copied().collect();
    let mut frontier: Vec<usize> = region.roots.clone();
    while !frontier.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &i in &frontier {
            for e in &g.edges[i] {
                if region.members.contains(&e.callee) && seen.insert(e.callee) {
                    parent[e.callee] = Some(i);
                    next.push(e.callee);
                }
            }
        }
        next.sort_unstable();
        frontier = next;
    }
    parent
}

/// The call path from a root to node `i`, rendered g1-style.
fn root_path(g: &Graph, parent: &[Option<usize>], i: usize) -> Vec<String> {
    let mut rev = vec![i];
    let mut cur = i;
    while let Some(p) = parent[cur] {
        rev.push(p);
        cur = p;
    }
    rev.reverse();
    rev.iter()
        .map(|&k| {
            let n = &g.nodes[k];
            format!("{} ({}:{})", n.id, n.file, n.info.line)
        })
        .collect()
}

/// Evaluates p1–p5 over the hot region. Returns findings plus the
/// `(file, line, rule)` fn-level allow usages (feeds rule g3).
pub fn evaluate(g: &Graph) -> (Vec<Finding>, Vec<(String, usize, RuleId)>) {
    let mut findings = Vec::new();
    let mut used: Vec<(String, usize, RuleId)> = Vec::new();

    // Fn-level p-audits are live wherever the fn has facts for the rule
    // — region membership does not gate liveness, so an audit stays
    // honest documentation even while the region shifts around it.
    for n in &g.nodes {
        for (k, rule) in P_RULES.iter().enumerate() {
            if n.info.audited_p[k] && n.info.pfacts.iter().any(|f| f.rule == *rule) {
                used.push((n.file.clone(), n.info.line, *rule));
            }
        }
    }

    let region = hot_region(g);
    if region.roots.is_empty() {
        return (findings, used);
    }
    let parent = bfs_parents(g, &region);

    for &i in &region.members {
        let n = &g.nodes[i];
        if n.info.pfacts.is_empty() {
            continue;
        }
        let path = root_path(g, &parent, i);
        for f in &n.info.pfacts {
            let k = P_RULES.iter().position(|r| *r == f.rule).unwrap_or(0);
            if n.info.audited_p[k] {
                continue;
            }
            let mut witness = path.clone();
            witness.push(format!("{} ({}:{})", f.label, n.file, f.line));
            findings.push(Finding {
                file: n.file.clone(),
                line: f.line,
                col: f.col,
                rule: f.rule,
                message: format!(
                    "{} in the hot region: {}",
                    describe(f.rule),
                    witness.join(" -> ")
                ),
                witness,
            });
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    (findings, used)
}

const P_RULES: [RuleId; 5] = [RuleId::P1, RuleId::P2, RuleId::P3, RuleId::P4, RuleId::P5];

/// The `vp-lint hotpath --report` body: the region roster (roots marked)
/// and a per-fn table of facts — findings *and* audited facts, so an
/// audit is visible instead of silently swallowing its sites.
pub fn report(g: &Graph) -> String {
    let region = hot_region(g);
    let mut out = String::new();
    out.push_str(&format!(
        "hot region: {} fns ({} roots)\n",
        region.members.len(),
        region.roots.len()
    ));
    for &i in &region.members {
        let n = &g.nodes[i];
        let mark = if region.roots.contains(&i) { "*" } else { " " };
        let audits: Vec<&str> = P_RULES
            .iter()
            .enumerate()
            .filter(|(k, _)| n.info.audited_p[*k])
            .map(|(_, r)| r.name())
            .collect();
        let audit_note = if audits.is_empty() {
            String::new()
        } else {
            format!("  [audited: {}]", audits.join(", "))
        };
        out.push_str(&format!(
            "{mark} {} ({}:{}){}\n",
            n.id, n.file, n.info.line, audit_note
        ));
        for f in &n.info.pfacts {
            out.push_str(&format!(
                "    {} {} (line {})\n",
                f.rule.name(),
                f.label,
                f.line
            ));
        }
    }
    out
}

/// The hot subgraph in Graphviz dot form (`vp-lint hotpath --dot`):
/// region members only, roots drawn as boxes, cold neighbours omitted —
/// the picture of exactly what the p-rules police.
pub fn to_dot(g: &Graph) -> String {
    let region = hot_region(g);
    let mut out = String::from("digraph hotpath {\n  rankdir=LR;\n");
    for &i in &region.members {
        let n = &g.nodes[i];
        let shape = if region.roots.contains(&i) { "box" } else { "ellipse" };
        out.push_str(&format!(
            "  \"{}\" [shape={shape},label=\"{}\\n{}:{}\"];\n",
            n.id, n.id, n.file, n.info.line
        ));
    }
    for &i in &region.members {
        for e in &g.edges[i] {
            if region.members.contains(&e.callee) {
                out.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    g.nodes[i].id, g.nodes[e.callee].id
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

fn describe(rule: RuleId) -> &'static str {
    match rule {
        RuleId::P1 => "per-probe heap allocation",
        RuleId::P2 => "per-probe ordered-map lookup",
        RuleId::P3 => "loop-invariant encode/checksum call",
        RuleId::P4 => "dynamic dispatch",
        _ => "per-probe error/string construction",
    }
}
