//! Shared plumbing: the wall clock, summary statistics, output digests,
//! memory readings, and the result document every workload returns.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Reads the wall clock. The benchmark times real work, so this is the
/// one place it enters; nothing read here reaches a checked output.
pub fn clock() -> Instant {
    // vp-lint: allow(d2): the benchmark measures wall time by design; readings only feed reported timings.
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile (`q` in 0..=1) of `values`; the median
/// for `q = 0.5`. Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a over `bytes`, as 16 hex digits: the output digests the
/// benchmark pins. Not a cryptographic hash; it detects changed bytes.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A `/proc/self/status` field in MiB (`VmHWM` = peak resident set,
/// `VmRSS` = current). Each workload runs in its own process, so the
/// process peak is the workload's peak.
pub fn proc_status_mib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `build` `reps` times, dropping each result before the next build
/// starts, and returns the last result with the median build time in
/// seconds.
pub fn setup_median<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = clock();
        let built = build();
        times.push(secs_since(t));
        last = Some(built);
    }
    let built = last.expect("at least one setup rep ran");
    (built, median(&times))
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run returns: the operation counts, the gated metrics
/// (end-to-end or per-layer, depending on the run), informational lines
/// for stdout, and the reasons of any failed output check.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<(String, String)>,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`, replacing an earlier value of it.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, unit, value });
    }

    /// Sets an informational figure, printed but not gated.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.retain(|(k, _)| k != key);
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Counts one attempted operation; `problem` is `Some(reason)` when
    /// it failed (a panic, an error, or an output mismatch).
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// `correct` also needs `problems` empty: a run-level problem (an
    /// unmeasured metric, unwritable pins) fails the run but no operation.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        // A run that attempted nothing counts as one failed operation.
        let (attempted, failed) = if self.attempted == 0 {
            (1, 1)
        } else {
            (self.attempted, self.failed)
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && self.problems.is_empty(),
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision; NaN and infinities (a metric that
/// could not be measured) become `null`, which marks the result invalid.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The pinned digests of one workload: `<pins>/<workload>.json`, an
/// object from output name to digest.
pub struct Pins {
    path: std::path::PathBuf,
    pinned: BTreeMap<String, String>,
    seen: BTreeMap<String, String>,
    /// Recording new pins instead of checking (`--write-pins`).
    writing: bool,
}

impl Pins {
    pub fn load(dir: &Path, workload: &str, writing: bool) -> Pins {
        let path = dir.join(format!("{workload}.json"));
        let pinned = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| serde_json::from_str::<serde_json::Value>(&t).ok())
            .and_then(|v| {
                v.as_object().map(|o| {
                    o.iter()
                        .filter_map(|(k, d)| d.as_str().map(|d| (k.clone(), d.to_owned())))
                        .collect()
                })
            })
            .unwrap_or_default();
        Pins {
            path,
            pinned,
            seen: BTreeMap::new(),
            writing,
        }
    }

    pub fn has(&self, key: &str) -> bool {
        self.pinned.contains_key(key)
    }

    pub fn writing(&self) -> bool {
        self.writing
    }

    /// Compares `digest` with the pin for `key`; a missing pin is a
    /// mismatch. Every digest checked is remembered for [`Pins::save`],
    /// and while writing pins nothing is a mismatch.
    pub fn check(&mut self, key: &str, digest: String) -> Option<String> {
        let verdict = match self.pinned.get(key) {
            _ if self.writing => None,
            Some(p) if *p == digest => None,
            Some(p) => Some(format!("{key}: digest {digest} differs from pinned {p}")),
            None => Some(format!("{key}: no pinned digest")),
        };
        self.seen.insert(key.to_owned(), digest);
        verdict
    }

    /// With `--write-pins`, writes every digest seen merged over the
    /// existing pins (after an intended output change); otherwise a no-op.
    pub fn save(&self) -> std::io::Result<()> {
        if !self.writing {
            return Ok(());
        }
        let mut all = self.pinned.clone();
        all.extend(self.seen.iter().map(|(k, v)| (k.clone(), v.clone())));
        let body: Vec<String> = all
            .iter()
            .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
            .collect();
        std::fs::write(&self.path, format!("{{\n{}\n}}\n", body.join(",\n")))
    }
}
