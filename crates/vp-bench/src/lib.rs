//! Shared fixtures for the benchmark suite.

use vp_hitlist::{Hitlist, HitlistConfig};
use vp_sim::Scenario;
use vp_topology::TopologyConfig;

/// A small benchmark world (fast to build, big enough to be meaningful).
pub fn bench_scenario(seed: u64) -> Scenario {
    Scenario::broot(
        TopologyConfig {
            seed,
            num_ases: 600,
            max_blocks: 15_000,
            ..TopologyConfig::default()
        },
        7,
    )
}

/// A benchmark world scaled to `targets` populated /24 blocks.
///
/// `max_blocks` caps generation at exactly `targets`; `num_ases` grows
/// with the cap so generation actually saturates it (the 600-AS default
/// fills 15k blocks, i.e. ≥25 blocks per AS — the same ratio holds at
/// larger scales because per-AS prefix budgets don't shrink). The 15k
/// scale is byte-identical to [`bench_scenario`].
pub fn bench_scenario_scaled(seed: u64, targets: usize) -> Scenario {
    Scenario::broot(
        TopologyConfig {
            seed,
            num_ases: (targets / 25).max(600),
            max_blocks: targets,
            ..TopologyConfig::default()
        },
        7,
    )
}

/// A hitlist over the benchmark world.
pub fn bench_hitlist(s: &Scenario) -> Hitlist {
    Hitlist::from_internet(&s.world, &HitlistConfig::default())
}
