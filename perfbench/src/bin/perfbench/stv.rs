//! The STV-3-23 round recipe: the Tangled world measured every 15
//! minutes with route flips active. It mirrors `Lab::tangled_rounds` and
//! `Daemon::run_round`, whose per-round seeds, names and start times are
//! fixed by the program, so any round can be rebuilt on its own.

use verfploeter::scan::ScanConfig;
use verfploeter::ProbeConfig;
use vp_bgp::{FlipModel, RoutingTable};
use vp_net::{SimDuration, SimTime};
use vp_sim::{CatchmentOracle, FlippingOracle, Scenario};

/// The flip-model seed `Lab` and `Daemon` use for the Tangled world.
pub const FLIP_SEED: u64 = 0xF11;

/// Time between rounds.
pub fn interval() -> SimDuration {
    SimDuration::from_mins(15)
}

/// Round `r`'s scan configuration, start time and simulator seed.
pub fn round(r: u32) -> (ScanConfig, SimTime, u64) {
    let config = ScanConfig {
        name: format!("STV-3-23/r{r}"),
        probe: ProbeConfig {
            rate_per_sec: 10_000.0,
            ident: 100 + r as u16,
            order_seed: 0x57ab ^ u64::from(r),
        },
        cutoff: SimDuration::from_mins(15),
        ..ScanConfig::default()
    };
    let start = SimTime::ZERO + SimDuration(interval().0 * u64::from(r));
    (config, start, 0x0523 ^ u64::from(r))
}

/// The routing table and flip model every round shares.
pub fn routing(scenario: &Scenario) -> (RoutingTable, FlipModel) {
    let table = scenario.routing();
    let model = scenario.flip_model(FLIP_SEED, &table);
    (table, model)
}

/// A fresh flipping oracle per engine, as the program builds them.
pub fn oracle(
    scenario: &Scenario,
    table: &RoutingTable,
    model: &FlipModel,
) -> Box<dyn CatchmentOracle> {
    Box::new(FlippingOracle::new(
        table.clone(),
        scenario.world.graph.clone(),
        model.clone(),
        interval(),
    ))
}
