//! Quickstart: simulate a small cloud + Internet, run BlameIt for an
//! hour of telemetry, and print what it blames.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use blameit::{BadnessThresholds, BlameItConfig, BlameItEngine, WorldBackend};
use blameit_simnet::{SimTime, TimeRange, World, WorldConfig};

fn main() {
    // 1. A deterministic world: synthetic Internet + telemetry, with
    //    organically scheduled faults (the ground truth).
    let world = World::new(WorldConfig::tiny(2, 2019));
    println!(
        "world: {} cloud locations, {} client /24s, {} middle paths, {} scheduled faults",
        world.topology().cloud_locations.len(),
        world.topology().clients.len(),
        world.topology().paths.len(),
        world.faults().len(),
    );

    // 2. Region/device badness targets, derived the way the paper's
    //    targets are set (§2.1).
    let thresholds = BadnessThresholds::default_for(&world);

    // 3. The engine learns expected RTTs from a day of history, then
    //    analyzes the next hour in 15-minute ticks.
    let mut engine = BlameItEngine::new(BlameItConfig::new(thresholds));
    let mut backend = WorldBackend::new(&world);
    engine.warmup(&backend, TimeRange::days(1), 1);

    let start = SimTime::from_days(1);
    for out in engine.run(&mut backend, TimeRange::new(start, start + 3_600)) {
        for alert in &out.alerts {
            println!(
                "[{}] {:>7} blame  loc={} path={:?} client_as={:?} culprit={:?} ({} connections, {} /24s, confidence {:.0}%)",
                alert.bucket,
                alert.blame.to_string(),
                alert.loc,
                alert.path,
                alert.client_as,
                alert.culprit,
                alert.impacted_connections,
                alert.impacted_p24s,
                100.0 * alert.confidence,
            );
        }
    }
    println!(
        "probes issued: {} background + {} on-demand",
        engine.state().background_probes_total,
        engine.state().on_demand_probes_total
    );
}
