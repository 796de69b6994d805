//! Passive-phase confusion matrix: Algorithm 1 verdicts vs the
//! simulator's ground truth, per quartet.
//!
//! Not a paper figure, but the diagnostic behind §6.3/§6.4: every bad
//! quartet's verdict is scored against the injected fault (or
//! congestion) that actually caused it. Rows are ground-truth
//! segments, columns BlameIt verdicts.

use crate::{fmt, warmed_engine, Args, ConfusionMatrix, Scale};
use blameit::WorldBackend;

/// Scores every passive verdict of an organic run against ground
/// truth; [`run`] prints the matrix and `tests/paper_claims.rs` gates
/// on its decisive accuracy.
pub fn score(args: &Args) -> ConfusionMatrix {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 3);
    let warmup_days = args.u64("warmup", 2).min(days.saturating_sub(1));
    let scale = args.scale(Scale::Small);

    let world = crate::organic_world(scale, days, seed);
    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 2, days);
    let mut blames = Vec::new();
    for out in engine.run(&mut backend, eval) {
        blames.extend(out.blames);
    }
    crate::score_blames(&world, &blames)
}

pub fn run(args: &Args) {
    fmt::banner("Confusion", "Algorithm 1 verdicts vs ground truth");
    println!("{}", score(args));
}
