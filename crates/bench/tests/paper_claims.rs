//! The accuracy gate: the paper-claim numbers EXPERIMENTS.md reports,
//! asserted through the same `score` functions the printing experiments
//! call. The goldens pin *transcripts*; these pin *accuracy*, so a
//! refactor that keeps every byte of a tiny transcript but loses the
//! engine's calibration fails here.
//!
//! Each band sits a little under the value measured when the gate was
//! introduced (recorded beside it and in EXPERIMENTS.md): a drop below
//! the band is a regression to explain, a rise is a reason to tighten
//! it. The tiny-scale tests run in plain `cargo test`; the default-scale
//! ones are `#[ignore]`d and run in release by
//! `scripts/verify.sh test` (`cargo test --release -p blameit-bench
//! --test paper_claims -- --ignored`).

use blameit_bench::experiments::{confusion, fig12, fig13, incidents};
use blameit_bench::Args;

fn args(flags: &[&str]) -> Args {
    Args::parse_from(flags.iter().map(|s| s.to_string()))
}

const TINY: &[&str] = &["--scale", "tiny", "--seed", "7"];

#[test]
fn incidents_at_tiny_scale() {
    // Measured 64/88.
    let score = incidents::score(&args(TINY));
    assert_eq!(score.verdicts.len(), 88);
    assert!(score.correct() >= 60, "{}/88", score.correct());
}

#[test]
fn confusion_at_tiny_scale() {
    // Measured 0.675.
    let accuracy = confusion::score(&args(TINY)).accuracy();
    assert!(accuracy >= 0.62, "decisive accuracy {accuracy:.3}");
}

/// Fig. 13's sweet spot: background probes every 12 h, churn triggers on.
const TWELVE_HOURS: u64 = 43_200;

#[test]
fn impact_coverage_at_tiny_scale() {
    // Measured: oracle 0.466, BlameIt 0.237 (a tiny world has ~20
    // middle faults, so "the top 5 %" is one or two of them).
    let s = fig12::score(&args(TINY));
    assert!(s.oracle_top5 >= 0.42, "oracle top-5% {:.3}", s.oracle_top5);
    assert!(
        s.blameit_top5 >= 0.20,
        "blameit top-5% {:.3}",
        s.blameit_top5
    );
}

#[test]
fn sweet_spot_accuracy_at_tiny_scale() {
    // Measured 0.878 over 82 scored localizations.
    let cell = fig13::score(&args(TINY), TWELVE_HOURS, true);
    assert!(cell.localized >= 70, "{} scored", cell.localized);
    assert!(cell.accuracy >= 0.82, "accuracy {:.3}", cell.accuracy);
}

#[test]
#[ignore = "default scale: ~25 s in release, run by scripts/verify.sh test"]
fn incidents_at_default_scale() {
    // Measured 86/88, all five named case studies correct.
    let score = incidents::score(&args(&[]));
    assert_eq!(score.verdicts.len(), 88);
    assert!(score.correct() >= 84, "{}/88", score.correct());
    let cases: Vec<_> = score
        .verdicts
        .iter()
        .filter(|(s, _)| s.name.starts_with("case"))
        .collect();
    assert_eq!(cases.len(), 5);
    for (s, v) in cases {
        assert!(v.correct, "case study {} missed: {v:?}", s.name);
    }
}

#[test]
#[ignore = "default scale: run by scripts/verify.sh test"]
fn confusion_at_default_scale() {
    // Measured 0.848.
    let accuracy = confusion::score(&args(&[])).accuracy();
    assert!(accuracy >= 0.80, "decisive accuracy {accuracy:.3}");
}

#[test]
#[ignore = "default scale: run by scripts/verify.sh test"]
fn impact_coverage_at_default_scale() {
    // Measured: oracle 0.695, BlameIt 0.686 — "as good as an oracle".
    let s = fig12::score(&args(&[]));
    assert!(s.oracle_top5 >= 0.65, "oracle top-5% {:.3}", s.oracle_top5);
    assert!(
        s.blameit_top5 >= 0.64,
        "blameit top-5% {:.3}",
        s.blameit_top5
    );
}

#[test]
#[ignore = "default scale: run by scripts/verify.sh test"]
fn sweet_spot_accuracy_at_default_scale() {
    // Measured 0.953 over 257 scored localizations.
    let cell = fig13::score(&args(&[]), TWELVE_HOURS, true);
    assert!(cell.localized >= 230, "{} scored", cell.localized);
    assert!(cell.accuracy >= 0.92, "accuracy {:.3}", cell.accuracy);
}
