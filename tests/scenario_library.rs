//! The named-scenario regression library: every `.scn` file under
//! `scenarios/` replays through the deterministic tick at 1 and 4
//! engine threads, must produce byte-identical transcripts at both,
//! must satisfy its own `[expect]` block, and must match its pinned
//! golden transcript under `tests/golden/scenarios/`.
//!
//! To re-pin after an intentional behavior change:
//!
//! ```text
//! BLESS=1 cargo test --test scenario_library
//! ```
//!
//! (or `blameit scenario check --all 1 --bless 1`, which writes the
//! same bytes — both go through `blameit_scenario::GoldenCheck`; a
//! failing run's transcript lands in `target/scenario-failures/`).
//!
//! The suite is parameterized by the `scenario_suite!` macro — one test
//! per scenario, so the harness runs them in parallel and a failure
//! names its scenario. `suite_covers_every_scenario_file` guards the
//! registration: adding a `.scn` without listing it here fails.

use blameit_scenario::{bless_requested, compile, parse_scenario, GoldenCheck};
use blameit_topology::rng::DetRng;
use blameit_topology::testkit::check;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// Replay at {1, 4} threads through the same golden check `blameit
/// scenario check` runs: the `[expect]` block and the pinned transcript
/// must hold at both (so the two transcripts are byte-identical), and
/// the flight dumps must agree. Under BLESS=1 the 1-thread run re-pins
/// the golden and the 4-thread run is compared against it.
fn check_scenario(name: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = scenarios_dir().join(format!("{name}.scn"));
    let run_at = |threads: usize, bless: bool| {
        let checker = GoldenCheck {
            golden_dir: root.join("tests/golden/scenarios"),
            fail_dir: root.join("target/scenario-failures"),
            bless,
        };
        checker.check(&path, threads).unwrap_or_else(|failures| {
            panic!(
                "{name} at {threads} thread(s):\n  {}",
                failures.join("\n  ")
            )
        })
    };
    let one = run_at(1, bless_requested());
    let four = run_at(4, false);
    assert_eq!(
        one.run.flight_dump, four.run.flight_dump,
        "{name}: flight dump at 4 threads diverged from 1 thread"
    );
}

macro_rules! scenario_suite {
    ($($test:ident => $name:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                check_scenario($name);
            }
        )+

        /// Every `.scn` on disk must be registered above (and vice
        /// versa): an unregistered scenario would silently skip the
        /// {1,4}-thread replay and golden pinning.
        #[test]
        fn suite_covers_every_scenario_file() {
            let mut registered: Vec<&str> = vec![$($name),+];
            registered.sort_unstable();
            let mut on_disk: Vec<String> = std::fs::read_dir(scenarios_dir())
                .expect("scenarios/ must exist")
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "scn"))
                .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
                .collect();
            on_disk.sort_unstable();
            assert_eq!(
                on_disk, registered,
                "scenarios/ and the scenario_suite! registration disagree"
            );
        }
    };
}

scenario_suite! {
    bgp_route_leak => "bgp-route-leak",
    cloud_maintenance_spike => "cloud-maintenance-spike",
    crash_mid_incident => "crash-mid-incident",
    ddos_scrubbing_detour => "ddos-scrubbing-detour",
    degraded_deadline_budget => "degraded-deadline-budget",
    degraded_no_baseline => "degraded-no-baseline",
    degraded_no_material_delta => "degraded-no-material-delta",
    degraded_probe_timeout => "degraded-probe-timeout",
    degraded_stale_baseline => "degraded-stale-baseline",
    degraded_truncated_probe => "degraded-truncated-probe",
    flash_crowd => "flash-crowd",
    ingest_surge_overload => "ingest-surge-overload",
    mobile_evening_congestion => "mobile-evening-congestion",
    multi_as_middle_failure => "multi-as-middle-failure",
    regional_cable_cut => "regional-cable-cut",
}

// ── loader robustness ───────────────────────────────────────────────

/// Deterministic mutations of real scenario files: whatever the
/// corruption — clobbered values, duplicated or deleted lines, junk
/// sections, truncation mid-file — the loader must return `Err` or a
/// still-valid spec, never panic. Compilation of surviving specs must
/// hold the same bar.
/// A surge multiplier of 2³²: narrowed with `as u32` it wrapped to 0.
/// Now a load error on the line that says it.
const SURGE_PAST_U32: &str = "\
name = wrapped-surge
[world]
scale = tiny
[overload]
surge_mult = 4294967296
surge_start_hour = 24
surge_duration_mins = 30
[eval]
start_hour = 24
duration_mins = 45
";

#[test]
fn mutated_scenario_files_error_never_panic() {
    let err = parse_scenario("wide.scn", SURGE_PAST_U32).unwrap_err();
    assert_eq!(
        err.to_string(),
        "wide.scn:5: surge_mult must fit in 32 bits, got 4294967296"
    );
    let mut sources: Vec<String> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    assert!(sources.len() >= 7, "the shipped corpus feeds the fuzzer");
    sources.push(SURGE_PAST_U32.to_string());
    check("scenario_fuzz", 300, |rng| {
        let base = &sources[rng.index(sources.len())];
        let text = mutate(base, rng);
        if let Ok(spec) = parse_scenario("fuzz.scn", &text) {
            // A mutation that still parses must still compile cleanly
            // or fail with a positioned error — same no-panic bar.
            let _ = compile("fuzz.scn", spec);
        }
    });
}

/// Applies 1–3 random structural mutations to a scenario source.
fn mutate(base: &str, rng: &mut DetRng) -> String {
    let mut lines: Vec<String> = base.lines().map(|l| l.to_string()).collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let i = rng.index(lines.len());
        match rng.below(8) {
            // Clobber the value side of a `key = value` line.
            0 => {
                if let Some(eq) = lines[i].find('=') {
                    let junk = [
                        "",
                        "NaN",
                        "-3",
                        "1e309",
                        "tiny tiny",
                        "999999999999999999999",
                    ];
                    let j = junk[rng.index(junk.len())];
                    lines[i] = format!("{}= {}", &lines[i][..eq], j);
                }
            }
            // Corrupt the key side.
            1 => lines[i] = format!("x{}", lines[i]),
            // Delete a line.
            2 => {
                lines.remove(i);
            }
            // Duplicate a line (repeated keys / sections).
            3 => {
                let l = lines[i].clone();
                lines.insert(i, l);
            }
            // Insert an unknown section.
            4 => lines.insert(i, "[garbage]".to_string()),
            // Insert an orphan key.
            5 => lines.insert(i, "orphan = 1".to_string()),
            // Swap two lines (keys into the wrong section).
            6 => {
                let j = rng.index(lines.len());
                lines.swap(i, j);
            }
            // Truncate the file at this line.
            _ => lines.truncate(i),
        }
    }
    lines.join("\n")
}
