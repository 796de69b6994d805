//! The golden check: run one scenario file, evaluate its `[expect]`
//! block, compare the transcript with its pinned golden (or re-pin it
//! when blessing), and leave a failing transcript where CI can pick it
//! up. `blameit scenario check` and `tests/scenario_library.rs` both
//! call [`GoldenCheck::check`], so they cannot disagree about what
//! "passes" means or which bytes a bless writes.

use crate::compile::{compile, CompiledScenario};
use crate::error::ScenarioError;
use crate::expect::evaluate;
use crate::parse::load_scenario;
use crate::run::{run_scenario, ScenarioRun};
use std::path::{Path, PathBuf};

/// Where goldens live, where failing transcripts go, and whether to
/// re-pin instead of compare.
pub struct GoldenCheck {
    /// Directory of `<name>.txt` golden transcripts.
    pub golden_dir: PathBuf,
    /// Directory a failing run's transcript is written to.
    pub fail_dir: PathBuf,
    /// Write the golden instead of comparing against it.
    pub bless: bool,
}

/// A scenario that passed: its run, for callers that compare runs.
pub struct Checked {
    /// The run that was checked.
    pub run: ScenarioRun,
    /// How many `[expect]` assertions held.
    pub expectations: usize,
}

/// Whether the environment asks for re-pinning (`BLESS` set to
/// anything but empty or `0`).
pub fn bless_requested() -> bool {
    std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Loads and compiles one scenario file, insisting the file stem match
/// the declared `name` (so `scenario run <name>` round-trips).
pub fn load_compiled(path: &Path) -> Result<CompiledScenario, ScenarioError> {
    let file = path.display().to_string();
    let spec = load_scenario(path)?;
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    if stem != spec.name {
        return Err(ScenarioError::whole(
            &file,
            format!(
                "file stem {stem:?} does not match declared name {:?}",
                spec.name
            ),
        ));
    }
    compile(&file, spec)
}

impl GoldenCheck {
    /// Checks the scenario at `path` at `threads` engine threads.
    /// `Err` holds one line per failure, ending with where the failing
    /// transcript was written.
    pub fn check(&self, path: &Path, threads: usize) -> Result<Checked, Vec<String>> {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        let scn = load_compiled(path).map_err(|e| vec![e.to_string()])?;
        let run = run_scenario(&path.display().to_string(), &scn, threads)
            .map_err(|e| vec![e.to_string()])?;

        let mut failures = evaluate(&scn.spec, &run);
        let golden = self.golden_dir.join(format!("{name}.txt"));
        if self.bless {
            if let Err(e) = write_into(&self.golden_dir, &golden, &run.transcript) {
                failures.push(format!("bless {}: {e}", golden.display()));
            }
        } else {
            match std::fs::read_to_string(&golden) {
                Ok(want) if want == run.transcript => {}
                Ok(want) => failures.push(format!(
                    "golden transcript mismatch vs {} ({}; re-pin with --bless 1 or BLESS=1 \
                     if intended)",
                    golden.display(),
                    first_divergence(&run.transcript, &want)
                )),
                Err(e) => failures.push(format!(
                    "golden {}: {e} (pin with `blameit scenario check {name} --bless 1` or \
                     BLESS=1 cargo test --test scenario_library)",
                    golden.display()
                )),
            }
        }
        if failures.is_empty() {
            return Ok(Checked {
                run,
                expectations: scn.spec.expect.len(),
            });
        }
        let dump = self.fail_dir.join(format!("{name}.txt"));
        match write_into(&self.fail_dir, &dump, &run.transcript) {
            Ok(()) => failures.push(format!("transcript written to {}", dump.display())),
            Err(e) => failures.push(format!("could not write failing transcript: {e}")),
        }
        Err(failures)
    }
}

fn write_into(dir: &Path, file: &Path, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(file, text)
}

/// Locates the first differing line between a run transcript and its
/// golden, for a pointed mismatch message.
fn first_divergence(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!("first diff at line {}: got {g:?}, golden {w:?}", i + 1);
        }
    }
    format!(
        "line count differs: got {}, golden {}",
        got.lines().count(),
        want.lines().count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET: &str = "\
name = quiet
[world]
scale = tiny
days = 2
[eval]
start_hour = 24
duration_mins = 45
[expect]
blames_min = 1
";

    #[test]
    fn doctored_golden_names_the_first_divergent_line_and_dumps_the_transcript() {
        let dir = std::env::temp_dir().join(format!("blameit-scn-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quiet.scn");
        std::fs::write(&path, QUIET).unwrap();
        let check = |bless| GoldenCheck {
            golden_dir: dir.join("golden"),
            fail_dir: dir.join("failures"),
            bless,
        };

        // No golden yet: a failure that says how to pin one.
        let missing = check(false).check(&path, 1).err().unwrap();
        assert!(missing[0].contains("--bless 1"), "{missing:?}");

        // Bless, then the same bytes compare clean at another thread count.
        let blessed = check(true).check(&path, 1).ok().unwrap();
        assert_eq!(blessed.expectations, 1);
        let golden = dir.join("golden").join("quiet.txt");
        assert_eq!(
            std::fs::read_to_string(&golden).unwrap(),
            blessed.run.transcript
        );
        std::fs::remove_dir_all(dir.join("failures")).unwrap();
        assert!(check(false).check(&path, 4).is_ok());
        assert!(!dir.join("failures").exists(), "a pass dumps nothing");

        // Doctor line 3 of the golden.
        let mut lines: Vec<String> = blessed.run.transcript.lines().map(String::from).collect();
        assert!(lines.len() >= 3, "{}", blessed.run.transcript);
        lines[2].push_str(" doctored");
        std::fs::write(&golden, lines.join("\n") + "\n").unwrap();
        let failures = check(false).check(&path, 1).err().unwrap();
        assert!(
            failures[0].contains("first diff at line 3:"),
            "{failures:?}"
        );
        let dump = dir.join("failures").join("quiet.txt");
        assert!(
            failures
                .last()
                .unwrap()
                .contains(&dump.display().to_string()),
            "{failures:?}"
        );
        assert_eq!(
            std::fs::read_to_string(&dump).unwrap(),
            blessed.run.transcript
        );

        // A golden that is a strict prefix differs in length only.
        std::fs::write(&golden, lines[..2].join("\n") + "\n").unwrap();
        let failures = check(false).check(&path, 1).err().unwrap();
        assert!(failures[0].contains("line count differs"), "{failures:?}");

        // A file whose stem is not its declared name never runs.
        let misnamed = dir.join("other.scn");
        std::fs::write(&misnamed, QUIET).unwrap();
        let failures = check(false).check(&misnamed, 1).err().unwrap();
        assert!(
            failures[0].contains("does not match declared name"),
            "{failures:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
