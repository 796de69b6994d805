//! `scenario list|run|check`: the declarative scenario library
//! (crates/scenario, format reference in docs/SCENARIOS.md). The golden
//! check itself lives in the scenario crate; this file resolves names
//! to files and renders PASS/FAIL lines.

use super::{err, CliError};
use blameit_bench::Args;
use blameit_scenario::{bless_requested, load_compiled, GoldenCheck};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub(super) fn cmd_scenario(rest: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err(err(
            "scenario requires a subcommand: blameit scenario list|run|check",
        ));
    };
    let (positional, flags) = match rest.first() {
        Some(s) if !s.starts_with("--") => (Some(s.clone()), &rest[1..]),
        _ => (None, rest),
    };
    let args = Args::parse_from(flags.iter().cloned());
    let dir = args.get("dir").unwrap_or("scenarios").to_string();
    let threads = args.u64("threads", 0) as usize;
    match sub.as_str() {
        "list" => scenario_list(&dir),
        "run" => {
            let name = positional.ok_or_else(|| {
                err("scenario run requires a name or path: blameit scenario run <name>")
            })?;
            scenario_run_one(&scenario_path(&dir, &name), threads)
        }
        "check" => {
            let all = args.u64("all", 0) == 1;
            let checker = GoldenCheck {
                golden_dir: PathBuf::from(
                    args.get("golden-dir").unwrap_or("tests/golden/scenarios"),
                ),
                fail_dir: PathBuf::from(args.get("fail-dir").unwrap_or("target/scenario-failures")),
                bless: args.u64("bless", 0) == 1 || bless_requested(),
            };
            let paths = match (all, positional) {
                (true, _) => scenario_files(&dir)?,
                (false, Some(name)) => vec![scenario_path(&dir, &name)],
                (false, None) => return Err(err(
                    "scenario check requires a name or `--all 1`: blameit scenario check <name>",
                )),
            };
            scenario_check(&checker, &paths, threads)
        }
        other => Err(err(format!(
            "unknown scenario subcommand {other:?}; try list, run, or check"
        ))),
    }
}

/// A bare name resolves inside the library dir; anything with a path
/// separator or a `.scn` suffix is used as-is.
fn scenario_path(dir: &str, name_or_path: &str) -> PathBuf {
    if name_or_path.ends_with(".scn") || name_or_path.contains('/') {
        PathBuf::from(name_or_path)
    } else {
        Path::new(dir).join(format!("{name_or_path}.scn"))
    }
}

/// Every `*.scn` in the library dir, sorted by file name.
fn scenario_files(dir: &str) -> Result<Vec<PathBuf>, CliError> {
    let entries = std::fs::read_dir(dir).map_err(|e| err(format!("scenario dir {dir}: {e}")))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(err(format!("scenario dir {dir}: no .scn files")));
    }
    Ok(files)
}

fn scenario_list(dir: &str) -> Result<String, CliError> {
    let mut out = String::new();
    let files = scenario_files(dir)?;
    writeln!(out, "{} scenario(s) in {dir}:", files.len()).unwrap();
    for path in &files {
        match load_compiled(path) {
            Ok(scn) => {
                let spec = &scn.spec;
                let mut traits = Vec::new();
                if !spec.faults.is_empty() {
                    traits.push(format!("{} fault(s)", spec.faults.len()));
                }
                if spec.chaos.is_some() {
                    traits.push("chaos".to_string());
                }
                if spec.crash.is_some() {
                    traits.push("crash".to_string());
                }
                traits.push(format!("{} expectation(s)", spec.expect.len()));
                writeln!(out, "  {:<28} {}", spec.name, spec.summary).unwrap();
                writeln!(out, "  {:<28}   [{}]", "", traits.join(", ")).unwrap();
            }
            Err(e) => writeln!(out, "  {}: ERROR {e}", path.display()).unwrap(),
        }
    }
    Ok(out)
}

fn scenario_run_one(path: &Path, threads: usize) -> Result<String, CliError> {
    let scn = load_compiled(path).map_err(|e| err(e.to_string()))?;
    let file = path.display().to_string();
    let run =
        blameit_scenario::run_scenario(&file, &scn, threads).map_err(|e| err(e.to_string()))?;
    let failures = blameit_scenario::evaluate(&scn.spec, &run);
    let mut out = blameit_scenario::render_report(&scn.spec, &run, &failures);
    writeln!(out, "transcript:").unwrap();
    for line in run.transcript.lines() {
        writeln!(out, "  {line}").unwrap();
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(CliError(out.trim_end().to_string()))
    }
}

/// Runs the golden check over `paths`, one PASS line or FAIL block
/// each, then the tally; any failure makes the whole command fail.
fn scenario_check(c: &GoldenCheck, paths: &[PathBuf], threads: usize) -> Result<String, CliError> {
    let mut out = String::new();
    let mut failed = 0usize;
    for path in paths {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        match c.check(path, threads) {
            Ok(pass) => writeln!(
                out,
                "PASS {name} ({} expectation(s), golden {})",
                pass.expectations,
                if c.bless { "blessed" } else { "ok" }
            )
            .unwrap(),
            Err(failures) => {
                failed += 1;
                writeln!(out, "FAIL {name}").unwrap();
                for l in failures {
                    writeln!(out, "  {l}").unwrap();
                }
            }
        }
    }
    writeln!(
        out,
        "checked {} scenario(s): {} pass, {failed} fail (threads={threads})",
        paths.len(),
        paths.len() - failed,
    )
    .unwrap();
    if failed == 0 {
        Ok(out)
    } else {
        Err(CliError(out.trim_end().to_string()))
    }
}
