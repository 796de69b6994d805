//! `blameit-lint` CLI.
//!
//! Exit codes: 0 clean, 1 violations (or failed self-check), 2 usage
//! or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
blameit-lint — static analysis for the determinism contract

USAGE:
    blameit-lint [--root DIR] [--json] [--self-check] [--rules]
                 [--only IDS]

OPTIONS:
    --root DIR        workspace root to lint (default: .)
    --json            machine-readable report on stdout
    --self-check      run the rule fixtures (bad must fail, good must
                      pass, allow must suppress with a reason) and exit
    --rules           list rule and pass IDs and what they catch
    --only IDS        comma-separated rule/pass IDs: report only these
                      (suppression audit still sees the full run)
    -h, --help        this text

Suppression: `// lint:allow(<rule>): <reason>` on or above the line,
or a path prefix in the rule's own `exempt` column (`--rules` lists
them). Unused escapes are themselves findings (`stale-suppression`).
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut self_check = false;
    let mut list_rules = false;
    let mut only: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--self-check" => self_check = true,
            "--rules" => list_rules = true,
            "--only" => match args.next() {
                Some(ids) => only = Some(ids.split(',').map(|s| s.trim().to_string()).collect()),
                None => {
                    eprintln!("--only needs a comma-separated ID list\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for rule in blameit_lint::rules::RULES {
            println!("{:<20} {}", rule.id, rule.summary);
            if !rule.exempt.is_empty() {
                println!("{:<20} exempt: {}", "", rule.exempt.join(", "));
            }
        }
        println!(
            "{:<20} fn in a protected scope reaches a nondeterministic effect through calls",
            blameit_lint::TRANSITIVE_EFFECT
        );
        println!(
            "{:<20} lint:allow annotation or rule-row exemption that suppresses nothing",
            blameit_lint::STALE_SUPPRESSION
        );
        return ExitCode::SUCCESS;
    }

    if self_check {
        return match blameit_lint::self_check(&root) {
            Ok(results) => {
                let mut failed = 0usize;
                for r in &results {
                    let status = if r.pass { "PASS" } else { "FAIL" };
                    println!("{status} {:<72} {}", r.file, r.detail);
                    failed += usize::from(!r.pass);
                }
                println!(
                    "blameit-lint --self-check: {}/{} fixture expectations hold",
                    results.len() - failed,
                    results.len()
                );
                if failed == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("blameit-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    // lint:allow(wall-clock): timing the linter itself for the perf baseline, never feeds sim state
    let started = std::time::Instant::now();
    match blameit_lint::run_workspace(&root) {
        Ok(mut report) => {
            if let Some(ids) = &only {
                report
                    .diagnostics
                    .retain(|d| ids.iter().any(|id| id == d.rule));
                report
                    .suppressed
                    .retain(|s| ids.iter().any(|id| id == s.rule));
            }
            // lint:allow(wall-clock): metrics-only timing of the lint pass
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
                eprintln!("blameit-lint: scanned in {elapsed_ms:.1} ms");
            }
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("blameit-lint: {e}");
            ExitCode::from(2)
        }
    }
}
