//! `blameit-benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! blameit-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke 1] [--out DIR]
//! blameit-benchmark --set FILE.json [--runs N] [--seed N] [--seconds S]
//!                   [--trace 0|1] [--smoke 1] [--rustc V] [--commit H]
//! blameit-benchmark compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last
//! line of standard output — the JSON object the driver reads. Any
//! failed check exits non-zero without that line.

use blameit_bench::Args;
use blameit_benchmark::catalogue::{workload, WORKLOADS};
use blameit_benchmark::compare::compare_files;
use blameit_benchmark::inputs::Profile;
use blameit_benchmark::report::{driver_line, render_run, run_json, set_json, HostInfo};
use blameit_benchmark::run::{run, RunConfig, RunResult};
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        compare_command(&argv[1..])
    } else {
        run_command(Args::parse_from(argv))
    };
    if let Err(e) = outcome {
        eprintln!("blameit-benchmark: {e}");
        std::process::exit(1);
    }
}

fn compare_command(paths: &[String]) -> Result<(), String> {
    let [a, b] = paths else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let cmp = compare_files(a, b)?;
    print!("{}", cmp.report);
    if !cmp.unresolved.is_empty() {
        println!(
            "unresolved (spread wider than bound): {}",
            cmp.unresolved.join(" ")
        );
    }
    if cmp.passed() {
        println!("compare: ok");
        return Ok(());
    }
    Err(format!(
        "regressed: [{}] behaviour changed: [{}]",
        cmp.regressed.join(" "),
        cmp.behaviour_changed.join(" ")
    ))
}

fn run_command(args: Args) -> Result<(), String> {
    let smoke = args.u64("smoke", 0) != 0;
    let base = RunConfig {
        workload: &WORKLOADS[0],
        seed: args.u64("seed", 2019),
        seconds: args.f64("seconds", 10.0),
        trace: args.u64("trace", 0) != 0,
        profile: if smoke {
            Profile::smoke()
        } else {
            Profile::full()
        },
    };
    let mut host = HostInfo::detect();
    if let Some(v) = args.get("rustc") {
        host.rustc = v.to_string();
    }
    if let Some(v) = args.get("commit") {
        host.commit = v.to_string();
    }

    if let Some(set_path) = args.get("set") {
        let n_runs = args.u64("runs", 10);
        let mut runs: Vec<RunResult> = Vec::new();
        for w in &WORKLOADS {
            for i in 0..n_runs {
                let cfg = RunConfig {
                    workload: w,
                    seed: base.seed + i,
                    ..base.clone()
                };
                let result = run(&cfg)?;
                print!("{}", render_run(&result));
                runs.push(result);
            }
        }
        let doc = set_json(&runs, &host, base.seconds);
        return write_file(Path::new(set_path), &format!("{doc}\n"));
    }

    let name = args.get("workload").ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload is required (one of: {})", names.join(" "))
    })?;
    let cfg = RunConfig {
        workload: workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        ..base
    };
    let result = run(&cfg)?;
    if let Some(dir) = args.get("out") {
        let dir = Path::new(dir);
        let suffix = if result.trace { "-trace" } else { "" };
        let doc = run_json(&result, &host);
        write_file(
            &dir.join(format!("{name}{suffix}.json")),
            &format!("{doc}\n"),
        )?;
        if let Some(jsonl) = &result.trace_jsonl {
            write_file(&dir.join(format!("trace-{name}.jsonl")), jsonl)?;
        }
    }
    print!("{}", render_run(&result));
    println!("{}", driver_line(&result));
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
