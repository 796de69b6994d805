//! The line-oriented scenario parser and validator.
//!
//! Grammar (one construct per line):
//!
//! ```text
//! # comment (blank lines ignored)
//! key = value          # top level: name, summary
//! [section]            # world, workload, fault, chaos, crash,
//!                      # overload, engine, eval, expect
//! key = value          # keys belong to the open section
//! ```
//!
//! Only `[fault]` may repeat. Which keys a section has, what each
//! value must be and where it lands is one table, [`crate::keys`];
//! `[expect]` keys are the `<quantity>_<min|max>` grammar below.
//! Unknown sections, unknown keys, bad or out-of-range values, missing
//! required keys and duplicate sections are rejected with a
//! `file:line` error — the parser never panics on any input (see the
//! mutation property test in `tests/scenario_library.rs`).

use crate::error::ScenarioError;
use crate::keys::{self, Land, Override, KEYS};
use crate::spec::{
    ChaosSpec, CrashSpec, Expectation, FaultSpec, Limit, OverloadSpec, Quantity, ScenarioSpec,
};
use blameit::{Blame, UnlocalizedReason};
use blameit_simnet::CrashPoint;
use std::path::Path;

/// Loads and parses one scenario file from disk.
pub fn load_scenario(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
    let file = path.display().to_string();
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::whole(&file, format!("cannot read scenario file: {e}")))?;
    parse_scenario(&file, &text)
}

/// Parses scenario text. `file` is only used to position errors.
pub fn parse_scenario(file: &str, text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut p = Parser {
        file,
        section: "",
        header_line: 0,
        seen_keys: Vec::new(),
        seen_sections: Vec::new(),
        spec: ScenarioSpec::default(),
    };
    for (n, raw_line) in (1u32..).zip(text.lines()) {
        p.line(n, raw_line)?;
    }
    p.finish()
}

/// Every section, in the order the unknown-section error lists them.
const SECTIONS: [&str; 9] = [
    "world", "workload", "fault", "chaos", "crash", "overload", "engine", "eval", "expect",
];

struct Parser<'a> {
    file: &'a str,
    /// The open section; empty at the top level.
    section: &'static str,
    /// Its header's line and the keys seen under it so far.
    header_line: u32,
    seen_keys: Vec<&'static str>,
    seen_sections: Vec<&'static str>,
    spec: ScenarioSpec,
}

impl Parser<'_> {
    fn err(&self, line: u32, msg: impl Into<String>) -> ScenarioError {
        ScenarioError::at(self.file, line, msg)
    }

    fn line(&mut self, n: u32, raw: &str) -> Result<(), ScenarioError> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(self.err(n, format!("malformed section header {line:?}")));
            };
            return self.open_section(n, name.trim());
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(self.err(
                n,
                format!("expected `key = value`, a `[section]`, or a `#` comment, got {line:?}"),
            ));
        };
        let key = key.trim();
        let value = value.trim();
        if key.is_empty() {
            return Err(self.err(n, "empty key before `=`"));
        }
        match self.section {
            "" => self.top_key(n, key, value),
            "expect" => {
                let e = expectation(key, value).map_err(|msg| self.err(n, msg))?;
                self.spec.expect.push(e);
                Ok(())
            }
            section => self.table_key(n, section, key, value),
        }
    }

    /// A key of any section [`KEYS`] describes: checked against its
    /// row, then written to the spec or kept as an override.
    fn table_key(
        &mut self,
        n: u32,
        section: &str,
        name: &str,
        raw: &str,
    ) -> Result<(), ScenarioError> {
        let Some(key) = keys::lookup(section, name) else {
            return Err(self.err(n, format!("unknown [{section}] key {name:?}")));
        };
        let value = key.parse(raw).map_err(|msg| self.err(n, msg))?;
        self.seen_keys.push(key.name);
        match key.land {
            Land::Spec(write) => write(&mut self.spec, &value, n),
            _ => self.spec.overrides.push(Override { key, value }),
        }
        Ok(())
    }

    fn open_section(&mut self, n: u32, name: &str) -> Result<(), ScenarioError> {
        self.close_section()?;
        let Some(&tag) = SECTIONS.iter().find(|s| **s == name) else {
            let all: Vec<String> = SECTIONS.iter().map(|s| format!("[{s}]")).collect();
            return Err(self.err(
                n,
                format!(
                    "unknown section [{name}]; expected one of {}",
                    all.join(" ")
                ),
            ));
        };
        if tag != "fault" && self.seen_sections.contains(&tag) {
            return Err(self.err(n, format!("duplicate section [{tag}]")));
        }
        self.seen_sections.push(tag);
        // The sections a spec holds as a list or an option exist from
        // their header on, with the defaults of their optional keys.
        match tag {
            "fault" => self.spec.faults.push(FaultSpec::default()),
            "chaos" => self.spec.chaos = Some(ChaosSpec::default()),
            "crash" => {
                self.spec.crash = Some(CrashSpec {
                    kill_tick: 0,
                    kill_point: CrashPoint::MidJournal,
                    seed: 0xC4A5,
                    line: n,
                })
            }
            "overload" => {
                self.spec.overload = Some(OverloadSpec {
                    surge_mult: 0,
                    surge_start_hour: 0.0,
                    surge_duration_mins: 0,
                    surge_seed: 0xC4A0,
                    max_attempts: 3,
                    line: n,
                })
            }
            _ => {}
        }
        self.section = tag;
        self.header_line = n;
        Ok(())
    }

    /// Checks the open section has every key it requires.
    fn close_section(&mut self) -> Result<(), ScenarioError> {
        let section = self.section;
        let missing = KEYS
            .iter()
            .find(|k| k.section == section && k.required && !self.seen_keys.contains(&k.name));
        if let Some(key) = missing {
            return Err(self.err(
                self.header_line,
                format!("[{section}] is missing `{}`", key.name),
            ));
        }
        self.seen_keys.clear();
        Ok(())
    }

    fn finish(mut self) -> Result<ScenarioSpec, ScenarioError> {
        self.close_section()?;
        if self.spec.name.is_empty() {
            return Err(ScenarioError::whole(
                self.file,
                "missing required `name = ...`",
            ));
        }
        if !self.seen_sections.contains(&"eval") {
            return Err(ScenarioError::whole(self.file, "missing [eval] section"));
        }
        Ok(self.spec)
    }

    fn top_key(&mut self, n: u32, key: &str, value: &str) -> Result<(), ScenarioError> {
        match key {
            "name" => {
                if !self.spec.name.is_empty() {
                    return Err(self.err(n, "duplicate `name`"));
                }
                if value.is_empty()
                    || !value
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                {
                    return Err(self.err(
                        n,
                        format!("scenario name {value:?} must be non-empty [a-z0-9-]"),
                    ));
                }
                self.spec.name = value.to_string();
                Ok(())
            }
            "summary" => {
                self.spec.summary = value.to_string();
                Ok(())
            }
            other => Err(self.err(
                n,
                format!("unknown top-level key {other:?}; expected `name` or `summary`"),
            )),
        }
    }
}

/// The quantities an `[expect]` bound can name, by key stem, with the
/// sides each may be bounded on (floor, ceiling).
const QUANTITIES: [(&str, Quantity, bool, bool); 8] = [
    ("blames", Quantity::Blames, true, true),
    ("localizations", Quantity::Localizations, true, true),
    ("degraded_total", Quantity::DegradedTotal, false, true),
    ("alerts", Quantity::Alerts, true, true),
    ("shed", Quantity::Shed, true, true),
    ("backpressure", Quantity::Backpressure, true, false),
    ("queue_peak", Quantity::QueuePeak, false, true),
    ("top_decile_shed", Quantity::TopDecileShed, false, true),
];

/// One `[expect]` line: `flight_trigger = <label>`, `culprit_as =
/// <asn>`, or `<quantity>_<min|max> = <count>` where the quantity is a
/// [`QUANTITIES`] stem, `blame_<category>` or `degraded_<reason>`.
fn expectation(key: &str, value: &str) -> Result<Expectation, String> {
    if key == "flight_trigger" {
        if blameit_obs::FlightTrigger::from_label(value).is_none() {
            return Err(format!("unknown flight trigger label {value:?}"));
        }
        return Ok(Expectation::FlightTrigger(value.into()));
    }
    if key == "culprit_as" {
        return Ok(Expectation::CulpritAs(keys::int(key, value, 0)?));
    }
    let count = keys::parse_u64(key, value)?;
    let bound = key.rsplit_once('_').and_then(|(stem, side)| {
        let limit = match side {
            "min" => Limit::Floor,
            "max" => Limit::Ceiling,
            _ => return None,
        };
        let listed = QUANTITIES
            .iter()
            .find(|(s, ..)| *s == stem)
            .filter(|(_, _, floor, ceiling)| match limit {
                Limit::Floor => *floor,
                Limit::Ceiling => *ceiling,
            })
            .map(|(_, q, ..)| *q);
        let quantity = listed.or_else(|| {
            if let Some(cat) = stem.strip_prefix("blame_") {
                let blame = Blame::ALL.into_iter().find(|b| b.to_string() == cat)?;
                return Some(Quantity::Blame(blame));
            }
            let label = stem.strip_prefix("degraded_")?;
            let reason = UnlocalizedReason::ALL
                .into_iter()
                .find(|r| r.label() == label)?;
            Some(Quantity::Degraded(reason))
        })?;
        Some(Expectation::Bound(quantity, limit, count))
    });
    bound.ok_or_else(|| format!("unknown [expect] key {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
name = smoke
summary = minimal valid scenario

[eval]
start_hour = 24
duration_mins = 45
";

    #[test]
    fn minimal_scenario_parses() {
        let spec = parse_scenario("mem.scn", MINIMAL).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.eval.duration_mins, 45);
        assert!(spec.faults.is_empty() && spec.chaos.is_none() && spec.crash.is_none());
    }

    #[test]
    fn unknown_key_positions_the_error() {
        let text = format!("{MINIMAL}\n[world]\nzap = 3\n");
        let err = parse_scenario("mem.scn", &text).unwrap_err();
        assert_eq!(err.line, 9, "{err}");
        assert!(
            err.to_string().contains("unknown [world] key \"zap\""),
            "{err}"
        );
    }

    #[test]
    fn unknown_section_rejected() {
        let err = parse_scenario("m.scn", &format!("{MINIMAL}[bogus]\n")).unwrap_err();
        assert!(err.to_string().contains("unknown section [bogus]"), "{err}");
    }

    #[test]
    fn fault_requires_all_keys() {
        let text =
            "name = x\n[fault]\ntarget = cloud:0\n[eval]\nstart_hour = 24\nduration_mins = 15\n";
        let err = parse_scenario("m.scn", text).unwrap_err();
        assert!(err.to_string().contains("missing `start_hour`"), "{err}");
    }

    #[test]
    fn expect_grammar_covers_blames_and_reasons() {
        let text = format!(
            "{MINIMAL}\n[expect]\nblame_middle_min = 2\ndegraded_no_baseline_max = 0\n\
             culprit_as = 104\nflight_trigger = degraded-spike\n"
        );
        let spec = parse_scenario("m.scn", &text).unwrap();
        assert_eq!(spec.expect.len(), 4);
        assert!(spec.expect.contains(&Expectation::Bound(
            Quantity::Blame(Blame::Middle),
            Limit::Floor,
            2
        )));
        assert!(spec.expect.contains(&Expectation::Bound(
            Quantity::Degraded(UnlocalizedReason::NoBaseline),
            Limit::Ceiling,
            0
        )));
    }

    #[test]
    fn overload_section_parses_and_validates() {
        let text = format!(
            "{MINIMAL}\n[overload]\nsurge_mult = 10\nsurge_start_hour = 24.5\n\
             surge_duration_mins = 60\nqueue_cap_records = 9000\n\
             shed_watermark_records = 6000\n[expect]\nshed_min = 1\n\
             backpressure_min = 1\nqueue_peak_max = 9000\ntop_decile_shed_max = 0\n"
        );
        let spec = parse_scenario("m.scn", &text).unwrap();
        let o = spec.overload.expect("overload parsed");
        assert_eq!(o.surge_mult, 10);
        assert_eq!(
            format!("{:?}", spec.overrides),
            "[[overload] queue_cap_records = Usize(9000), \
             [overload] shed_watermark_records = Usize(6000)]"
        );
        assert_eq!(o.max_attempts, 3, "default attempts");
        assert!(spec.expect.contains(&Expectation::Bound(
            Quantity::QueuePeak,
            Limit::Ceiling,
            9000
        )));
        assert!(spec.expect.contains(&Expectation::Bound(
            Quantity::TopDecileShed,
            Limit::Ceiling,
            0
        )));

        let missing = format!("{MINIMAL}\n[overload]\nsurge_mult = 10\n");
        let err = parse_scenario("m.scn", &missing).unwrap_err();
        assert!(err.to_string().contains("surge_start_hour"), "{err}");
        let weak = format!(
            "{MINIMAL}\n[overload]\nsurge_mult = 1\nsurge_start_hour = 24\n\
             surge_duration_mins = 30\n"
        );
        let err = parse_scenario("m.scn", &weak).unwrap_err();
        assert!(err.to_string().contains("must be ≥ 2"), "{err}");
    }

    #[test]
    fn hex_seeds_and_duplicate_sections() {
        let text = format!("{MINIMAL}\n[chaos]\nseed = 0xC4A05\n");
        let spec = parse_scenario("m.scn", &text).unwrap();
        assert_eq!(spec.chaos.unwrap().seed, 0xC4A05);
        let dup = format!("{MINIMAL}\n[eval]\nstart_hour = 25\nduration_mins = 15\n");
        let err = parse_scenario("m.scn", &dup).unwrap_err();
        assert!(
            err.to_string().contains("duplicate section [eval]"),
            "{err}"
        );
    }

    #[test]
    fn an_integer_that_does_not_fit_its_field_is_rejected_where_it_is_written() {
        // 2^32 used to be narrowed with `as u32` and wrapped silently.
        for (section, key) in [
            ("overload", "surge_mult"),
            ("overload", "max_attempts"),
            ("expect", "culprit_as"),
        ] {
            let text = format!("{MINIMAL}\n[{section}]\n{key} = 4294967296\n");
            let err = parse_scenario("m.scn", &text).unwrap_err();
            assert_eq!(err.line, 9, "{err}");
            let want = format!("m.scn:9: {key} must fit in 32 bits, got 4294967296");
            assert_eq!(err.to_string(), want);
            // The largest value that fits is still a value.
            let fits = text.replace("4294967296", "0xFFFF_FFFF");
            let err = parse_scenario("m.scn", &fits).err();
            assert!(err.as_ref().is_none_or(|e| e.line != 9), "{key}: {err:?}");
        }
        let one = format!("{MINIMAL}\n[overload]\nsurge_mult = 1\n");
        let err = parse_scenario("m.scn", &one).unwrap_err();
        assert_eq!(err.to_string(), "m.scn:9: surge_mult must be ≥ 2, got 1");
    }

    #[test]
    fn expect_bounds_exist_only_on_the_sides_they_had() {
        for key in [
            "degraded_total_min",
            "backpressure_max",
            "queue_peak_min",
            "top_decile_shed_min",
            "blame_nobody_min",
            "alerts_mid",
        ] {
            let text = format!("{MINIMAL}\n[expect]\n{key} = 1\n");
            let err = parse_scenario("m.scn", &text).unwrap_err();
            let want = format!("m.scn:9: unknown [expect] key {key:?}");
            assert_eq!(err.to_string(), want);
        }
    }
}
