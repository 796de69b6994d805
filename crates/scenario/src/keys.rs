//! The key table: every `key = value` a `.scn` section accepts, named
//! once.
//!
//! A row says which section the key belongs to, what kind of value it
//! takes (each kind is range-checked where the file is parsed, so a bad
//! value is a `file:line` error and nothing downstream sees it),
//! whether the section is incomplete without it, and the one place the
//! value lands: a typed field of the [`ScenarioSpec`] (the heads the
//! CLI's verbs also fill — scale, seed, windows, faults), or a field of
//! the [`WorldConfig`], [`BlameItConfig`], [`FaultPlan`] or
//! [`DaemonConfig`] the run is built from. The second kind is kept in
//! the spec as an [`Override`] and applied when that config is built
//! ([`ScenarioSpec::apply`]) — `None` never appears: a key that is not
//! in the file leaves the default alone by not being there.
//!
//! `[expect]` is not here: its keys are a small grammar
//! (`<quantity>_<min|max>`), parsed in [`crate::parse`].

use crate::spec::ScenarioSpec;
use blameit::BlameItConfig;
use blameit_bench::Scale;
use blameit_daemon::DaemonConfig;
use blameit_simnet::{CrashPoint, FaultPlan, WorldConfig};

/// What a key's value must be. Integers may be decimal or `0x…` hex,
/// with `_` separators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An unsigned integer that fits a `u32`.
    U32,
    /// An unsigned integer.
    U64,
    /// An unsigned integer that fits a `usize`.
    Usize,
    /// A finite number ≥ 0.
    F64,
    /// A probability in `[0, 1]`.
    Rate,
    /// `0` | `1` | `true` | `false`.
    Bool,
    /// `tiny` | `small` | `default`.
    Scale,
    /// Free text, validated by whoever reads it (fault targets: against
    /// the built topology, in [`crate::compile`]).
    Text,
    /// A named chaos plan ([`FaultPlan::parse`]).
    Plan,
    /// A persistence kill point, by label.
    KillPoint,
}

/// A value that passed its [`Kind`]'s checks; variant for variant the
/// same list.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// See [`Kind::U32`].
    U32(u32),
    /// See [`Kind::U64`].
    U64(u64),
    /// See [`Kind::Usize`].
    Usize(usize),
    /// See [`Kind::F64`].
    F64(f64),
    /// See [`Kind::Rate`].
    Rate(f64),
    /// See [`Kind::Bool`].
    Bool(bool),
    /// See [`Kind::Scale`].
    Scale(Scale),
    /// See [`Kind::Text`].
    Text(String),
    /// See [`Kind::Plan`].
    Plan(String),
    /// See [`Kind::KillPoint`].
    KillPoint(CrashPoint),
}

/// Where a value lands. The spec variant also gets the source line, for
/// heads whose validation waits for [`crate::compile`].
#[derive(Clone, Copy)]
pub enum Land {
    /// A typed field of the spec, written as the file is parsed.
    Spec(fn(&mut ScenarioSpec, &Value, u32)),
    /// A field of the world's configuration (`[world]`, `[workload]`).
    World(fn(&mut WorldConfig, &Value)),
    /// A field of the engine's configuration (`[engine]`).
    Engine(fn(&mut BlameItConfig, &Value)),
    /// A rate or delay of the chaos plan (`[chaos]`).
    Chaos(fn(&mut FaultPlan, &Value)),
    /// A knob of the daemon's bounded ingest (`[overload]`).
    Daemon(fn(&mut DaemonConfig, &Value)),
}

/// The configuration being built, for [`ScenarioSpec::apply`].
pub enum Target<'a> {
    /// See [`Land::World`].
    World(&'a mut WorldConfig),
    /// See [`Land::Engine`].
    Engine(&'a mut BlameItConfig),
    /// See [`Land::Chaos`].
    Chaos(&'a mut FaultPlan),
    /// See [`Land::Daemon`].
    Daemon(&'a mut DaemonConfig),
}

/// One row of [`KEYS`].
pub struct Key {
    /// Section the key belongs to (without brackets).
    pub section: &'static str,
    /// The key, as written in the file.
    pub name: &'static str,
    /// What its value must be.
    pub kind: Kind,
    /// Smallest integer accepted (integer kinds only).
    pub min: u64,
    /// The section is a load error without this key.
    pub required: bool,
    /// Where the value goes.
    pub land: Land,
}

/// A config-landing key as it appeared in a file: applied, in file
/// order, when its configuration is built.
#[derive(Clone)]
pub struct Override {
    /// The table row.
    pub key: &'static Key,
    /// The checked value.
    pub value: Value,
}

impl std::fmt::Debug for Override {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} = {:?}",
            self.key.section, self.key.name, self.value
        )
    }
}

impl Key {
    /// A key its section can do without.
    const fn opt(section: &'static str, name: &'static str, (kind, land): (Kind, Land)) -> Key {
        let (min, required) = (0, false);
        Key {
            section,
            name,
            kind,
            min,
            required,
            land,
        }
    }

    /// A key its section is incomplete without.
    const fn req(section: &'static str, name: &'static str, to: (Kind, Land)) -> Key {
        let mut key = Key::opt(section, name, to);
        key.required = true;
        key
    }

    /// The same key, refusing integers below `min`.
    const fn at_least(mut self, min: u64) -> Key {
        self.min = min;
        self
    }

    /// Checks `raw` against this key's kind and range. The message names
    /// the key; the parser positions it.
    pub fn parse(&self, raw: &str) -> Result<Value, String> {
        let name = self.name;
        Ok(match self.kind {
            Kind::U32 => Value::U32(int(name, raw, self.min)?),
            Kind::U64 => Value::U64(int(name, raw, self.min)?),
            Kind::Usize => Value::Usize(int(name, raw, self.min)?),
            Kind::F64 => Value::F64(non_negative(name, raw)?),
            Kind::Rate => {
                let v = non_negative(name, raw)?;
                if v > 1.0 {
                    return Err(format!("{name} is a probability in [0, 1], got {raw}"));
                }
                Value::Rate(v)
            }
            Kind::Bool => match raw {
                "1" | "true" => Value::Bool(true),
                "0" | "false" => Value::Bool(false),
                other => return Err(format!("{name} expects 0|1|true|false, got {other:?}")),
            },
            Kind::Scale => Value::Scale(match raw {
                "tiny" => Scale::Tiny,
                "small" => Scale::Small,
                "default" => Scale::Default,
                other => {
                    return Err(format!(
                        "unknown scale {other:?}; expected tiny|small|default"
                    ))
                }
            }),
            Kind::Text => Value::Text(raw.to_string()),
            Kind::Plan => {
                if FaultPlan::parse(raw, 0).is_err() {
                    return Err(format!(
                        "unknown chaos plan {raw:?}; expected none|mild|heavy|probe-storm"
                    ));
                }
                Value::Plan(raw.to_string())
            }
            Kind::KillPoint => {
                let point = CrashPoint::ALL.into_iter().find(|p| p.label() == raw);
                Value::KillPoint(point.ok_or_else(|| {
                    let all: Vec<&str> = CrashPoint::ALL.iter().map(|p| p.label()).collect();
                    format!("unknown {name} {raw:?}; expected one of {}", all.join("|"))
                })?)
            }
        })
    }
}

/// The row for `name` in `section`, if the section has such a key.
pub fn lookup(section: &str, name: &str) -> Option<&'static Key> {
    KEYS.iter().find(|k| k.section == section && k.name == name)
}

/// An unsigned integer, decimal or `0x…` hex, `_` separators allowed.
pub(crate) fn parse_u64(name: &str, raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => raw.replace('_', "").parse(),
    };
    parsed.map_err(|_| format!("{name} expects an unsigned integer, got {raw:?}"))
}

/// [`parse_u64`], at least `min`, narrowed to `T` by `try_from` — a
/// value the target type cannot hold is an error, never a wrapped one.
pub(crate) fn int<T: TryFrom<u64>>(name: &str, raw: &str, min: u64) -> Result<T, String> {
    let v = parse_u64(name, raw)?;
    if v < min {
        return Err(format!("{name} must be ≥ {min}, got {v}"));
    }
    T::try_from(v).map_err(|_| {
        let bits = 8 * std::mem::size_of::<T>();
        format!("{name} must fit in {bits} bits, got {v}")
    })
}

fn non_negative(name: &str, raw: &str) -> Result<f64, String> {
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("{name} expects a number, got {raw:?}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{name} must be finite and ≥ 0, got {raw}"));
    }
    Ok(v)
}

/// `(kind, landing)` for an override stored in a config field. One
/// token names both the kind that checks the value and the variant the
/// landing unpacks, so the two cannot disagree — and the assignment
/// type-checks the variant's payload against the field.
macro_rules! field {
    ($kind:ident => $target:ident . $($field:ident).+) => {
        (
            Kind::$kind,
            Land::$target(|c, v| {
                if let Value::$kind(x) = v {
                    c.$($field).+ = *x;
                }
            }),
        )
    };
}

/// `(kind, landing)` for a typed head of the spec, written when the key
/// is parsed: `section` yields the spec section the key belongs to (the
/// open one, for a section the parser creates at its header).
macro_rules! head {
    ($kind:ident => |$s:ident| $section:expr => $field:ident) => {
        (
            Kind::$kind,
            Land::Spec(|$s, v, _line| {
                if let (Some(section), Value::$kind(x)) = ($section, v) {
                    section.$field = *x;
                }
            }),
        )
    };
}

/// A fault target keeps its line: it is resolved against the built
/// topology in [`crate::compile`], whose error points back here.
const FAULT_TARGET: (Kind, Land) = (
    Kind::Text,
    Land::Spec(|s, v, line| {
        if let (Some(fault), Value::Text(target)) = (s.faults.last_mut(), v) {
            fault.target = target.clone();
            fault.target_line = line;
        }
    }),
);

const CHAOS_PLAN: (Kind, Land) = (
    Kind::Plan,
    Land::Spec(|s, v, _line| {
        if let (Some(chaos), Value::Plan(name)) = (s.chaos.as_mut(), v) {
            chaos.plan = name.clone();
        }
    }),
);

/// Every key of every section but `[expect]`, in documentation order
/// (`docs/SCENARIOS.md` is checked against this table, both ways).
#[rustfmt::skip] // a table: one row per key
pub const KEYS: &[Key] = &[
    Key::opt("world", "scale", head!(Scale => |s| Some(&mut s.world) => scale)),
    Key::opt("world", "seed", head!(U64 => |s| Some(&mut s.world) => seed)),
    Key::opt("world", "days", head!(U64 => |s| Some(&mut s.world) => days)),
    Key::opt("world", "warmup_days", head!(U64 => |s| Some(&mut s.world) => warmup_days)),
    Key::opt("world", "organic", head!(Bool => |s| Some(&mut s.world) => organic)),
    Key::opt("world", "churn_per_day", field!(F64 => World.churn_rate_per_day)),
    Key::opt("world", "evening_congestion_ms", field!(F64 => World.latency.evening_congestion_ms)),
    Key::opt("workload", "conns_per_client_bucket", field!(F64 => World.activity.conns_per_client_bucket)),
    Key::req("fault", "target", FAULT_TARGET),
    Key::req("fault", "start_hour", head!(F64 => |s| s.faults.last_mut() => start_hour)),
    Key::req("fault", "duration_mins", head!(U64 => |s| s.faults.last_mut() => duration_mins)),
    Key::req("fault", "added_ms", head!(F64 => |s| s.faults.last_mut() => added_ms)),
    Key::opt("chaos", "plan", CHAOS_PLAN),
    Key::opt("chaos", "seed", head!(U64 => |s| s.chaos.as_mut() => seed)),
    Key::opt("chaos", "probe_timeout", field!(Rate => Chaos.probe_timeout)),
    Key::opt("chaos", "probe_truncate", field!(Rate => Chaos.probe_truncate)),
    Key::req("crash", "kill_tick", head!(U64 => |s| s.crash.as_mut() => kill_tick)),
    Key::req("crash", "kill_point", head!(KillPoint => |s| s.crash.as_mut() => kill_point)),
    Key::opt("crash", "seed", head!(U64 => |s| s.crash.as_mut() => seed)),
    Key::req("overload", "surge_mult", head!(U32 => |s| s.overload.as_mut() => surge_mult)).at_least(2),
    Key::req("overload", "surge_start_hour", head!(F64 => |s| s.overload.as_mut() => surge_start_hour)),
    Key::req("overload", "surge_duration_mins", head!(U64 => |s| s.overload.as_mut() => surge_duration_mins)),
    Key::opt("overload", "surge_seed", head!(U64 => |s| s.overload.as_mut() => surge_seed)),
    Key::opt("overload", "queue_cap_records", field!(Usize => Daemon.admission.queue_cap_records)),
    Key::opt("overload", "shed_watermark_records", field!(Usize => Daemon.admission.shed_watermark_records)),
    Key::opt("overload", "per_loc_shed_cap", field!(Usize => Daemon.admission.per_loc_shed_cap)),
    Key::opt("overload", "max_attempts", head!(U32 => |s| s.overload.as_mut() => max_attempts)),
    Key::opt("engine", "probe_deadline_budget_secs", field!(U64 => Engine.probe_deadline_budget_secs)),
    Key::opt("engine", "baseline_max_age_secs", field!(U64 => Engine.baseline_max_age_secs)),
    Key::opt("engine", "background_period_secs", field!(U64 => Engine.background_period_secs)),
    Key::opt("engine", "flight_degraded_spike", field!(U64 => Engine.flight_degraded_spike)),
    Key::req("eval", "start_hour", head!(F64 => |s| Some(&mut s.eval) => start_hour)),
    Key::req("eval", "duration_mins", head!(U64 => |s| Some(&mut s.eval) => duration_mins)),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `(section, key)` for every backticked name in the first column of
    /// a table under a `### `[section]`` heading of the reference.
    fn documented_keys(doc: &str) -> BTreeSet<(String, String)> {
        let mut section: Option<String> = None;
        let mut out = BTreeSet::new();
        for line in doc.lines() {
            if line.starts_with('#') {
                section = line
                    .strip_prefix("### `[")
                    .and_then(|rest| rest.split_once("]`"))
                    .map(|(name, _)| name.to_string());
            }
            let (Some(section), Some(row)) = (&section, line.strip_prefix("| `")) else {
                continue;
            };
            let first_cell = row.split(" | ").next().unwrap_or("");
            for key in first_cell.split('`').step_by(2).filter(|k| !k.is_empty()) {
                out.insert((section.clone(), key.to_string()));
            }
        }
        out
    }

    #[test]
    fn the_reference_names_exactly_the_table_keys() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCENARIOS.md");
        let doc = std::fs::read_to_string(path).expect("docs/SCENARIOS.md is readable");
        let documented: BTreeSet<_> = documented_keys(&doc)
            .into_iter()
            .filter(|(section, _)| section != "expect")
            .collect();
        let table: BTreeSet<_> = KEYS
            .iter()
            .map(|k| (k.section.to_string(), k.name.to_string()))
            .collect();
        assert_eq!(table.len(), KEYS.len(), "a (section, key) is listed twice");
        let undocumented: Vec<_> = table.difference(&documented).collect();
        let unknown: Vec<_> = documented.difference(&table).collect();
        assert!(
            undocumented.is_empty() && unknown.is_empty(),
            "docs/SCENARIOS.md and keys::KEYS disagree — in the table but not the \
             reference: {undocumented:?}; in the reference but not the table: {unknown:?}"
        );
    }

    /// The rule that keeps the table small: a config-landing row is a
    /// knob some scenario turns, so every one is set by at least one
    /// file under `scenarios/` (tests and the CLI's heads do not count).
    #[test]
    fn every_override_row_is_set_by_some_scenario() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut set = BTreeSet::new();
        for entry in std::fs::read_dir(dir).expect("scenarios/ is readable") {
            let path = entry.expect("a scenarios/ entry").path();
            if path.extension().is_some_and(|x| x == "scn") {
                let spec = crate::parse::load_scenario(&path).expect("a shipped scenario loads");
                set.extend(spec.overrides.iter().map(|o| (o.key.section, o.key.name)));
            }
        }
        let unused: Vec<String> = KEYS
            .iter()
            .filter(|k| !matches!(k.land, Land::Spec(_)) && !set.contains(&(k.section, k.name)))
            .map(|k| format!("[{}] {}", k.section, k.name))
            .collect();
        assert!(
            unused.is_empty(),
            "{} override rows no file under scenarios/ sets — make each a constant \
             or add the scenario that needs it: {unused:?}",
            unused.len()
        );
    }

    /// Two values each kind accepts.
    fn samples(kind: Kind) -> [&'static str; 2] {
        match kind {
            Kind::U32 | Kind::U64 | Kind::Usize => ["7", "8"],
            Kind::F64 => ["2.5", "3.5"],
            Kind::Rate => ["0.25", "0.5"],
            Kind::Bool => ["true", "false"],
            Kind::Scale => ["small", "default"],
            Kind::Text => ["cloud:0", "cloud:1"],
            Kind::Plan => ["mild", "heavy"],
            Kind::KillPoint => ["post-journal", "pre-snapshot"],
        }
    }

    /// Everything a key can land in, after `key = raw` landed.
    fn landed(key: &Key, raw: &str) -> String {
        let value = key.parse(raw).expect("a sample value parses");
        let mut spec = ScenarioSpec {
            faults: vec![Default::default()],
            chaos: Some(Default::default()),
            crash: Some(crate::spec::CrashSpec {
                kill_tick: 0,
                kill_point: CrashPoint::MidJournal,
                seed: 0,
                line: 1,
            }),
            overload: Some(crate::spec::OverloadSpec {
                surge_mult: 2,
                surge_start_hour: 0.0,
                surge_duration_mins: 0,
                surge_seed: 0,
                max_attempts: 3,
                line: 1,
            }),
            ..Default::default()
        };
        let mut world = WorldConfig::new(2, 1);
        let mut engine = BlameItConfig::new(blameit::BadnessThresholds::uniform(1.0));
        let mut plan = FaultPlan::none(1);
        let mut daemon = DaemonConfig::default();
        match key.land {
            Land::Spec(write) => write(&mut spec, &value, 9),
            Land::World(set) => set(&mut world, &value),
            Land::Engine(set) => set(&mut engine, &value),
            Land::Chaos(set) => set(&mut plan, &value),
            Land::Daemon(set) => set(&mut daemon, &value),
        }
        format!("{spec:?}\n{world:?}\n{engine:?}\n{plan:?}\n{daemon:?}")
    }

    #[test]
    fn every_key_lands_the_value_it_parsed() {
        for key in KEYS {
            let [a, b] = samples(key.kind);
            assert_ne!(
                landed(key, a),
                landed(key, b),
                "[{}] {}: two different values left every target the same",
                key.section,
                key.name
            );
        }
    }
}
