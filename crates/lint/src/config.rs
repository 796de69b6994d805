//! `lint.toml` — the per-module allowlist and effect-scope config.
//!
//! The file holds one `[allow]` table mapping rule IDs to path-prefix
//! lists; any file whose workspace-relative path starts with a listed
//! prefix is exempt from that rule (suppressions are still counted and
//! reported in `--json`). An optional `[effects]` table scopes the
//! transitive effect analysis: `protected` lists the path prefixes
//! whose functions must not *reach* an effect through any call chain
//! (default: `crates/core/src/`). This is deliberately a tiny TOML
//! subset — sections, `key = ["a", "b"]` single-line string arrays,
//! `#` comments — parsed by hand so the linter stays dependency-free.
//!
//! ```toml
//! [allow]
//! wall-clock = ["crates/obs/", "crates/bench/src/main.rs"]
//!
//! [effects]
//! protected = ["crates/core/src/"]
//! ```

use std::collections::BTreeMap;

/// The effect-analysis protected scope when `[effects] protected` is
/// absent from `lint.toml`.
pub const DEFAULT_PROTECTED: &str = "crates/core/src/";

/// One `[allow]` entry, with its `lint.toml` line for the suppression
/// auditor's stale-prefix reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub prefix: String,
    /// 1-based line in `lint.toml`.
    pub line: u32,
}

/// Parsed allowlist configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// rule id → path prefixes exempt from that rule.
    pub allow: BTreeMap<String, Vec<String>>,
    /// Every `[allow]` entry in file order, for the suppression audit.
    pub entries: Vec<AllowEntry>,
    /// `[effects] protected` path prefixes.
    pub protected: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            allow: BTreeMap::new(),
            entries: Vec::new(),
            protected: vec![DEFAULT_PROTECTED.to_string()],
        }
    }
}

impl Config {
    /// True if `path` (workspace-relative, `/`-separated) is exempt
    /// from `rule`.
    pub fn allows(&self, rule: &str, path: &str) -> bool {
        self.allowing_prefix(rule, path).is_some()
    }

    /// The first configured prefix that exempts `path` from `rule`,
    /// if any — callers use the prefix itself to mark the entry as
    /// live for the suppression audit.
    pub fn allowing_prefix(&self, rule: &str, path: &str) -> Option<&str> {
        self.allow.get(rule).and_then(|prefixes| {
            prefixes
                .iter()
                .find(|p| path.starts_with(p.as_str()))
                .map(|p| p.as_str())
        })
    }

    /// Parses the `lint.toml` subset. Unknown sections are ignored;
    /// malformed lines are errors (a silently dropped allowlist entry
    /// would surface as a confusing violation).
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut saw_protected = false;
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{}: expected `key = [..]`", idx + 1));
            };
            let key = key.trim().trim_matches('"').to_string();
            if section == "allow" {
                let prefixes = parse_string_array(value.trim())
                    .map_err(|e| format!("lint.toml:{}: {}", idx + 1, e))?;
                for p in &prefixes {
                    cfg.entries.push(AllowEntry {
                        rule: key.clone(),
                        prefix: p.clone(),
                        line: idx as u32 + 1,
                    });
                }
                cfg.allow.entry(key).or_default().extend(prefixes);
            } else if section == "effects" && key == "protected" {
                let prefixes = parse_string_array(value.trim())
                    .map_err(|e| format!("lint.toml:{}: {}", idx + 1, e))?;
                if !saw_protected {
                    cfg.protected.clear();
                    saw_protected = true;
                }
                cfg.protected.extend(prefixes);
            }
        }
        Ok(cfg)
    }
}

/// Strips a `#` comment, respecting `"`-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b"]` into its strings.
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a `[..]` array, got `{value}`"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let s = item
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("expected a quoted string, got `{item}`"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allow_sections() {
        let cfg = Config::parse(
            "# comment\n[allow]\nwall-clock = [\"crates/obs/\", \"crates/bench/\"] # trailing\n\n[other]\nx = [\"y\"]\n",
        )
        .unwrap();
        assert!(cfg.allows("wall-clock", "crates/obs/src/trace.rs"));
        assert!(cfg.allows("wall-clock", "crates/bench/src/main.rs"));
        assert!(!cfg.allows("wall-clock", "crates/core/src/pipeline.rs"));
        assert!(!cfg.allows("float-order", "crates/obs/src/trace.rs"));
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Config::parse("[allow]\nwall-clock = nope\n").is_err());
        assert!(Config::parse("[allow]\njust words\n").is_err());
    }

    #[test]
    fn empty_and_missing_are_fine() {
        let cfg = Config::parse("").unwrap();
        assert!(!cfg.allows("wall-clock", "anything.rs"));
    }

    #[test]
    fn entries_carry_lines_and_prefixes() {
        let cfg = Config::parse(
            "[allow]\nwall-clock = [\"crates/obs/\"]\nsocket-io = [\"a/\", \"b/\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.entries.len(), 3);
        assert_eq!(cfg.entries[0].rule, "wall-clock");
        assert_eq!(cfg.entries[0].line, 2);
        assert_eq!(
            cfg.entries[2],
            AllowEntry {
                rule: "socket-io".into(),
                prefix: "b/".into(),
                line: 3
            }
        );
        assert_eq!(
            cfg.allowing_prefix("wall-clock", "crates/obs/src/trace.rs"),
            Some("crates/obs/")
        );
        assert_eq!(
            cfg.allowing_prefix("wall-clock", "crates/core/src/x.rs"),
            None
        );
    }

    #[test]
    fn effects_protected_overrides_default() {
        let def = Config::parse("").unwrap();
        assert_eq!(def.protected, vec![DEFAULT_PROTECTED.to_string()]);
        let cfg = Config::parse("[effects]\nprotected = [\"crates/daemon/src/\"]\n").unwrap();
        assert_eq!(cfg.protected, vec!["crates/daemon/src/".to_string()]);
    }
}
