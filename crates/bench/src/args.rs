//! Minimal command-line parsing for the experiments, the CLI and the
//! daemon.
//!
//! Every experiment accepts `--seed N`, `--scale tiny|small|default`,
//! and usually `--days N`; figure-specific flags parse through the same
//! helper. No dependency needed for flags this simple.

use crate::scenarios::Scale;

/// Parsed `--key value` arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Panics
    /// Panics (with usage help) on a dangling `--key` or a stray
    /// positional argument.
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(items: impl IntoIterator<Item = String>) -> Args {
        let mut pairs = Vec::new();
        let mut it = items.into_iter();
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                panic!("unexpected positional argument {k:?}; use --key value");
            };
            let v = it
                .next()
                .unwrap_or_else(|| panic!("missing value for --{key}"));
            pairs.push((key.to_string(), v));
        }
        Args { pairs }
    }

    /// Raw string lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// u64 with default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.int(key, default)
    }

    /// An integer narrowed to `T` by `try_from`, with default: a value
    /// `T` cannot hold is refused, never wrapped.
    ///
    /// # Panics
    /// Panics on a non-integer, or on a value that does not fit `T`.
    pub fn int<T: TryFrom<u64>>(&self, key: &str, default: T) -> T {
        let Some(raw) = self.get(key) else {
            return default;
        };
        let v: u64 = raw
            .parse()
            .unwrap_or_else(|_| panic!("--{key} expects an integer, got {raw:?}"));
        T::try_from(v).unwrap_or_else(|_| {
            let bits = 8 * std::mem::size_of::<T>();
            panic!("--{key} must fit in {bits} bits, got {v}")
        })
    }

    /// f64 with default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// Scale with default.
    pub fn scale(&self, default: Scale) -> Scale {
        match self.get("scale") {
            None => default,
            Some("tiny") => Scale::Tiny,
            Some("small") => Scale::Small,
            Some("default") => Scale::Default,
            Some(v) => panic!("--scale expects tiny|small|default, got {v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_pairs() {
        let a = args(&["--seed", "7", "--scale", "tiny"]);
        assert_eq!(a.u64("seed", 1), 7);
        assert_eq!(a.scale(Scale::Small), Scale::Tiny);
        assert_eq!(a.u64("days", 3), 3);
        assert_eq!(a.f64("tau", 0.8), 0.8);
    }

    #[test]
    fn int_takes_the_largest_value_that_fits() {
        let a = args(&["--ticks", "4294967295", "--loc", "65535"]);
        assert_eq!(a.int::<u32>("ticks", 1), 0xFFFF_FFFF);
        assert_eq!(a.int::<u16>("loc", 0), 0xFFFF);
        assert_eq!(a.int::<u32>("absent", 7), 7);
    }

    #[test]
    #[should_panic(expected = "--ticks must fit in 32 bits, got 4294967296")]
    fn int_refuses_a_value_past_its_type() {
        args(&["--ticks", "4294967296"]).int::<u32>("ticks", 1);
    }

    #[test]
    fn last_occurrence_wins() {
        let a = args(&["--seed", "7", "--seed", "9"]);
        assert_eq!(a.u64("seed", 1), 9);
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn dangling_key_panics() {
        args(&["--seed"]);
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn positional_panics() {
        args(&["seed"]);
    }
}
