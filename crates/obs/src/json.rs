//! Minimal JSON emission: the string/number formatting shared by the
//! metrics and tracing emitters, and the [`Json`] value tree the CLI
//! and the benchmark harness build their reports from. An emitter,
//! not a parser.

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` in a JSON-legal form (`NaN`/`±inf` become `null`,
/// which JSON can actually represent).
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Integral values print without the exponent noise of `{:e}`.
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{}", v as i64));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        out.push_str("null");
    }
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Finite number (non-finite values serialize as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (panics on non-objects).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => push_json_f64(out, *x),
            Json::Str(s) => push_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}
impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_string())
    }
}
impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::Str(x)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(xs: Vec<T>) -> Json {
        Json::Arr(xs.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> String {
        let mut out = String::new();
        push_json_str(&mut out, v);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(s("plain"), "\"plain\"");
        assert_eq!(s("a\"b"), "\"a\\\"b\"");
        assert_eq!(s("a\\b"), "\"a\\\\b\"");
        assert_eq!(s("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(s("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_are_json_legal() {
        let mut out = String::new();
        push_json_f64(&mut out, 3.0);
        assert_eq!(out, "3");
        out.clear();
        push_json_f64(&mut out, 0.5);
        assert_eq!(out, "0.5");
        out.clear();
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.25).to_string(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).to_string(), r#""a\"b\n""#);
    }

    #[test]
    fn structures() {
        let j = Json::obj()
            .field("experiment", "fig4a")
            .field("seed", 2019u64)
            .field("holds", true)
            .field("series", vec![1.0, 0.5]);
        assert_eq!(
            j.to_string(),
            r#"{"experiment":"fig4a","seed":2019,"holds":true,"series":[1,0.5]}"#
        );
    }

    #[test]
    fn control_chars_escaped() {
        let j = Json::Str("\u{1}".into());
        assert_eq!(j.to_string(), "\"\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn field_on_array_panics() {
        let _ = Json::Arr(vec![]).field("x", 1u64);
    }
}
