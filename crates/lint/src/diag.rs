//! Diagnostics and report rendering (human text and `--json`).

/// One rule violation at a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// The offending source line, trimmed, for context in reports.
    pub snippet: String,
    /// For interprocedural findings: the call chain from the flagged
    /// function to the effect site, one hop per entry. Empty for plain
    /// lexical rules.
    pub witness: Vec<String>,
}

/// A violation that was suppressed, and why.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    /// `annotation` (inline `lint:allow`) or `exemption` (the rule
    /// row's `exempt` prefixes).
    pub how: &'static str,
    /// The reason given in the annotation (empty for exemptions).
    pub reason: String,
}

/// Full result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub suppressed: Vec<Suppressed>,
    pub files_scanned: usize,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Canonical ordering: path, then line, then column, then rule.
    /// Keeps output byte-stable regardless of walk or rule order.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
        self.suppressed
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n    {}\n",
                d.path, d.line, d.col, d.rule, d.message, d.snippet
            ));
            for hop in &d.witness {
                out.push_str(&format!("      {hop}\n"));
            }
        }
        out.push_str(&format!(
            "blameit-lint: {} violation(s), {} suppressed, {} file(s) scanned\n",
            self.diagnostics.len(),
            self.suppressed.len(),
            self.files_scanned
        ));
        out
    }

    /// Machine-readable report (single JSON object).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"rule\": ");
            push_json_str(&mut out, d.rule);
            out.push_str(", \"path\": ");
            push_json_str(&mut out, &d.path);
            out.push_str(&format!(", \"line\": {}, \"col\": {}, ", d.line, d.col));
            out.push_str("\"message\": ");
            push_json_str(&mut out, &d.message);
            out.push_str(", \"snippet\": ");
            push_json_str(&mut out, &d.snippet);
            out.push_str(", \"witness\": [");
            for (k, hop) in d.witness.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                push_json_str(&mut out, hop);
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"rule\": ");
            push_json_str(&mut out, s.rule);
            out.push_str(", \"path\": ");
            push_json_str(&mut out, &s.path);
            out.push_str(&format!(", \"line\": {}, \"how\": ", s.line));
            push_json_str(&mut out, s.how);
            out.push_str(", \"reason\": ");
            push_json_str(&mut out, &s.reason);
            out.push('}');
        }
        out.push_str(&format!(
            "\n  ],\n  \"files_scanned\": {},\n  \"violations\": {}\n}}\n",
            self.files_scanned,
            self.diagnostics.len()
        ));
        out
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
/// Mirrors `blameit-obs::json` — duplicated so this crate stays
/// dependency-free even within the workspace.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report {
            diagnostics: vec![Diagnostic {
                rule: "wall-clock",
                path: "a\\b.rs".into(),
                line: 3,
                col: 7,
                message: "say \"no\"".into(),
                snippet: "x".into(),
                witness: vec!["a -> b".into()],
            }],
            suppressed: vec![],
            files_scanned: 1,
        };
        r.sort();
        let j = r.render_json();
        assert!(j.contains("\"violations\": 1"));
        assert!(j.contains("a\\\\b.rs"));
        assert!(j.contains("say \\\"no\\\""));
        assert!(j.contains("\"witness\": [\"a -> b\"]"));
        assert!(r.render_text().contains("      a -> b\n"));
        assert!(!r.ok());
    }

    #[test]
    fn sort_is_canonical() {
        let d = |path: &str, line| Diagnostic {
            rule: "x",
            path: path.into(),
            line,
            col: 1,
            message: String::new(),
            snippet: String::new(),
            witness: Vec::new(),
        };
        let mut r = Report {
            diagnostics: vec![d("b.rs", 1), d("a.rs", 9), d("a.rs", 2)],
            suppressed: vec![],
            files_scanned: 2,
        };
        r.sort();
        let order: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| (d.path.clone(), d.line))
            .collect();
        assert_eq!(
            order,
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }
}
