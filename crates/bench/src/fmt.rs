//! Plain-text output helpers for the experiments.
//!
//! Every experiment prints the same rows/series the paper's
//! table or figure reports, as aligned text — easy to diff across
//! runs and to paste into EXPERIMENTS.md.

/// Prints a header banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("{}", "=".repeat(72));
    println!("{id}: {title}");
    println!("{}", "=".repeat(72));
}

/// Prints an aligned two-column table.
pub fn kv_table(rows: &[(&str, String)]) {
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        println!("  {k:<w$}  {v}");
    }
}

/// Prints a CDF as `x  F(x)` rows, downsampled to at most `max_rows`
/// evenly spaced points (always keeping the last).
pub fn cdf(label: &str, points: &[(f64, f64)], max_rows: usize) {
    println!("  CDF: {label} ({} points)", points.len());
    if points.is_empty() {
        println!("    (empty)");
        return;
    }
    let step = (points.len().div_ceil(max_rows)).max(1);
    for (i, (x, f)) in points.iter().enumerate() {
        if i % step == 0 || i == points.len() - 1 {
            println!("    {x:>12.3}  {f:>7.4}");
        }
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn printers_do_not_panic() {
        banner("figX", "smoke");
        kv_table(&[("alpha", "1".into()), ("beta-longer", "2".into())]);
        cdf("empty", &[], 10);
        cdf("tiny", &[(1.0, 0.5), (2.0, 1.0)], 1);
    }
}
