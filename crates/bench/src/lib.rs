//! Shared plumbing for the figure/table harness binaries.
//!
//! One binary per table and figure of the paper lives in `src/bin/`;
//! each prints a human-readable table mirroring the paper's rows/series
//! and writes a machine-readable JSON copy under `results/`. The
//! `paper` module holds the published numbers so every run prints a
//! paper-vs-ours comparison (recorded in EXPERIMENTS.md).

use std::fs;
use std::path::PathBuf;

pub mod drift;
pub mod memor;
pub mod paper;
pub mod series;

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write a JSON artifact under `results/` (created on demand) and return
/// its path.
pub fn emit_json<T: serde::Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write results file");
    println!("[results] wrote {}", path.display());
    path
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Format a duration given in seconds as days or months (Fig. 9 axes).
pub fn fmt_duration_long(seconds: f64) -> String {
    let days = seconds / 86_400.0;
    if days < 60.0 {
        format!("{days:.1} days")
    } else if days < 730.0 {
        format!("{:.1} months", days / 30.44)
    } else {
        format!("{:.1} years", days / 365.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_bands() {
        assert!(fmt_duration_long(86_400.0 * 25.5).contains("days"));
        assert!(fmt_duration_long(86_400.0 * 30.44 * 15.0).contains("months"));
        assert!(fmt_duration_long(86_400.0 * 365.25 * 14.0).contains("years"));
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(0.0123), "12.3 ms");
        assert_eq!(fmt_secs(2.5), "2.50 s");
    }
}
