//! Console-table and CSV output helpers shared by the experiment binaries.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory under which experiment artifacts (CSV files) are written.
#[must_use]
pub fn artifact_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Renders a CSV artifact: the header line, then one line per row.
#[must_use]
pub fn render_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut csv = header.join(",");
    csv.push('\n');
    for row in rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    csv
}

/// Writes a CSV artifact ([`render_csv`]) under [`artifact_dir`], creating
/// the directory if needed, and returns the path written.
///
/// # Errors
///
/// Returns the I/O error, its message prefixed with the path that failed.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let dir = artifact_dir();
    let path = dir.join(name);
    fs::create_dir_all(&dir).map_err(naming(&dir))?;
    fs::write(&path, render_csv(header, rows)).map_err(naming(&path))?;
    Ok(path)
}

/// Prefixes an I/O error's message with the path it concerns.
fn naming(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Renders a fixed-width console table.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with three decimals for table cells.
#[must_use]
pub fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer-name".into(), "2.5".into()],
            ],
        );
        assert!(table.contains("longer-name"));
        assert!(table.lines().count() >= 4);
        let header_line = table.lines().next().unwrap();
        assert!(header_line.starts_with("name"));
    }

    #[test]
    fn csv_round_trips_to_disk() {
        let path = write_csv(
            "unit-test.csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        )
        .expect("csv written");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b"));
        assert!(content.contains("1,2"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fmt_uses_three_decimals() {
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(2.0), "2.000");
    }
}
