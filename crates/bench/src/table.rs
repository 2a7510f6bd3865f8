//! Aligned text tables for experiment output, and their JSON form.

use std::fmt::{self, Write as _};

/// A simple aligned text table with a title and caption.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            caption: String::new(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets an explanatory caption printed under the title.
    pub fn set_caption(&mut self, caption: impl Into<String>) {
        self.caption = caption.into();
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers'.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        if !self.caption.is_empty() {
            writeln!(f, "{}", self.caption)?;
        }
        writeln!(f)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for i in 0..cols {
                write!(f, " {:<width$} |", cells[i], width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Writes `tables` as one compact JSON array of
/// `{"title","caption","headers","rows"}` objects, every cell a string.
#[must_use]
pub fn to_json(tables: &[Table]) -> String {
    let objects: Vec<String> = tables
        .iter()
        .map(|t| {
            let rows: Vec<String> = t.rows.iter().map(|row| json_strs(row)).collect();
            format!(
                "{{\"title\":{},\"caption\":{},\"headers\":{},\"rows\":[{}]}}",
                json_str(&t.title),
                json_str(&t.caption),
                json_strs(&t.headers),
                rows.join(",")
            )
        })
        .collect();
    format!("[{}]", objects.join(","))
}

/// `cells` as a JSON array of strings.
fn json_strs(cells: &[String]) -> String {
    let cells: Vec<String> = cells.iter().map(|c| json_str(c)).collect();
    format!("[{}]", cells.join(","))
}

/// `s` as a JSON string literal: quotes, backslashes, `\n`, `\r` and `\t`
/// get short escapes, other control characters `\u00XX`.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `Option<usize>` diameter, rendering `None` as `inf`
/// (disconnected cluster).
#[must_use]
pub fn fmt_diameter(d: Option<usize>) -> String {
    match d {
        Some(x) => x.to_string(),
        None => "inf".into(),
    }
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn fmt_f(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.set_caption("caption text");
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("caption text"));
        assert!(s.contains("| a   | long-header |"));
        assert!(s.contains("| 333 | 4           |"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    /// Pins the exact bytes `tables --json` writes: every escape class, a
    /// non-ASCII caption, an empty table and an empty list.
    #[test]
    fn json_matches_the_pinned_literal() {
        let mut t = Table::new("E0: \"quoted\" \\ title", &["a\\b", "n"]);
        t.set_caption("line\nnext\ttab\r\u{1}\u{1f} é ≤");
        t.push_row(vec!["gnp(d~6)".into(), "1.000".into()]);
        let tables = [t, Table::new("empty", &[])];
        assert_eq!(
            to_json(&tables),
            r#"[{"title":"E0: \"quoted\" \\ title","caption":"line\nnext\ttab\r\u0001\u001f é ≤","headers":["a\\b","n"],"rows":[["gnp(d~6)","1.000"]]},{"title":"empty","caption":"","headers":[],"rows":[]}]"#
        );
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_diameter(Some(4)), "4");
        assert_eq!(fmt_diameter(None), "inf");
        assert_eq!(fmt_f(1.0 / 3.0), "0.333");
    }
}
