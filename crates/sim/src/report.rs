//! Result tables: aligned text for the terminal, CSV and JSON for machines.

use pgrid_trace::json::JsonVal;

/// A rectangular result table with a title, matching the layout of the
/// paper's tables so side-by-side comparison is direct.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment title (e.g. `"T1: construction cost vs N"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// If the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..cols {
                if i > 0 {
                    s.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numbers, left-align text.
                if cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-')
                {
                    s.push_str(&" ".repeat(widths[i] - cell.len()));
                    s.push_str(cell);
                } else {
                    s.push_str(cell);
                    s.push_str(&" ".repeat(widths[i] - cell.len()));
                }
            }
            s
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// GitHub-flavoured markdown rendering — used to regenerate the tables
    /// in EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// CSV rendering (headers + rows; commas inside cells are not expected
    /// and are replaced by semicolons defensively).
    pub fn to_csv(&self) -> String {
        let clean = |s: &String| s.replace(',', ";");
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(clean).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(clean).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// JSON rendering: `{"title":…,"headers":[…],"rows":[[…],…]}`.
    pub fn to_json(&self) -> String {
        JsonVal::object([
            ("title", self.title.as_str().into()),
            (
                "headers",
                JsonVal::array(self.headers.iter().map(String::as_str)),
            ),
            (
                "rows",
                JsonVal::array(
                    self.rows
                        .iter()
                        .map(|row| JsonVal::array(row.iter().map(String::as_str))),
                ),
            ),
        ])
        .to_string()
    }
}

/// Formats a float with `prec` decimals, trimming to a compact form.
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["N", "e", "e/N"]);
        t.push_row(vec!["200".into(), "15942".into(), fmt_f(79.71, 2)]);
        t.push_row(vec!["1000".into(), "74619".into(), fmt_f(74.61, 2)]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        assert!(text.contains("demo"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "title, header, rule, two rows");
        // Numeric cells right-aligned: the last row's N column ends at the
        // same offset as the header's.
        assert!(lines[3].starts_with(" 200"));
        assert!(lines[4].starts_with("1000"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "N,e,e/N");
        assert_eq!(lines[1], "200,15942,79.71");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn json_carries_title_and_rows() {
        let table = sample();
        let json = table.to_json();
        assert!(json.contains(r#""title":"demo""#), "{json}");
        assert!(
            json.contains(r#""rows":[["200","15942","79.71"],["1000","74619","74.61"]]"#),
            "{json}"
        );
        let strings = |v: &JsonVal| -> Vec<String> {
            v.as_array()
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        let back = JsonVal::parse(&json).unwrap();
        assert_eq!(back.field("title").unwrap().as_str(), Ok("demo"));
        assert_eq!(strings(back.field("headers").unwrap()), table.headers);
        let rows: Vec<Vec<String>> = back
            .field("rows")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(strings)
            .collect();
        assert_eq!(rows, table.rows);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "**demo**");
        assert_eq!(lines[2], "| N | e | e/N |");
        assert_eq!(lines[3], "|---|---|---|");
        assert_eq!(lines[4], "| 200 | 15942 | 79.71 |");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(0.5, 3), "0.500");
    }
}
