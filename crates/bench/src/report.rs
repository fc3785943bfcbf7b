//! Plain-text/markdown table rendering for the figure harness.
//!
//! A [`Table`] holds typed [`Cell`]s; numbers stay numbers until the
//! table is rendered.

use std::fmt;

use snake_sim::{HostProfile, Phase};

/// One table cell: a text, or a number with the format it renders in.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Rendered as is.
    Text(String),
    /// A fraction, rendered as a percentage with one decimal
    /// (`0.584` renders `58.4%`).
    Pct(f64),
    /// A number rendered with this many decimals (`Fixed(v, 3)` for a
    /// ratio such as a speedup).
    Fixed(f64, usize),
    /// A count.
    Count(u64),
}

impl Cell {
    /// The cell's number, or `None` for text.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Text(_) => None,
            Cell::Pct(v) | Cell::Fixed(v, _) => Some(v),
            Cell::Count(n) => Some(n as f64),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Pct(v) => write!(f, "{:.1}%", v * 100.0),
            Cell::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Cell::Count(n) => write!(f, "{n}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

/// A rendered experiment: title, column headers, and rows of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id and caption (e.g. `"Fig 16 — Prefetch coverage"`).
    pub title: String,
    /// Column headers; the first column is the row label.
    pub headers: Vec<String>,
    /// Rows of cells (first cell = row label).
    pub rows: Vec<Vec<Cell>>,
    /// Free-form notes (paper-reported numbers, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let cells: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Adds a summary row labelled `label`. Each numeric column gets `f`
    /// over its values in the rows so far, in the format of the
    /// column's first row; a text column gets `-`.
    pub fn push_summary(&mut self, label: &str, f: fn(&[f64]) -> f64) {
        let summary: Vec<Cell> = (1..self.headers.len())
            .map(|col| {
                let values: Vec<f64> = self.rows.iter().filter_map(|r| r[col].value()).collect();
                match self.rows.first().map(|r| &r[col]) {
                    Some(Cell::Pct(_)) => Cell::Pct(f(&values)),
                    Some(&Cell::Fixed(_, decimals)) => Cell::Fixed(f(&values), decimals),
                    // A summary of counts, such as their mean, is not a
                    // count: one decimal.
                    Some(Cell::Count(_)) => Cell::Fixed(f(&values), 1),
                    Some(Cell::Text(_)) | None => "-".into(),
                }
            })
            .collect();
        self.push_row(std::iter::once(label.into()).chain(summary));
    }

    /// Adds a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The rows as rendered text.
    fn rendered_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect()
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("### {}\n\n", self.title);
        s.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        s.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in self.rendered_rows() {
            s.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for n in &self.notes {
            s.push_str(&format!("\n> {n}\n"));
        }
        s
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.rendered_rows();
        // Column widths.
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            (0..cols)
                .map(|i| "-".repeat(widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Renders `tables` as `repro` prints them: each as text (or markdown),
/// followed by a blank line.
pub fn render_tables(tables: &[Table], markdown: bool) -> String {
    let render = |t: &Table| {
        if markdown {
            t.to_markdown()
        } else {
            t.to_string()
        }
    };
    tables.iter().map(|t| render(t) + "\n").collect()
}

/// Renders one run's per-phase host wall time as a printable table
/// (`repro --profile` / `pfdebug --profile`), with the run loop's
/// unattributed time as a last row and the device-quiet shares as a
/// note.
pub fn profile_table(job: &str, host: &HostProfile) -> Table {
    let mut t = Table::new(
        format!("Host profile — {job}"),
        ["phase", "ms", "calls", "ns/call", "% wall"],
    );
    let ms = |nanos: u64| Cell::Fixed(nanos as f64 / 1e6, 3);
    let share = |nanos: u64| {
        let pct = if host.wall_nanos > 0 {
            100.0 * nanos as f64 / host.wall_nanos as f64
        } else {
            0.0
        };
        Cell::Fixed(pct, 1)
    };
    for phase in Phase::ALL {
        let stat = host.get(phase);
        t.push_row([
            phase.label().into(),
            ms(stat.nanos),
            Cell::Count(stat.calls),
            Cell::Fixed(stat.nanos_per_call(), 0),
            share(stat.nanos),
        ]);
    }
    let unaccounted = host.unaccounted_nanos();
    t.push_row([
        "(unaccounted)".into(),
        ms(unaccounted),
        "-".into(),
        "-".into(),
        share(unaccounted),
    ]);
    t.note(format!(
        "wall {:.3} ms, {:.0} cycles/s, {:.0} trace events/s",
        host.wall_nanos as f64 / 1e6,
        host.cycles_per_sec(),
        host.events_per_sec()
    ));
    t.note(format!(
        "quiet: {} of {} cycles skipped ({:.1}%), {} of {} SM ticks replayed ({:.1}%)",
        host.skipped_cycles,
        host.cycles,
        100.0 * host.skipped_share(),
        host.replayed_ticks,
        host.sm_ticks,
        100.0 * host.replayed_share()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X — demo", ["app", "value"]);
        t.push_row(["LPS".into(), Cell::Pct(0.8)]);
        t.note("paper: ~80%");
        t
    }

    #[test]
    fn display_contains_all_cells() {
        let s = sample().to_string();
        assert!(s.contains("Fig X"));
        assert!(s.contains("LPS"));
        assert!(s.contains("80.0%"));
        assert!(s.contains("paper: ~80%"));
    }

    #[test]
    fn markdown_is_well_formed() {
        let md = sample().to_markdown();
        assert!(md.starts_with("### Fig X"));
        assert!(md.contains("| app | value |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("> paper"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("t", ["a"]);
        t.push_row(["x".into(), "y".into()]);
    }

    #[test]
    fn profile_table_lists_every_phase() {
        let host = HostProfile::from_parts(
            1_000_000,
            5_000,
            42,
            2_000,
            3_000,
            10_000,
            Phase::ALL.iter().enumerate().map(|(i, &p)| {
                let i = i as u64 + 1;
                (
                    p,
                    snake_sim::PhaseStat {
                        nanos: i * 1_000,
                        calls: i * 10,
                    },
                )
            }),
        );
        let rendered = profile_table("LPS/snake", &host).to_string();
        for phase in Phase::ALL {
            assert!(rendered.contains(phase.label()), "missing {phase}");
        }
        assert!(rendered.contains("(unaccounted)"));
        assert!(
            rendered.contains(
                "quiet: 2000 of 5000 cycles skipped (40.0%), \
                 3000 of 10000 SM ticks replayed (30.0%)"
            ),
            "{rendered}"
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(Cell::Pct(0.1234).to_string(), "12.3%");
        assert_eq!(Cell::Fixed(1.0 / 3.0, 3).to_string(), "0.333");
        assert_eq!(Cell::Fixed(2.5, 0).to_string(), "2");
        assert_eq!(Cell::Count(27).to_string(), "27");
        assert_eq!(Cell::from("LPS").to_string(), "LPS");
        assert_eq!(Cell::Pct(0.5).value(), Some(0.5));
        assert_eq!(Cell::Count(3).value(), Some(3.0));
        assert_eq!(Cell::from("LPS").value(), None);
    }

    #[test]
    fn summary_applies_one_rule_to_every_numeric_column() {
        use snake_core::metrics::{geometric_mean, mean};
        let mut t = Table::new("t", ["app", "share", "ratio", "count"]);
        t.push_row([
            "a".into(),
            Cell::Pct(0.2),
            Cell::Fixed(1.0, 3),
            Cell::Count(27),
        ]);
        t.push_row([
            "b".into(),
            Cell::Pct(0.4),
            Cell::Fixed(4.0, 3),
            Cell::Count(28),
        ]);
        let mut geo = t.clone();
        t.push_summary("MEAN", mean);
        geo.push_summary("GEO", geometric_mean);
        // Each column keeps its format; the mean of counts is not a
        // count, so it gets one decimal.
        assert_eq!(
            t.rows[2],
            [
                "MEAN".into(),
                Cell::Pct(mean(&[0.2, 0.4])),
                Cell::Fixed(2.5, 3),
                Cell::Fixed(27.5, 1),
            ]
        );
        assert_eq!(
            geo.rows[2],
            [
                "GEO".into(),
                Cell::Pct(geometric_mean(&[0.2, 0.4])),
                Cell::Fixed(geometric_mean(&[1.0, 4.0]), 3),
                Cell::Fixed(geometric_mean(&[27.0, 28.0]), 1),
            ]
        );
        let rendered = |row: &[Cell]| row.iter().map(Cell::to_string).collect::<Vec<_>>();
        assert_eq!(rendered(&t.rows[2]), ["MEAN", "30.0%", "2.500", "27.5"]);
        assert_eq!(rendered(&geo.rows[2]), ["GEO", "28.3%", "2.000", "27.5"]);
    }
}
