//! Plain-text/markdown table rendering for the figure harness.

use std::fmt;

use snake_sim::{HostProfile, Phase};

/// A rendered experiment: title, column headers, and rows of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id and caption (e.g. `"Fig 16 — Prefetch coverage"`).
    pub title: String,
    /// Column headers; the first column is the row label.
    pub headers: Vec<String>,
    /// Rows of cells (first cell = row label).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper-reported numbers, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Adds a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
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
        for row in &self.rows {
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
        // Column widths.
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
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
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Renders one run's per-phase host wall time as a printable table
/// (`repro --profile` / `pfdebug --profile`), with the run loop's
/// unattributed time as a last row and the device-quiet shares as a
/// note.
pub fn profile_table(job: &str, host: &HostProfile) -> Table {
    let mut t = Table::new(
        format!("Host profile — {job}"),
        vec![
            "phase".into(),
            "ms".into(),
            "calls".into(),
            "ns/call".into(),
            "% wall".into(),
        ],
    );
    let share = |nanos: u64| {
        if host.wall_nanos > 0 {
            100.0 * nanos as f64 / host.wall_nanos as f64
        } else {
            0.0
        }
    };
    for phase in Phase::ALL {
        let stat = host.get(phase);
        t.push_row(vec![
            phase.label().into(),
            format!("{:.3}", stat.nanos as f64 / 1e6),
            stat.calls.to_string(),
            format!("{:.0}", stat.nanos_per_call()),
            format!("{:.1}", share(stat.nanos)),
        ]);
    }
    let unaccounted = host.unaccounted_nanos();
    t.push_row(vec![
        "(unaccounted)".into(),
        format!("{:.3}", unaccounted as f64 / 1e6),
        "-".into(),
        "-".into(),
        format!("{:.1}", share(unaccounted)),
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

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats a ratio (e.g. speedup) with three decimals.
pub fn ratio(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X — demo", vec!["app".into(), "value".into()]);
        t.push_row(vec!["LPS".into(), pct(0.8)]);
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
        let mut t = Table::new("t", vec!["a".into()]);
        t.push_row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn profile_table_lists_every_phase() {
        let mut host = HostProfile::from_parts(
            1_000_000,
            5_000,
            42,
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
        (host.skipped_cycles, host.replayed_ticks, host.sm_ticks) = (2_000, 3_000, 10_000);
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
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(ratio(1.0 / 3.0), "0.333");
    }
}
