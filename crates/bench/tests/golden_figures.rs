//! Golden bytes for `repro --quick --all`: every table and figure, as
//! the `repro` binary prints them, pinned in
//! `tests/golden/repro_quick_all.txt`.
//!
//! The figures run their simulations on a pool of host threads, which
//! finish jobs in no fixed order; these tests pin that every row still
//! lands where the sequential loops put it. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p snake-bench --test golden_figures`
//! only when a change is *meant* to alter a figure.

use std::process::Command;

use snake_bench::{figures, report, Harness};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/repro_quick_all.txt"
);

fn golden() -> String {
    std::fs::read_to_string(GOLDEN).expect("golden file exists (regenerate with UPDATE_GOLDEN=1)")
}

/// Splits rendered output into its tables, each from its `== title ==`
/// line up to the next one.
fn sections(text: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = text
        .match_indices("== ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .collect();
    starts.push(text.len());
    starts.windows(2).map(|w| &text[w[0]..w[1]]).collect()
}

#[test]
fn quick_all_matches_the_golden_bytes() {
    let tables = figures::all(&Harness::quick()).expect("the quick harness is valid");
    let rendered = report::render_tables(&tables, false);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
    }
    let golden = golden();
    if rendered != golden {
        for (got, want) in sections(&rendered).iter().zip(sections(&golden)) {
            assert_eq!(*got, want, "first differing table");
        }
    }
    assert_eq!(
        rendered, golden,
        "rendered tables differ from the golden file"
    );
}

#[test]
fn selected_figures_print_their_golden_sections() {
    let golden = golden();
    let cases: [(&[&str], &[&str]); 2] = [
        (
            &["fig03", "fig25", "xmulti"],
            &["== Fig 3 —", "== Fig 25 —", "== Extra C —"],
        ),
        // The stall breakdown `--all` prints after Fig 5.
        (&["fig05b"], &["== Fig 5 (breakdown) —"]),
    ];
    for (ids, titles) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--quick")
            .args(ids)
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "repro {ids:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let want: String = sections(&golden)
            .into_iter()
            .filter(|s| titles.iter().any(|title| s.starts_with(title)))
            .collect();
        assert_eq!(
            want.matches("\n== ").count(),
            titles.len() - 1,
            "one golden section per id"
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    }
}
