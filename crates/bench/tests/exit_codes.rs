//! The consolidated exit-code contract. Every binary shares one
//! namespace (README § exit codes); this test pins the constants to
//! distinct values, to the usage/worker conventions, and to the
//! README table itself — renumbering a constant without updating the
//! docs (or vice versa) fails here, not in a user's script.

use snake_bench::cli::EXIT_CHECKPOINT_MISMATCH;
use snake_bench::serve::{EXIT_CANCELLED, EXIT_QUOTA};
use snake_bench::supervise::{EXIT_INTERRUPTED, EXIT_QUARANTINE};

const README: &str = include_str!("../../../README.md");

/// Every typed exit constant, named as the README table names it.
const CODES: &[(i32, &str)] = &[
    (EXIT_QUARANTINE, "quarantined"),
    (EXIT_INTERRUPTED, "interrupted"),
    (EXIT_CHECKPOINT_MISMATCH, "mismatch"),
    (EXIT_CANCELLED, "cancelled"),
    (EXIT_QUOTA, "quota"),
];

#[test]
fn exit_codes_are_distinct_and_leave_the_reserved_range_alone() {
    let mut seen = std::collections::HashSet::new();
    for (code, name) in CODES {
        assert!(seen.insert(*code), "{name} reuses exit code {code}");
        assert!(
            *code > 2,
            "{name} = {code} collides with success (0) or usage errors (2)"
        );
        assert!(*code < 64, "{name} = {code} strays into shell/OS territory");
    }
}

#[test]
fn readme_table_documents_every_typed_exit_code() {
    // Pull the `| code | meaning |` table rows out of the README.
    let rows: Vec<(i32, String)> = README
        .lines()
        .filter_map(|l| {
            let mut cells = l.trim().strip_prefix('|')?.splitn(3, '|');
            let code: i32 = cells.next()?.trim().parse().ok()?;
            Some((code, cells.next()?.trim().to_string()))
        })
        .collect();
    assert!(
        rows.iter().any(|(c, _)| *c == 0),
        "the README table must document success"
    );
    for (code, name) in CODES {
        let row = rows
            .iter()
            .find(|(c, _)| c == code)
            .unwrap_or_else(|| panic!("exit code {code} ({name}) missing from the README table"));
        assert!(
            row.1.to_lowercase().contains(name),
            "README row for exit {code} should mention {name:?}: {:?}",
            row.1
        );
    }
    // And nothing undocumented: every table row above 2 maps back to a
    // constant (0 and 2 are the POSIX-conventional codes).
    for (code, meaning) in &rows {
        if *code <= 2 {
            continue;
        }
        assert!(
            CODES.iter().any(|(c, _)| c == code),
            "README documents exit {code} ({meaning:?}) but no constant defines it"
        );
    }
}

#[test]
fn worker_usage_exit_matches_the_usage_convention() {
    // The hidden `repro --exec-job` worker returns 2 (the shared usage
    // code) for an unusable spec and 0 otherwise — crashes travel as
    // wait statuses, never as ambiguous exit codes in this table.
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--exec-job")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"this is not a job spec\n")
        .expect("write garbage spec");
    let status = child.wait().expect("worker exits");
    assert_eq!(
        status.code(),
        Some(2),
        "an unusable spec is a usage error, same namespace as the CLIs"
    );
}
