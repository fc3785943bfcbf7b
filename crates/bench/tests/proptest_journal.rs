//! Property-based crash model for the daemon's state journal: a crash
//! leaves an arbitrary *byte prefix* of the append stream on disk, or
//! a garbage final line. For any event sequence and any such image,
//! `load` must return exactly the events whose lines survived
//! complete, reopening must heal the torn tail so the next append
//! starts on a clean line — the two agreeing on what the journal
//! holds — and the pure `recover` fold must never panic or recycle
//! job ids, whatever interleaving the journal replays.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use snake_bench::jsonl_log::LogError;
use snake_bench::serve::journal::{self, Journal, JournalEvent};
use snake_bench::serve::SubmitSpec;
use snake_bench::supervise::JobRecord;

/// A unique temp path per generated case (cases run sequentially, but
/// a failing case must not collide with a later run's files).
fn case_path() -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "snake-proptest-journal-{}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Arbitrary journal events, spanning every variant the daemon writes.
fn event() -> impl Strategy<Value = JournalEvent> {
    let job = || prop::sample::select(vec!["LPS/snake".to_string(), "GEMM/stride".to_string()]);
    prop_oneof![
        (1u64..5).prop_map(|id| JournalEvent::Submitted {
            id,
            spec: SubmitSpec {
                quick: true,
                priority: id,
                ..SubmitSpec::default()
            },
        }),
        (1u64..5).prop_map(|id| JournalEvent::Running { id }),
        (1u64..5).prop_map(|id| JournalEvent::Requeued { id }),
        (1u64..5, job(), 0u64..50_000).prop_map(|(id, job, cycle)| JournalEvent::Checkpoint {
            id,
            cycle,
            path: format!("state.jsonl.j{id}.ckpt"),
            job,
        }),
        (1u64..5, job()).prop_map(|(id, job)| JournalEvent::CheckpointCleared { id, job }),
        (1u64..5, job(), 1u64..4, 0u64..90_000).prop_map(|(id, job, attempts, cycle)| {
            JournalEvent::Job {
                id,
                record: JobRecord::Suspended {
                    checkpoint: format!("{job}.ckpt").replace('/', "-"),
                    attempts: attempts as u32,
                    cycle,
                    job,
                },
            }
        }),
        (1u64..5, 0u64..9, any::<bool>()).prop_map(|(id, exit, done)| JournalEvent::Terminal {
            id,
            state: if done {
                "done".into()
            } else {
                "cancelled".into()
            },
            exit: exit as i32,
        }),
    ]
}

/// Puts `image` on disk as the journal a crash left, then checks the
/// torn-tail rule on it: `load` returns exactly `survivors`, reopening
/// returns the same events, and one append after the heal gives that
/// load plus the new event on a clean line — never glued onto partial
/// bytes.
fn check_crash_image(image: &[u8], survivors: &[JournalEvent]) -> Result<(), TestCaseError> {
    let path = case_path();
    std::fs::write(&path, image).expect("crash image written");
    let loaded = journal::load(&path).expect("torn tail never fails the load");
    prop_assert_eq!(&loaded, survivors);

    let extra = JournalEvent::Running { id: 99 };
    let (reopened, j) = Journal::open(&path).expect("reopen heals");
    prop_assert_eq!(&reopened, &loaded);
    j.append(&extra);
    drop(j);
    let mut expected = loaded;
    expected.push(extra);
    prop_assert_eq!(
        journal::load(&path).expect("healed journal loads"),
        expected
    );

    // And the heal is real: the file itself now ends every line with a
    // newline (no partial bytes kept).
    let healed = std::fs::read(&path).expect("journal readable");
    prop_assert_eq!(healed.last(), Some(&b'\n'));
    std::fs::remove_file(&path).expect("cleanup");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write events through the real append path, then crash: cut the
    /// file at an arbitrary byte or just before any line's newline, or
    /// end it with a garbage final line, with and without its newline.
    /// Every such image loads, heals and takes the next append cleanly.
    #[test]
    fn any_byte_prefix_loads_heals_and_appends_cleanly(
        case in (prop::collection::vec(event(), 1..10), 0usize..101)
    ) {
        let (events, cut_pct) = case;
        let path = case_path();
        {
            let (_, j) = Journal::open(&path).expect("journal opens");
            for ev in &events {
                j.append(ev);
            }
            prop_assert_eq!(j.errors(), 0, "appends to a real file succeed");
        }
        let bytes = std::fs::read(&path).expect("journal readable");
        std::fs::remove_file(&path).expect("cleanup");

        // A line survives the crash iff its trailing newline made it
        // to disk before the cut.
        let cut = bytes.len() * cut_pct / 100;
        let survivors = bytes[..cut].iter().filter(|b| **b == b'\n').count();
        check_crash_image(&bytes[..cut], &events[..survivors])?;

        // A line whose JSON is complete but whose newline was lost is
        // torn too.
        let newlines = bytes.iter().enumerate().filter(|(_, b)| **b == b'\n');
        for (line, (at, _)) in newlines.enumerate() {
            check_crash_image(&bytes[..at], &events[..line])?;
        }

        // A garbage final line is torn, with or without its newline.
        for garbage in [&b"{\"event\":\"runn"[..], b"{\"event\":\"runn\n"] {
            check_crash_image(&[&bytes[..], garbage].concat(), &events)?;
        }
    }

    /// The pure replay fold: arbitrary interleavings never panic, ids
    /// never recycle (`next_id` exceeds every submitted id), and every
    /// recovered job traces back to a `submitted` line.
    #[test]
    fn recover_is_total_and_never_recycles_ids(
        events in prop::collection::vec(event(), 0..40)
    ) {
        let r = journal::recover(&events);
        let submitted: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Submitted { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        for job in &r.jobs {
            prop_assert!(submitted.contains(&job.id), "job {} was never submitted", job.id);
            prop_assert!(r.next_id > job.id, "next_id must exceed recovered id {}", job.id);
        }
        prop_assert_eq!(
            r.next_id,
            submitted.iter().max().map_or(1, |m| m + 1),
            "next_id is max submitted id + 1"
        );
        // Ids come back sorted (BTreeMap order) and unique.
        let ids: Vec<u64> = r.jobs.iter().map(|j| j.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(ids, sorted);
    }

    /// A mid-file tear (bytes lost *before* later intact lines — disk
    /// corruption, not a crash) must refuse to load: the daemon would
    /// rather fail to start than replay a journal with a hole in it.
    #[test]
    fn midfile_damage_is_rejected_not_patched(
        case in (prop::collection::vec(event(), 2..10), 0usize..100)
    ) {
        let (events, victim_pct) = case;
        let path = case_path();
        {
            let (_, j) = Journal::open(&path).expect("journal opens");
            for ev in &events {
                j.append(ev);
            }
        }
        // Overwrite one non-final line's opening brace: that line can
        // no longer parse, but lines after it are intact.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let victim = victim_pct * (events.len() - 1) / 100;
        let start: usize = text
            .lines()
            .take(victim)
            .map(|l| l.len() + 1)
            .sum();
        let mut bytes = text.into_bytes();
        bytes[start] = b'X';
        let mut f = std::fs::File::create(&path).expect("journal writable");
        f.write_all(&bytes).expect("rewrite");
        drop(f);

        let err = journal::load(&path).expect_err("corruption must be fatal");
        prop_assert!(
            matches!(err, LogError::Malformed { line, .. } if line == victim + 1),
            "wrong diagnosis: {}", err
        );
        // Reopening refuses too, and heals nothing.
        prop_assert!(Journal::open(&path).is_err(), "reopen must refuse corruption");
        prop_assert_eq!(std::fs::read(&path).expect("journal readable"), bytes);
        std::fs::remove_file(&path).expect("cleanup");
    }
}
