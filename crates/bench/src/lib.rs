//! # snake-bench
//!
//! The figure/table regeneration harness: one function per table and
//! figure of the paper's evaluation, each returning a printable
//! [`report::Table`] with the paper-reported value next to the
//! measured one. The `repro` binary exposes them as subcommands.
//!
//! ```no_run
//! use snake_bench::{figures, Harness};
//! use snake_core::PrefetcherKind;
//! # fn main() -> Result<(), snake_sim::SimError> {
//! let h = Harness::quick();
//! let matrix = figures::EvalMatrix::collect(&h, PrefetcherKind::all())?;
//! let table = figures::fig16_coverage(&matrix);
//! println!("{table}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod jsonl_log;
pub mod report;
pub mod runner;
pub mod serve;
pub mod supervise;

pub use runner::Harness;
