//! `loc` CLI: non-test lines of each workspace crate.
//!
//! ```text
//! loc
//! ```
//!
//! Run from the workspace root. Prints one `crate lines` row per
//! `crates/<name>/src` (lines of `src/**/*.rs` outside `#[cfg(test)]`
//! items, see `simlint::loc`), sorted by crate, then their total. It
//! takes no switches.

use simlint::loc::crate_lines;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: loc");
        return ExitCode::from(2);
    }
    match crate_lines(Path::new(".")) {
        Ok(rows) => {
            for (name, lines) in &rows {
                println!("{name:<14} {lines:>6}");
            }
            let total: usize = rows.iter().map(|(_, n)| n).sum();
            println!("{:<14} {total:>6}", "total");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loc: {e}");
            ExitCode::from(2)
        }
    }
}
