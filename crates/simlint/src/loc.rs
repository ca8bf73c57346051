//! Non-test line counts per workspace crate, so a change's net lines
//! per crate can be read off rather than counted by hand.
//!
//! A crate's non-test lines are the lines of its `src/**/*.rs` outside
//! `#[cfg(test)]` (and `#[test]` / `#[bench]`) items, as
//! [`scan::scrub`] marks them. Blank and comment lines count. The crates
//! are the directories `crates/<name>/` with a `src/`; the nested
//! `crates/compat/*` shims have none at that depth, so they are left out.

use crate::{scan, walk};
use std::fs;
use std::io;
use std::path::Path;

/// Lines of `source` outside test items.
pub fn non_test_lines(source: &str) -> usize {
    scan::scrub(source)
        .lines
        .iter()
        .filter(|l| !l.in_test)
        .count()
}

/// `(crate, non-test lines)` for every `root/crates/<name>/src`, sorted
/// by crate name.
///
/// # Errors
/// Propagates I/O errors with the offending path prepended.
pub fn crate_lines(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", crates.display())))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry?;
        let src = entry.path().join("src");
        if !src.is_dir() {
            continue;
        }
        let mut lines = 0;
        for file in walk::rust_files(&src)? {
            let source = fs::read_to_string(&file)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", file.display())))?;
            lines += non_test_lines(&source);
        }
        out.push((entry.file_name().to_string_lossy().into_owned(), lines));
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_items_are_not_counted() {
        let src =
            "//! Doc.\n\nfn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(src), 3);
    }

    #[test]
    fn fixture_tree_counts_per_crate() {
        // `violations.rs` is 46 lines, the last 11 its test module;
        // `outside_scope.rs` has no tests.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        assert_eq!(
            crate_lines(&root).unwrap(),
            [("jsonio".to_string(), 13), ("system".to_string(), 35)]
        );
    }
}
