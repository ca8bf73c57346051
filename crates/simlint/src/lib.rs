//! `simlint`: a determinism-safety static-analysis pass for the
//! simulator workspace.
//!
//! The repository's correctness story rests on **replay determinism**:
//! byte-identical serving reports across thread counts, bit-exact
//! golden pins, and an event-replay merge. Nothing in the type system
//! protects that property — a `HashMap` iteration reaching an event
//! order, a wall-clock read leaking into simulated time, or an
//! entropy-seeded RNG all compile fine and break replay silently.
//! `simlint` closes that gap with a lightweight, dependency-free source
//! scanner: a comment/string-aware line scrubber ([`scan`]) feeding a
//! per-line rule engine ([`rules`]), with two waiver mechanisms —
//! inline `// simlint: allow(<rule>): <reason>` annotations and a
//! path-scoped `simlint.toml` allowlist ([`config`]).
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p simlint -- --check
//! ```
//!
//! Findings print as `file:line: rule: message`, one per line, sorted;
//! `--check` exits nonzero when any survive the waivers. The repo
//! itself must lint clean — enforced by CI and by the crate's own
//! self-check integration test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod doccheck;
pub mod loc;
pub mod rules;
pub mod scan;
pub mod walk;

use config::Config;
use rules::{Rule, RULES};
use scan::{parse_waiver, WaiverParse};
use std::fmt;
use std::path::Path;

/// One finding: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Rule identifier (`waiver-syntax` for malformed waivers).
    pub rule: String,
    /// Explanation of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Whether `rel` lies in a test-only tree (integration tests, criterion
/// benches, runnable examples) — exempt from every rule.
fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// Lints one file's source text. `rel_path` is the workspace-relative
/// path used for rule scoping, waiver lookup, and reporting.
pub fn lint_source(rel_path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    if is_test_path(rel_path) {
        return findings;
    }
    let scrubbed = scan::scrub(source);
    let active: Vec<&Rule> = RULES
        .iter()
        .filter(|r| r.scope.contains(rel_path))
        .collect();
    // Waivers per line: an inline waiver covers its own line and the
    // line directly below it (so it can sit above the flagged line).
    let waivers: Vec<Option<scan::Waiver>> = scrubbed
        .lines
        .iter()
        .enumerate()
        .map(|(i, l)| match parse_waiver(&l.comment) {
            WaiverParse::Ok(w) => Some(w),
            WaiverParse::Malformed(_) if l.in_test => None,
            WaiverParse::Malformed(why) => {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: i + 1,
                    rule: "waiver-syntax".to_string(),
                    message: format!("malformed simlint waiver: {why}"),
                });
                None
            }
            WaiverParse::None => None,
        })
        .collect();
    let waived = |line_idx: usize, rule: &str| -> bool {
        let here = waivers[line_idx].as_ref();
        let above = line_idx.checked_sub(1).and_then(|i| waivers[i].as_ref());
        here.into_iter()
            .chain(above)
            .any(|w| w.rules.iter().any(|r| r == rule))
    };
    for (i, line) in scrubbed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for rule in &active {
            let Some(message) = (rule.check)(&line.code) else {
                continue;
            };
            if waived(i, rule.id) || cfg.allows(rule.id, rel_path) {
                continue;
            }
            findings.push(Finding {
                path: rel_path.to_string(),
                line: i + 1,
                rule: rule.id.to_string(),
                message,
            });
        }
    }
    findings.sort();
    findings
}

/// Lints every Rust file under `root` (honoring the walk exemptions in
/// [`walk`]), applying `cfg`. Findings come back sorted by path, line,
/// then rule.
///
/// # Errors
/// Returns a message for unreadable files or directories.
pub fn lint_root(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    lint_paths(root, &[], cfg)
}

/// Lints `targets` (files or directories, relative to `root`; empty =
/// the whole root), scoping and reporting every file relative to
/// `root` so rule scopes and `simlint.toml` prefixes apply identically
/// whether a file is reached by a walk or named explicitly.
///
/// # Errors
/// Returns a message for unreadable files or directories.
pub fn lint_paths(
    root: &Path,
    targets: &[std::path::PathBuf],
    cfg: &Config,
) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    if targets.is_empty() {
        files = walk::rust_files(root).map_err(|e| e.to_string())?;
    } else {
        for t in targets {
            files.extend(walk::rust_files(&root.join(t)).map_err(|e| e.to_string())?);
        }
    }
    let mut findings = Vec::new();
    for file in files {
        let source =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &source, cfg));
    }
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Loads `<root>/simlint.toml` if present (absent = empty config).
///
/// # Errors
/// Returns the parse error message for a malformed config.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("simlint.toml");
    if !path.exists() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn sim_crate_hashmap_is_flagged_and_btreemap_is_not() {
        let bad = "use std::collections::HashMap;\n";
        let f = lint_source("crates/system/src/replica.rs", bad, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "nondet-iter");
        assert_eq!(f[0].line, 1);
        let good = "use std::collections::BTreeMap;\n";
        assert!(lint_source("crates/system/src/replica.rs", good, &cfg()).is_empty());
    }

    #[test]
    fn hashmap_outside_sim_crates_is_not_flagged() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source("crates/jsonio/src/lib.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn inline_waiver_silences_same_and_next_line() {
        let trailing = "let m = HashMap::new(); // simlint: allow(nondet-iter): keyed only\n";
        assert!(lint_source("crates/system/src/x.rs", trailing, &cfg()).is_empty());
        let above = "// simlint: allow(nondet-iter): keyed only\nlet m = HashMap::new();\n";
        assert!(lint_source("crates/system/src/x.rs", above, &cfg()).is_empty());
        let elsewhere =
            "// simlint: allow(nondet-iter): keyed only\nlet a = 1;\nlet m = HashMap::new();\n";
        assert_eq!(
            lint_source("crates/system/src/x.rs", elsewhere, &cfg()).len(),
            1
        );
    }

    #[test]
    fn waiver_for_the_wrong_rule_does_not_silence() {
        let src = "let m = HashMap::new(); // simlint: allow(wall-clock): wrong rule\n";
        let f = lint_source("crates/system/src/x.rs", src, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "nondet-iter");
    }

    #[test]
    fn malformed_waiver_is_itself_a_finding() {
        let src = "let m = HashMap::new(); // simlint: allow(nondet-iter)\n";
        let f = lint_source("crates/system/src/x.rs", src, &cfg());
        assert!(f.iter().any(|x| x.rule == "waiver-syntax"));
        assert!(f.iter().any(|x| x.rule == "nondet-iter"), "no silencing");
    }

    #[test]
    fn config_allowlist_scopes_by_path_prefix() {
        let cfg = config::parse(
            "[[allow]]\nrule = \"nondet-iter\"\npath = \"crates/system/src/kernel.rs\"\nreason = \"keyed only\"\n",
        )
        .unwrap();
        let src = "let m = HashMap::new();\n";
        assert!(lint_source("crates/system/src/kernel.rs", src, &cfg).is_empty());
        assert_eq!(
            lint_source("crates/system/src/replica.rs", src, &cfg).len(),
            1
        );
    }

    #[test]
    fn cfg_test_code_and_test_trees_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/system/src/x.rs", src, &cfg()).is_empty());
        let unwrap = "fn f() { x.unwrap(); }\n";
        assert!(lint_source("tests/cluster_properties.rs", unwrap, &cfg()).is_empty());
        assert!(lint_source("crates/bench/benches/simulator.rs", unwrap, &cfg()).is_empty());
    }

    #[test]
    fn strings_and_comments_cannot_trip_rules() {
        let src = "let s = \"Instant::now()\"; // Instant::now in prose\n";
        assert!(lint_source("crates/system/src/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn wall_clock_and_unwrap_and_debug_rules_fire_in_lib_code() {
        let src = "fn f() {\n    let t = Instant::now();\n    let x = o.unwrap();\n    println!(\"{x:?}\");\n}\n";
        let f = lint_source("crates/system/src/x.rs", src, &cfg());
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert_eq!(rules, ["wall-clock", "unwrap-in-lib", "stray-debug"]);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
        assert_eq!(f[2].line, 4);
    }

    #[test]
    fn bench_and_bin_code_are_exempt_from_the_lib_rules() {
        let src = "fn main() { let t = Instant::now(); println!(\"hi\"); }\n";
        assert!(lint_source("crates/bench/src/bin/sim_speed.rs", src, &cfg()).is_empty());
        let bin = "fn main() { println!(\"hi\"); o.unwrap(); }\n";
        assert!(lint_source("crates/simlint/src/main.rs", bin, &cfg()).is_empty());
    }

    #[test]
    fn findings_render_as_file_line_rule_message() {
        let f = Finding {
            path: "crates/system/src/replica.rs".into(),
            line: 42,
            rule: "nondet-iter".into(),
            message: "HashMap in a simulation crate".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/system/src/replica.rs:42: nondet-iter: HashMap in a simulation crate"
        );
    }
}
