//! Deterministic workspace traversal.
//!
//! `read_dir` order is filesystem-dependent, so entries are sorted by name
//! at every level: the analyzer's own output must be byte-identical across
//! runs, for the same reason it exists at all.

use crate::config::Config;
use std::fs;
use std::io;
use std::path::Path;

/// The directories under the workspace root that are analyzed. `vendor/`
/// is deliberately absent: the vendored stand-ins emulate external crates
/// and are not simulation code.
const ROOTS: &[&str] = &["crates", "src", "tests"];

/// Every `.rs` file to analyze, as sorted workspace-relative `/`-separated
/// paths.
pub fn rust_files(root: &Path, cfg: &Config) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            visit(&dir, top, cfg, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn visit(dir: &Path, rel: &str, cfg: &Config, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') {
            continue;
        }
        let path = entry.path();
        let child_rel = format!("{rel}/{name}");
        if path.is_dir() {
            if cfg.skip_dirs.contains(&name) {
                continue;
            }
            visit(&path, &child_rel, cfg, out)?;
        } else if name.ends_with(".rs") {
            out.push(child_rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_finds_this_crate_and_skips_fixtures() {
        // The lint crate lives at <workspace>/crates/lint.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = rust_files(&root, &Config::default()).expect("walk workspace");
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"));
        assert!(
            files.iter().all(|f| !f.contains("/fixtures/")),
            "fixture files must never be analyzed as workspace code"
        );
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk output must be sorted");
    }
}
