//! Per-file analysis and workspace orchestration: lex, parse, classify
//! bindings, locate test-only spans, run the rule suite, then apply and
//! audit waivers.

use crate::ast;
use crate::config::Config;
use crate::diagnostics::{self, Diagnostic};
use crate::lexer::{self, Token, TokenKind};
use crate::rules::{self, AstContext, FileContext};
use crate::sema::{self, SymbolIndex};
use crate::waiver;
use crate::walk;
use std::fs;
use std::io;
use std::path::Path;

/// Analyze one file standalone. `rel_path` is the workspace-relative,
/// `/`-separated path: the rules derive the owning crate, crate-root
/// status, and tests-directory status from it, so fixtures can opt into
/// any role by choosing their pretend path.
///
/// Cross-file symbols resolve only as far as the file itself declares them;
/// [`analyze_workspace`] builds a workspace-wide [`SymbolIndex`] first so
/// calls into other crates classify too.
pub fn analyze_file(rel_path: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    let tokens = lexer::lex(source);
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let parsed = ast::parse(&tokens, &code);
    let mut index = SymbolIndex::default();
    index.add_file(&parsed);
    analyze_file_indexed(rel_path, source, cfg, &index)
}

/// Analyze one file against a pre-built (typically workspace-wide) symbol
/// index.
pub fn analyze_file_indexed(
    rel_path: &str,
    source: &str,
    cfg: &Config,
    index: &SymbolIndex,
) -> Vec<Diagnostic> {
    let tokens = lexer::lex(source);
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let parsed = ast::parse(&tokens, &code);
    let classes = sema::classify(&parsed, index);
    let test_span = compute_test_spans(&tokens, &code);

    let segs: Vec<&str> = rel_path.split('/').collect();
    let crate_name = match segs.as_slice() {
        ["crates", name, ..] => Some(*name),
        ["src", ..] => Some("jitsu_repro"),
        _ => None,
    };
    let is_crate_root = matches!(segs.as_slice(), ["src", "lib.rs"])
        || matches!(segs.as_slice(), ["crates", _, "src", "lib.rs"]);
    let in_tests_dir = segs.iter().any(|s| *s == "tests" || *s == "benches");

    let ctx = FileContext {
        file: rel_path,
        crate_name,
        is_crate_root,
        in_tests_dir,
        tokens: &tokens,
        code: &code,
        test_span: &test_span,
        config: cfg,
    };
    let ast_cx = AstContext {
        ast: &parsed,
        classes: &classes,
        index,
    };

    let findings = rules::all(&ctx, &ast_cx);
    let (waivers, mut diags) = waiver::collect(rel_path, &tokens);

    // A waiver silences every finding of its rule on its target line (two
    // unwraps guarded by one documented invariant need one waiver).
    let mut used = vec![false; waivers.len()];
    for f in findings {
        let hit = waivers
            .iter()
            .position(|w| w.rule == f.rule && w.target_line == Some(f.line));
        match hit {
            Some(wi) => used[wi] = true,
            None => diags.push(f),
        }
    }
    for (w, used) in waivers.iter().zip(used) {
        if !used {
            diags.push(Diagnostic::warning(
                rel_path,
                w.line,
                w.col,
                "W003",
                format!(
                    "unused waiver for {} (\"{}\") silences nothing",
                    w.rule, w.reason
                ),
            ));
        }
    }
    diagnostics::sort(&mut diags);
    diags
}

/// Analyze every `.rs` file under `crates/`, `src/`, and `tests/` below
/// `root`, plus the workspace-level check for a crate missing its root
/// file.
///
/// Two passes: the first parses every file into a workspace-wide
/// [`SymbolIndex`] (so `Result`-returning functions and struct fields
/// resolve across crates), the second runs the rules.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<Diagnostic>> {
    let files = walk::rust_files(root, cfg)?;
    let mut sources = Vec::with_capacity(files.len());
    let mut index = SymbolIndex::default();
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        let tokens = lexer::lex(&source);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        index.add_file(&ast::parse(&tokens, &code));
        sources.push((rel, source));
    }

    let mut diags = Vec::new();
    for (rel, source) in &sources {
        diags.extend(analyze_file_indexed(rel, source, cfg, &index));
    }

    // H001 also guards against a crate root disappearing outright.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for dir in entries {
            if dir.join("Cargo.toml").is_file() && !dir.join("src/lib.rs").is_file() {
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                diags.push(Diagnostic::error(
                    &format!("crates/{name}/src/lib.rs"),
                    1,
                    1,
                    "H001",
                    "workspace crate has no src/lib.rs root to carry \
                     `#![forbid(unsafe_code)]`",
                ));
            }
        }
    }
    diagnostics::sort(&mut diags);
    Ok(diags)
}

/// Mark every token that belongs to a `#[cfg(test)]` or `#[test]` item
/// (the attribute, the item header, and its body or terminating `;`).
///
/// `#[cfg(not(test))]` and `#[cfg_attr(test, …)]` are *not* test spans:
/// only a leading `cfg` containing `test` without `not`, or a bare `test`
/// attribute, count.
fn compute_test_spans(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut flag = vec![false; tokens.len()];
    let n = code.len();
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };

    let mut ci = 0;
    while ci < n {
        if !(tok(ci).is_punct('#') && ci + 1 < n && tok(ci + 1).is_punct('[')) {
            ci += 1;
            continue;
        }
        let (attr_end, is_test) = parse_attr(tokens, code, ci);
        if !is_test {
            ci = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut item_start = attr_end + 1;
        while item_start + 1 < n
            && tok(item_start).is_punct('#')
            && tok(item_start + 1).is_punct('[')
        {
            item_start = parse_attr(tokens, code, item_start).0 + 1;
        }
        // The item runs to a `;` at depth 0 or through its first brace block.
        let mut end = n.saturating_sub(1);
        let mut j = item_start;
        while j < n {
            let t = tok(j);
            if t.is_punct(';') {
                end = j;
                break;
            }
            if t.is_punct('{') {
                let mut depth = 1i32;
                let mut q = j + 1;
                while q < n && depth > 0 {
                    if tok(q).is_punct('{') {
                        depth += 1;
                    } else if tok(q).is_punct('}') {
                        depth -= 1;
                    }
                    q += 1;
                }
                end = q.saturating_sub(1);
                break;
            }
            j += 1;
        }
        for k in ci..=end.min(n.saturating_sub(1)) {
            flag[code[k]] = true;
        }
        ci = end + 1;
    }
    flag
}

/// Parse the attribute opening at code index `ci` (which holds `#`).
/// Returns the code index of the closing `]` and whether it marks test-only
/// code.
fn parse_attr(tokens: &[Token], code: &[usize], ci: usize) -> (usize, bool) {
    let n = code.len();
    let tok = |k: usize| -> &Token { &tokens[code[k]] };
    let mut idents: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    let mut j = ci + 1; // at `[`
    while j < n {
        let t = tok(j);
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(&t.text);
        }
        j += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (j.min(n.saturating_sub(1)), is_test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<String> {
        analyze_file(path, src, &Config::default())
            .into_iter()
            .map(|d| d.to_string())
            .collect()
    }

    const ROOT_OK: &str = "#![forbid(unsafe_code)]\n";

    #[test]
    fn cfg_test_modules_are_exempt_from_p001_and_d001() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        for (k, v) in m.iter() {
            let _ = (k, v);
        }
        m.get(&1).unwrap();
    }
}
";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let out = run("crates/sim/src/x.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("P001"));
    }

    #[test]
    fn core_crate_unwrap_outside_tests_fires() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(run("crates/xenstore/src/x.rs", src).len(), 1);
        // Same code in a non-core crate is fine.
        assert!(run("crates/bench/src/x.rs", src).is_empty());
        // And in an integration-test file of a core crate.
        assert!(run("crates/xenstore/tests/x.rs", src).is_empty());
    }

    #[test]
    fn waived_finding_is_silenced_and_waiver_counts_as_used() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // jitsu-lint: allow(P001, \"x is checked by the caller\")
    x.unwrap()
}
";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn unused_waiver_warns() {
        let src = "// jitsu-lint: allow(P001, \"nothing here panics\")\nfn f() {}\n";
        let out = run("crates/sim/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("W003"), "{out:?}");
    }

    #[test]
    fn crate_root_without_forbid_fires_h001() {
        let out = run("crates/sim/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("H001"));
        assert!(run("crates/sim/src/lib.rs", ROOT_OK).is_empty());
    }

    #[test]
    fn non_root_files_skip_h001() {
        assert!(run("crates/sim/src/engine.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn d002_fires_even_in_test_code() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::time::Instant;
}
";
        let out = run("crates/sim/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("D002"));
    }

    #[test]
    fn d002_fires_in_the_root_harness_binaries() {
        // No directory is exempt: a clock under src/bin/ fires like one
        // anywhere else.
        let src = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n";
        let d002 = |path: &str| run(path, src).iter().filter(|d| d.contains("D002")).count();
        assert_eq!(d002("src/bin/bench_snapshot.rs"), 2);
        assert_eq!(d002("src/lib.rs"), 2);
        assert_eq!(d002("crates/bench/src/bin/fig3.rs"), 2);
    }

    #[test]
    fn d004_only_applies_to_sim_logic_crates() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(run("crates/netstack/src/x.rs", src).len(), 1);
        assert!(run("crates/lint/src/x.rs", src).is_empty());
    }
}
