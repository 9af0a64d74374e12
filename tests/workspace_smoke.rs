//! Workspace wiring smoke test: every facade re-export resolves to the
//! right member crate, every crate root carries the lint policy clippy
//! enforces, and the headline cold→warm request round-trip runs
//! deterministically from a fixed seed.

use jitsu_repro::prelude::*;
use std::path::{Path, PathBuf};

/// The crates whose code runs inside the simulation: non-test code there
/// may not panic, discard a `Result` or silence a lint without a reason.
const CORE_CRATES: [&str; 7] = [
    "sim",
    "xen-sim",
    "netstack",
    "conduit",
    "jitsu",
    "unikernel",
    "xenstore",
];

/// The core crates that encode wire formats, where a narrowing cast must be
/// proven safe or rewritten.
const WIRE_CRATES: [&str; 3] = ["netstack", "xenstore", "conduit"];

/// The panic and discarded-`Result` policy every core crate root enables.
const POLICY_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::let_underscore_must_use",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
];

/// A crate root's text with every whitespace character removed, so the
/// check does not depend on how rustfmt wraps an attribute.
fn root_text(root: &Path) -> String {
    let text = std::fs::read_to_string(root).unwrap_or_else(|e| panic!("{root:?}: {e}"));
    text.split_whitespace().collect()
}

/// The attribute `crate_dir`'s root must carry, whitespace removed.
fn policy_attribute(crate_dir: &str) -> String {
    let mut lints = POLICY_LINTS.to_vec();
    if WIRE_CRATES.contains(&crate_dir) {
        lints.push("clippy::cast_possible_truncation");
    }
    format!("#![cfg_attr(not(test),warn({}))]", lints.join(","))
}

#[test]
fn every_crate_root_carries_its_lint_policy() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![workspace.join("src/lib.rs")];
    let crates = std::fs::read_dir(workspace.join("crates")).expect("crates/ is listable");
    for entry in crates {
        roots.push(entry.expect("crates/ entry").path().join("src/lib.rs"));
    }
    assert!(roots.len() > CORE_CRATES.len(), "found roots: {roots:?}");
    for root in &roots {
        assert!(
            root_text(root).contains("#![forbid(unsafe_code)]"),
            "{root:?} must carry #![forbid(unsafe_code)]"
        );
    }
    for crate_dir in CORE_CRATES {
        let root = workspace.join("crates").join(crate_dir).join("src/lib.rs");
        assert!(
            root_text(&root).contains(&policy_attribute(crate_dir)),
            "{root:?} must carry {}",
            policy_attribute(crate_dir)
        );
    }
}

/// Unsafe code lives in one file: the budget tests' counting allocator.
/// Crate roots forbid it; this covers the integration tests and examples,
/// which carry no root attribute of their own.
#[test]
fn the_counting_allocator_is_the_only_unsafe_code() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Spelled out at run time so that this file does not match itself.
    let markers = ["{", "fn", "impl"].map(|next| format!("{} {next}", "unsafe"));
    let mut dirs: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .map(|dir| workspace.join(dir))
        .into();
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("a readable source file");
                let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
                if code
                    .into_iter()
                    .any(|l| markers.iter().any(|m| l.contains(m)))
                {
                    found.push(path.strip_prefix(workspace).expect("inside").to_path_buf());
                }
            }
        }
    }
    assert_eq!(found, [Path::new("tests/support/counting_alloc.rs")]);
}

/// The crates whose callers name store paths on the summon's path.
const STORE_CALLERS: [&str; 3] = ["xen-sim", "conduit", "jitsu"];

/// `text` without its comment lines and without the items under
/// `#[cfg(test)]`: each such item runs from the attribute to the line that
/// closes its first brace, or to its first `;` if it opens none.
fn non_test_code(text: &str) -> String {
    let mut code = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim() == "#[cfg(test)]" {
            let (mut depth, mut opened) = (0i32, false);
            for line in lines.by_ref() {
                for c in line.chars() {
                    match c {
                        '{' => (depth, opened) = (depth + 1, true),
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if (opened && depth <= 0) || (!opened && line.trim_end().ends_with(';')) {
                    break;
                }
            }
        } else if !line.trim_start().starts_with("//") {
            code.push_str(line);
            code.push('\n');
        }
    }
    code
}

/// The literals of the `format!`s in `code` that build a store path: the
/// literal starts with `/` or with a `{…}/` placeholder.
fn formatted_store_paths(code: &str) -> Vec<&str> {
    code.match_indices("format!(")
        .filter_map(|(at, call)| {
            let literal = code[at + call.len()..].trim_start().strip_prefix('"')?;
            let after_placeholder = || Some(&literal[literal.strip_prefix('{')?.find('}')? + 2..]);
            let is_path = literal.starts_with('/')
                || after_placeholder().is_some_and(|rest| rest.starts_with('/'));
            is_path.then(|| literal.lines().next().unwrap_or_default())
        })
        .collect()
}

/// Store operations take a built `Path`, and the daemon, the devices, the
/// handoff and the conduit rendezvous build each key once and keep it (or,
/// for a key named once, build it from its parts in one allocation). A
/// `format!`ed path string would be formatted and then parsed again on
/// every operation, so non-test code in those crates has none.
#[test]
fn no_store_path_is_formatted_outside_tests() {
    let sample = "let a = format!(\n    \"/local/{d}\");\nformat!(\"{base}/state\");\nformat!(\"{a} {b}/c\");";
    assert_eq!(
        formatted_store_paths(sample),
        ["/local/{d}\");", "{base}/state\");"]
    );
    let test_module = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        format!(\"/x\");\n    }\n}\nfn h() {}\n";
    assert_eq!(non_test_code(test_module), "fn f() {}\nfn h() {}\n");

    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<PathBuf> = STORE_CALLERS
        .map(|krate| workspace.join("crates").join(krate).join("src"))
        .into();
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("a readable source file");
                let code = non_test_code(&text);
                for literal in formatted_store_paths(&code) {
                    let file = path.strip_prefix(workspace).unwrap_or(&path);
                    found.push(format!("{}: {literal}", file.display()));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "store paths built with format!:\n{}",
        found.join("\n")
    );
}

/// One symbol from each of the ten re-exported crates, referenced through
/// the facade paths. Compiling this function is the assertion: if a
/// workspace edge or `[lib] name` mapping regresses, this fails to build.
#[test]
fn facade_reexports_all_resolve() {
    let _sim: jitsu_repro::sim::SimDuration = jitsu_repro::sim::SimDuration::from_millis(1);
    let _xenstore =
        jitsu_repro::xenstore::XenStore::new(jitsu_repro::xenstore::EngineKind::JitsuMerge);
    let _xen = jitsu_repro::xen::grant_table::GrantTable::new();
    let _conduit: Option<jitsu_repro::conduit::vchan::Side> = None;
    let _netstack = jitsu_repro::netstack::ipv4::Ipv4Addr::new(10, 0, 0, 1);
    let _unikernel = jitsu_repro::unikernel::image::UnikernelImage::mirage("smoke");
    let _platform = jitsu_repro::platform::BoardKind::Cubieboard2.board();
    let _baselines: Option<jitsu_repro::baselines::docker::ContainerRuntime> = None;
    let _security = jitsu_repro::security::cve::CVE_DATASET;
    let _jitsu = jitsu_repro::jitsu::config::JitsuConfig::new("family.name");
}

#[test]
fn cold_then_warm_round_trip_is_deterministic() {
    let run = |seed: u64| {
        let config = JitsuConfig::new("family.name").with_service(ServiceConfig::http_site(
            "alice.family.name",
            Ipv4Addr::new(192, 168, 1, 20),
        ));
        let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), seed);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "alice.family.name");
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(1), "alice.family.name");
        sim.run();
        let m = sim.world().metrics();
        let [warm, cold] = m.ttfb.percentiles_ms(&[0.0, 100.0])[..] else {
            unreachable!("two samples")
        };
        (
            (m.cold_served, m.warm_hits, m.handoff.completed),
            cold.to_bits(),
            warm.to_bits(),
            sim.events_executed(),
        )
    };

    let first = run(42);
    // One cold request served byte-exact through the handoff, one warm.
    assert_eq!(first.0, (1, 1, 1));
    // Warm requests skip the boot pipeline entirely.
    assert!(f64::from_bits(first.2) < f64::from_bits(first.1));

    // Same seed, same virtual-time results, bit for bit.
    assert_eq!(run(42), first);
}
