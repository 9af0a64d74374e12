#![forbid(unsafe_code)]
//! `jitsu-lint` — the workspace determinism & safety analyzer.
//!
//! Every figure and benchmark this repository produces rests on bit-for-bit
//! deterministic simulation. The CI determinism gate (run `reproduce`
//! twice, diff the bytes) only exercises one seeded path; this crate makes
//! the invariant a *static* property of the whole workspace by walking
//! every `.rs` file under `crates/`, `src/`, and `tests/` and enforcing:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | D001 | iteration over `HashMap`/`HashSet` bindings in non-test code |
//! | D002 | wall-clock time (`Instant`, `SystemTime`) anywhere |
//! | D003 | ambient randomness (`thread_rng`, `from_entropy`, `rand::random`) |
//! | D004 | OS concurrency (`thread::spawn`, `Mutex`, `RwLock`) in sim-logic crates |
//! | P001 | `unwrap()`/`expect()`/`panic!` in non-test core-crate code |
//! | H001 | a crate root missing `#![forbid(unsafe_code)]` |
//! | C001 | raw ordering/arithmetic on TCP sequence numbers (RFC 1982) |
//! | A001 | frame-buffer copies in the zero-copy hot path |
//! | R001 | discarded `Result` values in non-test core-crate code |
//! | N001 | unchecked narrowing `as` casts in wire-format crates |
//!
//! Violations are silenced in place with
//! `// jitsu-lint: allow(RULE, "reason")`; the reason is mandatory (W001),
//! unknown rules are errors (W002) and waivers that silence nothing are
//! warnings (W003). Diagnostics print as `file:line:col  RULE  message`
//! or as SARIF 2.1.0 ([`sarif`]) with `--format sarif`; the mechanical
//! subset of R001/N001 findings carry machine-applicable fixes ([`fix`],
//! `--fix`).
//!
//! The crate still has zero dependencies. The first six rules are phrased
//! over the raw token stream of a minimal lexer ([`lexer`]); the four
//! shape-sensitive rules run on a lightweight recursive-descent AST
//! ([`ast`]) with a binding-aware classification pass ([`sema`]) that
//! tracks declared types through `let`s, params and struct fields.

pub mod analyzer;
pub mod ast;
pub mod config;
pub mod diagnostics;
pub mod fix;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod sema;
pub mod waiver;
pub mod walk;

pub use analyzer::{analyze_file, analyze_file_indexed, analyze_workspace};
pub use config::Config;
pub use diagnostics::{Diagnostic, Severity};
