//! D002 — wall-clock time sources.
//!
//! `std::time::Instant` and `SystemTime` read the host clock, which differs
//! run to run; simulated components must take time from the `jitsu_sim`
//! virtual clock so every timestamp is a function of the event schedule.
//! The rule fires on *any* mention of the types — imports included, test
//! code included — because a wall-clock reading has no legitimate consumer
//! inside the simulated world. There is no exception anywhere this
//! analyzer walks: host time is measured from outside, by the standalone
//! `benchmark/` package.

use crate::diagnostics::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::FileContext;

const WALL_CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

pub fn check(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for ci in 0..ctx.len() {
        let t = ctx.tok(ci);
        if t.kind == TokenKind::Ident && WALL_CLOCK_TYPES.contains(&t.text.as_str()) {
            out.push(Diagnostic::error(
                ctx.file,
                t.line,
                t.col,
                "D002",
                format!(
                    "wall-clock `{}` is forbidden; take time from the jitsu_sim \
                     virtual clock (SimTime/SimDuration)",
                    t.text
                ),
            ));
        }
    }
    out
}
