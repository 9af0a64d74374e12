//! SARIF 2.1.0 emission — machine-readable findings for CI annotation.
//!
//! Hand-rolled (the crate has zero dependencies): a tiny JSON writer with
//! proper string escaping, a fixed rule-metadata table, and deterministic
//! ordering (the diagnostics arrive already sorted, the rules table is a
//! constant). [`json_is_well_formed`] is a minimal recursive-descent JSON
//! syntax checker used by the golden test so the emitter can never ship a
//! structurally broken document.

use crate::diagnostics::{Diagnostic, Severity};
use std::fmt::Write;

/// Rule metadata embedded in the SARIF `tool.driver.rules` table.
const RULE_INFO: &[(&str, &str)] = &[
    ("D001", "iteration over unordered HashMap/HashSet bindings"),
    ("D002", "wall-clock time (Instant/SystemTime)"),
    (
        "D003",
        "ambient randomness (thread_rng/from_entropy/rand::random)",
    ),
    ("D004", "OS concurrency in sim-logic crates"),
    ("P001", "unwaived panic paths in core crates"),
    ("H001", "crate root missing #![forbid(unsafe_code)]"),
    ("C001", "raw ordering/arithmetic on TCP sequence numbers"),
    ("A001", "frame-buffer copies in the zero-copy hot path"),
    ("R001", "discarded Result values in core crates"),
    ("N001", "unchecked narrowing casts in wire-format crates"),
    ("W001", "waiver missing its mandatory reason"),
    ("W002", "waiver names an unknown rule"),
    ("W003", "waiver that silences nothing"),
];

/// Render diagnostics as a SARIF 2.1.0 document (pretty-printed, stable).
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"jitsu-lint\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULE_INFO.iter().enumerate() {
        let comma = if i + 1 < RULE_INFO.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "            {{ \"id\": {}, \"shortDescription\": {{ \"text\": {} }} }}{comma}",
            json_str(id),
            json_str(desc)
        );
    }
    s.push_str("          ]\n        }\n      },\n");
    s.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let comma = if i + 1 < diags.len() { "," } else { "" };
        let level = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let _ = writeln!(s, "        {{");
        let _ = writeln!(s, "          \"ruleId\": {},", json_str(d.rule));
        let _ = writeln!(s, "          \"level\": {},", json_str(level));
        let _ = writeln!(
            s,
            "          \"message\": {{ \"text\": {} }},",
            json_str(&d.message)
        );
        let _ = writeln!(s, "          \"locations\": [");
        let _ = writeln!(s, "            {{");
        let _ = writeln!(s, "              \"physicalLocation\": {{");
        let _ = writeln!(
            s,
            "                \"artifactLocation\": {{ \"uri\": {} }},",
            json_str(&d.file)
        );
        let _ = writeln!(
            s,
            "                \"region\": {{ \"startLine\": {}, \"startColumn\": {} }}",
            d.line, d.col
        );
        let _ = writeln!(s, "              }}");
        let _ = writeln!(s, "            }}");
        let _ = writeln!(s, "          ]");
        let _ = writeln!(s, "        }}{comma}");
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    s
}

/// Encode a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON well-formedness check (syntax only, no schema): a single
/// value followed by nothing but whitespace.
pub fn json_is_well_formed(text: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    let mut p = JsonCheck { chars, i: 0 };
    p.skip_ws();
    if !p.value() {
        return false;
    }
    p.skip_ws();
    p.i == p.chars.len()
}

struct JsonCheck {
    chars: Vec<char>,
    i: usize,
}

impl JsonCheck {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> bool {
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string(),
            Some('t') => self.literal("true"),
            Some('f') => self.literal("false"),
            Some('n') => self.literal("null"),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => false,
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        for c in word.chars() {
            if !self.eat(c) {
                return false;
            }
        }
        true
    }

    fn object(&mut self) -> bool {
        self.eat('{');
        self.skip_ws();
        if self.eat('}') {
            return true;
        }
        loop {
            self.skip_ws();
            if !self.string() {
                return false;
            }
            self.skip_ws();
            if !self.eat(':') {
                return false;
            }
            self.skip_ws();
            if !self.value() {
                return false;
            }
            self.skip_ws();
            if self.eat(',') {
                continue;
            }
            return self.eat('}');
        }
    }

    fn array(&mut self) -> bool {
        self.eat('[');
        self.skip_ws();
        if self.eat(']') {
            return true;
        }
        loop {
            self.skip_ws();
            if !self.value() {
                return false;
            }
            self.skip_ws();
            if self.eat(',') {
                continue;
            }
            return self.eat(']');
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat('"') {
            return false;
        }
        loop {
            match self.peek() {
                None => return false,
                Some('"') => {
                    self.i += 1;
                    return true;
                }
                Some('\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => self.i += 1,
                        Some('u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return false,
                                }
                            }
                        }
                        _ => return false,
                    }
                }
                Some(c) if (c as u32) < 0x20 => return false,
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> bool {
        self.eat('-');
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
            digits += 1;
        }
        if digits == 0 {
            return false;
        }
        if self.eat('.') {
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                frac += 1;
            }
            if frac == 0 {
                return false;
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.i += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.i += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                exp += 1;
            }
            if exp == 0 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_run_is_well_formed_and_versioned() {
        let s = to_sarif(&[]);
        assert!(json_is_well_formed(&s), "invalid JSON:\n{s}");
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("sarif-2.1.0.json"));
        assert!(s.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn results_carry_rule_level_message_and_location() {
        let diags = vec![
            Diagnostic::error("crates/netstack/src/x.rs", 7, 13, "A001", "a \"copy\""),
            Diagnostic::warning("a.rs", 1, 1, "W003", "unused waiver"),
        ];
        let s = to_sarif(&diags);
        assert!(json_is_well_formed(&s), "invalid JSON:\n{s}");
        assert!(s.contains("\"ruleId\": \"A001\""));
        assert!(s.contains("\"level\": \"error\""));
        assert!(s.contains("\"level\": \"warning\""));
        assert!(s.contains("a \\\"copy\\\""));
        assert!(s.contains("\"startLine\": 7, \"startColumn\": 13"));
        assert!(s.contains("\"uri\": \"crates/netstack/src/x.rs\""));
    }

    #[test]
    fn every_rule_code_has_metadata() {
        let s = to_sarif(&[]);
        for rule in crate::config::RULES {
            assert!(
                s.contains(&format!("\"id\": \"{rule}\"")),
                "rule {rule} missing from SARIF metadata"
            );
        }
        for w in ["W001", "W002", "W003"] {
            assert!(s.contains(&format!("\"id\": \"{w}\"")));
        }
    }

    #[test]
    fn json_checker_accepts_and_rejects_correctly() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e10",
            "{\"a\": [1, 2, {\"b\": \"c\\n\"}], \"d\": true}",
            " \"\\u00e9\" ",
        ] {
            assert!(json_is_well_formed(good), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "01x",
            "1.",
            "nul",
        ] {
            assert!(!json_is_well_formed(bad), "{bad}");
        }
    }
}
