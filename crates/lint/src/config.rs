//! Analyzer configuration: which crates each rule applies to.
//!
//! The defaults encode this workspace's layout. Rules look crates up by the
//! *directory* name under `crates/` (so `xen-sim`, not `xen_sim`).

/// Every rule code the waiver grammar accepts.
pub const RULES: &[&str] = &[
    "D001", "D002", "D003", "D004", "P001", "H001", "C001", "A001", "R001", "N001",
];

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose logic runs inside the discrete-event simulation: real
    /// OS concurrency (D004) is forbidden there because interleavings would
    /// not be controlled by the virtual clock.
    pub sim_logic_crates: Vec<String>,
    /// Crates where the panic policy (P001), sequence-arithmetic policy
    /// (C001) and discarded-Result policy (R001) apply to non-test code.
    pub core_crates: Vec<String>,
    /// Crates on the zero-copy frame hot path, where buffer copies (A001)
    /// are errors.
    pub frame_path_crates: Vec<String>,
    /// Crates encoding wire formats, where narrowing casts (N001) must be
    /// checked or waived.
    pub cast_crates: Vec<String>,
    /// Directory names that are never analyzed (build output, intentional
    /// rule-violation fixtures).
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let sim_logic = [
            "sim",
            "xen-sim",
            "netstack",
            "conduit",
            "jitsu",
            "unikernel",
            "xenstore",
        ];
        Config {
            sim_logic_crates: sim_logic.iter().map(|s| s.to_string()).collect(),
            core_crates: sim_logic.iter().map(|s| s.to_string()).collect(),
            frame_path_crates: vec![
                "netstack".to_string(),
                "conduit".to_string(),
                "unikernel".to_string(),
                "jitsu".to_string(),
            ],
            cast_crates: vec![
                "netstack".to_string(),
                "xenstore".to_string(),
                "conduit".to_string(),
            ],
            skip_dirs: vec!["target".to_string(), "fixtures".to_string()],
        }
    }
}

impl Config {
    pub fn is_sim_logic(&self, crate_name: &str) -> bool {
        self.sim_logic_crates.iter().any(|c| c == crate_name)
    }

    pub fn is_core(&self, crate_name: &str) -> bool {
        self.core_crates.iter().any(|c| c == crate_name)
    }

    pub fn is_frame_path(&self, crate_name: &str) -> bool {
        self.frame_path_crates.iter().any(|c| c == crate_name)
    }

    pub fn is_cast_checked(&self, crate_name: &str) -> bool {
        self.cast_crates.iter().any(|c| c == crate_name)
    }

    pub fn is_known_rule(rule: &str) -> bool {
        RULES.contains(&rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_sim_facing_crates() {
        let cfg = Config::default();
        for c in ["sim", "xen-sim", "xenstore", "jitsu"] {
            assert!(cfg.is_sim_logic(c), "{c} should be sim-logic");
            assert!(cfg.is_core(c), "{c} should be core");
        }
        assert!(!cfg.is_sim_logic("bench"));
        assert!(!cfg.is_core("lint"));
    }

    #[test]
    fn frame_path_and_cast_scopes_are_narrower_than_core() {
        let cfg = Config::default();
        for c in ["netstack", "conduit", "unikernel", "jitsu"] {
            assert!(cfg.is_frame_path(c), "{c} is on the frame path");
        }
        assert!(!cfg.is_frame_path("xenstore"));
        for c in ["netstack", "xenstore", "conduit"] {
            assert!(cfg.is_cast_checked(c), "{c} encodes wire formats");
        }
        assert!(!cfg.is_cast_checked("sim"));
        assert!(!cfg.is_cast_checked("lint"));
    }

    #[test]
    fn rule_codes_are_known() {
        for r in [
            "D001", "D002", "D003", "D004", "P001", "H001", "C001", "A001", "R001", "N001",
        ] {
            assert!(Config::is_known_rule(r));
        }
        assert!(!Config::is_known_rule("D999"));
    }
}
