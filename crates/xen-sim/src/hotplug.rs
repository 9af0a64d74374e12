//! The dom0 hotplug path for virtual network interfaces.
//!
//! Attaching a guest's `vif` requires dom0 to create the backend device and
//! add it to the software bridge. In stock Xen 4.4 this runs a *bash* hotplug
//! script per device — dozens of forks, `xenstore-read`/`xenstore-write`
//! helper invocations and a final `brctl addif`, which on the Cubieboard2
//! dominates domain creation time. §3.1 walks through the Jitsu
//! optimisations: switch the script to the lightweight `dash`, then eliminate
//! the shell entirely by performing the equivalent `ioctl()` calls in-process.
//!
//! Each variant's calibrated duration lives in the board's
//! [`CostModel`](platform::CostModel), so the Figure 4 harness reproduces
//! the 650 ms → 300 ms → 200 ms progression.

use jitsu_sim::{Distribution, SimDuration, SimRng};
use platform::Board;

/// How dom0 attaches a vif backend to the bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HotplugStyle {
    /// The stock `/etc/xen/scripts/vif-bridge` bash script.
    BashScript,
    /// The same script rewritten for the minimal `dash` shell.
    DashScript,
    /// No shell at all: the toolstack issues the bridge `ioctl()`s directly.
    InlineIoctl,
}

impl HotplugStyle {
    /// All styles in optimisation order.
    pub const ALL: [HotplugStyle; 3] = [
        HotplugStyle::BashScript,
        HotplugStyle::DashScript,
        HotplugStyle::InlineIoctl,
    ];

    /// Label used in Figure 4's legend.
    pub fn label(self) -> &'static str {
        match self {
            HotplugStyle::BashScript => "Xen 4.4.0 hotplug script (bash)",
            HotplugStyle::DashScript => "Replace hotplug script with minimal version",
            HotplugStyle::InlineIoctl => "Replace hotplug script with inline ioctl()",
        }
    }

    /// The duration distribution on a given board, reproducing §3.1:
    /// ≈450 ms for bash, ≈100 ms for dash and effectively free for inline
    /// ioctls on the Cubieboard2 (mild log-normal jitter: script execution
    /// time varies with SD-card cache state).
    pub fn duration_dist(self, board: &Board) -> Distribution {
        let costs = &board.costs;
        match self {
            HotplugStyle::BashScript => costs.hotplug_bash,
            HotplugStyle::DashScript => costs.hotplug_dash,
            HotplugStyle::InlineIoctl => costs.hotplug_ioctl,
        }
    }

    /// Draw one attachment duration.
    pub fn sample_duration(self, board: &Board, rng: &mut SimRng) -> SimDuration {
        self.duration_dist(board).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    #[test]
    fn arm_durations_match_paper_progression() {
        let board = BoardKind::Cubieboard2.board();
        let bash = HotplugStyle::BashScript.duration_dist(&board).mean();
        let dash = HotplugStyle::DashScript.duration_dist(&board).mean();
        let ioctl = HotplugStyle::InlineIoctl.duration_dist(&board).mean();
        // §3.1: bash ≈ 450 ms worth of hotplug work, dash ≈ 100 ms, ioctl ≈ free.
        assert!((400..500).contains(&bash.as_millis()), "bash={bash}");
        assert!((80..130).contains(&dash.as_millis()), "dash={dash}");
        assert!(ioctl.as_millis() < 10, "ioctl={ioctl}");
        assert!(bash > dash && dash > ioctl);
    }

    #[test]
    fn x86_is_roughly_six_times_faster() {
        let arm = BoardKind::Cubieboard2.board();
        let x86 = BoardKind::X86Server.board();
        for style in HotplugStyle::ALL {
            let a = style.duration_dist(&arm).mean().as_secs_f64();
            let x = style.duration_dist(&x86).mean().as_secs_f64();
            assert!((a / x - 6.0).abs() < 0.01, "{style:?}");
        }
    }

    #[test]
    fn sampled_durations_are_near_the_mean() {
        let board = BoardKind::Cubieboard2.board();
        let mut rng = SimRng::seed_from_u64(7);
        let mean = HotplugStyle::BashScript
            .duration_dist(&board)
            .mean()
            .as_millis_f64();
        for _ in 0..100 {
            let d = HotplugStyle::BashScript
                .sample_duration(&board, &mut rng)
                .as_millis_f64();
            assert!((d - mean).abs() / mean < 0.5, "d={d} mean={mean}");
        }
    }

    #[test]
    fn labels_are_figure4_legend_entries() {
        assert!(HotplugStyle::DashScript.label().contains("minimal"));
        assert!(HotplugStyle::InlineIoctl.label().contains("ioctl"));
        assert_eq!(HotplugStyle::ALL.len(), 3);
    }
}
