//! Evaluation boards and their CPU/memory/NIC characteristics.

use crate::cost::CostModel;
use jitsu_sim::SimDuration;

/// The specific hardware platforms used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoardKind {
    /// Cubieboard2: dual-core Allwinner A20, 1 GB RAM, 100 Mb Ethernet, £39.
    Cubieboard2,
    /// Cubietruck: same CPU, 2 GB RAM, 1 Gb Ethernet.
    Cubietruck,
    /// The 2.4 GHz quad-core AMD x86-64 server used for the x86 boot-time
    /// comparison (§3.1).
    X86Server,
    /// Intel Haswell NUC (D54250WYK), the x86 power comparison point in
    /// Table 1.
    IntelNuc,
}

impl BoardKind {
    /// All boards, in the order they appear in the paper.
    pub const ALL: [BoardKind; 4] = [
        BoardKind::Cubieboard2,
        BoardKind::Cubietruck,
        BoardKind::X86Server,
        BoardKind::IntelNuc,
    ];

    /// Construct the full board description.
    pub const fn board(self) -> Board {
        Board::new(self)
    }
}

/// A hardware platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    /// Which platform this is.
    pub kind: BoardKind,
    /// Marketing name used in tables.
    pub name: &'static str,
    /// Number of physical CPU cores.
    pub cores: u32,
    /// RAM in MiB.
    pub ram_mib: u32,
    /// NIC line rate in Mb/s.
    pub nic_mbps: u32,
    /// Every calibrated virtual-time cost on this board.
    pub costs: &'static CostModel,
}

impl Board {
    /// Describe a board. Its CPU speed relative to the x86 server scales
    /// the CPU-bound costs: the paper reports the most-optimised domain
    /// build at 120 ms on ARM versus 20 ms on x86, a factor of six.
    pub const fn new(kind: BoardKind) -> Board {
        // One model per CPU speed, built at compile time.
        const ARM: CostModel = CostModel::new(6.0);
        const X86: CostModel = CostModel::new(1.0);
        const NUC: CostModel = CostModel::new(1.2);
        let (name, cores, ram_mib, nic_mbps, costs) = match kind {
            BoardKind::Cubieboard2 => ("Cubieboard2", 2, 1024, 100, &ARM),
            BoardKind::Cubietruck => ("Cubietruck", 2, 2048, 1000, &ARM),
            BoardKind::X86Server => {
                let name = "x86-64 server (2.4GHz quad-core AMD)";
                (name, 4, 16 * 1024, 1000, &X86)
            }
            BoardKind::IntelNuc => ("Intel Haswell NUC", 4, 8 * 1024, 1000, &NUC),
        };
        Board {
            kind,
            name,
            cores,
            ram_mib,
            nic_mbps,
            costs,
        }
    }

    /// Time to transmit `bytes` at the NIC line rate (excluding protocol
    /// overheads).
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        let bits = bytes as f64 * 8.0;
        let seconds = bits / (self.nic_mbps as f64 * 1e6);
        SimDuration::from_secs_f64(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_catalogue_matches_paper() {
        let cb2 = BoardKind::Cubieboard2.board();
        assert_eq!(cb2.ram_mib, 1024);
        assert_eq!(cb2.nic_mbps, 100);
        assert_eq!(cb2.cores, 2);

        let ct = BoardKind::Cubietruck.board();
        assert_eq!(ct.ram_mib, 2048);
        assert_eq!(ct.nic_mbps, 1000);

        assert_eq!(BoardKind::ALL.len(), 4);
    }

    #[test]
    fn arm_is_about_six_times_slower() {
        // §3.1: 20 ms most-optimised build on x86 vs 120 ms on ARM.
        let arm = BoardKind::Cubieboard2.board().costs;
        let x86 = BoardKind::X86Server.board().costs;
        assert_eq!(x86.domain_descriptor.as_millis(), 1);
        assert_eq!(arm.domain_descriptor, x86.domain_descriptor * 6);
        assert_eq!(arm.boot_language_runtime, x86.boot_language_runtime * 6);
    }

    #[test]
    fn wire_time_scales_with_nic_speed() {
        let cb2 = BoardKind::Cubieboard2.board(); // 100 Mb/s
        let ct = BoardKind::Cubietruck.board(); // 1 Gb/s
        let t_cb2 = cb2.wire_time(1500);
        let t_ct = ct.wire_time(1500);
        assert!(t_cb2 > t_ct);
        // 1500 bytes at 100 Mb/s = 120 us.
        assert_eq!(t_cb2.as_micros(), 120);
        assert_eq!(ct.wire_time(0), SimDuration::ZERO);
    }
}
