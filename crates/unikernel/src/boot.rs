//! The guest-side boot pipeline.
//!
//! After the toolstack finishes *constructing* a domain (Figure 4), the
//! guest still has to boot before it can serve traffic. §2.3 walks through
//! the MirageOS/ARM sequence: assembler boot tasks (MMU, caches, exception
//! vectors, stack), the early C `arch_init` (console, interrupt
//! controllers), binding interrupt handlers / memory allocators /
//! timekeeping / grant tables into the language runtime, then jumping into
//! OCaml where the memory-safe libraries attach netfront and start the
//! application. The stage costs in the board's
//! [`CostModel`](platform::CostModel) put an optimised cold start
//! (construction + boot + first response) at roughly 300–350 ms on the
//! Cubieboard2 and 20–30 ms on x86, matching §3.3/§6.

use jitsu_sim::SimDuration;
use platform::Board;

/// One stage of guest boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootStage {
    /// Assembler boot tasks: MMU configuration, caches and branch
    /// prediction, the exception vector table and the stack pointer (§2.3).
    AssemblerSetup,
    /// Early C code: virtual logging console and interrupt controllers.
    EarlyCInit,
    /// Binding interrupt handlers, memory allocators, timekeeping and grant
    /// tables into the language runtime.
    RuntimeBind,
    /// Starting the OCaml runtime and growing the managed heap.
    LanguageRuntime,
    /// Attaching the PV network frontend and bringing up the TCP/IP stack.
    NetfrontAttach,
    /// Application initialisation (reading configuration, binding sockets).
    ApplicationStart,
}

impl BootStage {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BootStage::AssemblerSetup => "assembler setup (MMU, caches, vectors, stack)",
            BootStage::EarlyCInit => "early C init (console, interrupt controllers)",
            BootStage::RuntimeBind => "runtime bind (allocator, timekeeping, grant tables)",
            BootStage::LanguageRuntime => "language runtime start",
            BootStage::NetfrontAttach => "netfront attach + TCP/IP up",
            BootStage::ApplicationStart => "application start",
        }
    }
}

/// A boot pipeline: ordered stages with calibrated durations for a board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootPipeline {
    stages: Vec<(BootStage, SimDuration)>,
}

impl BootPipeline {
    /// The pipeline of a MirageOS unikernel on a board.
    pub fn new(board: &Board) -> BootPipeline {
        let costs = &board.costs;
        let stages = vec![
            (BootStage::AssemblerSetup, costs.boot_assembler),
            (BootStage::EarlyCInit, costs.boot_early_c),
            (BootStage::RuntimeBind, costs.boot_runtime_bind),
            (BootStage::LanguageRuntime, costs.boot_language_runtime),
            (BootStage::NetfrontAttach, costs.boot_netfront),
            (BootStage::ApplicationStart, costs.boot_application),
        ];
        BootPipeline { stages }
    }

    /// The ordered stages with their durations.
    pub fn stages(&self) -> &[(BootStage, SimDuration)] {
        &self.stages
    }

    /// Total guest boot time (excluding domain construction).
    pub fn total(&self) -> SimDuration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }

    /// Time from the start of boot until the network frontend is attached —
    /// the moment the unikernel can signal Synjitsu that it is ready to take
    /// over its proxied connections.
    pub fn time_to_network_ready(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for (stage, d) in &self.stages {
            total += *d;
            if *stage == BootStage::NetfrontAttach {
                return total;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    #[test]
    fn mirage_arm_boot_is_a_few_hundred_ms() {
        let board = BoardKind::Cubieboard2.board();
        let p = BootPipeline::new(&board);
        let total = p.total();
        // §3.3: unikernel boot takes ~350 ms on ARM including construction;
        // the guest-side portion here is the remainder after the ~120 ms
        // optimised construction.
        assert!((150..260).contains(&total.as_millis()), "total={total}");
        assert!(p.time_to_network_ready() <= total);
        assert!(p.time_to_network_ready() > total - SimDuration::from_millis(50));
        assert_eq!(p.stages().len(), 6);
    }

    #[test]
    fn mirage_x86_boot_is_about_ten_ms() {
        let board = BoardKind::X86Server.board();
        let p = BootPipeline::new(&board);
        assert!(
            (20..40).contains(&p.total().as_millis()),
            "total={}",
            p.total()
        );
    }

    #[test]
    fn cold_start_budget_matches_paper() {
        // Optimised construction (~120 ms, from xen-sim) plus guest boot
        // must land in the 300–350 ms cold-start envelope of §3.3/§6.
        let board = BoardKind::Cubieboard2.board();
        let construction = SimDuration::from_millis(120);
        let boot = BootPipeline::new(&board).total();
        let cold_start = construction + boot;
        assert!(
            (280..380).contains(&cold_start.as_millis()),
            "cold start {cold_start}"
        );
    }

    #[test]
    fn stage_labels_are_descriptive() {
        for (stage, _) in BootPipeline::new(&BoardKind::X86Server.board()).stages() {
            assert!(!stage.label().is_empty());
        }
        assert!(BootStage::AssemblerSetup.label().contains("MMU"));
        assert!(BootStage::RuntimeBind.label().contains("grant tables"));
    }

    #[test]
    fn network_ready_before_application_start_for_mirage() {
        let board = BoardKind::Cubieboard2.board();
        let p = BootPipeline::new(&board);
        let app_total = p.total();
        let net_ready = p.time_to_network_ready();
        assert!(net_ready < app_total);
    }
}
