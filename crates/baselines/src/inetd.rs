//! The `inetd` trigger path.
//!
//! Jitsu is described as "the Xen equivalent of the venerable inetd service
//! on Unix" (§3). The Docker baseline in Figure 9b is triggered the classic
//! way: `inetd` listens on the service port and forks a handler (here,
//! `docker run`) per incoming connection. This model accounts for the
//! super-server's accept/fork/exec overhead so baseline latencies include
//! the same trigger cost the paper measured.

use jitsu_sim::SimDuration;
use platform::{Board, CostModel};

/// The inetd super-server model.
#[derive(Debug, Clone, PartialEq)]
pub struct Inetd {
    costs: &'static CostModel,
    connections_handled: u64,
}

impl Inetd {
    /// The super-server on a board.
    pub fn for_board(board: &Board) -> Inetd {
        Inetd {
            costs: board.costs,
            connections_handled: 0,
        }
    }

    /// Handle one incoming connection, returning the trigger overhead that
    /// elapses before the handler process starts doing real work: accepting
    /// the connection, then fork+exec of the configured handler.
    pub fn trigger(&mut self) -> SimDuration {
        self.connections_handled += 1;
        self.costs.inetd_accept + self.costs.inetd_spawn
    }

    /// Number of connections handled so far.
    pub fn connections_handled(&self) -> u64 {
        self.connections_handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    #[test]
    fn trigger_overhead_is_milliseconds_on_arm() {
        let mut inetd = Inetd::for_board(&BoardKind::Cubieboard2.board());
        let t = inetd.trigger();
        assert!((10..30).contains(&t.as_millis()), "t={t}");
        assert_eq!(inetd.connections_handled(), 1);
        inetd.trigger();
        assert_eq!(inetd.connections_handled(), 2);
    }

    #[test]
    fn x86_trigger_is_faster() {
        let mut arm = Inetd::for_board(&BoardKind::Cubieboard2.board());
        let mut x86 = Inetd::for_board(&BoardKind::X86Server.board());
        assert!(x86.trigger() < arm.trigger());
    }

    #[test]
    fn trigger_is_negligible_compared_to_container_start() {
        // The inetd overhead is not what makes Figure 9b slow.
        let mut inetd = Inetd::for_board(&BoardKind::Cubieboard2.board());
        assert!(inetd.trigger() < SimDuration::from_millis(50));
    }
}
