//! The full Linux VM baseline.
//!
//! "We do not plot the start time of a full Ubuntu Linux VM, since it took
//! over 5s with the default distribution image" (§4). This model composes
//! the pieces the rest of the reproduction already has — domain construction
//! from `xen-sim` and the Linux guest boot pipeline from `unikernel::boot` —
//! to produce that number with the same costs as the Jitsu path.

use jitsu_sim::SimDuration;
use platform::Board;
use unikernel::boot::BootPipeline;
use unikernel::image::{ImageKind, UnikernelImage};
use xen_sim::toolstack::{BootOptimisations, Toolstack, ToolstackError};
use xenstore::EngineKind;

/// The Linux VM cold-start baseline.
#[derive(Debug)]
pub struct LinuxVmBaseline {
    /// The Ubuntu image used.
    pub image: UnikernelImage,
    board: Board,
}

impl LinuxVmBaseline {
    /// Create the baseline for a board.
    pub fn new(board: Board) -> LinuxVmBaseline {
        LinuxVmBaseline {
            image: UnikernelImage::ubuntu("ubuntu-14.04"),
            board,
        }
    }

    /// Measure a cold start: vanilla toolstack domain construction plus the
    /// Linux boot pipeline plus service start inside the guest.
    pub fn cold_start(&self, seed: u64) -> Result<SimDuration, ToolstackError> {
        let mut toolstack = Toolstack::new(self.board.clone(), EngineKind::Merge, seed);
        let construction = toolstack
            .create_domain(self.image.domain_config(), BootOptimisations::vanilla())?
            .total;
        let boot = BootPipeline::for_image(ImageKind::LinuxVm, &self.board).total();
        // Starting the actual network service (systemd unit / initscript)
        // once userspace is up.
        let service_start = self.board.scale_cpu(SimDuration::from_micros(150_000));
        Ok(construction + boot + service_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    #[test]
    fn ubuntu_cold_start_exceeds_five_seconds_on_arm() {
        let baseline = LinuxVmBaseline::new(BoardKind::Cubieboard2.board());
        let t = baseline.cold_start(1).unwrap().as_secs_f64();
        assert!(t > 5.0, "paper: over 5 s, got {t:.2}");
        assert!(t < 12.0, "but not absurdly long: {t:.2}");
    }

    #[test]
    fn x86_linux_cold_start_is_much_faster_but_still_heavy() {
        let arm = LinuxVmBaseline::new(BoardKind::Cubieboard2.board());
        let x86 = LinuxVmBaseline::new(BoardKind::X86Server.board());
        let t_arm = arm.cold_start(1).unwrap();
        let t_x86 = x86.cold_start(1).unwrap();
        assert!(t_x86 < t_arm);
        assert!(t_x86 > SimDuration::from_millis(500));
    }
}
