//! Battery runtime model.
//!
//! §4 of the paper: "We also powered a Cubieboard with a USB battery unit
//! that ran for 9 hours while logging the date every minute." This module
//! models a USB power bank discharging into a board so the benchmark harness
//! can recompute the expected runtime for the observed idle-ish workload.

use crate::board::BoardKind;
use crate::power::{PowerComponent, PowerModel, PowerState};

/// A USB battery pack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Capacity in watt-hours.
    pub capacity_wh: f64,
    /// Conversion efficiency of the 5 V boost regulator (0–1).
    pub efficiency: f64,
}

impl Battery {
    /// A typical 10,000 mAh (3.7 V ≈ 37 Wh) power bank like the one used in
    /// the paper's experiment.
    pub fn typical_power_bank() -> Battery {
        Battery {
            capacity_wh: 37.0,
            efficiency: 0.85,
        }
    }

    /// A battery with an explicit capacity and efficiency.
    pub fn new(capacity_wh: f64, efficiency: f64) -> Battery {
        Battery {
            capacity_wh: capacity_wh.max(0.0),
            efficiency: efficiency.clamp(0.0, 1.0),
        }
    }

    /// Usable energy after conversion losses, in watt-hours.
    pub fn usable_wh(&self) -> f64 {
        self.capacity_wh * self.efficiency
    }

    /// Runtime in hours for a mixed duty cycle: `busy_fraction` of time
    /// spinning, the rest idle.
    pub fn runtime_hours_duty_cycle(
        &self,
        board: BoardKind,
        components: &[PowerComponent],
        busy_fraction: f64,
    ) -> f64 {
        let busy = busy_fraction.clamp(0.0, 1.0);
        let model = PowerModel::for_board(board);
        let avg = model.watts(PowerState::Spinning, components) * busy
            + model.watts(PowerState::Idle, components) * (1.0 - busy);
        if avg <= 0.0 {
            return f64::INFINITY;
        }
        self.usable_wh() / avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_battery_experiment_is_plausible() {
        // A Cubieboard2 with Ethernet, mostly idle (logging the date once a
        // minute), on a typical power bank ran for 9 hours in the paper.
        let b = Battery::typical_power_bank();
        let hours =
            b.runtime_hours_duty_cycle(BoardKind::Cubieboard2, &[PowerComponent::Ethernet], 0.05);
        assert!((7.0..16.0).contains(&hours), "hours={hours}");
        // Reported observation was 9h — our model must be the same order and
        // not wildly optimistic.
        assert!(hours > 9.0 * 0.7);
    }

    #[test]
    fn heavier_load_shortens_runtime() {
        let b = Battery::typical_power_bank();
        let idle = b.runtime_hours_duty_cycle(BoardKind::Cubieboard2, &[], 0.0);
        let busy = b.runtime_hours_duty_cycle(BoardKind::Cubieboard2, &[], 1.0);
        assert!(idle > busy);
        let with_ssd =
            b.runtime_hours_duty_cycle(BoardKind::Cubieboard2, &[PowerComponent::Ssd], 0.0);
        assert!(idle > with_ssd);
    }

    #[test]
    fn nuc_runtime_is_much_shorter() {
        let b = Battery::typical_power_bank();
        let arm = b.runtime_hours_duty_cycle(BoardKind::Cubieboard2, &[], 0.0);
        let nuc = b.runtime_hours_duty_cycle(BoardKind::IntelNuc, &[], 0.0);
        assert!(arm > 3.0 * nuc);
    }

    #[test]
    fn constructors_clamp_inputs() {
        let b = Battery::new(-5.0, 2.0);
        assert_eq!(b.capacity_wh, 0.0);
        assert_eq!(b.efficiency, 1.0);
        assert_eq!(b.usable_wh(), 0.0);
        let b2 = Battery::new(10.0, 0.5);
        assert!((b2.usable_wh() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_bounds() {
        let b = Battery::typical_power_bank();
        let all_idle = b.runtime_hours_duty_cycle(BoardKind::Cubieboard2, &[], 0.0);
        let all_busy = b.runtime_hours_duty_cycle(BoardKind::Cubieboard2, &[], 1.0);
        let model = PowerModel::for_board(BoardKind::Cubieboard2);
        let idle = b.usable_wh() / model.watts(PowerState::Idle, &[]);
        let busy = b.usable_wh() / model.watts(PowerState::Spinning, &[]);
        assert!((all_idle - idle).abs() < 1e-9);
        assert!((all_busy - busy).abs() < 1e-9);
    }
}
