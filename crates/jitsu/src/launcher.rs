//! Summoning and retiring unikernels.
//!
//! The launcher drives the `xen-sim` toolstack with the configured
//! [`BootOptimisations`](xen_sim::toolstack::BootOptimisations), then
//! composes the domain-construction report with the guest boot pipeline to
//! produce the timeline Jitsu needs: when the VM exists, when its network
//! stack is attached (the moment Synjitsu can hand connections over), and
//! when the application is ready.

use crate::config::ServiceConfig;
use jitsu_sim::{SimDuration, SimTime};
use unikernel::appliance::{Appliance, StaticSiteAppliance};
use unikernel::instance::UnikernelInstance;
use xen_sim::domain_builder::BuildError;
use xen_sim::toolstack::{CreateReport, Toolstack, ToolstackError};
use xenstore::DomId;

/// The timeline of one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchOutcome {
    /// The domain created.
    pub dom: DomId,
    /// The service name.
    pub name: String,
    /// When the launch started.
    pub started_at: SimTime,
    /// Domain construction (toolstack) report.
    pub construction: CreateReport,
    /// Guest boot time up to the network stack being attached.
    pub network_ready_after: SimDuration,
    /// Guest boot time up to the application serving requests.
    pub app_ready_after: SimDuration,
}

impl LaunchOutcome {
    /// Absolute time at which the unikernel's network stack is attached and
    /// the Synjitsu handoff can begin.
    pub fn network_ready_at(&self) -> SimTime {
        self.started_at + self.construction.total + self.network_ready_after
    }

    /// Absolute time at which the application can serve new requests.
    pub fn app_ready_at(&self) -> SimTime {
        self.started_at + self.construction.total + self.app_ready_after
    }

    /// Total cold-boot latency (construction + guest boot to app ready).
    pub fn cold_boot(&self) -> SimDuration {
        self.construction.total + self.app_ready_after
    }
}

/// Why a launch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The host is out of memory (reported to DNS clients as `SERVFAIL`).
    OutOfResources,
    /// A toolstack error.
    Toolstack(String),
}

/// The launcher: wraps a [`Toolstack`] and its boot options. It keeps no
/// record of past launches — the caller owns the [`LaunchOutcome`] — so a
/// board's ten-thousandth summon finds it the size of its first.
pub struct Launcher {
    /// The underlying toolstack (public so the daemon can reach the store,
    /// bridge and grant/event-channel tables).
    pub toolstack: Toolstack,
    boot_opts: xen_sim::toolstack::BootOptimisations,
}

impl Launcher {
    /// Create a launcher over an existing toolstack.
    pub fn new(toolstack: Toolstack, boot_opts: xen_sim::toolstack::BootOptimisations) -> Launcher {
        Launcher {
            toolstack,
            boot_opts,
        }
    }

    /// Free guest memory on the board, in MiB. The concurrent engine
    /// subtracts its own not-yet-built reservations from this when deciding
    /// admission.
    pub fn free_mib(&self) -> u32 {
        self.toolstack.free_mib()
    }

    /// Time to tear down a retired domain (the `Draining` window of the
    /// lifecycle state machine).
    pub fn teardown_time(&self) -> jitsu_sim::SimDuration {
        self.toolstack.teardown_time()
    }

    /// Summon a unikernel for a service at virtual time `now`. Returns the
    /// launch timeline and a runnable [`UnikernelInstance`] (with a static
    /// site appliance by default; callers may construct their own instance
    /// for other appliances).
    pub fn summon(
        &mut self,
        service: &ServiceConfig,
        now: SimTime,
        seed: u64,
    ) -> Result<(LaunchOutcome, UnikernelInstance), LaunchError> {
        let report = self
            .toolstack
            .create_domain(service.image.domain_config(), self.boot_opts)
            .map_err(|e| match e {
                ToolstackError::Build(BuildError::OutOfMemory { .. }) => {
                    LaunchError::OutOfResources
                }
                other => LaunchError::Toolstack(format!("{other:?}")),
            })?;
        self.toolstack
            .unpause(report.dom)
            .map_err(|e| LaunchError::Toolstack(format!("{e:?}")))?;

        let appliance: Box<dyn Appliance + Send> =
            Box::new(StaticSiteAppliance::new(service.name.clone()));
        let instance = UnikernelInstance::new(
            service.image.clone(),
            service.mac(),
            service.ip,
            service.port,
            appliance,
            seed,
        );
        let pipeline = instance.boot_pipeline(self.toolstack.board());
        let outcome = LaunchOutcome {
            dom: report.dom,
            name: service.name.clone(),
            started_at: now,
            construction: report,
            network_ready_after: pipeline.time_to_network_ready(),
            app_ready_after: pipeline.total(),
        };
        Ok((outcome, instance))
    }

    /// Retire (destroy) a previously summoned unikernel.
    pub fn retire(&mut self, dom: DomId) -> Result<(), LaunchError> {
        self.toolstack
            .destroy(dom)
            .map_err(|e| LaunchError::Toolstack(format!("{e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use netstack::ipv4::Ipv4Addr;
    use platform::BoardKind;
    use xen_sim::toolstack::BootOptimisations;
    use xenstore::EngineKind;

    fn launcher(opts: BootOptimisations) -> Launcher {
        let ts = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 7);
        Launcher::new(ts, opts)
    }

    fn alice() -> ServiceConfig {
        ServiceConfig::http_site("alice.family.name", Ipv4Addr::new(192, 168, 1, 20))
    }

    #[test]
    fn optimised_cold_boot_is_around_350ms_on_arm() {
        let mut l = launcher(BootOptimisations::jitsu());
        let (outcome, instance) = l.summon(&alice(), SimTime::ZERO, 1).unwrap();
        let ms = outcome.cold_boot().as_millis();
        assert!((280..400).contains(&ms), "cold boot = {ms} ms");
        assert!(outcome.network_ready_at() < outcome.app_ready_at());
        assert_eq!(instance.name(), "alice.family.name");
    }

    #[test]
    fn vanilla_cold_boot_is_much_slower() {
        let mut v = launcher(BootOptimisations::vanilla());
        let mut o = launcher(BootOptimisations::jitsu());
        let (vanilla, _) = v.summon(&alice(), SimTime::ZERO, 1).unwrap();
        let (optimised, _) = o.summon(&alice(), SimTime::ZERO, 1).unwrap();
        assert!(vanilla.cold_boot() > optimised.cold_boot() + SimDuration::from_millis(300));
    }

    #[test]
    fn resource_exhaustion_is_reported() {
        let mut l = launcher(BootOptimisations::jitsu());
        let mut big = alice();
        big.image.memory_mib = 4096; // more than the board has
        assert_eq!(
            l.summon(&big, SimTime::ZERO, 1).unwrap_err(),
            LaunchError::OutOfResources
        );
    }

    #[test]
    fn retire_frees_capacity_for_the_next_summon() {
        let mut l = launcher(BootOptimisations::jitsu());
        let before = l.toolstack.free_mib();
        let (outcome, _) = l.summon(&alice(), SimTime::ZERO, 1).unwrap();
        assert!(l.toolstack.free_mib() < before);
        l.retire(outcome.dom).unwrap();
        assert_eq!(l.toolstack.free_mib(), before);
        // Retiring twice is an error.
        assert!(l.retire(outcome.dom).is_err());
    }

    #[test]
    fn timeline_accessors_are_consistent() {
        let mut l = launcher(BootOptimisations::jitsu());
        let start = SimTime::from_millis(500);
        let (outcome, _) = l.summon(&alice(), start, 1).unwrap();
        assert_eq!(
            outcome.app_ready_at(),
            start + outcome.construction.total + outcome.app_ready_after
        );
        assert!(outcome.network_ready_after <= outcome.app_ready_after);
        assert_eq!(outcome.started_at, start);
    }
}
