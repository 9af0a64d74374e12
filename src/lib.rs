//! # jitsu-repro — a reproduction of *Jitsu: Just-In-Time Summoning of Unikernels* (NSDI 2015)
//!
//! This facade crate re-exports the workspace's public API so examples,
//! integration tests and downstream users have a single dependency. The
//! pieces:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`sim`] | virtual time, deterministic RNG, metrics, report rendering |
//! | [`xenstore`] | the transactional store with the three reconciliation engines (Figure 3) |
//! | [`xen`] | the simulated hypervisor substrate: domains, grants, event channels, devices, toolstack (Figure 4) |
//! | [`conduit`] | vchan shared-memory channels and named rendezvous (§3.2) |
//! | [`netstack`] | the memory-safe Ethernet/ARP/IPv4/ICMP/UDP/TCP/DNS/HTTP stack |
//! | [`unikernel`] | MirageOS-style images, boot pipelines and appliances |
//! | [`platform`] | boards, storage, power and battery models (Table 1) |
//! | [`baselines`] | Docker, inetd and Linux-VM baselines (Figure 9b) |
//! | [`security`] | the CVE dataset and Jitsu-impact classification (Table 2) |
//! | [`jitsu`] | jitsud, which decides each DNS query from its service's lifecycle record (Figures 6 and 9a), the launcher, Synjitsu, and the stand-alone directory service |
//!
//! ## Quickstart
//!
//! ```
//! use jitsu_repro::prelude::*;
//!
//! // One ARM board, one personal web site, summoned on first request.
//! let config = JitsuConfig::new("family.name")
//!     .with_service(ServiceConfig::http_site("alice.family.name", Ipv4Addr::new(192, 168, 1, 20)));
//! let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 42);
//! ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "alice.family.name");
//! sim.run();
//! let m = sim.world().metrics();
//! // Synjitsu held the connection while the unikernel booted, and the
//! // response reached the client byte-exact.
//! assert_eq!((m.cold_served, m.handoff.completed), (1, 1));
//! assert!(m.ttfb.p50_ms() < 450.0);
//! ```

#![forbid(unsafe_code)]

pub use baselines;
pub use conduit;
pub use jitsu;
pub use jitsu_sim as sim;
pub use netstack;
pub use platform;
pub use security;
pub use unikernel;
pub use xen_sim as xen;
pub use xenstore;

/// The types most programs need, in one import.
pub mod prelude {
    pub use crate::jitsu::concurrent::{
        ConcurrentJitsud, HandoffStats, JitsuEvent, LifecyclePhase, StormMetrics, StormSim,
    };
    pub use crate::jitsu::config::{JitsuConfig, ServiceConfig};
    pub use crate::jitsu::handoff::HandoffPhase;
    pub use crate::jitsu::launcher::Launcher;
    pub use crate::jitsu::synjitsu::Synjitsu;
    pub use crate::netstack::dns::DnsMessage;
    pub use crate::netstack::http::{HttpRequest, HttpResponse};
    pub use crate::netstack::ipv4::Ipv4Addr;
    pub use crate::netstack::MacAddr;
    pub use crate::platform::{
        Board, BoardKind, PowerComponent, PowerModel, PowerState, StorageKind,
    };
    pub use crate::sim::{
        Domain, DomainCtx, DomainId, Scheduler, ShardedSim, Sim, SimDuration, SimRng, SimTime,
    };
    pub use crate::unikernel::appliance::{QueueAppliance, StaticSiteAppliance};
    pub use crate::unikernel::image::UnikernelImage;
    pub use crate::xen::toolstack::{BootOptimisations, Toolstack};
    pub use crate::xenstore::{DomId, EngineKind, XenStore};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let board = BoardKind::Cubieboard2.board();
        assert_eq!(board.ram_mib, 1024);
        let xs = XenStore::new(EngineKind::JitsuMerge);
        assert_eq!(xs.engine_kind(), EngineKind::JitsuMerge);
        let img = UnikernelImage::mirage("smoke");
        assert_eq!(img.memory_mib, 16);
    }
}
