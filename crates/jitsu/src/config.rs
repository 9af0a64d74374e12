//! Service configuration.
//!
//! "In our current implementation, the Jitsu services are statically
//! configured via OCaml code to map their unikernel with an IP address,
//! protocol and port" (§3.3.2). The Rust equivalent: a [`ServiceConfig`] per
//! service and a [`JitsuConfig`] for the host (DNS zone, TTL, boot
//! optimisations, idle policy).

use jitsu_sim::SimDuration;
use netstack::ipv4::Ipv4Addr;
use netstack::MacAddr;
use unikernel::image::UnikernelImage;
use xen_sim::toolstack::BootOptimisations;
use xenstore::EngineKind;

/// One service Jitsu is responsible for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Fully-qualified DNS name, e.g. `alice.family.name`.
    pub name: String,
    /// The unikernel image to summon.
    pub image: UnikernelImage,
    /// The external IP assigned on the bridge.
    pub ip: Ipv4Addr,
    /// Listening port.
    pub port: u16,
}

impl ServiceConfig {
    /// A typical HTTP site service.
    pub fn http_site(name: &str, ip: Ipv4Addr) -> ServiceConfig {
        ServiceConfig {
            name: name.to_string(),
            image: UnikernelImage::mirage(name),
            ip,
            port: 80,
        }
    }

    /// The deterministic MAC address the service's vif will use (derived
    /// from its IP so Synjitsu can answer ARP for it before the unikernel
    /// exists).
    pub fn mac(&self) -> MacAddr {
        MacAddr([0x06, 0x16, 0x3e, self.ip.0[1], self.ip.0[2], self.ip.0[3]])
    }
}

/// Host-wide Jitsu configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JitsuConfig {
    /// The DNS zone this host is authoritative for (e.g. `family.name`).
    pub zone: String,
    /// TTL handed out in DNS answers.
    pub dns_ttl: u32,
    /// Toolstack optimisations to use when summoning.
    pub boot: BootOptimisations,
    /// XenStore transaction engine.
    pub engine: EngineKind,
    /// Whether Synjitsu connection proxying is enabled.
    pub use_synjitsu: bool,
    /// Retire a unikernel after this much idle time (none = never).
    pub idle_timeout: Option<SimDuration>,
    /// How many domain constructions the concurrent engine may run at once
    /// (the launch-slot semaphore capacity; domain building is dom0-CPU
    /// bound, so this defaults to the dom0 core count of the boards used in
    /// the paper).
    pub launch_slots: u32,
    /// Park memory-exhausted (`SERVFAIL`) queries for fail-over to a peer
    /// board (§3.3.2: "resource exhaustion is reported as `SERVFAIL` so
    /// clients fail over to another board"). Only meaningful when the world
    /// runs as a fleet domain (`jitsu::fleet`); a single standalone board
    /// leaves this off so its behaviour is bit-identical to earlier PRs.
    pub failover: bool,
    /// The services this host manages.
    pub services: Vec<ServiceConfig>,
}

impl JitsuConfig {
    /// The default configuration: fully optimised toolstack, Jitsu XenStore
    /// engine, Synjitsu enabled, 2-minute idle timeout.
    pub fn new(zone: &str) -> JitsuConfig {
        JitsuConfig {
            zone: zone.trim_matches('.').to_string(),
            dns_ttl: 30,
            boot: BootOptimisations::jitsu(),
            engine: EngineKind::JitsuMerge,
            use_synjitsu: true,
            idle_timeout: Some(SimDuration::from_secs(120)),
            launch_slots: 2,
            failover: false,
            services: Vec::new(),
        }
    }

    /// Enable cross-board fail-over of `SERVFAIL`ed queries (fleet runs).
    pub fn with_failover(mut self) -> JitsuConfig {
        self.failover = true;
        self
    }

    /// Add a service (builder style).
    pub fn with_service(mut self, service: ServiceConfig) -> JitsuConfig {
        self.services.push(service);
        self
    }

    /// Disable Synjitsu (the "cold start, no synjitsu" line of Figure 9a).
    pub fn without_synjitsu(mut self) -> JitsuConfig {
        self.use_synjitsu = false;
        self
    }

    /// Use the vanilla (unoptimised) toolstack.
    pub fn with_vanilla_toolstack(mut self) -> JitsuConfig {
        self.boot = BootOptimisations::vanilla();
        self.engine = EngineKind::Serial;
        self
    }

    /// Set the launch-slot semaphore capacity (clamped to at least one).
    pub fn with_launch_slots(mut self, slots: u32) -> JitsuConfig {
        self.launch_slots = slots.max(1);
        self
    }

    /// Set the idle-retirement TTL.
    pub fn with_idle_timeout(mut self, timeout: SimDuration) -> JitsuConfig {
        self.idle_timeout = Some(timeout);
        self
    }

    /// The index in [`Self::services`] of the service `name` names, if any
    /// (trailing dots ignored). A query makes this one lookup as it enters,
    /// and everything after carries the index.
    pub fn service_index(&self, name: &str) -> Option<u16> {
        let name = name.trim_matches('.');
        let ix = self.services.iter().position(|s| s.name == name)?;
        u16::try_from(ix).ok()
    }

    /// Whether `name` is the nameserver's own (`ns.<zone>`), as registered
    /// in the public DNS (§3.3.2). Trailing dots are ignored.
    pub fn is_nameserver(&self, name: &str) -> bool {
        name.trim_matches('.').strip_prefix("ns.") == Some(self.zone.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_site_defaults() {
        let s = ServiceConfig::http_site("alice.family.name", Ipv4Addr::new(192, 168, 1, 20));
        assert_eq!(s.port, 80);
        assert_eq!(s.image.memory_mib, 16);
        let mac = s.mac();
        assert_eq!(mac.0[0] & 0x01, 0, "unicast");
        assert_eq!(&mac.0[3..], &[168, 1, 20]);
    }

    #[test]
    fn config_builder_and_lookup() {
        let cfg = JitsuConfig::new("family.name.")
            .with_service(ServiceConfig::http_site(
                "alice.family.name",
                Ipv4Addr::new(192, 168, 1, 20),
            ))
            .with_service(ServiceConfig::http_site(
                "bob.family.name",
                Ipv4Addr::new(192, 168, 1, 21),
            ));
        assert_eq!(cfg.zone, "family.name");
        assert!(cfg.is_nameserver("ns.family.name"));
        assert!(cfg.is_nameserver("ns.family.name."));
        assert!(!cfg.is_nameserver("family.name"));
        assert_eq!(cfg.service_index("alice.family.name"), Some(0));
        assert_eq!(cfg.service_index("bob.family.name."), Some(1));
        assert_eq!(cfg.service_index("carol.family.name"), None);
        assert!(cfg.use_synjitsu);
        assert_eq!(cfg.engine, EngineKind::JitsuMerge);
    }

    #[test]
    fn figure9a_variant_constructors() {
        let base = JitsuConfig::new("family.name");
        let no_syn = base.clone().without_synjitsu();
        assert!(!no_syn.use_synjitsu);
        let vanilla = base.with_vanilla_toolstack();
        assert_eq!(vanilla.engine, EngineKind::Serial);
        assert_eq!(vanilla.boot, BootOptimisations::vanilla());
    }

    #[test]
    fn storm_knobs() {
        let cfg = JitsuConfig::new("family.name")
            .with_launch_slots(4)
            .with_idle_timeout(SimDuration::from_secs(5));
        assert_eq!(cfg.launch_slots, 4);
        assert_eq!(cfg.idle_timeout, Some(SimDuration::from_secs(5)));
        assert_eq!(JitsuConfig::new("z").launch_slots, 2, "default");
        assert_eq!(
            JitsuConfig::new("z").with_launch_slots(0).launch_slots,
            1,
            "clamped"
        );
    }
}
