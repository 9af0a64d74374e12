//! Domains and their lifecycle.
//!
//! A Xen *domain* is one virtual machine: dom0 is the privileged control
//! domain that owns the hardware drivers and runs the toolstack; unprivileged
//! guests (domUs) hold the unikernels and legacy VMs that Jitsu manages.

use platform::Arch;
use xenstore::DomId;

/// The lifecycle of a domain as seen by the toolstack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainState {
    /// Descriptor allocated, memory not yet populated.
    Created,
    /// Memory populated and kernel loaded, vCPUs not yet runnable.
    Built,
    /// Runnable but paused (the builder leaves domains paused until the
    /// toolstack unpauses them).
    Paused,
    /// Running.
    Running,
    /// The guest has shut down (cleanly or by crash).
    Shutdown,
    /// Resources released; the id may be reused.
    Destroyed,
}

/// Static configuration for a new domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainConfig {
    /// Human-readable name (also written to XenStore).
    pub name: String,
    /// Memory assigned to the guest, in MiB. Unikernels are happy with 8–16;
    /// Linux guests typically need at least 64.
    pub memory_mib: u32,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Guest architecture.
    pub arch: Arch,
    /// Size of the kernel image to load, in bytes (a MirageOS unikernel is
    /// around 1 MB; a Linux kernel plus initrd an order of magnitude more).
    pub kernel_size_bytes: usize,
    /// Whether to attach a network interface.
    pub with_vif: bool,
    /// Whether to attach a console.
    pub with_console: bool,
}

impl DomainConfig {
    /// A typical MirageOS unikernel configuration (§3.1: "8MB is plenty";
    /// we default to 16 MiB, the smallest point in Figure 4).
    pub fn unikernel(name: impl Into<String>) -> DomainConfig {
        DomainConfig {
            name: name.into(),
            memory_mib: 16,
            vcpus: 1,
            arch: Arch::Arm,
            kernel_size_bytes: 1024 * 1024,
            with_vif: true,
            with_console: true,
        }
    }

    /// A typical small Linux guest (64 MiB minimum, 128 MiB recommended).
    pub fn linux_vm(name: impl Into<String>) -> DomainConfig {
        DomainConfig {
            name: name.into(),
            memory_mib: 128,
            vcpus: 1,
            arch: Arch::Arm,
            kernel_size_bytes: 12 * 1024 * 1024,
            with_vif: true,
            with_console: true,
        }
    }

    /// Builder-style memory override.
    pub fn with_memory_mib(mut self, mib: u32) -> DomainConfig {
        self.memory_mib = mib;
        self
    }
}

/// A live domain descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// The domain id assigned at creation.
    pub id: DomId,
    /// Static configuration.
    pub config: DomainConfig,
    /// Current lifecycle state.
    pub state: DomainState,
}

impl Domain {
    /// Create a descriptor in the [`DomainState::Created`] state.
    pub fn new(id: DomId, config: DomainConfig) -> Domain {
        Domain {
            id,
            config,
            state: DomainState::Created,
        }
    }

    /// True if the domain can service work.
    pub fn is_running(&self) -> bool {
        self.state == DomainState::Running
    }

    /// Advance the lifecycle. Invalid transitions return `Err` with the
    /// offending `(from, to)` pair, so toolstack bugs surface in tests.
    pub fn transition(&mut self, to: DomainState) -> Result<(), (DomainState, DomainState)> {
        use DomainState::*;
        let ok = matches!(
            (self.state, to),
            (Created, Built)
                | (Built, Paused)
                | (Paused, Running)
                | (Running, Paused)
                | (Running, Shutdown)
                | (Paused, Shutdown)
                | (Shutdown, Destroyed)
                | (Created, Destroyed)
                | (Built, Destroyed)
                | (Paused, Destroyed)
                | (Running, Destroyed)
        );
        if ok {
            self.state = to;
            Ok(())
        } else {
            Err((self.state, to))
        }
    }
}

/// Allocator of domain ids. Ids increase monotonically and are never reused
/// within one host lifetime (matching the behaviour of the real hypervisor,
/// which makes stale XenStore references detectable).
#[derive(Debug, Clone)]
pub struct DomIdAllocator {
    next: u32,
}

impl Default for DomIdAllocator {
    fn default() -> Self {
        DomIdAllocator::new()
    }
}

impl DomIdAllocator {
    /// Start allocating at dom1 (dom0 is the control domain).
    pub fn new() -> DomIdAllocator {
        DomIdAllocator { next: 1 }
    }

    /// Allocate the next id.
    pub fn alloc(&mut self) -> DomId {
        let id = DomId(self.next);
        self.next += 1;
        id
    }

    /// How many ids have been handed out.
    pub fn allocated(&self) -> u32 {
        self.next - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unikernel_config_is_small() {
        let c = DomainConfig::unikernel("www-alice");
        assert_eq!(c.memory_mib, 16);
        assert_eq!(c.vcpus, 1);
        assert_eq!(c.kernel_size_bytes, 1024 * 1024);
        assert!(c.with_vif);
        let l = DomainConfig::linux_vm("ubuntu");
        assert!(l.memory_mib >= 64, "Linux needs at least 64MiB");
        assert!(l.kernel_size_bytes > c.kernel_size_bytes);
    }

    #[test]
    fn builder_overrides() {
        let c = DomainConfig::unikernel("x").with_memory_mib(256);
        assert_eq!(c.memory_mib, 256);
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut d = Domain::new(DomId(5), DomainConfig::unikernel("u"));
        assert_eq!(d.state, DomainState::Created);
        assert!(!d.is_running());
        d.transition(DomainState::Built).unwrap();
        d.transition(DomainState::Paused).unwrap();
        d.transition(DomainState::Running).unwrap();
        assert!(d.is_running());
        d.transition(DomainState::Shutdown).unwrap();
        d.transition(DomainState::Destroyed).unwrap();
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut d = Domain::new(DomId(5), DomainConfig::unikernel("u"));
        assert_eq!(
            d.transition(DomainState::Running),
            Err((DomainState::Created, DomainState::Running))
        );
        d.transition(DomainState::Built).unwrap();
        assert!(d.transition(DomainState::Running).is_err());
        d.transition(DomainState::Paused).unwrap();
        d.transition(DomainState::Running).unwrap();
        assert!(d.transition(DomainState::Built).is_err());
        // Destroy is allowed from anywhere.
        d.transition(DomainState::Destroyed).unwrap();
    }

    #[test]
    fn pause_unpause_cycle() {
        let mut d = Domain::new(DomId(2), DomainConfig::unikernel("u"));
        d.transition(DomainState::Built).unwrap();
        d.transition(DomainState::Paused).unwrap();
        d.transition(DomainState::Running).unwrap();
        d.transition(DomainState::Paused).unwrap();
        d.transition(DomainState::Running).unwrap();
        assert!(d.is_running());
    }

    #[test]
    fn domid_allocation_is_monotonic() {
        let mut a = DomIdAllocator::new();
        let d1 = a.alloc();
        let d2 = a.alloc();
        let d3 = a.alloc();
        assert_eq!(d1, DomId(1));
        assert_eq!(d2, DomId(2));
        assert_eq!(d3, DomId(3));
        assert_eq!(a.allocated(), 3);
        assert_ne!(d1, DomId::DOM0);
    }
}
