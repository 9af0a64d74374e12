//! The toolstack: orchestrating domain creation end to end.
//!
//! This is the layer Jitsu re-architects. Creating a domain involves (§3.1):
//! the domain builder (memory + kernel + FDT), a series of XenStore
//! transactions coordinating the components, attaching the console to
//! `xenconsoled`, and creating and hotplugging the vif backend — all of
//! which the stock `xl` toolstack performs serially while the guest waits.
//!
//! [`BootOptimisations`] captures the individual Jitsu optimisations so the
//! Figure 4 harness can turn them on one at a time:
//!
//! 1. small memory (a property of the [`DomainConfig`], not a flag),
//! 2. lighter hotplug (`dash`, then inline `ioctl`),
//! 3. parallelising vif setup with the domain build,
//! 4. asynchronous console attachment,
//!
//! while the XenStore engine choice (Figure 3) is a property of the store the
//! toolstack is constructed with.

use crate::bridge::Bridge;
use crate::devices::console::ConsoleDevice;
use crate::devices::vif::VifDevice;
use crate::devices::{format_sized, KeyDir};
use crate::domain::{DomIdAllocator, Domain, DomainConfig, DomainState};
use crate::domain_builder::{BuildError, BuildReport, DomainBuilder};
use crate::event_channel::EventChannelTable;
use crate::grant_table::GrantTable;
use crate::hotplug::HotplugStyle;
use jitsu_sim::{SimDuration, SimRng};
use platform::Board;
use std::collections::BTreeMap;
use xenstore::{DomId, EngineKind, Error as XsError, Path, XenStore};

/// The set of toolstack optimisations §3.1 describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootOptimisations {
    /// How the vif hotplug step is performed.
    pub hotplug: HotplugStyle,
    /// Overlap vif backend setup with the domain build (optimisation (ii)).
    pub parallel_device_attach: bool,
    /// Attach the console asynchronously, off the critical path.
    pub async_console: bool,
}

impl BootOptimisations {
    /// The stock Xen 4.4.0 toolstack behaviour.
    pub fn vanilla() -> BootOptimisations {
        BootOptimisations {
            hotplug: HotplugStyle::BashScript,
            parallel_device_attach: false,
            async_console: false,
        }
    }

    /// The fully optimised Jitsu toolstack.
    pub fn jitsu() -> BootOptimisations {
        BootOptimisations {
            hotplug: HotplugStyle::InlineIoctl,
            parallel_device_attach: true,
            async_console: true,
        }
    }

    /// The cumulative optimisation steps of Figure 4, in legend order,
    /// excluding the final "switch to x86" step (which is a board change).
    pub fn figure4_steps() -> Vec<(&'static str, BootOptimisations)> {
        vec![
            ("Xen 4.4.0", BootOptimisations::vanilla()),
            (
                "Replace hotplug script with minimal version",
                BootOptimisations {
                    hotplug: HotplugStyle::DashScript,
                    ..BootOptimisations::vanilla()
                },
            ),
            (
                "Replace hotplug script with inline ioctl()",
                BootOptimisations {
                    hotplug: HotplugStyle::InlineIoctl,
                    ..BootOptimisations::vanilla()
                },
            ),
            (
                "Parallelise hotplug with domain build",
                BootOptimisations {
                    hotplug: HotplugStyle::InlineIoctl,
                    parallel_device_attach: true,
                    async_console: false,
                },
            ),
            ("Remove primary console", BootOptimisations::jitsu()),
        ]
    }
}

/// A counting semaphore bounding how many domain constructions dom0 runs
/// concurrently.
///
/// Domain construction is dom0-CPU-bound (page scrubbing, XenStore
/// transactions, hotplug), so a host can only usefully overlap a small
/// number of builds — roughly its dom0 vcpu count. Jitsu's concurrent
/// engine acquires a slot before calling [`Toolstack::create_domain`] and
/// releases it when construction completes; launches arriving while all
/// slots are busy queue behind the semaphore, which is what produces the
/// graceful time-to-first-byte degradation (rather than thrashing) when a
/// boot storm exceeds the board's build throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSlots {
    capacity: u32,
    in_use: u32,
    peak: u32,
}

impl LaunchSlots {
    /// A semaphore with `capacity` slots (clamped to at least one).
    pub fn new(capacity: u32) -> LaunchSlots {
        LaunchSlots {
            capacity: capacity.max(1),
            in_use: 0,
            peak: 0,
        }
    }

    /// Total number of slots.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// The highest concurrency observed since construction.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Acquire a slot if one is free. Returns whether acquisition succeeded.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_use < self.capacity {
            self.in_use += 1;
            self.peak = self.peak.max(self.in_use);
            true
        } else {
            false
        }
    }

    /// Release a previously acquired slot.
    ///
    /// # Panics
    /// Panics if no slot is held — that is always a caller bookkeeping bug.
    pub fn release(&mut self) {
        assert!(self.in_use > 0, "LaunchSlots::release without acquire");
        self.in_use -= 1;
    }
}

/// Per-stage timing of a whole `create` operation (Figure 4's unit of
/// measurement: "VM construction time, not boot time").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateReport {
    /// The domain id created.
    pub dom: DomId,
    /// Domain builder stages.
    pub build: BuildReport,
    /// XenStore coordination overhead (transactions + blocking RPCs).
    pub xenstore_coordination: SimDuration,
    /// Synchronous console attachment (zero when asynchronous).
    pub console_attach: SimDuration,
    /// Creating the vif backend device.
    pub vif_backend_create: SimDuration,
    /// Running the hotplug step.
    pub vif_hotplug: SimDuration,
    /// Blocking RPC round trips the guest sees during vif attach (zero when
    /// overlapped with the build).
    pub vif_blocking_rpc: SimDuration,
    /// Whether the vif path overlapped the build path.
    pub parallelised: bool,
    /// End-to-end VM construction time.
    pub total: SimDuration,
}

/// Errors from toolstack operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolstackError {
    /// Domain building failed (usually out of memory).
    Build(BuildError),
    /// A XenStore operation failed.
    Store(XsError),
    /// The referenced domain does not exist.
    UnknownDomain(DomId),
}

impl From<BuildError> for ToolstackError {
    fn from(e: BuildError) -> Self {
        ToolstackError::Build(e)
    }
}

impl From<XsError> for ToolstackError {
    fn from(e: XsError) -> Self {
        ToolstackError::Store(e)
    }
}

/// The host toolstack: all control-plane state for one Xen host.
pub struct Toolstack {
    /// The shared store (public so Jitsu and Conduit can use the same one).
    pub xenstore: XenStore,
    /// Grant tables (public for vchan construction).
    pub grants: GrantTable,
    /// Event channels (public for vchan construction).
    pub event_channels: EventChannelTable,
    /// The dom0 software bridge.
    pub bridge: Bridge,
    builder: DomainBuilder,
    domids: DomIdAllocator,
    domains: BTreeMap<DomId, Domain>,
    vifs: BTreeMap<DomId, VifDevice>,
    consoles: BTreeMap<DomId, ConsoleDevice>,
    rng: SimRng,
}

impl Toolstack {
    /// Create a toolstack for a board using the given XenStore engine.
    pub fn new(board: Board, engine: EngineKind, seed: u64) -> Toolstack {
        Toolstack {
            builder: DomainBuilder::new(board),
            xenstore: XenStore::new(engine),
            grants: GrantTable::new(),
            event_channels: EventChannelTable::new(),
            bridge: Bridge::new(),
            domids: DomIdAllocator::new(),
            domains: BTreeMap::new(),
            vifs: BTreeMap::new(),
            consoles: BTreeMap::new(),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// The board this host runs on.
    pub fn board(&self) -> &Board {
        self.builder.board()
    }

    /// Split-borrow the three tables a conduit rendezvous needs — the
    /// store, the grant table and the event channels — so callers can
    /// establish vchans (e.g. the Synjitsu handoff drain) while the rest of
    /// the toolstack stays borrowed elsewhere.
    pub fn conduit_parts(&mut self) -> (&mut XenStore, &mut GrantTable, &mut EventChannelTable) {
        (
            &mut self.xenstore,
            &mut self.grants,
            &mut self.event_channels,
        )
    }

    /// Activity counters of the shared store — commits, *merged* commits
    /// (transactions that landed on a concurrently advanced base and were
    /// grafted on instead of aborted) and `EAGAIN` conflicts. Parallel
    /// domain builds issue several overlapping transactions per boot, so
    /// under storm load `merged` grows while `conflicts` stays at zero on
    /// the Jitsu engine.
    pub fn xenstore_stats(&self) -> xenstore::StoreStats {
        self.xenstore.stats()
    }

    /// Free guest memory in MiB.
    pub fn free_mib(&self) -> u32 {
        self.builder.free_mib()
    }

    /// Number of memory assignments the page pool holds: one per built
    /// domain, none once every domain is destroyed.
    pub fn memory_assignments(&self) -> usize {
        self.builder.memory_assignments()
    }

    /// Whether `mib` MiB can currently be allocated (used by Jitsu to decide
    /// between launching and answering `SERVFAIL`).
    pub fn can_allocate(&self, mib: u32) -> bool {
        self.builder.can_allocate(mib)
    }

    /// The domains currently known to the toolstack.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }

    /// Look up a domain.
    pub fn domain(&self, dom: DomId) -> Option<&Domain> {
        self.domains.get(&dom)
    }

    /// The vif of a domain, if one was attached.
    pub fn vif(&self, dom: DomId) -> Option<&VifDevice> {
        self.vifs.get(&dom)
    }

    /// Create (but do not unpause) a domain, returning the per-stage report.
    pub fn create_domain(
        &mut self,
        config: DomainConfig,
        opts: BootOptimisations,
    ) -> Result<CreateReport, ToolstackError> {
        let dom = self.domids.alloc();
        let mut domain = Domain::new(dom, config.clone());

        // --- builder path -------------------------------------------------
        let build = self.builder.build(&mut domain, &config)?;

        // The real XenStore writes the toolstack performs for a new domain.
        // Each key is built once, outside the transaction body, so a retry
        // after `EAGAIN` builds nothing again.
        let home = KeyDir::under(Path::domain_home(dom.0));
        let (name, memory, vm) = (
            home.key("name")?,
            home.key("memory/target")?,
            home.key("vm")?,
        );
        self.xenstore
            .with_transaction(DomId::DOM0, 8, |xs, t| {
                xs.write(DomId::DOM0, Some(t), &name, config.name.as_bytes())?;
                xs.write(
                    DomId::DOM0,
                    Some(t),
                    &memory,
                    (config.memory_mib as u64 * 1024).to_string().as_bytes(),
                )?;
                xs.write(
                    DomId::DOM0,
                    Some(t),
                    &vm,
                    format_sized("/vm/4294967295".len(), format_args!("/vm/{}", dom.0)).as_bytes(),
                )?;
                Ok(())
            })
            .map_err(ToolstackError::Store)?;

        // --- console ------------------------------------------------------
        let mut console_attach = SimDuration::ZERO;
        if config.with_console {
            let console = ConsoleDevice::setup(
                &mut self.xenstore,
                &mut self.grants,
                &mut self.event_channels,
                dom,
            )?;
            console.mark_connected(&mut self.xenstore)?;
            self.consoles.insert(dom, console);
            if !opts.async_console {
                console_attach = self.builder.board().costs.console_attach;
            }
        }

        // --- vif ----------------------------------------------------------
        let mut vif_backend_create = SimDuration::ZERO;
        let mut vif_hotplug = SimDuration::ZERO;
        let mut vif_blocking_rpc = SimDuration::ZERO;
        if config.with_vif {
            let mut vif = VifDevice::setup(
                &mut self.xenstore,
                &mut self.grants,
                &mut self.event_channels,
                dom,
                0,
            )?;
            vif.backend_connect(
                &mut self.xenstore,
                &mut self.grants,
                &mut self.event_channels,
                &mut self.bridge,
            )?;
            let board = self.builder.board();
            vif_backend_create = board.costs.vif_backend_create;
            vif_hotplug = opts.hotplug.sample_duration(board, &mut self.rng);
            if !opts.parallel_device_attach {
                vif_blocking_rpc = board.costs.vif_blocking_rpc;
            }
            self.vifs.insert(dom, vif);
        }

        // --- compose the end-to-end construction time ---------------------
        let coordination = self.builder.board().costs.xenstore_coordination;
        let builder_path = build.total();
        let vif_path = vif_backend_create + vif_hotplug + vif_blocking_rpc;
        let serial_paths = if opts.parallel_device_attach {
            builder_path.max(vif_path)
        } else {
            builder_path + vif_path
        };
        let total = coordination + serial_paths + console_attach;

        #[expect(
            clippy::expect_used,
            reason = "Built -> Paused is a legal lifecycle transition by construction"
        )]
        domain
            .transition(DomainState::Paused)
            .expect("Built -> Paused is legal");
        self.domains.insert(dom, domain);

        Ok(CreateReport {
            dom,
            build,
            xenstore_coordination: coordination,
            console_attach,
            vif_backend_create,
            vif_hotplug,
            vif_blocking_rpc,
            parallelised: opts.parallel_device_attach,
            total,
        })
    }

    /// Unpause a created domain so it starts booting.
    pub fn unpause(&mut self, dom: DomId) -> Result<(), ToolstackError> {
        let d = self
            .domains
            .get_mut(&dom)
            .ok_or(ToolstackError::UnknownDomain(dom))?;
        d.transition(DomainState::Running)
            .map_err(|_| ToolstackError::UnknownDomain(dom))?;
        Ok(())
    }

    /// Destroy a domain, releasing its memory, devices and XenStore state.
    pub fn destroy(&mut self, dom: DomId) -> Result<(), ToolstackError> {
        let mut d = self
            .domains
            .remove(&dom)
            .ok_or(ToolstackError::UnknownDomain(dom))?;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "destroy forces the terminal state; an invalid-transition error must not abort teardown"
        )]
        let _ = d.transition(DomainState::Destroyed);
        // Teardown runs to the end whatever the vif's store writes do; a
        // failed close is reported once the domain is gone.
        let mut closed = Ok(());
        if let Some(mut vif) = self.vifs.remove(&dom) {
            closed = vif.close(
                &mut self.xenstore,
                &mut self.event_channels,
                &mut self.bridge,
            );
            // The backend half of the vif lives under dom0's home, which
            // `domain_destroyed` below (it removes the *guest's* home) never
            // sees. Left behind, it grows `backend/vif` by one directory
            // per domain ever created.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "teardown must run to the end; a backend directory that is already gone needs no removal"
            )]
            let _ = self.xenstore.rm(DomId::DOM0, None, vif.backend_home());
        }
        self.consoles.remove(&dom);
        self.builder.release(dom);
        self.grants.domain_destroyed(dom);
        self.event_channels.domain_destroyed(dom);
        self.xenstore.domain_destroyed(dom);
        closed.map_err(ToolstackError::from)
    }

    /// Convenience for tests and the Figure 4 sweep: create and immediately
    /// destroy a domain, returning only the construction time.
    pub fn measure_create(
        &mut self,
        config: DomainConfig,
        opts: BootOptimisations,
    ) -> Result<SimDuration, ToolstackError> {
        let report = self.create_domain(config, opts)?;
        let total = report.total;
        self.destroy(report.dom)?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    fn arm_toolstack() -> Toolstack {
        Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 42)
    }

    #[test]
    fn vanilla_unikernel_creation_takes_around_650ms_on_arm() {
        let mut ts = arm_toolstack();
        let report = ts
            .create_domain(DomainConfig::unikernel("www"), BootOptimisations::vanilla())
            .unwrap();
        let ms = report.total.as_millis();
        assert!((550..750).contains(&ms), "total={ms}ms");
        assert!(!report.parallelised);
        assert!(
            report.vif_hotplug > report.build.total(),
            "bash hotplug dominates"
        );
    }

    #[test]
    fn optimised_unikernel_creation_takes_around_120ms_on_arm() {
        let mut ts = arm_toolstack();
        let report = ts
            .create_domain(DomainConfig::unikernel("www"), BootOptimisations::jitsu())
            .unwrap();
        let ms = report.total.as_millis();
        assert!((90..160).contains(&ms), "total={ms}ms");
        assert_eq!(report.console_attach, SimDuration::ZERO);
        assert_eq!(report.vif_blocking_rpc, SimDuration::ZERO);
        assert!(report.parallelised);
    }

    #[test]
    fn optimised_creation_takes_around_20ms_on_x86() {
        let mut ts = Toolstack::new(BoardKind::X86Server.board(), EngineKind::JitsuMerge, 42);
        let report = ts
            .create_domain(DomainConfig::unikernel("www"), BootOptimisations::jitsu())
            .unwrap();
        let ms = report.total.as_millis();
        assert!((12..35).contains(&ms), "total={ms}ms");
    }

    #[test]
    fn figure4_steps_are_monotonically_faster() {
        let mut ts = arm_toolstack();
        let mut last = SimDuration::MAX;
        for (label, opts) in BootOptimisations::figure4_steps() {
            let t = ts
                .measure_create(DomainConfig::unikernel("sweep"), opts)
                .unwrap();
            assert!(
                t <= last + SimDuration::from_millis(20),
                "{label} ({t}) should not be slower than the previous step ({last})"
            );
            last = t;
        }
        assert_eq!(BootOptimisations::figure4_steps().len(), 5);
    }

    #[test]
    fn larger_memory_domains_build_slower_under_all_configs() {
        let mut ts = arm_toolstack();
        for opts in [BootOptimisations::vanilla(), BootOptimisations::jitsu()] {
            let small = ts
                .measure_create(DomainConfig::unikernel("s"), opts)
                .unwrap();
            let big = ts
                .measure_create(DomainConfig::unikernel("b").with_memory_mib(256), opts)
                .unwrap();
            assert!(big > small, "{opts:?}: big={big} small={small}");
        }
    }

    #[test]
    fn create_populates_xenstore_and_bridge() {
        let mut ts = arm_toolstack();
        let report = ts
            .create_domain(
                DomainConfig::unikernel("http_server"),
                BootOptimisations::jitsu(),
            )
            .unwrap();
        let dom = report.dom;
        assert_eq!(
            ts.xenstore
                .read_string(DomId::DOM0, None, &format!("/local/domain/{}/name", dom.0))
                .unwrap(),
            "http_server"
        );
        assert_eq!(ts.bridge.port_count(), 1);
        assert!(ts.vif(dom).is_some());
        assert_eq!(ts.domain(dom).unwrap().state, DomainState::Paused);
        assert_eq!(ts.domain(dom).unwrap().config.name, "http_server");
        ts.unpause(dom).unwrap();
        assert!(ts.domain(dom).unwrap().is_running());
    }

    #[test]
    fn destroy_releases_everything() {
        let mut ts = arm_toolstack();
        let free_before = ts.free_mib();
        let report = ts
            .create_domain(DomainConfig::unikernel("temp"), BootOptimisations::jitsu())
            .unwrap();
        assert!(ts.free_mib() < free_before);
        ts.destroy(report.dom).unwrap();
        assert_eq!(ts.free_mib(), free_before);
        assert_eq!(ts.bridge.port_count(), 0);
        assert!(ts.domain(report.dom).is_none());
        assert!(!ts
            .xenstore
            .exists(
                DomId::DOM0,
                None,
                &format!("/local/domain/{}", report.dom.0)
            )
            .unwrap());
        assert_eq!(
            ts.xenstore
                .directory(DomId::DOM0, None, "/local/domain/0/backend/vif")
                .unwrap(),
            Vec::<String>::new(),
            "the vif backend under dom0's home goes with the domain"
        );
        assert_eq!(
            ts.destroy(report.dom),
            Err(ToolstackError::UnknownDomain(report.dom))
        );
    }

    #[test]
    fn memory_exhaustion_surfaces_as_build_error() {
        let mut ts = arm_toolstack();
        // Exhaust guest memory with large VMs.
        let mut created = Vec::new();
        loop {
            match ts.create_domain(
                DomainConfig::unikernel("hog").with_memory_mib(256),
                BootOptimisations::jitsu(),
            ) {
                Ok(r) => created.push(r.dom),
                Err(ToolstackError::Build(BuildError::OutOfMemory { .. })) => break,
                Err(e) => panic!("unexpected error {e:?}"),
            }
            assert!(created.len() < 16, "should run out of memory eventually");
        }
        assert!(!ts.can_allocate(256));
        // Destroying one frees capacity again.
        ts.destroy(created[0]).unwrap();
        assert!(ts.can_allocate(256));
    }

    #[test]
    fn launch_slots_bound_concurrency() {
        let mut slots = LaunchSlots::new(2);
        assert_eq!(slots.capacity(), 2);
        assert!(slots.try_acquire());
        assert!(slots.try_acquire());
        assert!(!slots.try_acquire(), "third acquire must fail");
        assert_eq!(slots.in_use(), 2);
        slots.release();
        assert!(slots.try_acquire());
        slots.release();
        slots.release();
        assert_eq!(slots.in_use(), 0);
        assert_eq!(slots.peak(), 2);
        // Zero capacity is clamped to one so the engine can always progress.
        assert_eq!(LaunchSlots::new(0).capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn launch_slot_release_without_acquire_panics() {
        LaunchSlots::new(1).release();
    }

    #[test]
    fn teardown_is_cheaper_than_construction_and_scales_with_board() {
        let mut arm = arm_toolstack();
        let arm_teardown = arm.board().costs.domain_teardown;
        let create = arm
            .create_domain(DomainConfig::unikernel("www"), BootOptimisations::jitsu())
            .unwrap()
            .total;
        assert!(arm_teardown < create, "teardown {arm_teardown} < {create}");
        assert!(BoardKind::X86Server.board().costs.domain_teardown < arm_teardown);
    }

    #[test]
    fn domain_ids_are_never_reused() {
        let mut ts = arm_toolstack();
        let a = ts
            .create_domain(DomainConfig::unikernel("a"), BootOptimisations::jitsu())
            .unwrap()
            .dom;
        ts.destroy(a).unwrap();
        let b = ts
            .create_domain(DomainConfig::unikernel("b"), BootOptimisations::jitsu())
            .unwrap()
            .dom;
        assert_ne!(a, b);
        assert!(b.0 > a.0);
    }
}
