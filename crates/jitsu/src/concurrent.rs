//! jitsud, the Jitsu daemon, as an event-driven world.
//!
//! §3.3 describes the daemon: "If the name requested does not correspond to
//! a running unikernel, Jitsu launches the desired unikernel while
//! simultaneously returning an appropriate endpoint", idle unikernels are
//! reaped to reclaim memory, and "resource exhaustion is reported as
//! `SERVFAIL` so clients fail over to another board". One query on a fresh
//! board is a Figure 9a cold start; many overlapping queries for many names
//! are a boot storm, where all three behaviours interact.
//!
//! [`ConcurrentJitsud`] is that daemon, a *world* scheduled on the
//! [`jitsu_sim`] discrete-event engine. Every configured service has a
//! lifecycle (`Idle → AwaitingSlot → Launching → Running → Draining`), and
//! every decision about it is [`Stage::step`] in [`crate::lifecycle`]: each
//! handler below turns its event into an [`Input`], steps, and acts on the
//! [`Verdict`]. The step also says what the verdict does with the two
//! things a launch holds, a memory reservation and a launch slot; the
//! daemon settles both where it steps, so no handler touches them.
//!
//! * **Concurrency** — overlapping queries for *different* names boot
//!   domains concurrently, bounded by a [`LaunchSlots`] semaphore (domain
//!   construction is dom0-CPU-bound; §3.1). Launches past the slot capacity
//!   queue FIFO, which is what turns overload into graceful tail-latency
//!   growth instead of thrash.
//! * **Coalescing** — duplicate queries for a *mid-launch* name join the
//!   in-flight boot's SYN queue instead of double-launching (§3.3: Synjitsu
//!   buffers the early SYNs; the unikernel replays them after handoff).
//! * **Admission control** — board memory is accounted (including
//!   reservations for launches still waiting on a slot); a query that
//!   cannot fit is answered `SERVFAIL` so the client fails over to another
//!   board (§3.3.2).
//! * **Idle reaping** — a service idle longer than the configured TTL (its
//!   idle clock, which every warm query refreshes) is drained: its domain
//!   is torn down (taking the board's
//!   [`domain_teardown`](platform::CostModel::domain_teardown) of virtual
//!   time) and its memory returns to the pool, after which the name can be
//!   summoned again from scratch.
//!
//! The SYN queue is not a counter: while a service boots, each queued
//! client completes a real TCP handshake against the real
//! [`Synjitsu`] proxy (same `netstack` the unikernels use), and at
//! network-ready the whole queue is handed over: a `Prepare` phase in
//! XenStore, a drain of every connection record over the conduit vchan,
//! and a `Committed` phase flip.

use crate::config::JitsuConfig;
use crate::handoff::{self, HandoffPhase};
use crate::launcher::Launcher;
pub use crate::lifecycle::LifecyclePhase;
use crate::lifecycle::{Input, Stage, Verdict};
use crate::synjitsu::Synjitsu;
use conduit::flows::FlowTable;
use conduit::rendezvous::ConduitRegistry;
use conduit::vchan::Side;
use jitsu_sim::{LatencyRecorder, Scheduler, Sim, SimDuration, SimRng, SimTime, Trace};
use netstack::ethernet::{EthernetFrame, MacAddr};
use netstack::http::HttpRequest;
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::{Ipv4Addr, Ipv4Packet};
use netstack::tcp::Tcb;
use netstack::FrameBuf;
use platform::{Board, CostModel};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use unikernel::appliance::{Appliance, StaticSiteAppliance};
use unikernel::instance::UnikernelInstance;
use xen_sim::toolstack::{LaunchSlots, Toolstack};
use xenstore::{DomId, Path};

/// One client whose first connection is parked on a booting service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedClient {
    /// Engine-wide client id (used to derive a unique IP/MAC).
    id: u32,
    /// When the client's DNS query arrived.
    arrived: SimTime,
}

/// One client's live TCP flow: a real [`Interface`] that completes its
/// handshake against whichever side of the handoff currently owns the
/// service's traffic, sends an HTTP request, and accumulates the response
/// byte stream so the engine can prove nothing was dropped or duplicated
/// across the migration.
#[derive(Debug)]
struct ClientFlow {
    iface: Interface,
    request: FrameBuf,
    response: Vec<u8>,
    sent_request: bool,
}

impl ClientFlow {
    /// Feed one frame from the service side (Synjitsu or the unikernel)
    /// into the client, returning the frames the client transmits in
    /// response — including its HTTP request, sent exactly once, the
    /// moment the handshake completes. Response bytes accumulate for the
    /// zero-drop/zero-dup accounting.
    fn on_peer_frame(&mut self, frame: &FrameBuf) -> Vec<FrameBuf> {
        let (mut out, events) = self.iface.handle_frame(frame);
        for ev in events {
            match ev {
                IfaceEvent::TcpConnected { remote, local_port } if !self.sent_request => {
                    self.sent_request = true;
                    let request = self.request.slice(..);
                    if let Some(f) = self.iface.tcp_send(remote, local_port, request) {
                        out.push(f);
                    }
                }
                IfaceEvent::TcpData { data, .. } => self.response.extend_from_slice(&data),
                _ => {}
            }
        }
        out
    }
}

/// One service's domain, from a successful build to its retirement: its
/// boot timeline, the boot-registration transaction, and the unikernel side
/// of its data plane.
#[derive(Debug)]
struct Guest {
    dom: DomId,
    /// When the guest's network stack attaches (Synjitsu handoff point).
    network_ready_at: SimTime,
    /// When the application can serve requests.
    app_ready_at: SimTime,
    /// The boot-registration transaction, held open for the whole
    /// construction window so overlapping builds genuinely overlap their
    /// store transactions (committed at construction-done; merged, not
    /// aborted, on the Jitsu engine).
    boot_tx: xenstore::TxId,
    /// The packet-level instance: network stack + appliance.
    instance: UnikernelInstance,
    /// TCBs reconstructed from the conduit vchan drain at `Prepare`,
    /// adopted into the instance at `Committed`.
    drained: Vec<Tcb>,
}

/// One configured service, at its index in [`JitsuConfig::services`].
#[derive(Debug)]
struct Service {
    /// Where the service stands; only [`Stage::step`] moves it.
    stage: Stage,
    /// Clients parked on a boot or a drain, in arrival order.
    queued: Vec<QueuedClient>,
    /// The idle clock the reaper reads while the service runs: app-ready,
    /// then every warm query for the name.
    last_activity: SimTime,
    /// From a successful build to retirement, the service's domain.
    guest: Option<Guest>,
    /// The store keys the service's every boot, frame and reap names, built
    /// with the daemon; `None` for a name that is not a store path
    /// component, which the core never admits.
    keys: Option<ServiceKeys>,
}

impl Service {
    /// The service's store keys. Only a service with keys is admitted
    /// ([`Input::Query`]'s `named`), so every handler past admission has
    /// them.
    fn keys(&self) -> &ServiceKeys {
        #[expect(
            clippy::expect_used,
            reason = "the lifecycle core admits only a service whose name is a store path"
        )]
        self.keys
            .as_ref()
            .expect("an admitted service has store keys")
    }
}

/// The store keys of one service. A board configures many more services
/// than it runs, so these are two buffers a service: a key named once a
/// launch (the record's `dom`) is built when it is written.
#[derive(Debug)]
struct ServiceKeys {
    /// `/jitsu/service/<name>`, the service's lifecycle record: the parent
    /// of `state`, sharing its buffer.
    record: Path,
    /// The record's `state` key.
    state: Path,
    /// The handoff phase key, which routes every client frame.
    phase: Path,
}

impl ServiceKeys {
    fn new(name: &str) -> xenstore::Result<ServiceKeys> {
        let state = Path::root().join(format_args!("jitsu/service/{name}/state"))?;
        Ok(ServiceKeys {
            record: state.parent().unwrap_or_else(Path::root),
            state,
            phase: handoff::phase_key(name)?,
        })
    }
}

/// One record of the daemon's trace, in Figure 6's vocabulary. `service` is
/// the service's index in [`JitsuConfig::services`], so the records of one
/// summons are the ones that share `(service, dom)`. Every field is `Copy`:
/// a record is a push into the ring, with no text formatted or kept, and the
/// daemon's `Display` turns the indices back into names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitsuEvent {
    /// A query was answered `SERVFAIL`: the service does not fit in the
    /// board's free memory, and the client fails over.
    ServFail {
        /// The service queried.
        service: u16,
    },
    /// A query for a booting service joined the clients parked on its boot.
    Coalesced {
        /// The service queried.
        service: u16,
        /// The domain booting it.
        dom: DomId,
    },
    /// A launch slot was granted and the toolstack built the domain.
    Summoning {
        /// The service summoned.
        service: u16,
        /// Its new domain.
        dom: DomId,
        /// Clients parked on the boot so far.
        queued: u32,
    },
    /// A launch could not start or the toolstack could not build the
    /// domain; every client waiting on it got `SERVFAIL`.
    LaunchFailed {
        /// The service that failed to launch.
        service: u16,
        /// Clients parked on it, or the one whose query found that the
        /// service's name is no store path.
        queued: u32,
    },
    /// Phase 1 of the handoff: Synjitsu flushed its connection records and
    /// the unikernel drained them over the conduit vchan.
    Prepared {
        /// The service handed over.
        service: u16,
        /// The domain taking it.
        dom: DomId,
        /// Connection records flushed to the store.
        flushed: u32,
        /// Bytes drained over the vchan.
        drained_bytes: u32,
    },
    /// Phase 2: the unikernel committed and adopted the drained connections.
    HandedOver {
        /// The service handed over.
        service: u16,
        /// The domain that took it.
        dom: DomId,
        /// Connections adopted.
        connections: u32,
    },
    /// Frames parked during the prepare window were replayed against the
    /// unikernel.
    Replayed {
        /// The service.
        service: u16,
        /// The domain they were replayed on.
        dom: DomId,
        /// Frames replayed.
        frames: u32,
    },
    /// The application came up and served the clients parked on its boot.
    Ready {
        /// The service.
        service: u16,
        /// The domain serving it.
        dom: DomId,
        /// Buffered requests served.
        requests: u32,
    },
    /// The reaper found the service idle and began tearing its domain down.
    Reaping {
        /// The service.
        service: u16,
        /// The domain being destroyed.
        dom: DomId,
    },
    /// The teardown finished and the domain's memory is free again.
    Retired {
        /// The service.
        service: u16,
        /// The destroyed domain.
        dom: DomId,
    },
}

const _: () = assert!(std::mem::size_of::<JitsuEvent>() <= 16);

impl JitsuEvent {
    /// The domain the record is about, if it names one.
    pub fn dom(self) -> Option<DomId> {
        match self {
            JitsuEvent::ServFail { .. } | JitsuEvent::LaunchFailed { .. } => None,
            JitsuEvent::Coalesced { dom, .. }
            | JitsuEvent::Summoning { dom, .. }
            | JitsuEvent::Prepared { dom, .. }
            | JitsuEvent::HandedOver { dom, .. }
            | JitsuEvent::Replayed { dom, .. }
            | JitsuEvent::Ready { dom, .. }
            | JitsuEvent::Reaping { dom, .. }
            | JitsuEvent::Retired { dom, .. } => Some(dom),
        }
    }

    /// The component of Figure 6 that acts in this record.
    fn component(self) -> &'static str {
        match self {
            JitsuEvent::Prepared { .. } | JitsuEvent::HandedOver { .. } => "synjitsu",
            JitsuEvent::Replayed { .. } | JitsuEvent::Ready { .. } => "unikernel",
            _ => "jitsud",
        }
    }
}

/// Data-plane counters for the live-connection handoff (§3.3.1's "only one
/// of them ever handles any given packet", measured rather than assumed).
#[derive(Debug, Default)]
pub struct HandoffStats {
    /// Connections reconstructed from the conduit vchan drain and adopted
    /// by a freshly booted unikernel.
    pub migrated: u64,
    /// Frames that arrived inside a `Prepare` window and were parked in the
    /// handoff area instead of being answered (or dropped) by either side.
    pub queued_during_prepare: u64,
    /// Parked frames replayed by the unikernel after `Committed`.
    pub replayed_after_commit: u64,
    /// HTTP exchanges whose response stream reached the client byte-exact.
    /// Covers every cold-served (parked) client: those migrated through the
    /// vchan drain *and* those that connected directly during the short
    /// post-commit boot tail — the zero-drop guarantee spans both.
    pub completed: u64,
    /// Expected response bytes that never reached a client.
    pub dropped_bytes: u64,
    /// Bytes delivered beyond (or diverging from) the expected stream.
    pub duplicated_bytes: u64,
    /// Client-observed request latency (DNS query → first response byte)
    /// for every cold-served request — i.e. every request whose service was
    /// still booting when it arrived, whichever side of the commit it
    /// landed on. (`migrated` counts the strictly-proxied subset.)
    pub request_latency: LatencyRecorder,
}

/// Counters and latency samples accumulated over a storm.
#[derive(Debug, Default)]
pub struct StormMetrics {
    /// DNS queries handled.
    pub queries: u64,
    /// Queries for names outside the configuration (NXDOMAIN / refused).
    pub unknown: u64,
    /// Domains actually constructed.
    pub launches: u64,
    /// Requests answered by a cold start (parked on a boot, then served).
    pub cold_served: u64,
    /// Queries that coalesced onto an in-flight boot or drain.
    pub coalesced: u64,
    /// Queries answered by an already-running unikernel.
    pub warm_hits: u64,
    /// Queries answered `SERVFAIL` because memory was exhausted (the client
    /// fails over to another board, §3.3.2).
    pub servfails: u64,
    /// `SERVFAIL`ed queries parked for retry on a peer board (fleet runs
    /// only; the retry is delivered at the next epoch barrier).
    pub failovers: u64,
    /// `SERVFAIL`ed queries with no boards left to try (every board in the
    /// fleet was exhausted) — the client-visible hard failure count.
    pub failover_dropped: u64,
    /// Idle unikernels reaped.
    pub reaps: u64,
    /// TCP connections handed from Synjitsu to a freshly booted unikernel.
    pub syn_handoffs: u64,
    /// Data-plane accounting for the live-connection handoff.
    pub handoff: HandoffStats,
    /// Time from a client's DNS query to its first response byte, for every
    /// served request (cold and warm).
    pub ttfb: LatencyRecorder,
}

impl StormMetrics {
    /// Served requests (cold + warm).
    pub fn served(&self) -> u64 {
        self.cold_served + self.warm_hits
    }

    /// Fraction of service queries answered `SERVFAIL`, in `[0, 1]`.
    pub fn servfail_rate(&self) -> f64 {
        let eligible = self.served() + self.servfails;
        if eligible == 0 {
            0.0
        } else {
            self.servfails as f64 / eligible as f64
        }
    }
}

/// The event-driven concurrent Jitsu daemon: the world of a
/// [`Sim<ConcurrentJitsud>`].
pub struct ConcurrentJitsud {
    config: JitsuConfig,
    launcher: Launcher,
    synjitsu: Synjitsu,
    slots: LaunchSlots,
    /// The conduit rendezvous registry (Synjitsu's handoff endpoint).
    conduit: ConduitRegistry,
    /// Live client TCP flows, by client id.
    clients: BTreeMap<u32, ClientFlow>,
    /// One record per configured service, at its index in
    /// `config.services`: the index trace records and scheduled events
    /// carry.
    services: Vec<Service>,
    /// Indices of the services admitted and waiting for a launch slot, FIFO.
    launch_queue: VecDeque<u16>,
    /// Memory reserved for admitted-but-not-yet-built domains, in MiB.
    reserved_mib: u32,
    metrics: StormMetrics,
    next_client_id: u32,
    seed_counter: u64,
    /// `SERVFAIL`ed queries waiting for the next epoch barrier, where the
    /// fleet layer forwards them to a peer board. Each entry carries the
    /// number of further boards the query may still try.
    pub(crate) pending_failover: Vec<(String, u32)>,
    /// How many peer boards a fresh query may fail over to (boards − 1 in a
    /// fleet; 0 standalone).
    pub(crate) failover_hops_default: u32,
    /// The last records of what the daemon did (Figure 6's vocabulary).
    trace: Trace<JitsuEvent>,
}

/// The simulator type the engine runs on.
pub type StormSim = Sim<ConcurrentJitsud>;

impl ConcurrentJitsud {
    /// Build the world and wrap it in a simulator at time zero.
    pub fn sim(config: JitsuConfig, board: Board, seed: u64) -> StormSim {
        Sim::new(Self::world(config, board, seed))
    }

    /// Build the bare world (one board's jitsud). Used directly by the
    /// sharded fleet, where each board is one [`jitsu_sim::shard::Domain`]
    /// rather than the owner of its own standalone simulator.
    pub fn world(config: JitsuConfig, board: Board, seed: u64) -> ConcurrentJitsud {
        let mut toolstack = Toolstack::new(board.clone(), config.engine, seed);
        // Synjitsu registers its conduit endpoint up front: every booting
        // unikernel rendezvouses here to drain its proxied connections.
        let mut conduit = ConduitRegistry::new();
        #[expect(
            clippy::expect_used,
            reason = "engine setup on a fresh store; conduit registration cannot collide"
        )]
        conduit
            .register(&mut toolstack.xenstore, "synjitsu", DomId::DOM0)
            .expect("conduit registration succeeds on a fresh store");
        let launcher = Launcher::new(toolstack, config.boot);
        let slots = LaunchSlots::new(config.launch_slots);
        assert!(
            config.services.len() <= usize::from(u16::MAX) + 1,
            "a service's index must fit the u16 trace records carry"
        );
        let services = config
            .services
            .iter()
            .map(|svc| Service {
                stage: Stage::IDLE,
                queued: Vec::new(),
                last_activity: SimTime::ZERO,
                guest: None,
                keys: ServiceKeys::new(&svc.name).ok(),
            })
            .collect();
        ConcurrentJitsud {
            launcher,
            synjitsu: Synjitsu::new(),
            slots,
            conduit,
            clients: BTreeMap::new(),
            services,
            launch_queue: VecDeque::new(),
            reserved_mib: 0,
            metrics: StormMetrics::default(),
            next_client_id: 0,
            seed_counter: seed,
            pending_failover: Vec::new(),
            failover_hops_default: 0,
            trace: Trace::new(),
            config,
        }
    }

    /// Set how many peer boards a fresh `SERVFAIL`ed query may still try
    /// (boards − 1 in a fleet). The fleet layer calls this at construction.
    pub fn set_failover_hops(&mut self, hops: u32) {
        self.failover_hops_default = hops;
    }

    /// Schedule a DNS query for `name` to arrive at `at`.
    pub fn inject_query<S: Scheduler<World = ConcurrentJitsud>>(
        sim: &mut S,
        at: SimTime,
        name: &str,
    ) {
        let name = name.to_string();
        sim.schedule_at(at, move |sim| Self::on_query(sim, name, None));
    }

    /// The board's calibrated costs: network delay, query processing, the
    /// handoff commit, responses, retransmission and teardown.
    fn costs(&self) -> &'static CostModel {
        self.launcher.toolstack.board().costs
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &StormMetrics {
        &self.metrics
    }

    /// The launch-slot semaphore.
    pub fn slots(&self) -> &LaunchSlots {
        &self.slots
    }

    /// The current lifecycle phase of a service (`Idle` for a name that is
    /// not configured).
    pub fn phase(&self, name: &str) -> LifecyclePhase {
        self.config
            .service_index(name)
            .map_or(LifecyclePhase::Idle, |ix| {
                self.services[usize::from(ix)].stage.phase
            })
    }

    /// Number of services currently in the `Running` phase.
    pub fn running_count(&self) -> usize {
        self.services
            .iter()
            .filter(|s| s.stage.phase == LifecyclePhase::Running)
            .count()
    }

    /// Free board memory minus reservations for launches still waiting on a
    /// slot — the quantity admission control checks.
    pub fn effective_free_mib(&self) -> u32 {
        self.launcher.free_mib().saturating_sub(self.reserved_mib)
    }

    /// Activity counters of the shared XenStore: the boot-storm and handoff
    /// paths issue several overlapping transactions per boot (domain home
    /// creation, device frontends, conduit rendezvous, the two-phase
    /// handoff flip), so these show whether storm-time concurrency turned
    /// into merged commits (good) or `EAGAIN` aborts (the serial engine's
    /// failure mode the paper's XenStore rewrite removed).
    pub fn xenstore_stats(&self) -> xenstore::StoreStats {
        self.launcher.toolstack.xenstore_stats()
    }

    /// The shared XenStore, read-only (for inspecting what a storm left in
    /// it once drained).
    pub fn xenstore(&self) -> &xenstore::XenStore {
        &self.launcher.toolstack.xenstore
    }

    /// The host toolstack, read-only (for inspecting the hypervisor tables,
    /// the bridge and the memory pool a storm left behind).
    pub fn toolstack(&self) -> &xen_sim::toolstack::Toolstack {
        &self.launcher.toolstack
    }

    /// The Synjitsu proxy (for inspecting SYN queues mid-boot).
    pub fn synjitsu(&self) -> &Synjitsu {
        &self.synjitsu
    }

    /// The daemon's trace, oldest record first. `Display` renders it.
    pub fn trace(&self) -> &Trace<JitsuEvent> {
        &self.trace
    }

    /// Step service `ix`'s lifecycle on `input`: keep the stage it moves
    /// to, settle what the verdict does with the service's memory
    /// reservation and launch slot, and return the verdict to act on.
    fn decide(&mut self, ix: u16, input: Input) -> Verdict {
        let i = usize::from(ix);
        let (stage, verdict) = self.services[i].stage.step(input, self.config.use_synjitsu);
        self.services[i].stage = stage;
        let memory_mib = self.config.services[i].image.memory_mib;
        match verdict.reservation() {
            1 => self.reserved_mib += memory_mib,
            -1 => self.reserved_mib = self.reserved_mib.saturating_sub(memory_mib),
            _ => {}
        }
        // The dispatcher takes a slot before it steps.
        if verdict.slot() < 0 {
            self.slots.release();
        }
        verdict
    }

    fn next_seed(&mut self) -> u64 {
        self.seed_counter = self
            .seed_counter
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        self.seed_counter
    }

    /// Issue the next client id. A client's address carries only 24 bits of
    /// it (`10.x.y.z`), so ids cycle through `1..2²⁴` and skip 0. Far
    /// fewer clients than that are parked at once, so a reissued id is
    /// never one with a live flow.
    fn new_client(&mut self, arrived: SimTime) -> QueuedClient {
        self.next_client_id = self.next_client_id % 0xFF_FFFF + 1;
        debug_assert!(
            !self.clients.contains_key(&self.next_client_id),
            "client id {} reissued while its flow is live",
            self.next_client_id
        );
        QueuedClient {
            id: self.next_client_id,
            arrived,
        }
    }

    fn client_ip(id: u32) -> Ipv4Addr {
        // 10.x.y.z, never colliding with the 192.168.* service addresses.
        Ipv4Addr::new(10, (id >> 16) as u8, (id >> 8) as u8, id as u8)
    }

    fn client_mac(id: u32) -> MacAddr {
        MacAddr([
            2,
            0,
            (id >> 24) as u8,
            (id >> 16) as u8,
            (id >> 8) as u8,
            id as u8,
        ])
    }

    /// Recover the client id a `10.x.y.z` address encodes (the inverse of
    /// [`Self::client_ip`]).
    fn client_id_of_ip(ip: Ipv4Addr) -> Option<u32> {
        if ip.0[0] != 10 {
            return None;
        }
        Some(((ip.0[1] as u32) << 16) | ((ip.0[2] as u32) << 8) | ip.0[3] as u32)
    }

    /// The client id a frame is addressed to (by destination IP).
    fn frame_client_dst(frame: &FrameBuf) -> Option<u32> {
        let eth = EthernetFrame::parse(frame).ok()?;
        let ip = Ipv4Packet::parse(&eth.payload).ok()?;
        Self::client_id_of_ip(ip.dst)
    }

    /// The client id a frame came from (by source IP).
    fn frame_client_src(frame: &FrameBuf) -> Option<u32> {
        let eth = EthernetFrame::parse(frame).ok()?;
        let ip = Ipv4Packet::parse(&eth.payload).ok()?;
        Self::client_id_of_ip(ip.src)
    }

    /// The exact byte stream the static-site appliance serves for `GET /`
    /// on `name` — the oracle the zero-drop/zero-dup accounting compares
    /// each client's accumulated response against.
    fn expected_response(name: &str) -> FrameBuf {
        let mut app = StaticSiteAppliance::new(name);
        let mut rng = SimRng::seed_from_u64(0);
        let (response, _) = app.handle(&HttpRequest::get("/", name), &mut rng);
        response.emit()
    }

    /// Open a real TCP flow for `client` towards the service: build its
    /// interface, remember the HTTP request it will send once connected,
    /// and route the SYN into whichever side of the handoff currently owns
    /// the service's traffic.
    fn open_client_flow(world: &mut ConcurrentJitsud, ix: u16, client: QueuedClient) {
        if !world.config.use_synjitsu {
            return;
        }
        let svc = &world.config.services[usize::from(ix)];
        let mut iface = Interface::new(Self::client_mac(client.id), Self::client_ip(client.id));
        iface.add_arp_entry(svc.ip, svc.mac());
        let syn = iface.tcp_connect(svc.ip, svc.port);
        world.clients.insert(
            client.id,
            ClientFlow {
                iface,
                request: HttpRequest::get("/", &svc.name).emit(),
                response: Vec::new(),
                sent_request: false,
            },
        );
        Self::route_client_frames(world, ix, client.id, vec![syn]);
    }

    /// Deliver client frames to exactly one handler, per the handoff phase:
    /// Synjitsu while `Proxying`, the pending queue while `Prepare` (the
    /// unikernel replays them after `Committed`), the unikernel afterwards.
    fn route_client_frames(
        world: &mut ConcurrentJitsud,
        ix: u16,
        client_id: u32,
        frames: Vec<FrameBuf>,
    ) {
        if frames.is_empty() {
            return;
        }
        let name = &world.config.services[usize::from(ix)].name;
        let xs = &mut world.launcher.toolstack.xenstore;
        match handoff::phase(xs, &world.services[usize::from(ix)].keys().phase) {
            HandoffPhase::Proxying => Self::pump_via_synjitsu(world, ix, client_id, frames),
            HandoffPhase::Prepare => {
                // The race window between the phases: park every frame.
                // Synjitsu queues it into the handoff area and answers
                // nothing.
                for frame in frames {
                    world.metrics.handoff.queued_during_prepare += 1;
                    #[expect(
                        clippy::expect_used,
                        reason = "prepare phase keeps the parked-frame path writable by dom0"
                    )]
                    world
                        .synjitsu
                        .handle_frame(xs, name, &frame)
                        .expect("synjitsu parks frames during prepare");
                }
            }
            HandoffPhase::Committed => {
                Self::pump_via_unikernel(world, ix, client_id, frames, Vec::new());
            }
        }
    }

    /// Exchange frames between one client flow and the Synjitsu proxy until
    /// both directions go quiet. The client sends its HTTP request as soon
    /// as its handshake completes; Synjitsu buffers it (it never answers
    /// request data) and mirrors every connection into XenStore.
    fn pump_via_synjitsu(
        world: &mut ConcurrentJitsud,
        ix: u16,
        client_id: u32,
        mut to_proxy: Vec<FrameBuf>,
    ) {
        let Some(flow) = world.clients.get_mut(&client_id) else {
            return;
        };
        let name = &world.config.services[usize::from(ix)].name;
        let xs = &mut world.launcher.toolstack.xenstore;
        let synjitsu = &mut world.synjitsu;
        for _ in 0..16 {
            if to_proxy.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for frame in to_proxy.drain(..) {
                #[expect(
                    clippy::expect_used,
                    reason = "synjitsu's iface is alive for the whole proxy window"
                )]
                to_client.extend(
                    synjitsu
                        .handle_frame(xs, name, &frame)
                        .expect("synjitsu accepts proxied frames"),
                );
            }
            for frame in to_client {
                to_proxy.extend(flow.on_peer_frame(&frame));
            }
        }
    }

    /// Exchange frames between one client flow and the booted unikernel —
    /// client frames `to_server`, unikernel-originated ones (replayed
    /// responses) `to_client` — until quiescent, accumulating the client's
    /// response stream.
    fn pump_via_unikernel(
        world: &mut ConcurrentJitsud,
        ix: u16,
        client_id: u32,
        mut to_server: Vec<FrameBuf>,
        mut to_client: Vec<FrameBuf>,
    ) {
        let Some(guest) = world.services[usize::from(ix)].guest.as_mut() else {
            return;
        };
        let Some(flow) = world.clients.get_mut(&client_id) else {
            return;
        };
        for _ in 0..32 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            for frame in to_server.drain(..) {
                let (out, _cost) = guest.instance.handle_frame(&frame);
                to_client.extend(out);
            }
            for frame in to_client.drain(..) {
                to_server.extend(flow.on_peer_frame(&frame));
            }
        }
    }

    /// Event: a DNS query for `name` arrives, and its service's lifecycle
    /// decides it: an idle service is admitted, or answered `SERVFAIL` if it
    /// does not fit; a booting or draining one parks the query; a running
    /// one serves it warm. `hops` is how many further boards a query
    /// forwarded by a peer may still try; `None` for a fresh arrival, which
    /// starts from `failover_hops_default`. Crate-visible so the fleet layer
    /// (`crate::fleet`) can route failed-over queries into a board's domain
    /// context directly.
    pub(crate) fn on_query<S: Scheduler<World = ConcurrentJitsud>>(
        sim: &mut S,
        name: String,
        hops: Option<u32>,
    ) {
        let now = sim.now();
        let world = sim.world_mut();
        world.metrics.queries += 1;
        if world.config.is_nameserver(&name) {
            return; // answered with the nameserver's own address
        }
        let Some(ix) = world.config.service_index(&name) else {
            // NXDOMAIN inside the zone, SERVFAIL outside it.
            world.metrics.unknown += 1;
            return;
        };
        let i = usize::from(ix);
        // Admission: memory for the service, net of reservations for boots
        // still waiting on a slot.
        let query = Input::Query {
            fits: world.effective_free_mib() >= world.config.services[i].image.memory_mib,
            named: world.services[i].keys.is_some(),
        };
        match world.decide(ix, query) {
            Verdict::ServFail => {
                world.metrics.servfails += 1;
                world.trace.push(now, JitsuEvent::ServFail { service: ix });
                // §3.3.2's other half: in a fleet the SERVFAIL makes the
                // client retry against the next board. Parked here; the
                // fleet layer forwards it at the next epoch barrier.
                if world.config.failover {
                    let hops = hops.unwrap_or(world.failover_hops_default);
                    if hops > 0 {
                        world.metrics.failovers += 1;
                        world.pending_failover.push((name, hops - 1));
                    } else {
                        world.metrics.failover_dropped += 1;
                    }
                }
            }
            Verdict::CannotLaunch => {
                // The name cannot be registered in the store, so no launch
                // of it can start, here or on any board.
                world.metrics.servfails += 1;
                let event = JitsuEvent::LaunchFailed {
                    service: ix,
                    queued: 1,
                };
                world.trace.push(now, event);
            }
            Verdict::Admit => {
                let client = world.new_client(now);
                world.services[i].queued = vec![client];
                Self::admit(sim, ix);
            }
            Verdict::Coalesce => {
                let client = world.new_client(now);
                let svc = &mut world.services[i];
                svc.queued.push(client);
                world.metrics.coalesced += 1;
                // A boot still waiting on its slot has no domain to name.
                if let Some(guest) = &svc.guest {
                    let event = JitsuEvent::Coalesced {
                        service: ix,
                        dom: guest.dom,
                    };
                    world.trace.push(now, event);
                }
                Self::open_client_flow(world, ix, client);
            }
            Verdict::AwaitRelaunch => {
                // Reap/resummon race: no memory check, since the drain is
                // about to free exactly the memory the service needs. The
                // relaunch starts the moment the drain completes.
                let client = world.new_client(now);
                world.services[i].queued.push(client);
                world.metrics.coalesced += 1;
            }
            Verdict::ServeWarm => {
                // Warm hit: DNS round plus handshake, request and response
                // against the running unikernel (the ≈5 ms local path, §3).
                // The client draws its id like every client that is served.
                world.new_client(now);
                world.services[i].last_activity = now;
                let costs = world.costs();
                let ttfb = costs.dns_processing
                    + costs.one_way_delay * 6
                    + costs.service_response
                    + costs.one_way_delay;
                world.metrics.ttfb.record(ttfb);
                world.metrics.warm_hits += 1;
                Self::schedule_reap_check(sim, ix, now);
            }
            _ => {}
        }
    }

    /// Admit service `ix`, its memory reserved, for the clients parked on
    /// it: start Synjitsu proxying (each parked client opens its flow), and
    /// queue for a launch slot.
    fn admit<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, ix: u16) {
        let world = sim.world_mut();
        let i = usize::from(ix);
        if world.config.use_synjitsu {
            #[expect(
                clippy::expect_used,
                reason = "an admitted service's name is a store path, and dom0 writes its own handoff area"
            )]
            world
                .synjitsu
                .start_proxying(
                    &mut world.launcher.toolstack.xenstore,
                    &world.config.services[i],
                )
                .expect("synjitsu can begin proxying");
            for k in 0..world.services[i].queued.len() {
                let client = world.services[i].queued[k];
                Self::open_client_flow(world, ix, client);
            }
        }
        world.launch_queue.push_back(ix);
        Self::dispatch(sim);
    }

    /// Grant launch slots to queued services, in admission order, for as
    /// long as slots are free.
    fn dispatch<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S) {
        loop {
            let now = sim.now();
            let world = sim.world_mut();
            let Some(&ix) = world.launch_queue.front() else {
                return;
            };
            if !world.slots.try_acquire() {
                return;
            }
            world.launch_queue.pop_front();
            if world.decide(ix, Input::SlotGranted) != Verdict::Build {
                world.slots.release();
                continue;
            }
            let i = usize::from(ix);
            let seed = world.next_seed();
            let svc = &world.config.services[i];
            match world.launcher.summon(svc, now, seed) {
                Ok((outcome, instance)) => {
                    world.metrics.launches += 1;
                    // Register the boot in the store inside a transaction
                    // that stays open for the entire construction window.
                    // Under a storm, several of these overlap; the engine
                    // decides at commit time whether they merge or abort.
                    let xs = &mut world.launcher.toolstack.xenstore;
                    #[expect(
                        clippy::expect_used,
                        reason = "dom0 transactions are exempt from the per-domain quota"
                    )]
                    let boot_tx = xs
                        .transaction_start(DomId::DOM0)
                        .expect("dom0 transactions are not quota-limited");
                    let service = &mut world.services[i];
                    #[expect(
                        clippy::expect_used,
                        reason = "boot registration writes go to fresh per-service paths"
                    )]
                    Self::write_boot_record(xs, boot_tx, service.keys(), outcome.dom)
                        .expect("boot registration writes succeed");
                    let construction_done_at = now + outcome.construction.total;
                    let network_ready_at = outcome.network_ready_at();
                    let app_ready_at = outcome.app_ready_at();
                    // The handoff commits one `handoff_commit` after
                    // network-ready; the application comes up a whole boot
                    // stage later, so it always finds the commit done.
                    debug_assert!(
                        network_ready_at + world.launcher.toolstack.board().costs.handoff_commit
                            < app_ready_at
                    );
                    let event = JitsuEvent::Summoning {
                        service: ix,
                        dom: outcome.dom,
                        queued: service.queued.len() as u32,
                    };
                    world.trace.push(now, event);
                    // The packet-level instance is the unikernel side of the
                    // data plane once the handoff commits.
                    service.guest = Some(Guest {
                        dom: outcome.dom,
                        network_ready_at,
                        app_ready_at,
                        boot_tx,
                        instance,
                        drained: Vec::new(),
                    });
                    // The slot covers dom0's construction work only; the
                    // guest boots on its own vcpu.
                    sim.schedule_at(construction_done_at, move |sim| {
                        Self::on_construction_done(sim, ix);
                    });
                    sim.schedule_at(network_ready_at, move |sim| {
                        Self::on_network_ready(sim, ix);
                    });
                    sim.schedule_at(app_ready_at, move |sim| Self::on_app_ready(sim, ix));
                }
                Err(_) => {
                    // Reservations should make this unreachable; degrade to
                    // SERVFAIL for every parked client rather than wedging.
                    if world.decide(ix, Input::BuildFailed) == Verdict::LaunchFailed {
                        let queued = std::mem::take(&mut world.services[i].queued);
                        let event = JitsuEvent::LaunchFailed {
                            service: ix,
                            queued: queued.len() as u32,
                        };
                        world.trace.push(now, event);
                        world.metrics.servfails += queued.len() as u64;
                        for client in &queued {
                            world.clients.remove(&client.id);
                        }
                    }
                }
            }
        }
    }

    /// The store-side registration a boot performs inside its open
    /// transaction: the service's lifecycle record under `/jitsu/service`.
    fn write_boot_record(
        xs: &mut xenstore::XenStore,
        tx: xenstore::TxId,
        keys: &ServiceKeys,
        dom: DomId,
    ) -> Result<(), xenstore::Error> {
        xs.write(DomId::DOM0, Some(tx), &keys.state, b"booting")?;
        xs.write(
            DomId::DOM0,
            Some(tx),
            keys.record.child("dom")?,
            dom.0.to_string().as_bytes(),
        )?;
        Ok(())
    }

    /// Event: dom0's construction work for a service finished. Commit the
    /// boot-registration transaction that has been open since the slot was
    /// granted — on the merge engines a concurrent build's commit merges;
    /// on the serialising engine it aborts with `EAGAIN` and the whole
    /// registration is redone, the "cancel and retry a large set of domain
    /// building RPCs" cost §3.1 describes. The step gave the launch slot
    /// back; grant it to the next queued launch.
    fn on_construction_done<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, ix: u16) {
        let world = sim.world_mut();
        if world.decide(ix, Input::ConstructionDone) != Verdict::Built {
            return;
        }
        let svc = &world.services[usize::from(ix)];
        if let Some(guest) = &svc.guest {
            let xs = &mut world.launcher.toolstack.xenstore;
            Self::commit_boot_record(xs, guest.boot_tx, svc.keys(), guest.dom);
        }
        Self::dispatch(sim);
    }

    /// Mark the service's boot record built and commit its transaction
    /// `tx`, redoing the whole registration if the commit aborts with
    /// `EAGAIN`.
    fn commit_boot_record(
        xs: &mut xenstore::XenStore,
        tx: xenstore::TxId,
        keys: &ServiceKeys,
        dom: DomId,
    ) {
        #[expect(
            clippy::expect_used,
            reason = "transactional write inside an open boot transaction"
        )]
        xs.write(DomId::DOM0, Some(tx), &keys.state, b"built")
            .expect("transactional write succeeds");
        match xs.transaction_end(DomId::DOM0, tx, true) {
            Ok(()) => {}
            Err(xenstore::Error::Again) => {
                #[expect(
                    clippy::expect_used,
                    reason = "the retry re-registers on a conflict-free snapshot"
                )]
                xs.with_transaction(DomId::DOM0, 8, |xs, t| {
                    Self::write_boot_record(xs, t, keys, dom)?;
                    xs.write(DomId::DOM0, Some(t), &keys.state, b"built")
                })
                .expect("boot-registration retry succeeds");
            }
            #[expect(
                clippy::panic,
                reason = "commit failures other than EAGAIN mean a corrupted store; fail the experiment loudly"
            )]
            Err(e) => panic!("boot registration commit failed: {e}"),
        }
    }

    /// Event: the booting unikernel's network stack attached — phase 1 of
    /// the two-phase commit (§3.3.1). The unikernel writes `Prepare` (so
    /// Synjitsu stops answering and racing frames park in the handoff
    /// area), rendezvouses with Synjitsu over the conduit, and drains every
    /// connection record — `Tcb` plus buffered request bytes, serialised
    /// with `to_sexp` — through a vchan. The commit itself runs one handoff
    /// window later, in [`Self::on_commit_handoff`].
    fn on_network_ready<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, ix: u16) {
        let now = sim.now();
        let world = sim.world_mut();
        if world.decide(ix, Input::NetworkReady) != Verdict::Prepare {
            return;
        }
        let name = &world.config.services[usize::from(ix)].name;
        let Some(guest) = world.services[usize::from(ix)].guest.as_mut() else {
            return;
        };
        let dom = guest.dom;
        #[expect(
            clippy::expect_used,
            reason = "prepare flush happens while the synjitsu service still exists"
        )]
        let flushed = world
            .synjitsu
            .prepare_handoff(&mut world.launcher.toolstack.xenstore, name)
            .expect("prepare flushes the final records");

        // The unikernel connects to Synjitsu's conduit endpoint and drains
        // the records over a freshly established vchan.
        let records = world.synjitsu.connection_records(name);
        let conn_name = name.replace('.', "_");
        let (xs, grants, evtchn) = world.launcher.toolstack.conduit_parts();
        #[expect(
            clippy::expect_used,
            reason = "the synjitsu endpoint was registered during engine setup"
        )]
        ConduitRegistry::connect(xs, dom, "synjitsu", &conn_name)
            .expect("the synjitsu conduit endpoint is registered");
        #[expect(
            clippy::expect_used,
            reason = "rendezvous follows the accept the unikernel just posted"
        )]
        let mut accepted = world
            .conduit
            .accept_one(xs, grants, evtchn, "synjitsu", DomId::DOM0, &conn_name)
            .expect("synjitsu accepts the handoff rendezvous");
        let mut wire = Vec::new();
        for (_, tcb) in &records {
            let sexp = tcb.to_sexp();
            wire.extend_from_slice(&(sexp.len() as u32).to_be_bytes());
            wire.extend_from_slice(sexp.as_bytes());
        }
        #[expect(
            clippy::expect_used,
            reason = "drain loop exits once the vchan reports no more bytes"
        )]
        let drained_bytes = accepted
            .channel
            .stream(Side::Server, &wire, evtchn)
            .expect("the vchan drain makes progress");
        accepted.channel.close(Side::Server);
        accepted.channel.teardown(grants, evtchn);
        #[expect(
            clippy::expect_used,
            reason = "teardown of conduit metadata this engine created"
        )]
        ConduitRegistry::close(xs, "synjitsu", DomId::DOM0, &conn_name, accepted.flow_id)
            .expect("handoff conduit metadata tears down");
        // Handoff flows are short-lived; prune the closed entries so the
        // flows table stays bounded over a storm's worth of relaunches.
        FlowTable::prune_closed(xs, DomId::DOM0);

        // Reconstruct each TCB on the unikernel side, exactly as written.
        let mut drained = Vec::new();
        let mut cursor = 0usize;
        while cursor + 4 <= drained_bytes.len() {
            #[expect(
                clippy::expect_used,
                reason = "length prefix was written as exactly 4 bytes by the drain protocol"
            )]
            let len = u32::from_be_bytes(
                drained_bytes[cursor..cursor + 4]
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            cursor += 4;
            #[expect(
                clippy::expect_used,
                reason = "records are emitted by Tcb::to_sexp, which is ASCII"
            )]
            let sexp = std::str::from_utf8(&drained_bytes[cursor..cursor + len])
                .expect("records are valid UTF-8");
            cursor += len;
            #[expect(
                clippy::expect_used,
                reason = "records round-trip through the sexp codec by construction"
            )]
            drained.push(Tcb::from_sexp(sexp).expect("records round-trip"));
        }
        guest.drained = drained;
        let event = JitsuEvent::Prepared {
            service: ix,
            dom,
            flushed: flushed as u32,
            drained_bytes: drained_bytes.len() as u32,
        };
        world.trace.push(now, event);
        let handoff_commit = world.costs().handoff_commit;
        sim.schedule_in(handoff_commit, move |sim| Self::on_commit_handoff(sim, ix));
    }

    /// Event: phase 2 of the two-phase commit. The unikernel atomically
    /// flips the phase to `Committed` (clearing the records), adopts every
    /// drained connection — replaying buffered requests straight away — and
    /// replays any frames that were parked during the `Prepare` window.
    /// From this moment Synjitsu never touches the service's traffic again.
    fn on_commit_handoff<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, ix: u16) {
        let now = sim.now();
        let world = sim.world_mut();
        if world.decide(ix, Input::HandoffCommitted) != Verdict::Adopt {
            return;
        }
        let i = usize::from(ix);
        #[expect(
            clippy::expect_used,
            reason = "takeover transaction operates on paths this engine owns"
        )]
        let pending = world
            .synjitsu
            .commit_handoff(
                &mut world.launcher.toolstack.xenstore,
                &world.config.services[i].name,
            )
            .expect("the takeover commits");
        let Some(guest) = world.services[i].guest.as_mut() else {
            return;
        };
        let dom = guest.dom;
        let adopted = std::mem::take(&mut guest.drained);
        let migrated = adopted.len() as u64;
        let mut response_frames = Vec::new();
        for tcb in adopted {
            let client_mac = Self::client_id_of_ip(tcb.remote_ip)
                .map(Self::client_mac)
                .unwrap_or(MacAddr::BROADCAST);
            let (frames, _cost) = guest.instance.adopt_handoff(tcb, client_mac);
            response_frames.extend(frames);
        }
        world.metrics.handoff.migrated += migrated;
        world.metrics.syn_handoffs += migrated;
        let event = JitsuEvent::HandedOver {
            service: ix,
            dom,
            connections: migrated as u32,
        };
        world.trace.push(now, event);

        // Replayed responses go back to the clients that were mid-request.
        for frame in response_frames {
            if let Some(id) = Self::frame_client_dst(&frame) {
                Self::pump_via_unikernel(world, ix, id, Vec::new(), vec![frame]);
            }
        }
        // Frames parked during the Prepare window replay against the
        // unikernel — late SYNs handshake now, late data segments land in
        // their adopted connections.
        let replayed = pending.len() as u64;
        world.metrics.handoff.replayed_after_commit += replayed;
        for frame in pending {
            if let Some(id) = Self::frame_client_src(&frame) {
                Self::pump_via_unikernel(world, ix, id, vec![frame], Vec::new());
            }
        }
        if replayed > 0 {
            let event = JitsuEvent::Replayed {
                service: ix,
                dom,
                frames: replayed as u32,
            };
            world.trace.push(now, event);
        }
    }

    /// Compare what each parked client's flow actually received against the
    /// exact response the unikernel serves, and fold the result into the
    /// handoff accounting: byte-exact streams count as `completed`, missing
    /// suffixes as dropped bytes, diverging or extra bytes as duplicated.
    fn account_exchanges(world: &mut ConcurrentJitsud, ix: u16, clients: &[QueuedClient]) {
        if !world.config.use_synjitsu {
            return;
        }
        let expected = Self::expected_response(&world.config.services[usize::from(ix)].name);
        for client in clients {
            let Some(flow) = world.clients.remove(&client.id) else {
                continue;
            };
            let got = flow.response;
            if got == expected {
                world.metrics.handoff.completed += 1;
            } else {
                let common = got
                    .iter()
                    .zip(expected.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                world.metrics.handoff.dropped_bytes += (expected.len() - common) as u64;
                world.metrics.handoff.duplicated_bytes += (got.len() - common) as u64;
            }
        }
    }

    /// Event: the application is up — serve the queued clients, settle their
    /// exchanges' accounting (the handoff committed before this, see
    /// `dispatch`), start the idle clock, and arm the idle reaper.
    fn on_app_ready<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, ix: u16) {
        let now = sim.now();
        let world = sim.world_mut();
        if world.decide(ix, Input::AppReady) != Verdict::Serve {
            return;
        }
        let i = usize::from(ix);
        let svc = &mut world.services[i];
        let Some(guest) = &svc.guest else {
            return;
        };
        let (dom, network_ready_at, app_ready_at) =
            (guest.dom, guest.network_ready_at, guest.app_ready_at);
        let queued = std::mem::take(&mut svc.queued);
        for client in &queued {
            let ttfb = world.cold_ttfb(client.arrived, network_ready_at, app_ready_at);
            world.metrics.ttfb.record(ttfb);
            if world.config.use_synjitsu {
                // Every parked client waited out the handoff window,
                // whether its connection was migrated or opened just after
                // the commit.
                world.metrics.handoff.request_latency.record(ttfb);
            }
        }
        world.metrics.cold_served += queued.len() as u64;
        let event = JitsuEvent::Ready {
            service: ix,
            dom,
            requests: queued.len() as u32,
        };
        world.trace.push(now, event);
        Self::account_exchanges(world, ix, &queued);
        world.services[i].last_activity = now;
        Self::schedule_reap_check(sim, ix, now);
    }

    /// Time from a client's DNS query to its first response byte, for a
    /// client parked on a boot.
    fn cold_ttfb(
        &self,
        arrived: SimTime,
        network_ready_at: SimTime,
        app_ready_at: SimTime,
    ) -> SimDuration {
        let costs = self.costs();
        if self.config.use_synjitsu {
            // Synjitsu completes the handshake immediately; the unikernel
            // replays the buffered request right after adopting it.
            let request_buffered = arrived + costs.dns_processing + costs.one_way_delay * 4;
            let handoff_done = network_ready_at + costs.handoff_commit;
            let first_byte_sent = handoff_done.max(request_buffered) + costs.service_response;
            (first_byte_sent + costs.one_way_delay).duration_since(arrived)
        } else {
            // The SYN is lost until the app listens; the client retransmits
            // with exponential backoff (1 s, 2 s, 4 s, …).
            let mut attempt = arrived + costs.dns_processing + costs.one_way_delay * 2;
            let mut retransmissions = 0u32;
            while attempt < app_ready_at {
                retransmissions += 1;
                let backoff = costs.syn_rto * (1u64 << (retransmissions - 1).min(6));
                attempt += backoff;
            }
            let first_byte_sent = attempt + costs.one_way_delay * 4 + costs.service_response;
            (first_byte_sent + costs.one_way_delay).duration_since(arrived)
        }
    }

    /// Arm an idle check at `activity_at + TTL`. Stale checks (the service
    /// saw traffic in the meantime, or was already reaped) fizzle.
    fn schedule_reap_check<S: Scheduler<World = ConcurrentJitsud>>(
        sim: &mut S,
        ix: u16,
        activity_at: SimTime,
    ) {
        let Some(ttl) = sim.world().config.idle_timeout else {
            return;
        };
        sim.schedule_at(activity_at + ttl, move |sim| Self::on_reap_check(sim, ix));
    }

    /// Event: an idle check fires. A stale one (the service saw traffic
    /// since it was armed, or is no longer running) changes nothing.
    fn on_reap_check<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, ix: u16) {
        let now = sim.now();
        let world = sim.world_mut();
        let Some(ttl) = world.config.idle_timeout else {
            return;
        };
        let i = usize::from(ix);
        let idle = now.duration_since(world.services[i].last_activity) >= ttl;
        if world.decide(ix, Input::ReapCheck { idle }) != Verdict::StartDrain {
            return;
        }
        let Some(guest) = &world.services[i].guest else {
            return;
        };
        let dom = guest.dom;
        world.metrics.reaps += 1;
        world
            .trace
            .push(now, JitsuEvent::Reaping { service: ix, dom });
        let teardown = world.costs().domain_teardown;
        sim.schedule_in(teardown, move |sim| Self::on_drain_done(sim, ix));
    }

    /// Event: teardown finished — free the domain and either go idle or
    /// immediately relaunch for clients that arrived mid-drain.
    fn on_drain_done<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, ix: u16) {
        let now = sim.now();
        let world = sim.world_mut();
        let i = usize::from(ix);
        let waiting = !world.services[i].queued.is_empty();
        let verdict = world.decide(ix, Input::DrainDone { waiting });
        if !matches!(verdict, Verdict::GoIdle | Verdict::Relaunch) {
            return;
        }
        // The unikernel's data plane dies with the domain, and so does its
        // lifecycle record in the store.
        let Some(Guest { dom, .. }) = world.services[i].guest.take() else {
            return;
        };
        #[expect(
            clippy::expect_used,
            reason = "a draining service holds its domain until retirement"
        )]
        world
            .launcher
            .retire(dom)
            .expect("draining domain exists until retired");
        #[expect(
            clippy::let_underscore_must_use,
            reason = "lifecycle record removal is best-effort; the path is gone if a racing retire won"
        )]
        let _ = world.launcher.toolstack.xenstore.rm(
            DomId::DOM0,
            None,
            &world.services[i].keys().record,
        );
        world
            .trace
            .push(now, JitsuEvent::Retired { service: ix, dom });
        // Re-entry: waiters arrived while the old domain drained. Launch
        // again from scratch.
        if verdict == Verdict::Relaunch {
            Self::admit(sim, ix);
        }
    }
}

impl fmt::Display for ConcurrentJitsud {
    /// The trace, one record a line and oldest first, with each service
    /// index resolved to the service's name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |service: u16| {
            let svc = self.config.services.get(service as usize);
            svc.map_or("?", |s| s.name.as_str())
        };
        if self.trace.evicted() > 0 {
            writeln!(f, "({} older record(s) evicted)", self.trace.evicted())?;
        }
        for (at, event) in self.trace.records() {
            write!(f, "[{:>12}] {:<12} ", at.to_string(), event.component())?;
            match event {
                JitsuEvent::ServFail { service } => writeln!(
                    f,
                    "SERVFAIL for {}: memory exhausted, client fails over",
                    name(service)
                ),
                JitsuEvent::Coalesced { service, dom } => writeln!(
                    f,
                    "query for mid-launch {} coalesced onto {dom}'s boot",
                    name(service)
                ),
                JitsuEvent::Summoning {
                    service,
                    dom,
                    queued,
                } => writeln!(
                    f,
                    "summoning {} as {dom} ({queued} queued SYN(s))",
                    name(service)
                ),
                JitsuEvent::LaunchFailed { service, queued } => writeln!(
                    f,
                    "launch of {} failed; SERVFAIL for {queued} queued client(s)",
                    name(service)
                ),
                JitsuEvent::Prepared {
                    service,
                    dom,
                    flushed,
                    drained_bytes,
                } => writeln!(
                    f,
                    "prepare for {} on {dom}: flushed {flushed} record(s), \
                     drained {drained_bytes} byte(s) over the conduit vchan",
                    name(service)
                ),
                JitsuEvent::HandedOver {
                    service,
                    dom,
                    connections,
                } => writeln!(
                    f,
                    "handed over {connections} connection(s) for {} to {dom}",
                    name(service)
                ),
                JitsuEvent::Replayed {
                    service,
                    dom,
                    frames,
                } => writeln!(
                    f,
                    "{} on {dom} replayed {frames} frame(s) parked during the prepare window",
                    name(service)
                ),
                JitsuEvent::Ready {
                    service,
                    dom,
                    requests,
                } => writeln!(
                    f,
                    "{} ready on {dom}; replayed {requests} buffered request(s)",
                    name(service)
                ),
                JitsuEvent::Reaping { service, dom } => {
                    writeln!(f, "reaping idle {} ({dom})", name(service))
                }
                JitsuEvent::Retired { service, dom } => {
                    writeln!(f, "retired idle service {} ({dom})", name(service))
                }
            }?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use platform::BoardKind;

    const ALICE: &str = "alice.family.name";
    const BOB: &str = "bob.family.name";

    /// Base test config with idle reaping off, so `sim.run()` leaves
    /// services in `Running` (tests that exercise the reaper opt in via
    /// `with_idle_timeout`).
    fn config() -> JitsuConfig {
        let mut cfg = JitsuConfig::new("family.name")
            .with_service(ServiceConfig::http_site(
                ALICE,
                Ipv4Addr::new(192, 168, 1, 20),
            ))
            .with_service(ServiceConfig::http_site(
                BOB,
                Ipv4Addr::new(192, 168, 1, 21),
            ));
        cfg.idle_timeout = None;
        cfg
    }

    fn sim(config: JitsuConfig) -> StormSim {
        ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), 7)
    }

    /// The trace's events, oldest first.
    fn events(sim: &StormSim) -> Vec<JitsuEvent> {
        sim.world().trace().records().map(|(_, e)| e).collect()
    }

    /// When the launching service `name`'s network stack attaches.
    fn network_ready_at(sim: &StormSim, name: &str) -> SimTime {
        let world = sim.world();
        let ix = world
            .config
            .service_index(name)
            .expect("configured service");
        let svc = &world.services[usize::from(ix)];
        assert_eq!(svc.stage.phase, LifecyclePhase::Launching);
        svc.guest.as_ref().expect("a built domain").network_ready_at
    }

    /// The handoff commits `handoff_commit` after network-ready, and the
    /// daemon settles a boot's exchanges at app-ready on the assumption that
    /// the commit came first. Every board must keep the stretch of boot
    /// between network-ready and app-ready longer than the handoff window.
    #[test]
    fn app_ready_always_follows_the_handoff_commit() {
        use unikernel::boot::BootPipeline;
        for kind in BoardKind::ALL {
            let board = kind.board();
            let handoff_commit = board.costs.handoff_commit;
            let pipeline = BootPipeline::new(&board);
            let tail = pipeline.total() - pipeline.time_to_network_ready();
            assert!(
                tail > handoff_commit,
                "{kind:?}: app-ready {tail} after network-ready, handoff {handoff_commit}"
            );
        }
    }

    #[test]
    fn duplicate_queries_coalesce_onto_the_in_flight_boot() {
        let mut sim = sim(config());
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(10), ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(20), ALICE);
        sim.run_until(SimTime::from_millis(50));
        // Mid-boot: one launch in flight, three SYNs parked on it.
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Launching);
        assert_eq!(sim.world().metrics().coalesced, 2);
        assert_eq!(sim.world().synjitsu().proxied_connection_count(ALICE), 3);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.launches, 1, "duplicates must not double-launch");
        assert_eq!(m.cold_served, 3);
        assert_eq!(m.syn_handoffs, 3, "all parked SYNs handed over");
        assert_eq!(m.ttfb.count(), 3);
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
        let coalesced = events(&sim)
            .into_iter()
            .filter(|e| matches!(e, JitsuEvent::Coalesced { service: 0, .. }))
            .count();
        assert_eq!(coalesced, 2);
    }

    #[test]
    fn overlapping_boots_merge_their_xenstore_transactions_without_aborts() {
        // Two concurrent domain builds interleave their toolstack and
        // handoff transactions against the shared store. With the Jitsu
        // merge engine every commit that lands on a moved base merges —
        // none aborts with EAGAIN, which is what keeps parallel builds off
        // the retry path under storm load.
        let mut sim = sim(config().with_launch_slots(2));
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(1), BOB);
        sim.run();
        let xs = sim.world().xenstore_stats();
        assert_eq!(xs.conflicts, 0, "no storm-time EAGAIN aborts: {xs:?}");
        assert!(xs.commits > 0);
        assert!(
            xs.merged > 0,
            "overlapping boots must exercise the merge path: {xs:?}"
        );
        assert_eq!(sim.world().running_count(), 2);
    }

    #[test]
    fn different_names_boot_concurrently_within_slot_capacity() {
        let mut sim = sim(config().with_launch_slots(2));
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(1), BOB);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Launching);
        assert_eq!(sim.world().phase(BOB), LifecyclePhase::Launching);
        assert_eq!(sim.world().slots().in_use(), 2);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.launches, 2);
        assert_eq!(sim.world().slots().peak(), 2);
        assert_eq!(sim.world().running_count(), 2);
    }

    #[test]
    fn single_slot_serialises_overlapping_launches() {
        let mut sim = sim(config().with_launch_slots(1));
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(1), BOB);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Launching);
        assert_eq!(
            sim.world().phase(BOB),
            LifecyclePhase::AwaitingSlot,
            "second launch queues behind the semaphore"
        );
        sim.run();
        assert_eq!(sim.world().slots().peak(), 1);
        assert_eq!(sim.world().metrics().launches, 2);
        // Bob still boots — later, not never.
        assert_eq!(sim.world().running_count(), 2);
    }

    #[test]
    fn synjitsu_syn_queues_hand_off_per_service_under_overlap() {
        let mut sim = sim(config().with_launch_slots(2));
        // Alice gets three clients, Bob two, interleaved mid-boot.
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(2), BOB);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(5), ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(7), BOB);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(9), ALICE);
        sim.run_until(SimTime::from_millis(40));
        assert_eq!(sim.world().synjitsu().proxied_connection_count(ALICE), 3);
        assert_eq!(sim.world().synjitsu().proxied_connection_count(BOB), 2);
        sim.run();
        assert_eq!(sim.world().metrics().syn_handoffs, 5);
        let events = events(&sim);
        let find = |wanted: fn(&JitsuEvent) -> bool| events.iter().position(wanted);
        let alice_handed = find(|e| {
            matches!(
                e,
                JitsuEvent::HandedOver {
                    service: 0,
                    connections: 3,
                    ..
                }
            )
        });
        let bob_handed = find(|e| {
            matches!(
                e,
                JitsuEvent::HandedOver {
                    service: 1,
                    connections: 2,
                    ..
                }
            )
        });
        let alice_ready = find(|e| matches!(e, JitsuEvent::Ready { service: 0, .. }));
        assert!(bob_handed.is_some());
        // Handoff strictly precedes the app serving the replayed requests.
        assert!(alice_handed.unwrap() < alice_ready.unwrap());
    }

    #[test]
    fn memory_exhaustion_yields_servfail_and_recovers_after_reaping() {
        // Three fat services on a board that fits only two (832 MiB free).
        let mut cfg = JitsuConfig::new("family.name").with_idle_timeout(SimDuration::from_secs(2));
        for (i, name) in ["a.family.name", "b.family.name", "c.family.name"]
            .iter()
            .enumerate()
        {
            let mut svc = ServiceConfig::http_site(name, Ipv4Addr::new(192, 168, 1, 30 + i as u8));
            svc.image.memory_mib = 400;
            cfg = cfg.with_service(svc);
        }
        let mut sim = sim(cfg);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "a.family.name");
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(5), "b.family.name");
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(10), "c.family.name");
        sim.run_until(SimTime::from_secs(1));
        let m = sim.world().metrics();
        assert_eq!(m.launches, 2);
        assert_eq!(m.servfails, 1, "third service cannot fit");
        assert_eq!(sim.world().phase("c.family.name"), LifecyclePhase::Idle);
        // After the idle TTL the first two are reaped; c can now be summoned
        // (the fail-over story: the client retries and this board has room).
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.world().metrics().reaps, 2);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(11), "c.family.name");
        sim.run_until(SimTime::from_secs(12));
        assert_eq!(sim.world().phase("c.family.name"), LifecyclePhase::Running);
        assert_eq!(sim.world().metrics().launches, 3);
        assert_eq!(sim.world().metrics().servfail_rate(), 1.0 / 4.0);
    }

    #[test]
    fn reap_then_resummon_re_enters_the_lifecycle() {
        let mut sim = sim(config().with_idle_timeout(SimDuration::from_secs(1)));
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Idle);
        assert_eq!(sim.world().metrics().reaps, 1);
        assert!(matches!(
            events(&sim)[..],
            [.., JitsuEvent::Reaping { service: 0, dom }, JitsuEvent::Retired { service: 0, dom: retired }]
                if dom == retired
        ));
        // Resummon from scratch.
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_secs(5), ALICE);
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
        assert_eq!(sim.world().metrics().launches, 2);
        assert_eq!(sim.world().metrics().cold_served, 2);
        // Left alone, the reaper eventually retires it again.
        sim.run();
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Idle);
        assert_eq!(sim.world().metrics().reaps, 2);
    }

    #[test]
    fn query_during_drain_relaunches_after_teardown() {
        let mut sim = sim(config().with_idle_timeout(SimDuration::from_secs(1)));
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        // Step in 5 ms increments until the reaper has moved the service
        // into Draining (the teardown window is ~30 ms on ARM).
        let mut guard = 0;
        while sim.world().phase(ALICE) != LifecyclePhase::Draining {
            sim.run_for(SimDuration::from_millis(5));
            guard += 1;
            assert!(guard < 1_000, "service never entered Draining");
        }
        // Two queries land mid-drain: both wait out the teardown, then ride
        // one boot.
        let mid_drain = sim.now();
        ConcurrentJitsud::inject_query(&mut sim, mid_drain, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, mid_drain, ALICE);
        sim.run_until(mid_drain + SimDuration::from_millis(600));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
        let m = sim.world().metrics();
        assert_eq!(m.coalesced, 2);
        assert_eq!(m.launches, 2);
        assert_eq!(m.cold_served, 3);
        assert_eq!(m.reaps, 1);
    }

    #[test]
    fn memory_reservations_are_returned_on_launch() {
        let mut sim = sim(config().with_launch_slots(1));
        let free_before = sim.world().effective_free_mib();
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(1), BOB);
        // Bob awaits a slot: his memory is reserved but not allocated.
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.world().effective_free_mib(), free_before - 32);
        sim.run();
        // Both allocated for real now; reservations fully drained.
        assert_eq!(sim.world().effective_free_mib(), free_before - 32);
        assert_eq!(sim.world().reserved_mib, 0);
    }

    #[test]
    fn warm_hits_are_fast_and_refresh_the_idle_clock() {
        let mut sim = sim(config().with_idle_timeout(SimDuration::from_secs(2)));
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
        // A warm query at t=1.5s pushes the reap horizon to 3.5s.
        ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(1_500), ALICE);
        sim.run_until(SimTime::from_millis(2_600));
        assert_eq!(
            sim.world().phase(ALICE),
            LifecyclePhase::Running,
            "warm traffic must delay the reaper"
        );
        assert_eq!(sim.world().metrics().warm_hits, 1);
        sim.run();
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Idle);
        let m = sim.world().metrics();
        // Warm TTFB is tens of ms; cold is hundreds.
        assert!(m.ttfb.percentile_ms(0.0) < 50.0);
        assert!(m.ttfb.percentile_ms(100.0) > 250.0);
    }

    #[test]
    fn without_synjitsu_cold_ttfb_exceeds_one_second() {
        let mut sim = sim(config().without_synjitsu());
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.cold_served, 1);
        assert_eq!(m.syn_handoffs, 0);
        assert!(
            m.ttfb.percentile_ms(50.0) > 1_000.0,
            "lost SYN costs a retransmission timeout"
        );
    }

    #[test]
    fn unknown_names_are_counted_not_launched() {
        let mut sim = sim(config());
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "carol.family.name");
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "example.com");
        // The nameserver's own name is answered: neither unknown nor a
        // service, so no launch and no client.
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "ns.family.name");
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, "ns.family.name.");
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.unknown, 2);
        assert_eq!(m.launches, 0);
        assert_eq!(m.queries, 4);
        assert_eq!(sim.world().next_client_id, 0, "no client was drawn");
    }

    /// A name the store cannot hold as a path component can never launch:
    /// its query records a launch that could not start and is answered
    /// `SERVFAIL`, with nothing reserved, no slot taken, no proxy started
    /// and nothing written to the store.
    #[test]
    fn a_name_that_is_no_store_path_is_answered_servfail_without_a_launch() {
        const BAD: &str = "bad name.family.name";
        for use_synjitsu in [true, false] {
            let mut cfg = config().with_service(ServiceConfig::http_site(
                BAD,
                Ipv4Addr::new(192, 168, 1, 22),
            ));
            if !use_synjitsu {
                cfg = cfg.without_synjitsu();
            }
            let mut sim = sim(cfg);
            let store_before = (
                sim.world().xenstore_stats(),
                sim.world().xenstore().node_count(),
            );
            ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, BAD);
            sim.run();
            let world = sim.world();
            assert_eq!(world.phase(BAD), LifecyclePhase::Idle);
            assert_eq!(world.metrics().servfails, 1);
            assert_eq!(world.metrics().launches, 0);
            assert_eq!(world.reserved_mib, 0);
            assert_eq!(world.slots().peak(), 0);
            assert_eq!(world.synjitsu().proxied_connection_count(BAD), 0);
            assert_eq!(
                (world.xenstore_stats(), world.xenstore().node_count()),
                store_before
            );
            assert_eq!(
                events(&sim),
                [JitsuEvent::LaunchFailed {
                    service: 2,
                    queued: 1
                }]
            );
        }
    }

    #[test]
    fn mid_request_connection_completes_against_the_unikernel_byte_exact() {
        let mut sim = sim(config());
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        // Mid-boot the client has handshaken with Synjitsu and sent its
        // HTTP request; nothing has answered it yet.
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Launching);
        assert_eq!(sim.world().synjitsu().proxied_connection_count(ALICE), 1);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.handoff.migrated, 1, "the flow crossed the vchan drain");
        assert_eq!(m.syn_handoffs, 1);
        assert_eq!(
            m.handoff.completed, 1,
            "the unikernel's response reached the client byte-exact"
        );
        assert_eq!(m.handoff.dropped_bytes, 0);
        assert_eq!(m.handoff.duplicated_bytes, 0);
        assert_eq!(m.handoff.request_latency.count(), 1);
        assert!(events(&sim).iter().any(|e| matches!(
            e,
            JitsuEvent::Prepared {
                flushed: 1,
                drained_bytes: 1..,
                ..
            }
        )));
    }

    #[test]
    fn segments_arriving_during_prepare_are_parked_and_replayed() {
        let mut sim = sim(config());
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        sim.run_until(SimTime::from_millis(50));
        let network_ready_at = network_ready_at(&sim, ALICE);
        // A second client's query lands exactly at network-ready. Its event
        // is scheduled after the prepare event (same timestamp, later
        // sequence number), so its SYN arrives inside the Prepare window:
        // Synjitsu has stopped answering, the unikernel has not committed.
        ConcurrentJitsud::inject_query(&mut sim, network_ready_at, ALICE);
        sim.run();
        let m = sim.world().metrics();
        assert!(
            m.handoff.queued_during_prepare >= 1,
            "the racing SYN must be parked, not dropped"
        );
        assert_eq!(
            m.handoff.replayed_after_commit, m.handoff.queued_during_prepare,
            "every parked frame is replayed after Committed"
        );
        assert_eq!(m.handoff.migrated, 1, "only the first flow was proxied");
        assert_eq!(m.cold_served, 2);
        assert_eq!(
            m.handoff.completed, 2,
            "both exchanges complete: the migrated one and the replayed one"
        );
        assert_eq!(m.handoff.dropped_bytes, 0);
        assert_eq!(m.handoff.duplicated_bytes, 0);
        assert!(events(&sim)
            .iter()
            .any(|e| matches!(e, JitsuEvent::Replayed { frames: 1.., .. })));
    }

    #[test]
    fn clients_arriving_after_commit_connect_directly_to_the_unikernel() {
        let mut sim = sim(config());
        ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, ALICE);
        sim.run_until(SimTime::from_millis(50));
        let network_ready_at = network_ready_at(&sim, ALICE);
        // Run past the commit (one handoff window after network-ready) but
        // not to app-ready, then land a new client.
        let after_commit =
            network_ready_at + sim.world().costs().handoff_commit + SimDuration::from_micros(1);
        sim.run_until(after_commit);
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Launching);
        ConcurrentJitsud::inject_query(&mut sim, after_commit, ALICE);
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.handoff.migrated, 1);
        assert_eq!(m.handoff.queued_during_prepare, 0);
        assert_eq!(m.cold_served, 2);
        assert_eq!(
            m.handoff.completed, 2,
            "late client served by the unikernel"
        );
        assert_eq!(m.handoff.dropped_bytes, 0);
        assert_eq!(m.handoff.duplicated_bytes, 0);
    }

    #[test]
    fn client_ids_wrap_within_the_address_space_without_aliasing() {
        let mut sim = sim(config());
        // The next ids are 2²⁴ − 1, then 1, 2, 3: past 2²⁴ an address would
        // otherwise name 0 or an older client, and replayed responses would
        // go to a flow that does not exist.
        sim.world_mut().next_client_id = (1 << 24) - 2;
        for i in 0..4 {
            ConcurrentJitsud::inject_query(&mut sim, SimTime::from_millis(i * 10), ALICE);
        }
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.cold_served, 4);
        assert_eq!(m.handoff.migrated, 4);
        assert_eq!(m.handoff.completed, 4, "every parked client served");
        assert_eq!(
            (m.handoff.dropped_bytes, m.handoff.duplicated_bytes),
            (0, 0)
        );
    }

    #[test]
    fn same_seed_same_storm() {
        let run = || {
            let mut s = sim(config().with_idle_timeout(SimDuration::from_secs(1)));
            for i in 0..20u64 {
                let name = if i % 2 == 0 { ALICE } else { BOB };
                ConcurrentJitsud::inject_query(&mut s, SimTime::from_millis(i * 137), name);
            }
            s.run();
            let m = s.world().metrics();
            (
                m.queries,
                m.launches,
                m.coalesced,
                m.warm_hits,
                m.ttfb.p50_ms().to_bits(),
                m.ttfb.p99_ms().to_bits(),
                s.events_executed(),
            )
        };
        assert_eq!(run(), run());
    }
}
