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
//! [`jitsu_sim`] discrete-event engine. Every configured service owns a
//! lifecycle state machine:
//!
//! ```text
//!            admission           slot granted          app ready
//!   Idle ──────────────▶ AwaitingSlot ──────▶ Launching ──────▶ Running
//!    ▲   (memory check,   {queued SYNs}      {queued SYNs}        │
//!    │    SERVFAIL on                                             │ idle ≥ TTL
//!    │    exhaustion)                                             ▼
//!    └──────────────────────── teardown done ◀──────────────── Draining
//! ```
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
//! * **Idle reaping** — a service idle longer than the configured TTL is
//!   drained: its domain is torn down (taking
//!   [`Toolstack::teardown_time`](xen_sim::toolstack::Toolstack) of
//!   virtual time) and its memory returns to the pool, after which the name
//!   can be summoned again from scratch.
//!
//! The SYN queue is not a counter: while a service boots, each queued
//! client completes a real TCP handshake against the real
//! [`Synjitsu`] proxy (same `netstack` the unikernels use), and at
//! network-ready the whole queue is handed over: a `Prepare` phase in
//! XenStore, a drain of every connection record over the conduit vchan,
//! and a `Committed` phase flip.

use crate::config::{JitsuConfig, ServiceConfig};
use crate::directory::{DirectoryAction, DirectoryService};
use crate::handoff::{HandoffCoordinator, HandoffPhase};
use crate::launcher::Launcher;
use crate::synjitsu::Synjitsu;
use conduit::flows::FlowTable;
use conduit::rendezvous::ConduitRegistry;
use conduit::vchan::Side;
use jitsu_sim::{LatencyRecorder, Scheduler, Sim, SimDuration, SimRng, SimTime, Trace};
use netstack::dns::{DnsMessage, Rcode};
use netstack::ethernet::{EthernetFrame, MacAddr};
use netstack::http::HttpRequest;
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::{Ipv4Addr, Ipv4Packet};
use netstack::tcp::Tcb;
use netstack::FrameBuf;
use platform::Board;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use unikernel::appliance::{Appliance, StaticSiteAppliance};
use unikernel::instance::UnikernelInstance;
use xen_sim::toolstack::{LaunchSlots, Toolstack};
use xenstore::DomId;

/// One client whose first connection is parked on a booting service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedClient {
    /// Engine-wide client id (used to derive a unique IP/MAC).
    pub id: u32,
    /// When the client's DNS query arrived.
    pub arrived: SimTime,
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

/// The unikernel side of one service's data plane: the packet-level
/// instance (network stack + appliance) plus the handoff bookkeeping the
/// two-phase commit needs.
#[derive(Debug)]
struct DataPlane {
    /// The domain the instance runs in.
    dom: DomId,
    instance: UnikernelInstance,
    /// TCBs reconstructed from the conduit vchan drain at `Prepare`,
    /// adopted into the instance at `Committed`.
    drained: Vec<Tcb>,
    /// Phase 2 of the two-phase commit has run.
    committed: bool,
    /// The application has come up (`on_app_ready` fired).
    app_ready: bool,
    /// Clients whose exchanges could not be accounted at app-ready because
    /// the commit had not happened yet (the rare reversed ordering).
    awaiting_account: Vec<QueuedClient>,
}

/// The lifecycle state machine of one configured service.
#[derive(Debug)]
pub enum Lifecycle {
    /// No domain exists and nothing is in flight.
    Idle,
    /// Admitted (memory reserved) but waiting for a launch slot.
    AwaitingSlot {
        /// Clients parked on this boot, in arrival order.
        queued: Vec<QueuedClient>,
    },
    /// The toolstack is constructing / the guest is booting the domain.
    Launching {
        /// Clients parked on this boot, in arrival order.
        queued: Vec<QueuedClient>,
        /// The domain being built.
        dom: DomId,
        /// When the guest's network stack attaches (Synjitsu handoff point).
        network_ready_at: SimTime,
        /// When the application can serve requests.
        app_ready_at: SimTime,
    },
    /// The unikernel is serving requests. Its idle clock is the
    /// directory's: every query for the name refreshes it.
    Running {
        /// The serving domain.
        dom: DomId,
    },
    /// Reaped: the domain is being torn down; memory frees when it is done.
    Draining {
        /// The domain being destroyed.
        dom: DomId,
        /// Clients that asked for the name mid-drain (they relaunch it).
        queued: Vec<QueuedClient>,
    },
}

/// A copyable label for a service's current lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecyclePhase {
    /// No domain exists.
    Idle,
    /// Waiting for a launch slot.
    AwaitingSlot,
    /// Domain construction / guest boot in flight.
    Launching,
    /// Serving.
    Running,
    /// Being torn down.
    Draining,
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
    /// The toolstack could not build the domain; every parked client got
    /// `SERVFAIL`.
    LaunchFailed {
        /// The service that failed to launch.
        service: u16,
        /// Clients parked on it.
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
    directory: DirectoryService,
    launcher: Launcher,
    synjitsu: Synjitsu,
    slots: LaunchSlots,
    /// The conduit rendezvous registry (Synjitsu's handoff endpoint).
    conduit: ConduitRegistry,
    /// Stateless probe into the XenStore handoff area (phase lookups).
    handoff_probe: HandoffCoordinator,
    /// Live client TCP flows, by client id.
    clients: BTreeMap<u32, ClientFlow>,
    /// Per-service unikernel data planes, while launching or running.
    planes: BTreeMap<String, DataPlane>,
    services: BTreeMap<String, Lifecycle>,
    /// The per-boot service-registration transaction, held open for the
    /// whole domain-construction window so overlapping builds genuinely
    /// overlap their store transactions (committed at construction-done;
    /// merged, not aborted, on the Jitsu engine).
    boot_txns: BTreeMap<String, xenstore::TxId>,
    /// Services admitted and waiting for a launch slot, FIFO.
    launch_queue: VecDeque<String>,
    /// Memory reserved for admitted-but-not-yet-built domains, in MiB.
    reserved_mib: u32,
    metrics: StormMetrics,
    one_way_delay: SimDuration,
    dns_processing: SimDuration,
    handoff_cost: SimDuration,
    /// Application-level cost of producing one response.
    service_cost: SimDuration,
    syn_rto: SimDuration,
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
    /// rather than the owner of its own flat simulator.
    pub fn world(config: JitsuConfig, board: Board, seed: u64) -> ConcurrentJitsud {
        let mut toolstack = Toolstack::new(board.clone(), config.engine, seed);
        // Synjitsu registers its conduit endpoint up front: every booting
        // unikernel rendezvouses here to drain its proxied connections.
        let mut conduit = ConduitRegistry::new();
        conduit
            .register(&mut toolstack.xenstore, "synjitsu", DomId::DOM0)
            // jitsu-lint: allow(P001, "engine setup on a fresh store; conduit registration cannot collide")
            .expect("conduit registration succeeds on a fresh store");
        let launcher = Launcher::new(toolstack, config.boot);
        let directory = DirectoryService::new(config.clone());
        let slots = LaunchSlots::new(config.launch_slots);
        ConcurrentJitsud {
            directory,
            launcher,
            synjitsu: Synjitsu::new(),
            slots,
            conduit,
            handoff_probe: HandoffCoordinator::new(),
            clients: BTreeMap::new(),
            planes: BTreeMap::new(),
            services: BTreeMap::new(),
            boot_txns: BTreeMap::new(),
            launch_queue: VecDeque::new(),
            reserved_mib: 0,
            metrics: StormMetrics::default(),
            one_way_delay: SimDuration::from_micros(2_500),
            dns_processing: board.scale_cpu(SimDuration::from_micros(150)),
            handoff_cost: board.scale_cpu(SimDuration::from_micros(700)),
            service_cost: board.scale_cpu(SimDuration::from_micros(700)),
            syn_rto: SimDuration::from_secs(1),
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

    /// Accumulated metrics.
    pub fn metrics(&self) -> &StormMetrics {
        &self.metrics
    }

    /// The launch-slot semaphore.
    pub fn slots(&self) -> &LaunchSlots {
        &self.slots
    }

    /// The current lifecycle phase of a service.
    pub fn phase(&self, name: &str) -> LifecyclePhase {
        match self.services.get(name.trim_matches('.')) {
            None | Some(Lifecycle::Idle) => LifecyclePhase::Idle,
            Some(Lifecycle::AwaitingSlot { .. }) => LifecyclePhase::AwaitingSlot,
            Some(Lifecycle::Launching { .. }) => LifecyclePhase::Launching,
            Some(Lifecycle::Running { .. }) => LifecyclePhase::Running,
            Some(Lifecycle::Draining { .. }) => LifecyclePhase::Draining,
        }
    }

    /// Number of services currently in the `Running` phase.
    pub fn running_count(&self) -> usize {
        self.services
            .values()
            .filter(|s| matches!(s, Lifecycle::Running { .. }))
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

    /// `name`'s index in `config.services`, as trace records carry it.
    fn service_ix(config: &JitsuConfig, name: &str) -> u16 {
        let ix = config.services.iter().position(|s| s.name == name);
        ix.and_then(|i| u16::try_from(i).ok()).unwrap_or(u16::MAX)
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
    fn open_client_flow(world: &mut ConcurrentJitsud, svc: &ServiceConfig, client: QueuedClient) {
        if !world.config.use_synjitsu {
            return;
        }
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
        Self::route_client_frames(world, &svc.name, client.id, vec![syn]);
    }

    /// Deliver client frames to exactly one handler, per the handoff phase:
    /// Synjitsu while `Proxying`, the pending queue while `Prepare` (the
    /// unikernel replays them after `Committed`), the unikernel afterwards.
    fn route_client_frames(
        world: &mut ConcurrentJitsud,
        name: &str,
        client_id: u32,
        frames: Vec<FrameBuf>,
    ) {
        if frames.is_empty() {
            return;
        }
        let xs = &mut world.launcher.toolstack.xenstore;
        match world.handoff_probe.phase(xs, name) {
            HandoffPhase::Proxying => Self::pump_via_synjitsu(world, name, client_id, frames),
            HandoffPhase::Prepare => {
                // The race window between the phases: park every frame.
                // Synjitsu queues it into the handoff area and answers
                // nothing.
                for frame in frames {
                    world.metrics.handoff.queued_during_prepare += 1;
                    world
                        .synjitsu
                        .handle_frame(xs, name, &frame)
                        // jitsu-lint: allow(P001, "prepare phase keeps the parked-frame path writable by dom0")
                        .expect("synjitsu parks frames during prepare");
                }
            }
            HandoffPhase::Committed => Self::pump_via_unikernel(world, name, client_id, frames),
        }
    }

    /// Exchange frames between one client flow and the Synjitsu proxy until
    /// both directions go quiet. The client sends its HTTP request as soon
    /// as its handshake completes; Synjitsu buffers it (it never answers
    /// request data) and mirrors every connection into XenStore.
    fn pump_via_synjitsu(
        world: &mut ConcurrentJitsud,
        name: &str,
        client_id: u32,
        mut to_proxy: Vec<FrameBuf>,
    ) {
        let Some(flow) = world.clients.get_mut(&client_id) else {
            return;
        };
        let xs = &mut world.launcher.toolstack.xenstore;
        let synjitsu = &mut world.synjitsu;
        for _ in 0..16 {
            if to_proxy.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for frame in to_proxy.drain(..) {
                to_client.extend(
                    synjitsu
                        .handle_frame(xs, name, &frame)
                        // jitsu-lint: allow(P001, "synjitsu's iface is alive for the whole proxy window")
                        .expect("synjitsu accepts proxied frames"),
                );
            }
            for frame in to_client {
                to_proxy.extend(flow.on_peer_frame(&frame));
            }
        }
    }

    /// Exchange frames between one client flow and the booted unikernel.
    fn pump_via_unikernel(
        world: &mut ConcurrentJitsud,
        name: &str,
        client_id: u32,
        to_server: Vec<FrameBuf>,
    ) {
        let Some(plane) = world.planes.get_mut(name) else {
            return;
        };
        let Some(flow) = world.clients.get_mut(&client_id) else {
            return;
        };
        Self::exchange(plane, flow, to_server, Vec::new());
    }

    /// Deliver unikernel-originated frames (e.g. replayed responses) to the
    /// client that owns them, pumping any ACK traffic back.
    fn deliver_to_client(
        world: &mut ConcurrentJitsud,
        name: &str,
        client_id: u32,
        to_client: Vec<FrameBuf>,
    ) {
        let Some(plane) = world.planes.get_mut(name) else {
            return;
        };
        let Some(flow) = world.clients.get_mut(&client_id) else {
            return;
        };
        Self::exchange(plane, flow, Vec::new(), to_client);
    }

    /// Pump frames both ways between a client flow and a unikernel instance
    /// until quiescent, accumulating the client's response stream.
    fn exchange(
        plane: &mut DataPlane,
        flow: &mut ClientFlow,
        mut to_server: Vec<FrameBuf>,
        mut to_client: Vec<FrameBuf>,
    ) {
        for _ in 0..32 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            for frame in to_server.drain(..) {
                let (out, _cost) = plane.instance.handle_frame(&frame);
                to_client.extend(out);
            }
            for frame in to_client.drain(..) {
                to_server.extend(flow.on_peer_frame(&frame));
            }
        }
    }

    /// Event: a DNS query for `name` arrives. `hops` is how many further
    /// boards a query forwarded by a peer may still try; `None` for a fresh
    /// arrival, which starts from `failover_hops_default`. Crate-visible so
    /// the fleet layer (`crate::fleet`) can route failed-over queries into
    /// a board's domain context directly.
    pub(crate) fn on_query<S: Scheduler<World = ConcurrentJitsud>>(
        sim: &mut S,
        name: String,
        hops: Option<u32>,
    ) {
        let now = sim.now();
        let world = sim.world_mut();
        world.metrics.queries += 1;
        let qid = (world.metrics.queries & 0xffff) as u16;
        // Admission: memory for the service, net of reservations for boots
        // still waiting on a slot. A draining service is exempt — the drain
        // is about to free exactly the memory it needs.
        let draining = matches!(
            world.services.get(name.trim_matches('.')),
            Some(Lifecycle::Draining { .. })
        );
        let resources = draining
            || match world.config.service(&name) {
                Some(svc) => world.effective_free_mib() >= svc.image.memory_mib,
                None => true,
            };
        let query = DnsMessage::query(qid, &name);
        let (response, action) = world.directory.handle_query(&query, now, resources);
        match action {
            DirectoryAction::None => {
                if response.rcode != Rcode::NoError {
                    world.metrics.unknown += 1;
                }
            }
            DirectoryAction::ResourceExhausted { name } => {
                world.metrics.servfails += 1;
                let service = Self::service_ix(&world.config, &name);
                world.trace.push(now, JitsuEvent::ServFail { service });
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
            DirectoryAction::AlreadyRunning { name } => Self::on_alive_query(sim, name),
            DirectoryAction::Launch { name } => Self::on_admitted(sim, name),
        }
    }

    /// A query for a service the directory considers alive (mid-launch or
    /// running) — coalesce or serve warm.
    fn on_alive_query<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let now = sim.now();
        let world = sim.world_mut();
        let client = world.new_client(now);
        let svc = world
            .config
            .service(&name)
            .cloned()
            // jitsu-lint: allow(P001, "queries reaching here matched a configured service name")
            .expect("directory only answers configured names");
        match world.services.get_mut(&name) {
            Some(Lifecycle::AwaitingSlot { queued, .. }) => {
                queued.push(client);
                world.metrics.coalesced += 1;
                Self::open_client_flow(world, &svc, client);
            }
            Some(Lifecycle::Launching { queued, dom, .. }) => {
                queued.push(client);
                world.metrics.coalesced += 1;
                let event = JitsuEvent::Coalesced {
                    service: Self::service_ix(&world.config, &name),
                    dom: *dom,
                };
                world.trace.push(now, event);
                Self::open_client_flow(world, &svc, client);
            }
            Some(Lifecycle::Draining { queued, .. }) => {
                // A relaunch is already committed (the query that triggered
                // it marked the directory); ride along.
                queued.push(client);
                world.metrics.coalesced += 1;
            }
            Some(Lifecycle::Running { .. }) => {
                // Warm hit: DNS round plus handshake, request and response
                // against the running unikernel (the ≈5 ms local path, §3).
                let ttfb = world.dns_processing
                    + world.one_way_delay * 6
                    + world.service_cost
                    + world.one_way_delay;
                world.metrics.ttfb.record(ttfb);
                world.metrics.warm_hits += 1;
                // `handle_query` just refreshed the idle clock; re-arm the
                // reaper from it.
                Self::schedule_reap_check(sim, name, now);
            }
            None | Some(Lifecycle::Idle) => {
                debug_assert!(false, "directory alive but engine idle for {name}");
            }
        }
    }

    /// A query the directory admitted for launch: reserve memory, start
    /// Synjitsu proxying, and queue for a launch slot.
    fn on_admitted<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let now = sim.now();
        let world = sim.world_mut();
        let svc = world
            .config
            .service(&name)
            .cloned()
            // jitsu-lint: allow(P001, "launch actions are only emitted for configured services")
            .expect("directory only launches configured names");
        if matches!(world.services.get(&name), Some(Lifecycle::Draining { .. })) {
            // Reap/resummon race: the domain is still tearing down; the
            // relaunch starts the moment the drain completes.
            let client = world.new_client(now);
            if let Some(Lifecycle::Draining { queued, .. }) = world.services.get_mut(&name) {
                queued.push(client);
            }
            world.metrics.coalesced += 1;
            return;
        }
        debug_assert!(
            matches!(world.services.get(&name), None | Some(Lifecycle::Idle)),
            "Launch action for {name} in a non-idle state"
        );
        let client = world.new_client(now);
        if world.config.use_synjitsu {
            world
                .synjitsu
                .start_proxying(&mut world.launcher.toolstack.xenstore, &svc)
                // jitsu-lint: allow(P001, "synjitsu proxy setup repeats a registration that already succeeded")
                .expect("synjitsu can begin proxying");
            Self::open_client_flow(world, &svc, client);
        }
        world.reserved_mib += svc.image.memory_mib;
        world.services.insert(
            name.clone(),
            Lifecycle::AwaitingSlot {
                queued: vec![client],
            },
        );
        world.launch_queue.push_back(name);
        Self::dispatch(sim);
    }

    /// Grant launch slots to queued services, in admission order, for as
    /// long as slots are free.
    fn dispatch<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S) {
        loop {
            let now = sim.now();
            let world = sim.world_mut();
            if world.launch_queue.is_empty() || !world.slots.try_acquire() {
                return;
            }
            let name = world
                .launch_queue
                .pop_front()
                // jitsu-lint: allow(P001, "guarded by the non-empty check on the previous line")
                .expect("checked non-empty above");
            let Some(Lifecycle::AwaitingSlot { queued, .. }) = world.services.remove(&name) else {
                // The service left AwaitingSlot some other way (launch
                // failure cleanup); give the slot back and keep going.
                world.slots.release();
                continue;
            };
            let svc = world
                .config
                .service(&name)
                .cloned()
                // jitsu-lint: allow(P001, "queued service names were validated at admission")
                .expect("queued services are configured");
            world.reserved_mib = world.reserved_mib.saturating_sub(svc.image.memory_mib);
            let seed = world.next_seed();
            match world.launcher.summon(&svc, now, seed) {
                Ok((outcome, instance)) => {
                    world.metrics.launches += 1;
                    // Register the boot in the store inside a transaction
                    // that stays open for the entire construction window.
                    // Under a storm, several of these overlap; the engine
                    // decides at commit time whether they merge or abort.
                    let xs = &mut world.launcher.toolstack.xenstore;
                    let boot_tx = xs
                        .transaction_start(DomId::DOM0)
                        // jitsu-lint: allow(P001, "dom0 transactions are exempt from the per-domain quota")
                        .expect("dom0 transactions are not quota-limited");
                    Self::write_boot_record(xs, boot_tx, &name, outcome.dom)
                        // jitsu-lint: allow(P001, "boot registration writes go to fresh per-service paths")
                        .expect("boot registration writes succeed");
                    world.boot_txns.insert(name.clone(), boot_tx);
                    // Keep the packet-level instance: it is the unikernel
                    // side of the data plane once the handoff commits.
                    world.planes.insert(
                        name.clone(),
                        DataPlane {
                            dom: outcome.dom,
                            instance,
                            drained: Vec::new(),
                            committed: false,
                            app_ready: false,
                            awaiting_account: Vec::new(),
                        },
                    );
                    let construction_done_at = now + outcome.construction.total;
                    let network_ready_at = outcome.network_ready_at();
                    let app_ready_at = outcome.app_ready_at();
                    let event = JitsuEvent::Summoning {
                        service: Self::service_ix(&world.config, &name),
                        dom: outcome.dom,
                        queued: queued.len() as u32,
                    };
                    world.trace.push(now, event);
                    world.services.insert(
                        name.clone(),
                        Lifecycle::Launching {
                            queued,
                            dom: outcome.dom,
                            network_ready_at,
                            app_ready_at,
                        },
                    );
                    // The slot covers dom0's construction work only; the
                    // guest boots on its own vcpu.
                    let built_name = name.clone();
                    sim.schedule_at(construction_done_at, move |sim| {
                        Self::on_construction_done(sim, built_name);
                    });
                    let handoff_name = name.clone();
                    sim.schedule_at(network_ready_at, move |sim| {
                        Self::on_network_ready(sim, handoff_name);
                    });
                    sim.schedule_at(app_ready_at, move |sim| Self::on_app_ready(sim, name));
                }
                Err(_) => {
                    // Reservations should make this unreachable; degrade to
                    // SERVFAIL for every parked client rather than wedging.
                    let event = JitsuEvent::LaunchFailed {
                        service: Self::service_ix(&world.config, &name),
                        queued: queued.len() as u32,
                    };
                    world.trace.push(now, event);
                    world.metrics.servfails += queued.len() as u64;
                    for client in &queued {
                        world.clients.remove(&client.id);
                    }
                    world.directory.mark_stopped(&name);
                    world.services.insert(name, Lifecycle::Idle);
                    world.slots.release();
                }
            }
        }
    }

    /// The store-side registration a boot performs inside its open
    /// transaction: the service's lifecycle record under `/jitsu/service`.
    fn write_boot_record(
        xs: &mut xenstore::XenStore,
        tx: xenstore::TxId,
        name: &str,
        dom: DomId,
    ) -> Result<(), xenstore::Error> {
        let base = format!("/jitsu/service/{name}");
        xs.write(DomId::DOM0, Some(tx), &format!("{base}/state"), b"booting")?;
        xs.write(
            DomId::DOM0,
            Some(tx),
            &format!("{base}/dom"),
            dom.0.to_string().as_bytes(),
        )?;
        Ok(())
    }

    /// The domain a service currently maps to, whatever lifecycle phase it
    /// is in.
    fn dom_of(&self, name: &str) -> Option<DomId> {
        match self.services.get(name) {
            Some(
                Lifecycle::Launching { dom, .. }
                | Lifecycle::Running { dom, .. }
                | Lifecycle::Draining { dom, .. },
            ) => Some(*dom),
            _ => None,
        }
    }

    /// Event: dom0's construction work for `name` finished. Commit the
    /// boot-registration transaction that has been open since the slot was
    /// granted — on the merge engines a concurrent build's commit merges;
    /// on the serialising engine it aborts with `EAGAIN` and the whole
    /// registration is redone, the "cancel and retry a large set of domain
    /// building RPCs" cost §3.1 describes. Then release the launch slot.
    fn on_construction_done<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let world = sim.world_mut();
        if let Some(tx) = world.boot_txns.remove(&name) {
            let dom = world.dom_of(&name);
            let xs = &mut world.launcher.toolstack.xenstore;
            let state_path = format!("/jitsu/service/{name}/state");
            xs.write(DomId::DOM0, Some(tx), &state_path, b"built")
                // jitsu-lint: allow(P001, "transactional write inside an open boot transaction")
                .expect("transactional write succeeds");
            match xs.transaction_end(DomId::DOM0, tx, true) {
                Ok(()) => {}
                Err(xenstore::Error::Again) => {
                    if let Some(dom) = dom {
                        xs.with_transaction(DomId::DOM0, 8, |xs, t| {
                            Self::write_boot_record(xs, t, &name, dom)?;
                            xs.write(DomId::DOM0, Some(t), &state_path, b"built")
                        })
                        // jitsu-lint: allow(P001, "the retry re-registers on a conflict-free snapshot")
                        .expect("boot-registration retry succeeds");
                    }
                }
                // jitsu-lint: allow(P001, "commit failures other than EAGAIN mean a corrupted store; fail the experiment loudly")
                Err(e) => panic!("boot registration commit failed: {e}"),
            }
        }
        world.slots.release();
        Self::dispatch(sim);
    }

    /// Event: the booting unikernel's network stack attached — phase 1 of
    /// the two-phase commit (§3.3.1). The unikernel writes `Prepare` (so
    /// Synjitsu stops answering and racing frames park in the handoff
    /// area), rendezvouses with Synjitsu over the conduit, and drains every
    /// connection record — `Tcb` plus buffered request bytes, serialised
    /// with `to_sexp` — through a vchan. The commit itself runs one handoff
    /// window later, in [`Self::on_commit_handoff`].
    fn on_network_ready<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let now = sim.now();
        let world = sim.world_mut();
        if !world.config.use_synjitsu || !world.synjitsu.is_proxying(&name) {
            return;
        }
        let Some(Lifecycle::Launching { dom, .. }) = world.services.get(&name) else {
            debug_assert!(false, "network-ready without a Launching {name}");
            return;
        };
        let dom = *dom;
        let flushed = world
            .synjitsu
            .prepare_handoff(&mut world.launcher.toolstack.xenstore, &name)
            // jitsu-lint: allow(P001, "prepare flush happens while the synjitsu service still exists")
            .expect("prepare flushes the final records");

        // The unikernel connects to Synjitsu's conduit endpoint and drains
        // the records over a freshly established vchan.
        let records = world.synjitsu.connection_records(&name);
        let conn_name = name.replace('.', "_");
        let (xs, grants, evtchn) = world.launcher.toolstack.conduit_parts();
        ConduitRegistry::connect(xs, dom, "synjitsu", &conn_name)
            // jitsu-lint: allow(P001, "the synjitsu endpoint was registered during engine setup")
            .expect("the synjitsu conduit endpoint is registered");
        let mut accepted = world
            .conduit
            .accept_one(xs, grants, evtchn, "synjitsu", DomId::DOM0, &conn_name)
            // jitsu-lint: allow(P001, "rendezvous follows the accept the unikernel just posted")
            .expect("synjitsu accepts the handoff rendezvous");
        let mut wire = Vec::new();
        for (_, tcb) in &records {
            let sexp = tcb.to_sexp();
            wire.extend_from_slice(&(sexp.len() as u32).to_be_bytes());
            wire.extend_from_slice(sexp.as_bytes());
        }
        let drained_bytes = accepted
            .channel
            .stream(Side::Server, &wire, evtchn)
            // jitsu-lint: allow(P001, "drain loop exits once the vchan reports no more bytes")
            .expect("the vchan drain makes progress");
        accepted.channel.close(Side::Server);
        accepted.channel.teardown(grants, evtchn);
        ConduitRegistry::close(xs, "synjitsu", DomId::DOM0, &conn_name, accepted.flow_id)
            // jitsu-lint: allow(P001, "teardown of conduit metadata this engine created")
            .expect("handoff conduit metadata tears down");
        // Handoff flows are short-lived; prune the closed entries so the
        // flows table stays bounded over a storm's worth of relaunches.
        FlowTable::prune_closed(xs, DomId::DOM0);

        // Reconstruct each TCB on the unikernel side, exactly as written.
        let mut drained = Vec::new();
        let mut cursor = 0usize;
        while cursor + 4 <= drained_bytes.len() {
            let len = u32::from_be_bytes(
                drained_bytes[cursor..cursor + 4]
                    .try_into()
                    // jitsu-lint: allow(P001, "length prefix was written as exactly 4 bytes by the drain protocol")
                    .expect("4 bytes"),
            ) as usize;
            cursor += 4;
            let sexp = std::str::from_utf8(&drained_bytes[cursor..cursor + len])
                // jitsu-lint: allow(P001, "records are emitted by Tcb::to_sexp, which is ASCII")
                .expect("records are valid UTF-8");
            cursor += len;
            // jitsu-lint: allow(P001, "records round-trip through the sexp codec by construction")
            drained.push(Tcb::from_sexp(sexp).expect("records round-trip"));
        }
        let plane = world
            .planes
            .get_mut(&name)
            // jitsu-lint: allow(P001, "a Launching service always owns a data plane")
            .expect("launching services have a data plane");
        plane.drained = drained;
        let event = JitsuEvent::Prepared {
            service: Self::service_ix(&world.config, &name),
            dom,
            flushed: flushed as u32,
            drained_bytes: drained_bytes.len() as u32,
        };
        world.trace.push(now, event);
        let handoff_cost = world.handoff_cost;
        sim.schedule_in(handoff_cost, move |sim| {
            Self::on_commit_handoff(sim, name);
        });
    }

    /// Event: phase 2 of the two-phase commit. The unikernel atomically
    /// flips the phase to `Committed` (clearing the records), adopts every
    /// drained connection — replaying buffered requests straight away — and
    /// replays any frames that were parked during the `Prepare` window.
    /// From this moment Synjitsu never touches the service's traffic again.
    fn on_commit_handoff<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let now = sim.now();
        let world = sim.world_mut();
        let pending = world
            .synjitsu
            .commit_handoff(&mut world.launcher.toolstack.xenstore, &name)
            // jitsu-lint: allow(P001, "takeover transaction operates on paths this engine owns")
            .expect("the takeover commits");
        let Some(plane) = world.planes.get_mut(&name) else {
            return;
        };
        plane.committed = true;
        let dom = plane.dom;
        let adopted = std::mem::take(&mut plane.drained);
        let migrated = adopted.len() as u64;
        let mut response_frames = Vec::new();
        for tcb in adopted {
            let client_mac = Self::client_id_of_ip(tcb.remote_ip)
                .map(Self::client_mac)
                .unwrap_or(MacAddr::BROADCAST);
            let (frames, _cost) = plane.instance.adopt_handoff(tcb, client_mac);
            response_frames.extend(frames);
        }
        world.metrics.handoff.migrated += migrated;
        world.metrics.syn_handoffs += migrated;
        let service = Self::service_ix(&world.config, &name);
        let event = JitsuEvent::HandedOver {
            service,
            dom,
            connections: migrated as u32,
        };
        world.trace.push(now, event);

        // Replayed responses go back to the clients that were mid-request.
        for frame in response_frames {
            if let Some(id) = Self::frame_client_dst(&frame) {
                Self::deliver_to_client(world, &name, id, vec![frame]);
            }
        }
        // Frames parked during the Prepare window replay against the
        // unikernel — late SYNs handshake now, late data segments land in
        // their adopted connections.
        let replayed = pending.len() as u64;
        world.metrics.handoff.replayed_after_commit += replayed;
        for frame in pending {
            if let Some(id) = Self::frame_client_src(&frame) {
                Self::pump_via_unikernel(world, &name, id, vec![frame]);
            }
        }
        if replayed > 0 {
            let event = JitsuEvent::Replayed {
                service,
                dom,
                frames: replayed as u32,
            };
            world.trace.push(now, event);
        }
        // If the app came up before the commit (short boots), the exchange
        // accounting waited for us.
        let waiting = match world.planes.get_mut(&name) {
            Some(plane) if plane.app_ready => std::mem::take(&mut plane.awaiting_account),
            _ => Vec::new(),
        };
        if !waiting.is_empty() {
            Self::account_exchanges(world, &name, &waiting);
        }
    }

    /// Compare what each parked client's flow actually received against the
    /// exact response the unikernel serves, and fold the result into the
    /// handoff accounting: byte-exact streams count as `completed`, missing
    /// suffixes as dropped bytes, diverging or extra bytes as duplicated.
    fn account_exchanges(world: &mut ConcurrentJitsud, name: &str, clients: &[QueuedClient]) {
        if !world.config.use_synjitsu {
            return;
        }
        let expected = Self::expected_response(name);
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

    /// Event: the application is up — serve the queued clients, enter
    /// `Running`, and arm the idle reaper.
    fn on_app_ready<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let now = sim.now();
        let world = sim.world_mut();
        let Some(Lifecycle::Launching {
            queued,
            dom,
            network_ready_at,
            app_ready_at,
        }) = world.services.remove(&name)
        else {
            debug_assert!(false, "app-ready without a Launching {name}");
            return;
        };
        world.directory.mark_ready(&name, now);
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
            service: Self::service_ix(&world.config, &name),
            dom,
            requests: queued.len() as u32,
        };
        world.trace.push(now, event);
        // Data plane: settle the zero-drop/zero-dup accounting for every
        // parked client, once the commit has also happened (it almost
        // always has — the handoff window is shorter than the app boot
        // tail; otherwise the commit event settles it).
        let mut account_now = false;
        if let Some(plane) = world.planes.get_mut(&name) {
            plane.app_ready = true;
            if plane.committed {
                account_now = true;
            } else {
                plane.awaiting_account = queued.clone();
            }
        }
        if account_now {
            Self::account_exchanges(world, &name, &queued);
        }
        world
            .services
            .insert(name.clone(), Lifecycle::Running { dom });
        Self::schedule_reap_check(sim, name, now);
    }

    /// Time from a client's DNS query to its first response byte, for a
    /// client parked on a boot.
    fn cold_ttfb(
        &self,
        arrived: SimTime,
        network_ready_at: SimTime,
        app_ready_at: SimTime,
    ) -> SimDuration {
        if self.config.use_synjitsu {
            // Synjitsu completes the handshake immediately; the unikernel
            // replays the buffered request right after adopting it.
            let request_buffered = arrived + self.dns_processing + self.one_way_delay * 4;
            let handoff_done = network_ready_at + self.handoff_cost;
            let first_byte_sent = handoff_done.max(request_buffered) + self.service_cost;
            (first_byte_sent + self.one_way_delay).duration_since(arrived)
        } else {
            // The SYN is lost until the app listens; the client retransmits
            // with exponential backoff (1 s, 2 s, 4 s, …).
            let mut attempt = arrived + self.dns_processing + self.one_way_delay * 2;
            let mut retransmissions = 0u32;
            while attempt < app_ready_at {
                retransmissions += 1;
                let backoff = self.syn_rto * (1u64 << (retransmissions - 1).min(6));
                attempt += backoff;
            }
            let first_byte_sent = attempt + self.one_way_delay * 4 + self.service_cost;
            (first_byte_sent + self.one_way_delay).duration_since(arrived)
        }
    }

    /// Arm an idle check at `activity_at + TTL`. Stale checks (the service
    /// saw traffic in the meantime, or was already reaped) fizzle.
    fn schedule_reap_check<S: Scheduler<World = ConcurrentJitsud>>(
        sim: &mut S,
        name: String,
        activity_at: SimTime,
    ) {
        let Some(ttl) = sim.world().config.idle_timeout else {
            return;
        };
        sim.schedule_at(activity_at + ttl, move |sim| Self::on_reap_check(sim, name));
    }

    /// Event: an idle check fires.
    fn on_reap_check<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let now = sim.now();
        let world = sim.world_mut();
        let Some(ttl) = world.config.idle_timeout else {
            return;
        };
        let Some(&Lifecycle::Running { dom }) = world.services.get(&name) else {
            return;
        };
        let idle_since = world.directory.last_activity(&name).unwrap_or(now);
        if now.duration_since(idle_since) < ttl {
            return; // refreshed since this check was armed; a newer one is pending
        }
        world.services.insert(
            name.clone(),
            Lifecycle::Draining {
                dom,
                queued: Vec::new(),
            },
        );
        world.directory.mark_stopped(&name);
        world.metrics.reaps += 1;
        let service = Self::service_ix(&world.config, &name);
        world.trace.push(now, JitsuEvent::Reaping { service, dom });
        let teardown = world.launcher.teardown_time();
        sim.schedule_in(teardown, move |sim| Self::on_drain_done(sim, name));
    }

    /// Event: teardown finished — free the domain and either go idle or
    /// immediately relaunch for clients that arrived mid-drain.
    fn on_drain_done<S: Scheduler<World = ConcurrentJitsud>>(sim: &mut S, name: String) {
        let now = sim.now();
        let world = sim.world_mut();
        let Some(Lifecycle::Draining { dom, queued }) = world.services.remove(&name) else {
            debug_assert!(false, "drain-done without a Draining {name}");
            return;
        };
        world
            .launcher
            .retire(dom)
            // jitsu-lint: allow(P001, "Draining lifecycle holds the domain until retirement")
            .expect("draining domain exists until retired");
        // The unikernel's data plane dies with the domain, and so does its
        // lifecycle record in the store.
        world.planes.remove(&name);
        // jitsu-lint: allow(R001, "lifecycle record removal is best-effort; the path is gone if a racing retire won")
        let _ = world.launcher.toolstack.xenstore.rm(
            DomId::DOM0,
            None,
            &format!("/jitsu/service/{name}"),
        );
        let service = Self::service_ix(&world.config, &name);
        world.trace.push(now, JitsuEvent::Retired { service, dom });
        if queued.is_empty() {
            world.services.insert(name, Lifecycle::Idle);
            return;
        }
        // Re-entry: waiters arrived while the old domain drained. Launch
        // again from scratch (the directory already shows it as launching).
        let svc = world
            .config
            .service(&name)
            .cloned()
            // jitsu-lint: allow(P001, "drained service names come from the config map")
            .expect("drained services are configured");
        if world.config.use_synjitsu {
            world
                .synjitsu
                .start_proxying(&mut world.launcher.toolstack.xenstore, &svc)
                // jitsu-lint: allow(P001, "relaunch repeats a proxy setup that already succeeded")
                .expect("synjitsu can begin proxying");
            for client in &queued {
                Self::open_client_flow(world, &svc, *client);
            }
        }
        world.reserved_mib += svc.image.memory_mib;
        world
            .services
            .insert(name.clone(), Lifecycle::AwaitingSlot { queued });
        world.launch_queue.push_back(name);
        Self::dispatch(sim);
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
        // A query lands mid-drain: it must wait out the teardown, then boot.
        let mid_drain = sim.now();
        ConcurrentJitsud::inject_query(&mut sim, mid_drain, ALICE);
        sim.run_until(mid_drain + SimDuration::from_millis(600));
        assert_eq!(sim.world().phase(ALICE), LifecyclePhase::Running);
        assert_eq!(sim.world().metrics().launches, 2);
        assert_eq!(sim.world().metrics().cold_served, 2);
        assert_eq!(sim.world().metrics().reaps, 1);
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
        sim.run();
        let m = sim.world().metrics();
        assert_eq!(m.unknown, 2);
        assert_eq!(m.launches, 0);
        assert_eq!(m.queries, 2);
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
        let network_ready_at = match sim.world().services.get(ALICE) {
            Some(Lifecycle::Launching {
                network_ready_at, ..
            }) => *network_ready_at,
            other => panic!("expected Launching, got {other:?}"),
        };
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
        let network_ready_at = match sim.world().services.get(ALICE) {
            Some(Lifecycle::Launching {
                network_ready_at, ..
            }) => *network_ready_at,
            other => panic!("expected Launching, got {other:?}"),
        };
        // Run past the commit (one handoff window after network-ready) but
        // not to app-ready, then land a new client.
        let after_commit =
            network_ready_at + sim.world().handoff_cost + SimDuration::from_micros(1);
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
