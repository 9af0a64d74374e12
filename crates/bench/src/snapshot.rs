//! The `bench_snapshot` harness: the repository's exact cost counters as a
//! machine-readable artifact.
//!
//! This module runs the hot-path suites — XenStore commit/merge, O(1)
//! snapshot scaling at 10²..10⁵ nodes, a vchan stream through
//! [`conduit::vchan::VchanPair::stream`], the full TCB handoff under storm,
//! an end-to-end cold start, [`jitsu_sim::Sim`] / [`ShardedSim`]
//! dispatch, and the hypervisor tables after a thousand launch→reap
//! cycles — once each and emits a schema-versioned snapshot that
//! `--compare` holds against the committed `BENCH_BASELINE.json`.
//!
//! Every metric is a count or a virtual-time latency read from the
//! deterministic sim (events executed, commits merged, bytes through the
//! ring, p50 handoff latency in sim-milliseconds). They are exact —
//! `jitsu-lint` guarantees no wall clock, ambient entropy or unordered
//! iteration can leak into these paths — so the document is a pure
//! function of the tree and *any* difference against the baseline fails
//! the gate: a metric only moves when an intentional algorithmic change
//! moves it. Host time is measured by the standalone `benchmark/` package
//! and nowhere else.

use crate::json::Value;
use crate::{handoff_storm, xenstore_storm};
use conduit::vchan::{Side, VchanPair};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::shard::{Domain, DomainCtx};
use jitsu_sim::{DomainId, Scheduler, ShardedSim, Sim, SimDuration, SimTime};
use netstack::http::{HttpRequest, HttpResponse};
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use netstack::{FrameBuf, MacAddr};
use platform::BoardKind;
use std::collections::BTreeMap;
use unikernel::appliance::StaticSiteAppliance;
use unikernel::image::UnikernelImage;
use unikernel::instance::UnikernelInstance;
use xen_sim::domain::DomainConfig;
use xen_sim::event_channel::EventChannelTable;
use xen_sim::grant_table::GrantTable;
use xen_sim::toolstack::{BootOptimisations, Toolstack};
use xenstore::{DomId, EngineKind};

/// Version of the snapshot schema this build writes and reads.
pub const SCHEMA_VERSION: u64 = 2;

/// One exact quantity: a count or a virtual-time latency, identical on
/// every run of the same tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Suite the metric belongs to (`sim_engine`, `xenstore_commit`, …).
    pub suite: String,
    /// Metric name, unique within its suite.
    pub name: String,
    /// Unit label (`events`, `commits`, `ms`, …).
    pub unit: String,
    /// The value, compared against the baseline by bit pattern.
    pub value: f64,
}

impl Metric {
    /// The `suite/name` key used for lookups and reports.
    pub fn key(&self) -> String {
        format!("{}/{}", self.suite, self.name)
    }

    fn new(suite: &str, name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            suite: suite.to_string(),
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("suite".to_string(), Value::str(&self.suite));
        obj.insert("name".to_string(), Value::str(&self.name));
        obj.insert("unit".to_string(), Value::str(&self.unit));
        obj.insert("value".to_string(), Value::Num(self.value));
        Value::Obj(obj)
    }

    fn from_value(v: &Value) -> Result<Metric, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("metric missing string field `{key}`"))
        };
        Ok(Metric {
            suite: str_field("suite")?,
            name: str_field("name")?,
            unit: str_field("unit")?,
            value: v
                .get("value")
                .and_then(Value::as_num)
                .ok_or("metric missing numeric field `value`")?,
        })
    }
}

/// Knobs for one harness run. [`BenchConfig::default`] is what the binary
/// and the committed baseline use; [`BenchConfig::quick`] shrinks the
/// workloads for in-fence tests.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Seed threaded through every seeded workload.
    pub seed: u64,
    /// Events pushed through the raw engine.
    pub sim_events: u64,
    /// Payload size driven through the vchan stream, in bytes.
    pub vchan_bytes: usize,
    /// Store sizes (leaf keys) for the snapshot-scaling suite.
    pub snapshot_sizes: Vec<usize>,
    /// HTTP exchanges driven through the end-to-end frame-path suite.
    pub frame_path_requests: u64,
    /// Domains in the sharded-engine suite's ring workload.
    pub sharded_domains: u32,
    /// Ring messages each domain originates in the sharded-engine suite.
    pub sharded_messages: u64,
    /// Hops each ring message makes before it dies (its barrier count).
    pub sharded_ttl: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            seed: 0xBE7C_5EED,
            sim_events: 100_000,
            vchan_bytes: 256 * 1024,
            // The paper claim under test: snapshot cost is O(1) from 10²
            // to 10⁵ nodes.
            snapshot_sizes: vec![100, 1_000, 10_000, 100_000],
            frame_path_requests: 32,
            sharded_domains: 32,
            sharded_messages: 64,
            sharded_ttl: 16,
        }
    }
}

impl BenchConfig {
    /// A reduced configuration for tests: same suites, same metric names
    /// where sizes are not part of the name, smaller workloads.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            seed: 0xBE7C_5EED,
            sim_events: 5_000,
            vchan_bytes: 32 * 1024,
            snapshot_sizes: vec![100, 1_000],
            frame_path_requests: 4,
            sharded_domains: 6,
            sharded_messages: 8,
            sharded_ttl: 4,
        }
    }
}

/// A complete snapshot document: a pure function of the tree that
/// produced it (which commit that was is `git log`'s to say).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`] for documents this build writes).
    pub schema_version: u64,
    /// Every collected metric, in collection order.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Serialize to the snapshot JSON document.
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert(
            "schema_version".to_string(),
            Value::Num(self.schema_version as f64),
        );
        obj.insert("tool".to_string(), Value::str("bench_snapshot"));
        obj.insert(
            "metrics".to_string(),
            Value::Arr(self.metrics.iter().map(Metric::to_value).collect()),
        );
        Value::Obj(obj).render()
    }

    /// Parse a snapshot document.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = crate::json::parse(text)?;
        let schema_version = doc
            .get("schema_version")
            .and_then(Value::as_num)
            .ok_or("document missing `schema_version`")? as u64;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or("document missing `metrics` array")?
            .iter()
            .map(Metric::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot {
            schema_version,
            metrics,
        })
    }
}

/// Run every suite and return the metrics in deterministic order.
pub fn collect(cfg: &BenchConfig) -> Vec<Metric> {
    let mut out = Vec::new();
    suite_sim_engine(cfg, &mut out);
    suite_sharded_engine(cfg, &mut out);
    suite_xenstore_commit(cfg, &mut out);
    suite_xenstore_snapshot(cfg, &mut out);
    suite_vchan(cfg, &mut out);
    suite_frame_path(cfg, &mut out);
    suite_handoff(cfg, &mut out);
    suite_cold_start(cfg, &mut out);
    suite_hypervisor_tables(&mut out);
    out
}

/// Raw dispatch through the discrete-event engine.
fn suite_sim_engine(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "sim_engine";
    let events = cfg.sim_events;
    let mut sim = Sim::new(0u64);
    for i in 0..events {
        sim.schedule_at(SimTime::from_micros(i), |s| *s.world_mut() += 1);
    }
    let executed = sim.run_steps(events);
    out.push(Metric::new(
        SUITE,
        "events_executed",
        "events",
        executed as f64,
    ));
}

/// One domain of the sharded-engine benchmark workload: a ring of domains
/// exchanging TTL'd messages. Every hop draws from the domain RNG and
/// folds the draw into an FNV-style checksum, so the `checksum` metric
/// pins the exact event schedule *and* the exact RNG streams — any
/// engine change that reorders events or draws shows up as virtual drift.
struct RingDomain {
    hops: u64,
    checksum: u64,
}

impl Domain for RingDomain {
    type Msg = u64;

    fn on_message(ctx: &mut DomainCtx<RingDomain>, ttl: u64) {
        let draw = ctx.rng().uniform_u64(0, 1 << 20);
        let w = ctx.world_mut();
        w.hops += 1;
        w.checksum = w.checksum.wrapping_mul(0x0000_0100_0000_01B3) ^ draw;
        if ttl > 0 {
            let next = DomainId((ctx.id().0 + 1) % ctx.domain_count());
            ctx.send(next, ttl - 1);
        }
    }
}

/// Run the ring workload at `shards` shards, returning
/// `(events, barriers, checksum)` — all three invariant in `shards`.
fn run_ring(cfg: &BenchConfig, shards: u32) -> (u64, u64, u64) {
    let mut sim = ShardedSim::new(shards, SimDuration::from_millis(1));
    let domains: Vec<DomainId> = (0..cfg.sharded_domains)
        .map(|d| {
            sim.add_domain(
                RingDomain {
                    hops: 0,
                    checksum: 0xCBF2_9CE4_8422_2325,
                },
                cfg.seed ^ u64::from(d),
            )
        })
        .collect();
    for (d, id) in domains.iter().enumerate() {
        for m in 0..cfg.sharded_messages {
            let at = SimTime::from_micros(1 + m * 37 + d as u64);
            let ttl = cfg.sharded_ttl;
            sim.schedule_at(*id, at, move |ctx| {
                RingDomain::on_message(ctx, ttl);
            });
        }
    }
    sim.run();
    let events = sim.events_executed();
    let barriers = sim.barriers();
    let checksum = sim
        .into_worlds()
        .iter()
        .fold(0u64, |acc, w| acc.rotate_left(7) ^ w.checksum);
    (events, barriers, checksum)
}

/// The sharded engine under a cross-domain ring workload, at 1, 4 and 16
/// shards. The metrics (events, barriers, checksum) must be *identical
/// across the three shard counts* — the baseline records the invariance
/// itself, so any scheduling divergence between shard counts is drift.
fn suite_sharded_engine(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "sharded_engine";
    for shards in [1u32, 4, 16] {
        let (events, barriers, checksum) = run_ring(cfg, shards);
        out.push(Metric::new(
            SUITE,
            &format!("events@{shards}"),
            "events",
            events as f64,
        ));
        out.push(Metric::new(
            SUITE,
            &format!("barriers@{shards}"),
            "barriers",
            barriers as f64,
        ));
        // Masked to 48 bits so the checksum survives the f64 metric
        // representation without rounding.
        out.push(Metric::new(
            SUITE,
            &format!("checksum@{shards}"),
            "fold",
            (checksum & 0xFFFF_FFFF_FFFF) as f64,
        ));
    }
}

/// XenStore commit/merge outcomes on the Jitsu merge engine: the
/// overlapping-transaction storm cell from the xenstore_storm experiment.
fn suite_xenstore_commit(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "xenstore_commit";
    let cell = xenstore_storm::XsStormConfig {
        engine: EngineKind::JitsuMerge,
        writers: 8,
        txns_per_writer: 8,
        ops_per_txn: 6,
        prepopulated: 2_000,
        seed: cfg.seed,
    };
    let r = xenstore_storm::run_cell(&cell);
    out.push(Metric::new(SUITE, "commits", "commits", r.commits as f64));
    out.push(Metric::new(SUITE, "merged", "commits", r.merged as f64));
    out.push(Metric::new(
        SUITE,
        "eagain_conflicts",
        "aborts",
        r.conflicts as f64,
    ));
    out.push(Metric::new(SUITE, "merge_rate", "fraction", r.merge_rate()));
}

/// O(1) snapshot scaling: nodes copied per snapshot and per first write at
/// each store size, entries copied per write under one flat directory,
/// and nodes copied by a direct store write with and without a transaction
/// open.
fn suite_xenstore_snapshot(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "xenstore_snapshot";
    for &keys in &cfg.snapshot_sizes {
        let p = xenstore_storm::snapshot_point(keys);
        out.push(Metric::new(
            SUITE,
            &format!("store_nodes@{keys}"),
            "nodes",
            p.store_nodes as f64,
        ));
        out.push(Metric::new(
            SUITE,
            &format!("copied_by_snapshot@{keys}"),
            "nodes",
            p.copied_by_snapshot as f64,
        ));
        out.push(Metric::new(
            SUITE,
            &format!("copied_by_one_write@{keys}"),
            "nodes",
            p.copied_by_one_write as f64,
        ));
    }
    // One flat directory at the two fan-outs the benchmark of record times
    // a write under: the entries a write copies must not follow the width.
    for children in [64, 4_096] {
        out.push(Metric::new(
            SUITE,
            &format!("entries_copied_by_one_write@{children}"),
            "entries",
            xenstore_storm::flat_directory_entries_copied(children) as f64,
        ));
    }
    // A direct store write copies nodes only while a transaction's
    // snapshot shares them.
    for (name, transaction_open) in [
        ("copied_by_direct_write@unshared", false),
        ("copied_by_direct_write@txn_open", true),
    ] {
        out.push(Metric::new(
            SUITE,
            name,
            "nodes",
            xenstore_storm::nodes_copied_by_direct_write(transaction_open) as f64,
        ));
    }
}

/// A bulk transfer through `VchanPair::stream`.
fn suite_vchan(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "vchan";
    let payload: Vec<u8> = (0..cfg.vchan_bytes).map(|i| (i % 251) as u8).collect();
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut pair = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
        .expect("vchan establishes");
    let received = pair
        .stream(Side::Client, &payload, &mut evtchn)
        .expect("stream completes");
    out.push(Metric::new(
        SUITE,
        "streamed_bytes",
        "bytes",
        pair.bytes_to_server() as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "delivered_bytes",
        "bytes",
        received.len() as f64,
    ));
}

/// Tallies accumulated while frames traverse the iface → vchan → unikernel
/// path in [`suite_frame_path`].
#[derive(Default)]
struct FramePathTally {
    /// Ethernet frames pushed through the ring (both directions).
    frames: u64,
    /// Frame bytes that crossed the ring.
    ring_bytes: u64,
    /// HTTP payload bytes delivered to the client as TCP data.
    payload_bytes: u64,
    /// Buffer materialisations observed: one per non-empty ring drain plus
    /// one per delivered payload that is *not* a view of its frame.
    copies: u64,
    /// Completed HTTP exchanges (status parsed from reassembled payload).
    responses: u64,
}

/// Write `frame` into the ring from `from` and drain it on the other side:
/// the single sanctioned copy on the frame path.
fn cross_ring(
    ring: &mut VchanPair,
    evtchn: &mut EventChannelTable,
    from: Side,
    frame: &FrameBuf,
) -> FrameBuf {
    let mut offset = 0;
    while offset < frame.len() {
        offset += ring
            .write(from, &frame[offset..], evtchn)
            .expect("ring write progresses");
    }
    let to = match from {
        Side::Client => Side::Server,
        Side::Server => Side::Client,
    };
    ring.read(to, usize::MAX).expect("ring drain succeeds")
}

/// End-to-end zero-copy frame path: HTTP exchanges from a client interface
/// through a real vchan ring into a unikernel instance and back again, with
/// every frame in both directions crossing the ring.
///
/// `copies_per_packet` is the zero-copy claim as a number: each frame's
/// bytes are materialised exactly once (the ring drain at ingress) and
/// handed down to TCP delivery as `FrameBuf` views of that allocation, so
/// the exact value is 1.0 — any hidden copy between the ring and the
/// application pushes it above 1 and fails the bit-exact virtual gate.
fn suite_frame_path(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "frame_path";
    const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
    const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
    let server_ip = Ipv4Addr::new(192, 168, 4, 20);
    let client_ip = Ipv4Addr::new(192, 168, 4, 100);
    let mut grants = GrantTable::new();
    let mut evtchn = EventChannelTable::new();
    let mut ring = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
        .expect("vchan establishes");
    let mut server = UnikernelInstance::new(
        UnikernelImage::mirage("bench"),
        SERVER_MAC,
        server_ip,
        80,
        Box::new(StaticSiteAppliance::new("bench")),
        cfg.seed,
    );
    let mut client = Interface::new(CLIENT_MAC, client_ip);
    client.add_arp_entry(server_ip, SERVER_MAC);
    server.iface.add_arp_entry(client_ip, CLIENT_MAC);
    let mut tally = FramePathTally::default();
    for _ in 0..cfg.frame_path_requests {
        let mut to_server = vec![client.tcp_connect(server_ip, 80)];
        let mut sent_request = false;
        let mut body = Vec::new();
        for _ in 0..32 {
            if to_server.is_empty() {
                break;
            }
            let mut to_client = Vec::new();
            for f in to_server.drain(..) {
                tally.frames += 1;
                tally.ring_bytes += f.len() as u64;
                let wire = cross_ring(&mut ring, &mut evtchn, Side::Client, &f);
                tally.copies += u64::from(wire.has_allocation());
                let (frames, _) = server.handle_frame(&wire);
                to_client.extend(frames);
            }
            for f in to_client {
                tally.frames += 1;
                tally.ring_bytes += f.len() as u64;
                let wire = cross_ring(&mut ring, &mut evtchn, Side::Server, &f);
                tally.copies += u64::from(wire.has_allocation());
                let (frames, events) = client.handle_frame(&wire);
                to_server.extend(frames);
                for ev in events {
                    match ev {
                        IfaceEvent::TcpConnected { remote, local_port } if !sent_request => {
                            sent_request = true;
                            let req = HttpRequest::get("/", "bench").emit();
                            if let Some(f) = client.tcp_send(remote, local_port, &req) {
                                to_server.push(f);
                            }
                        }
                        IfaceEvent::TcpData { data, .. } => {
                            tally.copies += u64::from(!data.shares_allocation(&wire));
                            tally.payload_bytes += data.len() as u64;
                            body.extend_from_slice(&data);
                        }
                        _ => {}
                    }
                }
            }
        }
        let body = FrameBuf::from_vec(body);
        if let Ok(Some(resp)) = HttpResponse::parse(&body) {
            tally.responses += u64::from(resp.status == 200);
        }
    }
    out.push(Metric::new(SUITE, "frames", "frames", tally.frames as f64));
    out.push(Metric::new(
        SUITE,
        "ring_bytes",
        "bytes",
        tally.ring_bytes as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "payload_bytes",
        "bytes",
        tally.payload_bytes as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "responses",
        "responses",
        tally.responses as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "copies_per_packet",
        "copies",
        tally.copies as f64 / tally.frames as f64,
    ));
}

/// Full TCB handoff under storm: the handoff_storm cell, with its
/// virtual-time latency tail as exact metrics.
fn suite_handoff(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "handoff";
    // One launch slot: boots queue behind each other, so the cold-path
    // latency has a tail (with two slots no boot waits and p99 == p50).
    let cell = handoff_storm::HandoffStormConfig {
        services: 8,
        rate_per_sec: 12.0,
        launch_slots: 1,
        idle_ttl: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(5),
        seed: cfg.seed,
    };
    let r = handoff_storm::run_cell(&cell);
    out.push(Metric::new(
        SUITE,
        "migrated_connections",
        "connections",
        r.migrated as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "completed_exchanges",
        "exchanges",
        r.completed as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "dropped_bytes",
        "bytes",
        r.dropped_bytes as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "duplicated_bytes",
        "bytes",
        r.duplicated_bytes as f64,
    ));
    out.push(Metric::new(SUITE, "latency_p50", "ms", r.p50_ms));
    out.push(Metric::new(SUITE, "latency_p99", "ms", r.p99_ms));
    out.push(Metric::new(
        SUITE,
        "xs_merged",
        "commits",
        r.xs_merged as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "xs_conflicts",
        "aborts",
        r.xs_conflicts as f64,
    ));
}

/// End-to-end cold start: DNS query through Synjitsu to the adopted
/// unikernel's first response byte.
fn suite_cold_start(cfg: &BenchConfig, out: &mut Vec<Metric>) {
    let config = JitsuConfig::new("bench.example").with_service(ServiceConfig::http_site(
        "svc.bench.example",
        Ipv4Addr::new(192, 168, 1, 20),
    ));
    let ttfb = crate::fig9a::cold_start_ttfb_ms(config, cfg.seed);
    out.push(Metric::new("cold_start", "ttfb_ms", "ms", ttfb));
}

/// The host-wide hypervisor tables after a thousand launch→reap cycles:
/// each cycle builds a unikernel with console and vif, runs the handoff's
/// dom0-served vchan to it and tears that down, then destroys the domain.
/// Both tables must read what an empty host reads — every entry a cycle
/// makes is freed by the end that holds it.
fn suite_hypervisor_tables(out: &mut Vec<Metric>) {
    const SUITE: &str = "hypervisor_tables";
    let mut ts = Toolstack::new(BoardKind::Cubieboard2.board(), EngineKind::JitsuMerge, 7);
    for _ in 0..1_000 {
        let dom = ts
            .create_domain(DomainConfig::unikernel("cycle"), BootOptimisations::jitsu())
            .expect("the board is empty")
            .dom;
        let (_, grants, evtchn) = ts.conduit_parts();
        VchanPair::establish(grants, evtchn, DomId::DOM0, dom)
            .expect("vchan establishes")
            .teardown(grants, evtchn);
        ts.destroy(dom).expect("just created");
    }
    out.push(Metric::new(
        SUITE,
        "evtchn_entries_after_1000_cycles",
        "entries",
        ts.event_channels.len() as f64,
    ));
    out.push(Metric::new(
        SUITE,
        "grant_entries_after_1000_cycles",
        "entries",
        ts.grants.len() as f64,
    ));
}

/// What `--compare` concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every baseline metric is present and bit-identical.
    Pass,
    /// At least one metric differs from the baseline.
    VirtualDrift,
}

impl Verdict {
    /// The process exit code the binary reports for this verdict.
    pub fn exit_code(self) -> i32 {
        match self {
            Verdict::Pass => 0,
            Verdict::VirtualDrift => 3,
        }
    }
}

/// The detailed outcome of comparing a snapshot against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Metrics whose values differ from the baseline (any amount).
    pub drifts: Vec<String>,
    /// Non-gating observations (metrics new since the baseline).
    pub notes: Vec<String>,
}

impl CompareReport {
    /// Collapse the report into the gate's verdict.
    pub fn verdict(&self) -> Verdict {
        if self.drifts.is_empty() {
            Verdict::Pass
        } else {
            Verdict::VirtualDrift
        }
    }

    /// Human-readable rendering, one line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.drifts {
            out.push_str(&format!("DRIFT      {d}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note       {n}\n"));
        }
        match self.verdict() {
            Verdict::Pass => out.push_str("verdict: PASS\n"),
            Verdict::VirtualDrift => out.push_str("verdict: VIRTUAL DRIFT\n"),
        }
        out
    }
}

/// Compare `current` against `baseline`.
///
/// Every metric must match the baseline bit for bit: the values are
/// deterministic counts and virtual-time figures, so any difference is an
/// intentional algorithmic change that must also update the baseline.
/// Metrics present in the baseline but missing from the current snapshot
/// are drift (a suite silently vanished); new metrics in the current
/// snapshot are merely noted.
pub fn compare(current: &Snapshot, baseline: &Snapshot) -> CompareReport {
    let mut report = CompareReport::default();
    if current.schema_version != baseline.schema_version {
        report.drifts.push(format!(
            "schema_version: current {} vs baseline {} — refresh the baseline",
            current.schema_version, baseline.schema_version
        ));
        return report;
    }
    let by_key: BTreeMap<String, &Metric> = current.metrics.iter().map(|m| (m.key(), m)).collect();
    for base in &baseline.metrics {
        let key = base.key();
        match by_key.get(&key) {
            None => report
                .drifts
                .push(format!("{key}: present in baseline, missing from snapshot")),
            Some(cur) if cur.value.to_bits() != base.value.to_bits() => {
                report.drifts.push(format!(
                    "{key}: {:?} {} vs baseline {:?}",
                    cur.value, cur.unit, base.value
                ));
            }
            Some(_) => {}
        }
    }
    for m in &current.metrics {
        let key = m.key();
        if !baseline.metrics.iter().any(|b| b.key() == key) {
            report
                .notes
                .push(format!("{key}: new metric, not in baseline"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            metrics: vec![
                Metric::new("handoff", "migrated_connections", "connections", 42.0),
                Metric::new("handoff", "latency_p99", "ms", 451.36316111999986),
            ],
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = sample();
        let report = compare(&a, &a);
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.verdict().exit_code(), 0);
        assert!(report.drifts.is_empty());
    }

    #[test]
    fn any_virtual_drift_fails_regardless_of_size() {
        let base = sample();
        let mut drifted = sample();
        drifted.metrics[0].value = 43.0;
        let report = compare(&drifted, &base);
        assert_eq!(report.verdict(), Verdict::VirtualDrift);
        assert_eq!(report.verdict().exit_code(), 3);
        // One unit in the last place is drift too: there is no tolerance.
        let mut ulp = sample();
        ulp.metrics[1].value = f64::from_bits(ulp.metrics[1].value.to_bits() + 1);
        assert_eq!(compare(&ulp, &base).verdict(), Verdict::VirtualDrift);
    }

    #[test]
    fn missing_and_new_metrics_are_classified() {
        let base = sample();
        let mut shrunk = sample();
        shrunk.metrics.remove(0);
        assert_eq!(compare(&shrunk, &base).verdict(), Verdict::VirtualDrift);
        let mut grown = sample();
        grown
            .metrics
            .push(Metric::new("new_suite", "thing", "count", 1.0));
        let report = compare(&grown, &base);
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn schema_version_mismatch_is_drift() {
        let base = sample();
        let mut future = sample();
        future.schema_version = SCHEMA_VERSION + 1;
        assert_eq!(compare(&future, &base).verdict(), Verdict::VirtualDrift);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let a = sample();
        let text = a.to_json();
        let back = Snapshot::from_json(&text).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.to_json(), text);
    }
}
