//! The `bench_snapshot` harness: the repository's performance trajectory as
//! a first-class, machine-readable artifact.
//!
//! Seven PRs of "measurably faster" claims are worth nothing without
//! recorded numbers. This module runs the hot-path suite — XenStore
//! commit/merge throughput, O(1) snapshot scaling at 10²..10⁵ nodes, vchan
//! bytes/sec through [`conduit::vchan::VchanPair::stream`], the full TCB
//! handoff under storm, an end-to-end cold start, and raw
//! [`jitsu_sim::Sim`] dispatch throughput — and emits a schema-versioned
//! snapshot that `--compare` can hold against the committed
//! `BENCH_BASELINE.json`.
//!
//! Two metric kinds with two comparison disciplines:
//!
//! * **virtual** metrics are counts and virtual-time latencies read from
//!   the deterministic sim (events executed, commits merged, bytes through
//!   the ring, p50 handoff latency in sim-milliseconds). They are exact —
//!   `jitsu-lint` guarantees no wall clock, ambient entropy or unordered
//!   iteration can leak into these paths — so *any* drift against the
//!   baseline fails the gate: a virtual metric only moves when an
//!   intentional algorithmic change moves it.
//! * **wall** metrics are best-of-N timings of the same workloads. Wall
//!   time lives only in the root `src/bin/bench_snapshot` binary (outside
//!   the `crates/` D002 fence); this module takes an abstract
//!   [`WallTimer`] so nothing under `crates/` ever reads the host clock.
//!   Wall comparisons tolerate a configurable percentage before declaring
//!   a regression.

use crate::json::Value;
use crate::{handoff_storm, xenstore_storm};
use conduit::vchan::{Side, VchanPair};
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu::jitsud::Jitsud;
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
use xen_sim::event_channel::EventChannelTable;
use xen_sim::grant_table::GrantTable;
use xenstore::{DomId, EngineKind, Path, Tree, TreeDiff};

/// Version of the `BENCH_<date>.json` schema this build writes and reads.
pub const SCHEMA_VERSION: u64 = 1;

/// Default wall-time regression tolerance for `--compare`, in percent.
pub const DEFAULT_WALL_TOLERANCE_PCT: f64 = 10.0;

/// Source of wall-clock measurements.
///
/// The only implementation that reads a real clock lives in
/// `src/bin/bench_snapshot.rs`; inside `crates/` (tests, determinism
/// checks) [`NullTimer`] runs the workload and reports zero, which zeroes
/// every wall metric while leaving the virtual section untouched.
pub trait WallTimer {
    /// Run `work` once and return the elapsed wall time in seconds.
    fn time(&self, work: &mut dyn FnMut()) -> f64;
}

/// A [`WallTimer`] that executes the workload but reports zero elapsed
/// time — the in-fence stand-in used by tests.
pub struct NullTimer;

impl WallTimer for NullTimer {
    fn time(&self, work: &mut dyn FnMut()) -> f64 {
        work();
        0.0
    }
}

/// Whether a metric is exact (virtual time) or measured (wall time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Deterministic: identical on every run of the same tree. Any change
    /// against the baseline is drift and fails the gate.
    Virtual,
    /// Best-of-N wall timing; compared within a tolerance.
    Wall,
}

/// Which way a wall metric is allowed to move before it counts as a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Virtual metrics: compared for exact equality.
    Exact,
    /// Durations: growing past tolerance is a regression.
    LowerIsBetter,
    /// Throughputs: shrinking past tolerance is a regression.
    HigherIsBetter,
}

impl Direction {
    fn label(self) -> &'static str {
        match self {
            Direction::Exact => "exact",
            Direction::LowerIsBetter => "lower_is_better",
            Direction::HigherIsBetter => "higher_is_better",
        }
    }

    fn from_label(s: &str) -> Result<Direction, String> {
        match s {
            "exact" => Ok(Direction::Exact),
            "lower_is_better" => Ok(Direction::LowerIsBetter),
            "higher_is_better" => Ok(Direction::HigherIsBetter),
            other => Err(format!("unknown direction `{other}`")),
        }
    }
}

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Suite the metric belongs to (`sim_engine`, `xenstore_commit`, …).
    pub suite: String,
    /// Metric name, unique within its suite.
    pub name: String,
    /// Unit label (`events/s`, `commits`, `ms`, …).
    pub unit: String,
    /// Exact (virtual) or measured (wall).
    pub kind: MetricKind,
    /// Comparison direction.
    pub direction: Direction,
    /// The value: exact for virtual metrics, best-of-N for wall metrics.
    pub value: f64,
    /// Runs behind the value (1 for virtual metrics, N for best-of-N).
    pub iterations: u64,
    /// Relative spread `(worst − best) / best` across the wall runs; 0 for
    /// virtual metrics.
    pub dispersion: f64,
}

impl Metric {
    /// The `suite/name` key used for lookups and reports.
    pub fn key(&self) -> String {
        format!("{}/{}", self.suite, self.name)
    }

    fn virt(suite: &str, name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            suite: suite.to_string(),
            name: name.to_string(),
            unit: unit.to_string(),
            kind: MetricKind::Virtual,
            direction: Direction::Exact,
            value,
            iterations: 1,
            dispersion: 0.0,
        }
    }

    fn wall(
        suite: &str,
        name: &str,
        unit: &str,
        direction: Direction,
        value: f64,
        iterations: u64,
        dispersion: f64,
    ) -> Metric {
        Metric {
            suite: suite.to_string(),
            name: name.to_string(),
            unit: unit.to_string(),
            kind: MetricKind::Wall,
            direction,
            value,
            iterations,
            dispersion,
        }
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("suite".to_string(), Value::str(&self.suite));
        obj.insert("name".to_string(), Value::str(&self.name));
        obj.insert("unit".to_string(), Value::str(&self.unit));
        obj.insert(
            "kind".to_string(),
            Value::str(match self.kind {
                MetricKind::Virtual => "virtual",
                MetricKind::Wall => "wall",
            }),
        );
        obj.insert("direction".to_string(), Value::str(self.direction.label()));
        obj.insert("value".to_string(), Value::Num(self.value));
        obj.insert("iterations".to_string(), Value::Num(self.iterations as f64));
        obj.insert("dispersion".to_string(), Value::Num(self.dispersion));
        Value::Obj(obj)
    }

    fn from_value(v: &Value) -> Result<Metric, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("metric missing string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("metric missing numeric field `{key}`"))
        };
        let kind = match str_field("kind")?.as_str() {
            "virtual" => MetricKind::Virtual,
            "wall" => MetricKind::Wall,
            other => return Err(format!("unknown metric kind `{other}`")),
        };
        Ok(Metric {
            suite: str_field("suite")?,
            name: str_field("name")?,
            unit: str_field("unit")?,
            kind,
            direction: Direction::from_label(&str_field("direction")?)?,
            value: num_field("value")?,
            iterations: num_field("iterations")? as u64,
            dispersion: num_field("dispersion")?,
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
    /// Wall repetitions per metric (best-of-N).
    pub wall_reps: u32,
    /// Events pushed through the raw engine for the events/sec suite.
    pub sim_events: u64,
    /// Payload size driven through the vchan stream, in bytes.
    pub vchan_bytes: usize,
    /// Store sizes (leaf keys) for the snapshot-scaling suite.
    pub snapshot_sizes: Vec<usize>,
    /// Snapshots taken per wall repetition in the scaling suite.
    pub snapshot_clones: u64,
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
            wall_reps: 5,
            sim_events: 100_000,
            vchan_bytes: 256 * 1024,
            // The paper claim under test: snapshot cost is O(1) from 10²
            // to 10⁵ nodes.
            snapshot_sizes: vec![100, 1_000, 10_000, 100_000],
            snapshot_clones: 10_000,
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
            wall_reps: 1,
            sim_events: 5_000,
            vchan_bytes: 32 * 1024,
            snapshot_sizes: vec![100, 1_000],
            snapshot_clones: 100,
            frame_path_requests: 4,
            sharded_domains: 6,
            sharded_messages: 8,
            sharded_ttl: 4,
        }
    }
}

/// A complete snapshot document.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`] for documents this build writes).
    pub schema_version: u64,
    /// `git rev-parse HEAD` of the measured tree (or `unknown`).
    pub git_sha: String,
    /// ISO date the snapshot was taken (supplied by the binary; the crates
    /// cannot read a calendar).
    pub date: String,
    /// Every collected metric, in collection order.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Serialize to the `BENCH_<date>.json` document.
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert(
            "schema_version".to_string(),
            Value::Num(self.schema_version as f64),
        );
        obj.insert("tool".to_string(), Value::str("bench_snapshot"));
        obj.insert("git_sha".to_string(), Value::str(&self.git_sha));
        obj.insert("date".to_string(), Value::str(&self.date));
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
        let git_sha = doc
            .get("git_sha")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let date = doc
            .get("date")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or("document missing `metrics` array")?
            .iter()
            .map(Metric::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot {
            schema_version,
            git_sha,
            date,
            metrics,
        })
    }

    /// Render only the virtual metrics, one `suite/name unit = value` line
    /// each — the bit-comparable section two runs of the same tree must
    /// reproduce byte for byte.
    pub fn virtual_section(&self) -> String {
        let mut out = String::new();
        for m in self
            .metrics
            .iter()
            .filter(|m| m.kind == MetricKind::Virtual)
        {
            out.push_str(&format!("{} {} = {:?}\n", m.key(), m.unit, m.value));
        }
        out
    }
}

/// Best-of-N measurement: returns `(best seconds, relative spread)`.
fn measure(timer: &dyn WallTimer, reps: u32, mut work: impl FnMut()) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut worst = 0.0f64;
    for _ in 0..reps.max(1) {
        let secs = timer.time(&mut work);
        best = best.min(secs);
        worst = worst.max(secs);
    }
    if best.is_finite() && best > 0.0 {
        (best, (worst - best) / best)
    } else {
        (0.0, 0.0)
    }
}

/// `work / secs`, or 0.0 when no wall time was observed (NullTimer).
fn rate(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// Run every suite and return the metrics in deterministic order.
pub fn collect(timer: &dyn WallTimer, cfg: &BenchConfig) -> Vec<Metric> {
    let mut out = Vec::new();
    suite_sim_engine(timer, cfg, &mut out);
    suite_sharded_engine(timer, cfg, &mut out);
    suite_xenstore_commit(timer, cfg, &mut out);
    suite_xenstore_snapshot(timer, cfg, &mut out);
    suite_vchan(timer, cfg, &mut out);
    suite_frame_path(timer, cfg, &mut out);
    suite_handoff(timer, cfg, &mut out);
    suite_cold_start(timer, cfg, &mut out);
    out
}

/// Raw dispatch throughput of the discrete-event engine.
fn suite_sim_engine(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "sim_engine";
    let events = cfg.sim_events;
    let run = || {
        let mut sim = Sim::new(0u64);
        for i in 0..events {
            sim.schedule_at(SimTime::from_micros(i), |s| *s.world_mut() += 1);
        }
        sim.run_steps(events)
    };
    let executed = run();
    out.push(Metric::virt(
        SUITE,
        "events_executed",
        "events",
        executed as f64,
    ));
    let (secs, disp) = measure(timer, cfg.wall_reps, || {
        run();
    });
    out.push(Metric::wall(
        SUITE,
        "events_per_sec",
        "events/s",
        Direction::HigherIsBetter,
        rate(events as f64, secs),
        cfg.wall_reps as u64,
        disp,
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
/// shards. The virtual metrics (events, barriers, checksum) must be
/// *identical across the three shard counts* — the baseline records the
/// invariance itself, so any scheduling divergence between shard counts is
/// drift. The wall metrics track dispatch throughput per shard count.
fn suite_sharded_engine(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "sharded_engine";
    for shards in [1u32, 4, 16] {
        let (events, barriers, checksum) = run_ring(cfg, shards);
        out.push(Metric::virt(
            SUITE,
            &format!("events@{shards}"),
            "events",
            events as f64,
        ));
        out.push(Metric::virt(
            SUITE,
            &format!("barriers@{shards}"),
            "barriers",
            barriers as f64,
        ));
        // Masked to 48 bits so the checksum survives the f64 metric
        // representation without rounding.
        out.push(Metric::virt(
            SUITE,
            &format!("checksum@{shards}"),
            "fold",
            (checksum & 0xFFFF_FFFF_FFFF) as f64,
        ));
        let (secs, disp) = measure(timer, cfg.wall_reps, || {
            run_ring(cfg, shards);
        });
        out.push(Metric::wall(
            SUITE,
            &format!("events_per_sec@{shards}"),
            "events/s",
            Direction::HigherIsBetter,
            rate(events as f64, secs),
            cfg.wall_reps as u64,
            disp,
        ));
    }
}

/// XenStore commit/merge throughput on the Jitsu merge engine: the
/// overlapping-transaction storm cell from the xenstore_storm experiment.
fn suite_xenstore_commit(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
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
    out.push(Metric::virt(SUITE, "commits", "commits", r.commits as f64));
    out.push(Metric::virt(SUITE, "merged", "commits", r.merged as f64));
    out.push(Metric::virt(
        SUITE,
        "eagain_conflicts",
        "aborts",
        r.conflicts as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "merge_rate",
        "fraction",
        r.merge_rate(),
    ));
    let (secs, disp) = measure(timer, cfg.wall_reps, || {
        xenstore_storm::run_cell(&cell);
    });
    out.push(Metric::wall(
        SUITE,
        "commits_per_sec",
        "commits/s",
        Direction::HigherIsBetter,
        rate(r.commits as f64, secs),
        cfg.wall_reps as u64,
        disp,
    ));
}

/// O(1) snapshot scaling: nodes copied per snapshot and per first write at
/// each store size, entries copied per write under one flat directory,
/// nodes copied by a direct store write with and without a transaction
/// open, plus snapshot throughput at the largest size.
fn suite_xenstore_snapshot(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "xenstore_snapshot";
    for &keys in &cfg.snapshot_sizes {
        let p = xenstore_storm::snapshot_point(keys);
        out.push(Metric::virt(
            SUITE,
            &format!("store_nodes@{keys}"),
            "nodes",
            p.store_nodes as f64,
        ));
        out.push(Metric::virt(
            SUITE,
            &format!("copied_by_snapshot@{keys}"),
            "nodes",
            p.copied_by_snapshot as f64,
        ));
        out.push(Metric::virt(
            SUITE,
            &format!("copied_by_one_write@{keys}"),
            "nodes",
            p.copied_by_one_write as f64,
        ));
    }
    // One flat directory at the two fan-outs the benchmark of record times
    // a write under: the entries a write copies must not follow the width.
    for children in [64, 4_096] {
        out.push(Metric::virt(
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
        out.push(Metric::virt(
            SUITE,
            name,
            "nodes",
            xenstore_storm::nodes_copied_by_direct_write(transaction_open) as f64,
        ));
    }
    // Wall: take snapshots of the largest store; O(1) means this rate is
    // independent of the size used here.
    let largest = cfg.snapshot_sizes.iter().copied().max().unwrap_or(100);
    let mut tree = Tree::new();
    for i in 0..largest {
        tree.write(
            DomId::DOM0,
            &Path::parse(&format!("/warm/b{}/k{}", i % 64, i)).expect("valid path"),
            b"seed",
            &mut TreeDiff::default(),
        )
        .expect("prepopulation writes succeed");
    }
    let clones = cfg.snapshot_clones;
    let (secs, disp) = measure(timer, cfg.wall_reps, || {
        for _ in 0..clones {
            std::hint::black_box(tree.clone());
        }
    });
    out.push(Metric::wall(
        SUITE,
        "snapshots_per_sec",
        "snapshots/s",
        Direction::HigherIsBetter,
        rate(clones as f64, secs),
        cfg.wall_reps as u64,
        disp,
    ));
}

/// vchan bulk throughput through `VchanPair::stream`.
fn suite_vchan(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "vchan";
    let payload: Vec<u8> = (0..cfg.vchan_bytes).map(|i| (i % 251) as u8).collect();
    let run = || {
        let mut grants = GrantTable::new();
        let mut evtchn = EventChannelTable::new();
        let mut pair =
            conduit::vchan::VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
                .expect("vchan establishes");
        let received = pair
            .stream(conduit::vchan::Side::Client, &payload, &mut evtchn)
            .expect("stream completes");
        (received.len() as u64, pair.bytes_to_server())
    };
    let (delivered, ring_bytes) = run();
    out.push(Metric::virt(
        SUITE,
        "streamed_bytes",
        "bytes",
        ring_bytes as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "delivered_bytes",
        "bytes",
        delivered as f64,
    ));
    let (secs, disp) = measure(timer, cfg.wall_reps, || {
        run();
    });
    out.push(Metric::wall(
        SUITE,
        "bytes_per_sec",
        "bytes/s",
        Direction::HigherIsBetter,
        rate(cfg.vchan_bytes as f64, secs),
        cfg.wall_reps as u64,
        disp,
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
fn suite_frame_path(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "frame_path";
    const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
    const CLIENT_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x64]);
    let server_ip = Ipv4Addr::new(192, 168, 4, 20);
    let client_ip = Ipv4Addr::new(192, 168, 4, 100);
    let requests = cfg.frame_path_requests;
    let seed = cfg.seed;
    let run = || {
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
            seed,
        );
        let mut client = Interface::new(CLIENT_MAC, client_ip);
        client.add_arp_entry(server_ip, SERVER_MAC);
        server.iface.add_arp_entry(client_ip, CLIENT_MAC);
        let mut tally = FramePathTally::default();
        for _ in 0..requests {
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
        tally
    };
    let t = run();
    out.push(Metric::virt(SUITE, "frames", "frames", t.frames as f64));
    out.push(Metric::virt(
        SUITE,
        "ring_bytes",
        "bytes",
        t.ring_bytes as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "payload_bytes",
        "bytes",
        t.payload_bytes as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "responses",
        "responses",
        t.responses as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "copies_per_packet",
        "copies",
        t.copies as f64 / t.frames as f64,
    ));
    let (secs, disp) = measure(timer, cfg.wall_reps, || {
        run();
    });
    out.push(Metric::wall(
        SUITE,
        "bytes_per_sec",
        "bytes/s",
        Direction::HigherIsBetter,
        rate(t.ring_bytes as f64, secs),
        cfg.wall_reps as u64,
        disp,
    ));
}

/// Full TCB handoff under storm: the handoff_storm cell, with its
/// virtual-time latency tail as exact metrics.
fn suite_handoff(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "handoff";
    let cell = handoff_storm::HandoffStormConfig {
        services: 8,
        rate_per_sec: 12.0,
        launch_slots: 2,
        idle_ttl: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(5),
        seed: cfg.seed,
    };
    let r = handoff_storm::run_cell(&cell);
    out.push(Metric::virt(
        SUITE,
        "migrated_connections",
        "connections",
        r.migrated as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "completed_exchanges",
        "exchanges",
        r.completed as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "dropped_bytes",
        "bytes",
        r.dropped_bytes as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "duplicated_bytes",
        "bytes",
        r.duplicated_bytes as f64,
    ));
    out.push(Metric::virt(SUITE, "latency_p50", "ms", r.p50_ms));
    out.push(Metric::virt(SUITE, "latency_p99", "ms", r.p99_ms));
    out.push(Metric::virt(
        SUITE,
        "xs_merged",
        "commits",
        r.xs_merged as f64,
    ));
    out.push(Metric::virt(
        SUITE,
        "xs_conflicts",
        "aborts",
        r.xs_conflicts as f64,
    ));
    let (secs, disp) = measure(timer, cfg.wall_reps, || {
        handoff_storm::run_cell(&cell);
    });
    out.push(Metric::wall(
        SUITE,
        "cell_seconds",
        "s",
        Direction::LowerIsBetter,
        secs,
        cfg.wall_reps as u64,
        disp,
    ));
}

/// End-to-end cold start: DNS query through Synjitsu to the adopted
/// unikernel's first response byte.
fn suite_cold_start(timer: &dyn WallTimer, cfg: &BenchConfig, out: &mut Vec<Metric>) {
    const SUITE: &str = "cold_start";
    let client = Ipv4Addr::new(192, 168, 1, 100);
    let run = || {
        let config = JitsuConfig::new("bench.example").with_service(ServiceConfig::http_site(
            "svc.bench.example",
            Ipv4Addr::new(192, 168, 1, 20),
        ));
        let mut jitsud = Jitsud::new(config, BoardKind::Cubieboard2.board(), cfg.seed);
        jitsud
            .cold_start_request("svc.bench.example", client, "/")
            .expect("cold start succeeds")
    };
    let report = run();
    out.push(Metric::virt(
        SUITE,
        "dns_response_ms",
        "ms",
        report.dns_response_time.as_millis_f64(),
    ));
    out.push(Metric::virt(
        SUITE,
        "ttfb_ms",
        "ms",
        report.http_response_time.as_millis_f64(),
    ));
    let (secs, disp) = measure(timer, cfg.wall_reps, || {
        run();
    });
    out.push(Metric::wall(
        SUITE,
        "cold_start_seconds",
        "s",
        Direction::LowerIsBetter,
        secs,
        cfg.wall_reps as u64,
        disp,
    ));
}

/// What `--compare` concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No drift, no regression.
    Pass,
    /// At least one wall metric regressed past tolerance (and no drift).
    WallRegression,
    /// At least one virtual metric drifted — the strictest failure.
    VirtualDrift,
}

impl Verdict {
    /// The process exit code the binary reports for this verdict.
    pub fn exit_code(self) -> i32 {
        match self {
            Verdict::Pass => 0,
            Verdict::WallRegression => 2,
            Verdict::VirtualDrift => 3,
        }
    }
}

/// The detailed outcome of comparing a snapshot against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Virtual metrics whose values differ from the baseline (any amount).
    pub drifts: Vec<String>,
    /// Wall metrics that regressed past the tolerance.
    pub regressions: Vec<String>,
    /// Wall metrics that improved past the tolerance (informational).
    pub improvements: Vec<String>,
    /// Non-gating observations (new metrics, skipped comparisons).
    pub notes: Vec<String>,
}

impl CompareReport {
    /// Collapse the report into the gate's verdict.
    pub fn verdict(&self) -> Verdict {
        if !self.drifts.is_empty() {
            Verdict::VirtualDrift
        } else if !self.regressions.is_empty() {
            Verdict::WallRegression
        } else {
            Verdict::Pass
        }
    }

    /// Human-readable rendering, one line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.drifts {
            out.push_str(&format!("DRIFT      {d}\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!("REGRESSION {r}\n"));
        }
        for i in &self.improvements {
            out.push_str(&format!("improved   {i}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note       {n}\n"));
        }
        match self.verdict() {
            Verdict::Pass => out.push_str("verdict: PASS\n"),
            Verdict::WallRegression => out.push_str("verdict: WALL REGRESSION\n"),
            Verdict::VirtualDrift => out.push_str("verdict: VIRTUAL DRIFT\n"),
        }
        out
    }
}

/// Compare `current` against `baseline`.
///
/// Virtual metrics must match the baseline exactly (they are deterministic
/// functions of the tree); wall metrics may move by up to
/// `wall_tolerance_pct` percent in the losing direction before they count
/// as regressions. Metrics present in the baseline but missing from the
/// current snapshot are drift (a suite silently vanished); new metrics in
/// the current snapshot are merely noted.
pub fn compare(current: &Snapshot, baseline: &Snapshot, wall_tolerance_pct: f64) -> CompareReport {
    let mut report = CompareReport::default();
    if current.schema_version != baseline.schema_version {
        report.drifts.push(format!(
            "schema_version: current {} vs baseline {} — refresh the baseline",
            current.schema_version, baseline.schema_version
        ));
        return report;
    }
    let tol = wall_tolerance_pct / 100.0;
    let by_key: BTreeMap<String, &Metric> = current.metrics.iter().map(|m| (m.key(), m)).collect();
    for base in &baseline.metrics {
        let key = base.key();
        let Some(cur) = by_key.get(&key) else {
            report
                .drifts
                .push(format!("{key}: present in baseline, missing from snapshot"));
            continue;
        };
        match base.kind {
            MetricKind::Virtual => {
                // Bit-exact: these values are deterministic counts and
                // virtual-time figures; any difference is an intentional
                // algorithmic change that must also update the baseline.
                if cur.value.to_bits() != base.value.to_bits() {
                    report.drifts.push(format!(
                        "{key}: {:?} {} vs baseline {:?}",
                        cur.value, cur.unit, base.value
                    ));
                }
            }
            MetricKind::Wall => {
                if base.value <= 0.0 {
                    report
                        .notes
                        .push(format!("{key}: baseline has no wall sample, skipped"));
                    continue;
                }
                let ratio = cur.value / base.value;
                let (regressed, improved) = match base.direction {
                    Direction::LowerIsBetter => (ratio > 1.0 + tol, ratio < 1.0 - tol),
                    // Exact should not appear on wall metrics; treat as
                    // lower-is-better to stay conservative.
                    Direction::Exact => (ratio > 1.0 + tol, ratio < 1.0 - tol),
                    Direction::HigherIsBetter => (ratio < 1.0 - tol, ratio > 1.0 + tol),
                };
                let line = format!(
                    "{key}: {:.4} {} vs baseline {:.4} ({:+.1}%)",
                    cur.value,
                    cur.unit,
                    base.value,
                    (ratio - 1.0) * 100.0
                );
                if regressed {
                    report.regressions.push(line);
                } else if improved {
                    report.improvements.push(line);
                }
            }
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

    fn snap(metrics: Vec<Metric>) -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            git_sha: "test".to_string(),
            date: "1970-01-01".to_string(),
            metrics,
        }
    }

    fn sample() -> Snapshot {
        snap(vec![
            Metric::virt("handoff", "migrated_connections", "connections", 42.0),
            Metric::wall(
                "sim_engine",
                "events_per_sec",
                "events/s",
                Direction::HigherIsBetter,
                1_000_000.0,
                5,
                0.05,
            ),
            Metric::wall(
                "cold_start",
                "cold_start_seconds",
                "s",
                Direction::LowerIsBetter,
                0.010,
                5,
                0.05,
            ),
        ])
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = sample();
        let report = compare(&a, &a, DEFAULT_WALL_TOLERANCE_PCT);
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.verdict().exit_code(), 0);
        assert!(report.drifts.is_empty() && report.regressions.is_empty());
    }

    #[test]
    fn wall_regressions_respect_direction_and_tolerance() {
        let base = sample();
        // Throughput down 20% → regression; duration up 20% → regression.
        let mut slow = sample();
        slow.metrics[1].value = 800_000.0;
        let report = compare(&slow, &base, 10.0);
        assert_eq!(report.verdict(), Verdict::WallRegression);
        assert_eq!(report.verdict().exit_code(), 2);
        let mut slower = sample();
        slower.metrics[2].value = 0.012;
        assert_eq!(
            compare(&slower, &base, 10.0).verdict(),
            Verdict::WallRegression
        );
        // Within tolerance → pass; better than baseline → pass with note.
        let mut ok = sample();
        ok.metrics[1].value = 950_000.0;
        assert_eq!(compare(&ok, &base, 10.0).verdict(), Verdict::Pass);
        let mut faster = sample();
        faster.metrics[1].value = 2_000_000.0;
        let report = compare(&faster, &base, 10.0);
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.improvements.len(), 1);
    }

    #[test]
    fn any_virtual_drift_fails_regardless_of_size() {
        let base = sample();
        let mut drifted = sample();
        drifted.metrics[0].value = 43.0;
        let report = compare(&drifted, &base, 10.0);
        assert_eq!(report.verdict(), Verdict::VirtualDrift);
        assert_eq!(report.verdict().exit_code(), 3);
        // Drift outranks a simultaneous wall regression.
        drifted.metrics[1].value = 1.0;
        assert_eq!(
            compare(&drifted, &base, 10.0).verdict(),
            Verdict::VirtualDrift
        );
    }

    #[test]
    fn missing_and_new_metrics_are_classified() {
        let base = sample();
        let mut shrunk = sample();
        shrunk.metrics.remove(0);
        assert_eq!(
            compare(&shrunk, &base, 10.0).verdict(),
            Verdict::VirtualDrift
        );
        let mut grown = sample();
        grown
            .metrics
            .push(Metric::virt("new_suite", "thing", "count", 1.0));
        let report = compare(&grown, &base, 10.0);
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn schema_version_mismatch_is_drift() {
        let base = sample();
        let mut future = sample();
        future.schema_version = SCHEMA_VERSION + 1;
        assert_eq!(
            compare(&future, &base, 10.0).verdict(),
            Verdict::VirtualDrift
        );
    }

    #[test]
    fn snapshot_json_round_trips() {
        let a = sample();
        let text = a.to_json();
        let back = Snapshot::from_json(&text).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn virtual_section_lists_only_virtual_metrics() {
        let s = sample();
        let section = s.virtual_section();
        assert!(section.contains("handoff/migrated_connections"));
        assert!(!section.contains("events_per_sec"));
    }
}
