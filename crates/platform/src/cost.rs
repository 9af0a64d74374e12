//! The calibrated cost model: every virtual-time cost the reproduction
//! charges, in one place.
//!
//! Each field is one calibrated cost. Its doc names the paper section or
//! figure it reproduces, its value, and what a sensitivity sweep found: the
//! artifacts that move when the field alone is scaled by 1.1, or why none
//! does. A ×1.1 probe that moves nothing does not prove a field unused, so
//! whether a field is read at all was decided by a probe that panics on the
//! read; fields no artifact read were deleted. In those docs:
//!
//! * "Fig 3" … "Fig 9b" and "§4 throughput" are `reproduce`'s sections;
//! * "storms" are `reproduce`'s boot- and handoff-storm tables and the
//!   `boot_storm` and `handoff_storm` binaries at their default seeds;
//! * "fleets" are those binaries at `4A0D --boards 4`, one and four shards;
//! * "snapshot" is `bench_snapshot`'s `cold_start` and `handoff` suites,
//!   the only ones a cost reaches.
//!
//! CPU-bound costs are calibrated on the x86 server and scaled by the board's
//! CPU factor (the paper's 20 ms x86 against 120 ms ARM build, §3.1); the
//! others are calibrated on the Cubieboard2 and hold on every board. The only
//! constructor is [`Board::new`](crate::Board::new), so no other crate can
//! make a scaled cost. `tests/golden/cost_model.txt` holds every board's
//! model.

use crate::storage::{StorageDevice, StorageKind};
use jitsu_sim::{Distribution, SimDuration};

/// Every calibrated virtual-time cost of one board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// §3.1, Fig 4: the toolstack's XenStore transactions and blocking RPCs per create (13 ms x86).
    /// Moves Fig 4, 9a, storms, fleets, snapshot.
    pub xenstore_coordination: SimDuration,
    /// §3.1, Fig 4: the domain-descriptor hypercall of a build (1 ms x86).
    /// Moves Fig 4, 9a, storms, fleets, snapshot.
    pub domain_descriptor: SimDuration,
    /// §3.1, Fig 4: pages the builder zeroes per ms (1,050 x86), the memory-proportional term.
    /// Moves Fig 4, storms, fleets, snapshot.
    pub zero_pages_per_ms: f64,
    /// §3.1, Fig 4: loading one MiB of kernel image into the guest (1 ms x86).
    /// Moves Fig 4, 9a, storms, fleets, snapshot.
    pub kernel_load_per_mib: SimDuration,
    /// §2.3, Fig 4: writing the guest's Flattened Device Tree (200 µs x86).
    /// Moves Fig 4, storms, snapshot.
    pub fdt_write: SimDuration,
    /// §3.1, Fig 4 "Remove primary console": `xenconsoled` attaching a console (8.3 ms x86).
    /// Moves Fig 4, 9a.
    pub console_attach: SimDuration,
    /// §3.1, Fig 4: creating the vif backend in dom0 (830 µs x86).
    /// Moves Fig 4, 9a; storms read it under the overlapped build.
    pub vif_backend_create: SimDuration,
    /// §3.1, Fig 4 "Parallelise hotplug": blocking XenStore RPCs of a serial vif attach (3.3 ms x86).
    /// Moves Fig 4, 9a.
    pub vif_blocking_rpc: SimDuration,
    /// §3.1, Fig 4 "Xen 4.4.0": the stock bash hotplug script (75 ms x86). Moves Fig 4, 9a.
    pub hotplug_bash: Distribution,
    /// §3.1, Fig 4 "minimal version": the hotplug script under `dash` (16.7 ms x86). Moves Fig 4.
    pub hotplug_dash: Distribution,
    /// §3.1, Fig 4 "inline ioctl()": the bridge `ioctl()`s (800 µs x86).
    /// Moves Fig 4; storms read it under the overlapped build.
    pub hotplug_ioctl: Distribution,
    /// §3.3: tearing a reaped domain down before its memory is reusable (5 ms x86).
    /// Moves storms, boot fleets.
    pub domain_teardown: SimDuration,
    /// §3.2: one frame's hop across dom0's software bridge (50 µs).
    /// Unread by every artifact; kept: `Bridge::transmit` returns it.
    pub bridge_forward: SimDuration,
    /// §2.3: assembler boot tasks: MMU, caches, exception vectors, stack (300 µs x86).
    /// Moves storms, snapshot.
    pub boot_assembler: SimDuration,
    /// §2.3: early C `arch_init`: console and interrupt controllers (1.2 ms x86).
    /// Moves Fig 9a, storms, fleets, snapshot.
    pub boot_early_c: SimDuration,
    /// §2.3: binding allocators, timekeeping and grant tables (6 ms x86).
    /// Moves Fig 9a, storms, fleets, snapshot.
    pub boot_runtime_bind: SimDuration,
    /// §2.3: starting the OCaml runtime (10 ms x86). Moves Fig 9a, storms, fleets, snapshot.
    pub boot_language_runtime: SimDuration,
    /// §2.3, §3.3.1: netfront and TCP/IP up, where the handoff starts (8 ms x86).
    /// Moves Fig 9a, storms, fleets, snapshot.
    pub boot_netfront: SimDuration,
    /// §2.3: application start (5 ms x86). Moves storms, fleets.
    pub boot_application: SimDuration,
    /// §3.3.2: a static-site appliance serving a page (200 µs).
    /// Read, moves nothing: jitsud discards it; kept: `Appliance::handle` returns it.
    pub static_page: SimDuration,
    /// §4 throughput: the persistent queue's CPU work per request, beside its I/O (300 µs).
    /// Moves §4 throughput.
    pub queue_request: SimDuration,
    /// §4 throughput: a queue read the cache absorbs (50 µs).
    /// Read, moves nothing: under the wire time in the harness's `max()`.
    pub queue_cache_hit: SimDuration,
    /// §3.3, Fig 9a: one-way client–board network delay (2.5 ms). Moves storms, snapshot.
    pub one_way_delay: SimDuration,
    /// §3.3, Fig 9a: jitsud deciding one DNS query (150 µs x86). Moves the boot storm.
    /// Disagrees with the deleted linear daemon, which started a launch only after this (0.9 ms on the
    /// Cubieboard2); jitsud starts it when the query arrives. Both are kept as they are.
    pub dns_processing: SimDuration,
    /// §3.3.1, Fig 9a: the Synjitsu handoff's commit after network-ready (700 µs x86).
    /// Moves storms, snapshot.
    pub handoff_commit: SimDuration,
    /// §3.3, Fig 9a: jitsud's charge for producing one response (700 µs x86).
    /// Moves storms, snapshot.
    /// Disagrees with `static_page`: 4.2 ms on the Cubieboard2, where the appliance reports 0.2 ms;
    /// `pump_via_unikernel` discards the appliance's figure. Both are kept as they are.
    pub service_response: SimDuration,
    /// §3.3, Fig 9a "no synjitsu": the client's initial SYN retransmission timeout (1 s).
    /// Moves Fig 9a.
    pub syn_rto: SimDuration,
    /// Fig 9b: Docker's namespaces, cgroups, daemon round trips and fork/exec (95 ms x86).
    /// Moves Fig 9b.
    pub docker_process_setup: SimDuration,
    /// §3, Fig 9b: `inetd` accepting a connection (500 µs x86). Moves Fig 9b.
    pub inetd_accept: SimDuration,
    /// §3, Fig 9b: `inetd` forking and exec'ing the handler (2 ms x86). Moves Fig 9b.
    pub inetd_spawn: SimDuration,
    /// Fig 3 "C Xenstored": one request to the filesystem-backed store (250 µs). Moves Fig 3.
    pub xenstored_c_op: SimDuration,
    /// Fig 3 "C Xenstored": opening a transaction (800 µs). Moves Fig 3.
    pub xenstored_c_txn_begin: SimDuration,
    /// Fig 3 "C Xenstored": committing a transaction (1.5 ms). Moves Fig 3.
    pub xenstored_c_txn_commit: SimDuration,
    /// Fig 3 "C Xenstored": the store's share of retrying a conflicted commit (6 ms). Moves Fig 3.
    pub xenstored_c_conflict: SimDuration,
    /// Fig 3 "OCaml Xenstored": one request to the in-memory store (60 µs). Moves Fig 3.
    pub oxenstored_op: SimDuration,
    /// Fig 3 "OCaml Xenstored": opening a transaction (120 µs). Moves Fig 3.
    pub oxenstored_txn_begin: SimDuration,
    /// Fig 3 "OCaml Xenstored": committing a transaction (300 µs). Moves Fig 3.
    pub oxenstored_txn_commit: SimDuration,
    /// Fig 3: the OCaml store's (and so the Jitsu fork's) share of retrying a conflicted commit (4 ms).
    /// Moves Fig 3.
    pub oxenstored_conflict: SimDuration,
    /// Fig 3 "Jitsu Xenstored": one request (60 µs). Moves Fig 3.
    pub jitsu_xenstored_op: SimDuration,
    /// Fig 3 "Jitsu Xenstored": opening a transaction (120 µs). Moves Fig 3.
    pub jitsu_xenstored_txn_begin: SimDuration,
    /// Fig 3 "Jitsu Xenstored": committing a transaction, merge included (320 µs). Moves Fig 3.
    pub jitsu_xenstored_txn_commit: SimDuration,
    /// Fig 3: toolstack CPU work of one VM start/stop sequence (1.2 s). Moves Fig 3.
    pub fig3_sequence_cpu: SimDuration,
    /// Fig 3: toolstack CPU work redone per conflicted commit (350 ms). Moves Fig 3.
    pub fig3_conflict_redo: SimDuration,
    /// Fig 8: per-byte copy cost through a software stack (10 ns x86). Moves Fig 8.
    pub ping_per_byte: SimDuration,
    /// Fig 8 "localhost": the client's own stack (12 ± 1.5 µs x86). Moves Fig 8.
    pub ping_client_stack: Distribution,
    /// Fig 8 "dom0": dom0's stack (14 ± 2 µs x86). Moves Fig 8.
    pub ping_dom0_stack: Distribution,
    /// Fig 8 "linux": a Linux guest's stack (16 ± 2.5 µs x86). Moves Fig 8.
    pub ping_linux_stack: Distribution,
    /// Fig 8 "mirage": a MirageOS guest's stack, "slightly more variation" (§4; 20 ± 6 µs x86).
    /// Moves Fig 8.
    pub ping_mirage_stack: Distribution,
    /// Fig 8: the netback/netfront ring crossing (9 ± 1.5 µs x86). Moves Fig 8.
    pub ping_ring_crossing: Distribution,
    /// Fig 8: the bridge hop a guest-bound ping takes (8 µs x86). Moves Fig 8.
    pub ping_bridge_hop: SimDuration,
    /// §4 throughput: protocol stack time per queue response (60 µs x86). Moves §4 throughput.
    pub http_stack: SimDuration,
}

/// A duration in microseconds.
const fn us(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

/// A CPU-bound cost measured on the x86 server, scaled to a board.
const fn cpu(x86: SimDuration, cpu_scale: f64) -> SimDuration {
    x86.mul_f64(cpu_scale)
}

/// A hotplug step with mild log-normal jitter: script execution time
/// varies with SD-card cache state.
const fn hotplug(x86_us: u64, cpu_scale: f64) -> Distribution {
    Distribution::LogNormal {
        median: cpu(us(x86_us), cpu_scale),
        sigma: 0.08,
    }
}

/// A Figure 8 stack traversal, in microseconds on the x86 server.
const fn stack(mean: f64, std_dev: f64, cpu_scale: f64) -> Distribution {
    Distribution::Normal {
        mean: cpu(SimDuration::from_micros_f64(mean), cpu_scale),
        std_dev: cpu(SimDuration::from_micros_f64(std_dev), cpu_scale),
    }
}

impl CostModel {
    /// The model of a board whose CPU is `s` times slower than the x86
    /// server's. [`Board::new`](crate::Board::new) is the only caller.
    pub(crate) const fn new(s: f64) -> CostModel {
        CostModel {
            xenstore_coordination: cpu(us(13_000), s),
            domain_descriptor: cpu(us(1_000), s),
            zero_pages_per_ms: 1050.0 / s,
            kernel_load_per_mib: cpu(us(1_000), s),
            fdt_write: cpu(us(200), s),
            console_attach: cpu(us(8_300), s),
            vif_backend_create: cpu(us(830), s),
            vif_blocking_rpc: cpu(us(3_300), s),
            hotplug_bash: hotplug(75_000, s),
            hotplug_dash: hotplug(16_700, s),
            hotplug_ioctl: hotplug(800, s),
            domain_teardown: cpu(us(5_000), s),
            bridge_forward: us(50),
            boot_assembler: cpu(us(300), s),
            boot_early_c: cpu(us(1_200), s),
            boot_runtime_bind: cpu(us(6_000), s),
            boot_language_runtime: cpu(us(10_000), s),
            boot_netfront: cpu(us(8_000), s),
            boot_application: cpu(us(5_000), s),
            static_page: us(200),
            queue_request: us(300),
            queue_cache_hit: us(50),
            one_way_delay: us(2_500),
            dns_processing: cpu(us(150), s),
            handoff_commit: cpu(us(700), s),
            service_response: cpu(us(700), s),
            syn_rto: SimDuration::from_secs(1),
            docker_process_setup: cpu(us(95_000), s),
            inetd_accept: cpu(us(500), s),
            inetd_spawn: cpu(us(2_000), s),
            xenstored_c_op: us(250),
            xenstored_c_txn_begin: us(800),
            xenstored_c_txn_commit: us(1500),
            xenstored_c_conflict: SimDuration::from_millis(6),
            oxenstored_op: us(60),
            oxenstored_txn_begin: us(120),
            oxenstored_txn_commit: us(300),
            oxenstored_conflict: SimDuration::from_millis(4),
            jitsu_xenstored_op: us(60),
            jitsu_xenstored_txn_begin: us(120),
            jitsu_xenstored_txn_commit: us(320),
            fig3_sequence_cpu: SimDuration::from_millis(1_200),
            fig3_conflict_redo: SimDuration::from_millis(350),
            ping_per_byte: cpu(SimDuration::from_nanos(10), s),
            ping_client_stack: stack(12.0, 1.5, s),
            ping_dom0_stack: stack(14.0, 2.0, s),
            ping_linux_stack: stack(16.0, 2.5, s),
            ping_mirage_stack: stack(20.0, 6.0, s),
            ping_ring_crossing: stack(9.0, 1.5, s),
            ping_bridge_hop: cpu(us(8), s),
            http_stack: cpu(us(60), s),
        }
    }
}

impl StorageDevice {
    /// The calibrated model of a storage device (Fig 9b, §4 throughput).
    pub fn new(kind: StorageKind) -> StorageDevice {
        let access = |median: SimDuration, sigma: f64| Distribution::LogNormal { median, sigma };
        match kind {
            // Read by Fig 9b and §4 throughput; its access latency moves both.
            StorageKind::SdCard => StorageDevice {
                kind,
                read_mbps: 10.0,
                write_mbps: 6.0,
                access_latency: access(SimDuration::from_millis(2), 0.6),
                io_error_rate: 0.0,
            },
            // Read by §4 throughput, where the wire time masks its latency.
            StorageKind::Ssd => StorageDevice {
                kind,
                read_mbps: 180.0,
                write_mbps: 120.0,
                access_latency: access(SimDuration::from_micros(150), 0.4),
                io_error_rate: 0.0,
            },
            // Read by Fig 9b; its latency hides under the CDF's 50 ms grid.
            StorageKind::TmpfsLoopback => StorageDevice {
                kind,
                read_mbps: 400.0,
                write_mbps: 350.0,
                access_latency: access(SimDuration::from_micros(40), 0.3),
                // The loopback-on-tmpfs workaround is fragile on ARM (§4).
                io_error_rate: 0.08,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::BoardKind;

    #[test]
    fn fig3_c_xenstored_is_the_slowest_store() {
        let costs = BoardKind::Cubieboard2.board().costs;
        // The C daemon keeps transactions on the filesystem: slower per op.
        assert!(costs.xenstored_c_op > costs.jitsu_xenstored_op);
        assert!(costs.xenstored_c_txn_commit > costs.jitsu_xenstored_txn_commit);
        assert!(costs.xenstored_c_conflict > costs.oxenstored_conflict);
    }
}
