//! The warm data path's allocation budget, counted and pinned.
//!
//! One HTTP exchange is ten frames, each built once and carried across a
//! vchan ring once: the handshake, the request and the response with their
//! ACKs, the client's FIN, the unikernel's FIN+ACK and the client's last
//! ACK, after which neither end holds the connection. How many heap
//! allocations and how many allocated bytes that costs is a property of the
//! code, not of the machine, so it is pinned exactly: a counting
//! `GlobalAlloc` wraps the system allocator and the single test below drives
//! the loop the benchmark of record times (`benchmark/src/warm.rs`:
//! `DataPath::exchange` + `response_is`) — connect, GET, every frame through
//! a real `VchanPair::stream` in both directions, `tcp_close`, parse the
//! response and compare the body. The loop's own `Vec`s are part of the
//! count, as they are part of what the benchmark times.
//!
//! This file holds the workspace's only `unsafe`: integration tests are
//! their own crate, so the allocator shim lives here and everything under
//! `crates/` stays `#![forbid(unsafe_code)]`. It must stay a single
//! `#[test]`: a second test thread would allocate into the same counters.

use jitsu_repro::conduit::vchan::{Side, VchanPair};
use jitsu_repro::netstack::dns::DnsMessage;
use jitsu_repro::netstack::http::{HttpRequest, HttpResponse};
use jitsu_repro::netstack::iface::{IfaceEvent, Interface};
use jitsu_repro::netstack::{FrameBuf, MacAddr};
use jitsu_repro::prelude::*;
use jitsu_repro::unikernel::instance::UnikernelInstance;
use jitsu_repro::xen::event_channel::EventChannelTable;
use jitsu_repro::xen::grant_table::GrantTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every block it hands out (a `realloc` is
/// one more block of the new size).
struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `alloc`; `ptr` and `layout` describe a live block of
        // this allocator because `System` handed it out above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let value = f();
    (
        value,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

const SITE: &str = "warm.example";
const BIG_PATH: &str = "/big";
const BIG_PAGE_BYTES: usize = 16 * 1024;
const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 4, 20);
const CLIENT_MAC: MacAddr = MacAddr([2, 1, 0, 0, 0, 1]);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// The benchmark's `DataPath`: one unikernel behind one ring.
struct DataPath {
    server: UnikernelInstance,
    ring: VchanPair,
    evtchn: EventChannelTable,
}

impl DataPath {
    fn new(big_page: &FrameBuf) -> DataPath {
        let mut site = StaticSiteAppliance::new(SITE);
        site.add_page(BIG_PATH, big_page.slice(..));
        let server = UnikernelInstance::new(
            UnikernelImage::mirage(SITE),
            SERVER_MAC,
            SERVER_IP,
            80,
            Box::new(site),
            7,
        );
        let mut grants = GrantTable::new();
        let mut evtchn = EventChannelTable::new();
        let ring = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
            .expect("vchan establishes on fresh tables");
        DataPath {
            server,
            ring,
            evtchn,
        }
    }

    fn cross(&mut self, from: Side, frame: &FrameBuf) -> FrameBuf {
        self.ring
            .stream(from, frame, &mut self.evtchn)
            .expect("both ends of the ring stay open")
    }

    /// One full exchange, statement for statement the benchmark's.
    fn exchange(&mut self, client: &mut Interface, path: &str) -> FrameBuf {
        let mut to_server = vec![client.tcp_connect(SERVER_IP, 80)];
        let mut connection = None;
        let mut parts: Vec<FrameBuf> = Vec::new();
        for _ in 0..16 {
            if to_server.is_empty() {
                match connection.take() {
                    Some((remote, port)) if !parts.is_empty() => {
                        to_server.extend(client.tcp_close(remote, port));
                        continue;
                    }
                    _ => break,
                }
            }
            let mut to_client = Vec::new();
            for frame in to_server.drain(..) {
                let wire = self.cross(Side::Client, &frame);
                let (out, _cost) = self.server.handle_frame(&wire);
                to_client.extend(out);
            }
            for frame in to_client {
                let wire = self.cross(Side::Server, &frame);
                let (out, events) = client.handle_frame(&wire);
                to_server.extend(out);
                for event in events {
                    match event {
                        IfaceEvent::TcpConnected { remote, local_port } => {
                            connection = Some((remote, local_port));
                            let request = HttpRequest::get(path, SITE).emit();
                            to_server.extend(client.tcp_send(remote, local_port, request));
                        }
                        IfaceEvent::TcpData { data, .. } => parts.push(data),
                        _ => {}
                    }
                }
            }
        }
        FrameBuf::concat(&parts)
    }
}

fn response_is(response: &FrameBuf, page: &[u8]) -> bool {
    matches!(
        HttpResponse::parse(response),
        Ok(Some(r)) if r.status == 200 && r.body[..] == *page
    )
}

/// Exchanges measured per page size.
const WINDOW: usize = 64;

/// What a window of exchanges allocated.
struct Window {
    /// Allocations and bytes of the cheapest exchange: the steady cost.
    steady: (u64, u64),
    /// Allocations over the whole window. Both interfaces forget a
    /// connection once it closes, so their tables never grow a node and
    /// every exchange costs the same.
    total_allocations: u64,
}

fn window(path: &mut DataPath, client: &mut Interface, url: &str, page: &[u8]) -> Window {
    let mut each = [(0, 0); WINDOW];
    for slot in &mut each {
        let (ok, allocations, bytes) = counted(|| {
            let response = path.exchange(client, url);
            response_is(&response, page)
        });
        assert!(ok, "the exchange for {url} is a byte-exact 200");
        assert_eq!(
            path.server.iface.connection_count(),
            0,
            "the server forgot the flow"
        );
        assert_eq!(client.connection_count(), 0, "the client forgot the flow");
        *slot = (allocations, bytes);
    }
    Window {
        steady: each.into_iter().min().expect("the window is not empty"),
        total_allocations: each.iter().map(|(allocations, _)| allocations).sum(),
    }
}

#[test]
fn warm_exchange_and_ring_stream_stay_inside_their_allocation_budget() {
    let big_page = FrameBuf::from_vec((0..BIG_PAGE_BYTES).map(|i| (i % 251) as u8).collect());
    let mut path = DataPath::new(&big_page);
    let mut client = Interface::new(CLIENT_MAC, CLIENT_IP);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);

    // Warm-up: learn the index page and let lazy set-up finish.
    let index = path.exchange(&mut client, "/");
    let small_page = HttpResponse::parse(&index)
        .ok()
        .flatten()
        .expect("the index page is served")
        .body;
    assert!(small_page.len() < 128, "the index page is the small page");
    for _ in 0..WINDOW {
        path.exchange(&mut client, "/");
        path.exchange(&mut client, BIG_PATH);
    }

    let small = window(&mut path, &mut client, "/", &small_page);
    let big = window(&mut path, &mut client, BIG_PATH, &big_page);

    // The ring on its own: a transfer that fits the free ring, and one that
    // needs three drains.
    let mut stream = |len: usize| {
        let data = vec![0x5Au8; len];
        let (got, allocations, bytes) = counted(|| {
            path.ring
                .stream(Side::Client, &data, &mut path.evtchn)
                .expect("both ends of the ring stay open")
        });
        assert_eq!(got, data);
        (allocations, bytes)
    };
    let one_drain = stream(1500);
    let three_drains = stream(2 * VchanPair::capacity() + 100);

    // A 12-byte DNS header that promises 65,535 questions, or answers, and
    // carries none: the parser reserves what the bytes could hold, not what
    // the header claims.
    for counts in [[0xff, 0xff, 0, 0], [0, 0, 0xff, 0xff]] {
        let mut header = [0u8; 12];
        header[4..8].copy_from_slice(&counts);
        let (parsed, _, bytes) = counted(|| DnsMessage::parse(&header).is_err());
        assert!(parsed, "a header with no records is truncated");
        assert!(bytes < 1024, "a hostile DNS header allocated {bytes} bytes");
    }

    // At PR 18's parent the same windows averaged 160.3 allocations and
    // 13.7 KB per small exchange, 172.3 and 210 KB per 16 KiB one, and a
    // stream cost 4 and 10 allocations. The issue's ceiling is 90
    // allocations per exchange and 64 KiB allocated per 16 KiB exchange.
    // A sealed buffer is two allocations: its bytes, and the 32-byte
    // reference count they sit behind.
    //
    // Until closed flows were reaped this read 78 allocations (6,216 and
    // 55,173 bytes) and 5,014 per window, the surplus being connection-map
    // nodes. Now a message is its head bytes plus offsets: building the
    // GET, parsing it, building the response and parsing that allocate no
    // `String` or `BTreeMap` node (−20). The passive close costs 8: the
    // unikernel's FIN+ACK (the bare ACK it replaces is still built first),
    // and the client's last ACK, its drain from the ring and the two `Vec`s
    // the client's `handle_frame` now returns non-empty.
    assert_eq!(small.steady, (66, 4_533), "70 B exchange");
    assert_eq!(big.steady, (66, 53_481), "16 KiB exchange");
    assert_eq!(
        (small.total_allocations, big.total_allocations),
        (WINDOW as u64 * small.steady.0, WINDOW as u64 * big.steady.0),
        "{WINDOW} exchanges: no connection-map node is ever allocated"
    );
    assert_eq!(one_drain, (2, 1_500 + 32), "a stream that fits the ring");
    assert_eq!(
        three_drains,
        (2, 2 * VchanPair::capacity() as u64 + 100 + 32),
        "a stream of three drains"
    );
}
