//! `warm_traffic`: the data plane alone. HTTP exchanges against one
//! long-lived unikernel, every frame in both directions crossing a real
//! vchan ring. No toolstack, no XenStore, no event engine.

use crate::seed::{unit_seed, InputRng};
use crate::span::SpanLog;
use crate::speed::UnitClock;
use crate::workload::{Outcome, Workload};
use conduit::vchan::{Side, VchanPair};
use jitsu_sim::SimDuration;
use netstack::http::{HttpRequest, HttpResponse};
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use netstack::{FrameBuf, MacAddr};
use unikernel::appliance::StaticSiteAppliance;
use unikernel::image::UnikernelImage;
use unikernel::instance::UnikernelInstance;
use xen_sim::event_channel::EventChannelTable;
use xen_sim::grant_table::GrantTable;
use xenstore::DomId;

const STREAM_PAGE: u64 = 3;
const STREAM_MIX: u64 = 4;
const STREAM_SERVER: u64 = 5;

const SITE: &str = "warm.example";
const BIG_PATH: &str = "/big";
const BIG_PAGE_BYTES: usize = 16 * 1024;
const SERVER_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x20]);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 4, 20);

/// Exchanges per unit. A fresh client interface (new IP) starts every batch:
/// one interface has 16,384 ephemeral ports and never forgets a connection.
pub const BATCH: usize = 4096;

pub struct WarmTraffic;

pub struct WarmInputs {
    server_seed: u64,
    big_page: FrameBuf,
    /// Per batch, per exchange: whether it asks for the 16 KiB page (1 in 4
    /// on average) or the ≈70 B index page.
    batches: Vec<Vec<bool>>,
}

/// The unikernel under test with both pages installed.
pub fn server(big_page: &FrameBuf, seed: u64) -> UnikernelInstance {
    let mut site = StaticSiteAppliance::new(SITE);
    site.add_page(BIG_PATH, big_page.slice(..));
    UnikernelInstance::new(
        UnikernelImage::mirage(SITE),
        SERVER_MAC,
        SERVER_IP,
        80,
        Box::new(site),
        seed,
    )
}

/// A seed-derived page body of `len` bytes.
pub fn page_body(seed: u64, len: usize) -> FrameBuf {
    let mut rng = InputRng::new(seed);
    let mut body = Vec::with_capacity(len + 8);
    while body.len() < len {
        body.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    body.truncate(len);
    FrameBuf::from_vec(body)
}

/// The client side of a batch of exchanges.
pub fn client(batch: usize) -> Interface {
    let id = batch as u32 + 1;
    let ip = Ipv4Addr::new(10, (id >> 16) as u8, (id >> 8) as u8, id as u8);
    let mac = MacAddr([2, 1, 0, (id >> 16) as u8, (id >> 8) as u8, id as u8]);
    let mut client = Interface::new(mac, ip);
    client.add_arp_entry(SERVER_IP, SERVER_MAC);
    client
}

/// The data path between one client and the unikernel: the ring every frame
/// crosses, with the per-frame accounting.
pub struct DataPath {
    pub server: UnikernelInstance,
    ring: VchanPair,
    evtchn: EventChannelTable,
    pub frames: u64,
    pub copies: u64,
}

/// What one exchange returned.
pub struct Exchange {
    /// The reassembled response stream.
    pub response: FrameBuf,
    /// Virtual service time the unikernel charged.
    pub service: SimDuration,
}

impl DataPath {
    pub fn new(server: UnikernelInstance) -> DataPath {
        let mut grants = GrantTable::new();
        let mut evtchn = EventChannelTable::new();
        let ring = VchanPair::establish(&mut grants, &mut evtchn, DomId(1), DomId(2))
            .expect("vchan establishes on fresh tables");
        DataPath {
            server,
            ring,
            evtchn,
            frames: 0,
            copies: 0,
        }
    }

    /// Move one frame through the ring. Frames larger than the ring cross in
    /// capacity-sized chunks (`VchanPair::stream` drains as the ring fills).
    fn cross(&mut self, from: Side, frame: &FrameBuf) -> FrameBuf {
        let wire = self
            .ring
            .stream(from, frame, &mut self.evtchn)
            .expect("both ends of the ring stay open");
        self.frames += 1;
        // One materialisation per ring drain, plus the reassembly when a
        // frame needed more than one.
        let drains = frame.len().div_ceil(VchanPair::capacity()) as u64;
        self.copies += drains + u64::from(drains > 1);
        wire
    }

    /// One full exchange: connect, GET `path`, read the response, close.
    pub fn exchange(&mut self, client: &mut Interface, path: &str) -> Exchange {
        let mut to_server = vec![client.tcp_connect(SERVER_IP, 80)];
        let mut connection = None;
        let mut parts: Vec<FrameBuf> = Vec::new();
        let mut service = SimDuration::ZERO;
        // Handshake, request and response settle in four rounds; the FIN
        // round follows. The bound only stops a protocol bug from spinning.
        for _ in 0..16 {
            if to_server.is_empty() {
                match connection.take() {
                    // Quiet after the response: close our side.
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
                let (out, cost) = self.server.handle_frame(&wire);
                service += cost;
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
                        IfaceEvent::TcpData { data, .. } => {
                            self.copies += u64::from(!data.shares_allocation(&wire));
                            parts.push(data);
                        }
                        _ => {}
                    }
                }
            }
        }
        Exchange {
            response: FrameBuf::concat(&parts),
            service,
        }
    }
}

/// Whether `response` is a 200 carrying exactly `page`.
pub fn response_is(response: &FrameBuf, page: &[u8]) -> bool {
    matches!(
        HttpResponse::parse(response),
        Ok(Some(r)) if r.status == 200 && r.body[..] == *page
    )
}

/// The index page `StaticSiteAppliance::new` installs, fetched once through
/// a scratch data path: the reference the small exchanges are compared with.
fn index_page(big_page: &FrameBuf) -> FrameBuf {
    let mut path = DataPath::new(server(big_page, 0));
    let response = path.exchange(&mut client(0), "/").response;
    let parsed = HttpResponse::parse(&response)
        .ok()
        .flatten()
        .expect("the index page is served");
    assert_eq!(parsed.status, 200);
    assert!(parsed.body.len() < 128, "the index page is the small page");
    parsed.body
}

impl Workload for WarmTraffic {
    type Inputs = WarmInputs;
    const NAME: &'static str = "warm_traffic";
    const UNITS_PER_RUN: usize = 366;
    const CONTENTION_SENSITIVITY: f64 = 1.0;

    fn prepare(seed: u64, units: usize) -> WarmInputs {
        let batches = (0..units as u64)
            .map(|u| {
                let mut rng = InputRng::new(unit_seed(seed, STREAM_MIX, u));
                (0..BATCH).map(|_| rng.index(4) == 0).collect()
            })
            .collect();
        WarmInputs {
            server_seed: unit_seed(seed, STREAM_SERVER, 0),
            big_page: page_body(unit_seed(seed, STREAM_PAGE, 0), BIG_PAGE_BYTES),
            batches,
        }
    }

    fn run(inputs: &WarmInputs, units: usize, log: &mut SpanLog) -> Outcome {
        let mut out = Outcome::default();
        let small_page = index_page(&inputs.big_page);
        log.enter("build_world", 0);
        let mut path = DataPath::new(server(&inputs.big_page, inputs.server_seed));
        log.exit();
        let mut clock = UnitClock::start(Self::CONTENTION_SENSITIVITY);
        for (unit, mix) in inputs.batches[..units].iter().enumerate() {
            let id = unit as u64;
            clock.unit(|| {
                log.enter("unit", id);
                log.enter("new_client", id);
                let mut client = client(unit);
                log.next("exchanges", id);
                for &big in mix {
                    let (url, page) = if big {
                        (BIG_PATH, &inputs.big_page)
                    } else {
                        ("/", &small_page)
                    };
                    let x = path.exchange(&mut client, url);
                    if response_is(&x.response, page) {
                        out.served += 1;
                        out.latency_ms.push(x.service.as_millis_f64());
                    }
                }
                log.exit();
                log.exit();
            });
            out.attempted += mix.len() as u64;
        }
        out.counters.frames = path.frames;
        out.counters.frame_copies = path.copies;
        out.counters.open_connections_end = path.server.iface.connection_count() as u64;
        out.timed_by(clock)
    }

    fn check(_inputs: &WarmInputs, outcome: &Outcome) -> Result<(), String> {
        if outcome.served != outcome.attempted {
            return Err(format!(
                "{} of {} exchanges were not a byte-exact 200",
                outcome.attempted - outcome.served,
                outcome.attempted
            ));
        }
        Ok(())
    }
}
