//! `scripted_summon`: a benchmark-owned re-enactment of one cold start that
//! calls each layer's public function in the order `ConcurrentJitsud` does,
//! with a span around every call.
//!
//! The real daemon interleaves these calls with event scheduling, lifecycle
//! bookkeeping and tracing inside `jitsu::concurrent`; timing them from
//! outside shows how much of a launch the layers themselves explain
//! (`trace.coverage`). The rest can only be split by spans inside the
//! program, which is a later change. All summons share one world, so the
//! table shows the fresh cost at the start and the aged cost at the end.

use crate::seed::unit_seed;
use crate::span::{child_cover_ns, SpanLog};
use crate::speed::Slowdown;
use conduit::flows::FlowTable;
use conduit::rendezvous::ConduitRegistry;
use conduit::vchan::Side;
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu::directory::{DirectoryAction, DirectoryService};
use jitsu::launcher::Launcher;
use jitsu::synjitsu::Synjitsu;
use jitsu_sim::{SimRng, SimTime};
use netstack::dns::{DnsMessage, Rcode};
use netstack::http::{HttpRequest, HttpResponse};
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use netstack::tcp::Tcb;
use netstack::{FrameBuf, MacAddr};
use platform::BoardKind;
use unikernel::appliance::{Appliance, StaticSiteAppliance};
use xen_sim::toolstack::Toolstack;
use xenstore::DomId;

const STREAM_SCRIPTED: u64 = 7;
const SUMMONS: usize = 2_000;
const SERVICES: usize = 24;
/// Summons averaged at each end: about what one `summon_sweep` cell
/// launches, so the fresh mean meets the same store the daemon's cells do.
const WINDOW: usize = 150;
/// Named layer spans must cover this share of every root span.
const MIN_COVERAGE: f64 = 0.98;
const ROOT: &str = "scripted_summon";
const DOM0: DomId = DomId::DOM0;

pub struct Scripted {
    /// Two lines for the run's output.
    pub summary: String,
    /// Mean host microseconds of the first [`WINDOW`] summons, at reference
    /// speed.
    pub fresh_us_per_summon: f64,
}

fn client_ip(id: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, (id >> 16) as u8, (id >> 8) as u8, id as u8)
}

fn client_mac(id: u32) -> MacAddr {
    MacAddr([2, 0, 0, (id >> 16) as u8, (id >> 8) as u8, id as u8])
}

/// The exact byte stream the service's appliance answers `GET /` with.
fn expected_response(name: &str) -> FrameBuf {
    let mut site = StaticSiteAppliance::new(name);
    let (response, _) = site.handle(&HttpRequest::get("/", name), &mut SimRng::seed_from_u64(0));
    response.emit()
}

pub fn run(seed: u64, log: &mut SpanLog) -> Result<Scripted, String> {
    let services: Vec<ServiceConfig> = (0..SERVICES)
        .map(|i| {
            let ip = Ipv4Addr::new(192, 168, 2, 20 + i as u8);
            let mut svc = ServiceConfig::http_site(&format!("svc{i:03}.storm.example"), ip);
            svc.image.memory_mib = 16;
            svc
        })
        .collect();
    let expected: Vec<FrameBuf> = services
        .iter()
        .map(|s| expected_response(&s.name))
        .collect();
    let mut config = JitsuConfig::new("storm.example");
    for svc in &services {
        config = config.with_service(svc.clone());
    }

    let mut toolstack = Toolstack::new(
        BoardKind::Cubieboard2.board(),
        config.engine,
        unit_seed(seed, STREAM_SCRIPTED, 0),
    );
    let mut conduit = ConduitRegistry::new();
    conduit
        .register(&mut toolstack.xenstore, "synjitsu", DOM0)
        .map_err(|e| format!("conduit registration: {e:?}"))?;
    let mut launcher = Launcher::new(toolstack, config.boot);
    let mut directory = DirectoryService::new(config);
    let mut synjitsu = Synjitsu::new();

    let first_span = log.spans().len();
    // Slowdown readings around the first and the last WINDOW summons, whose
    // means are reported at reference speed. The spans stay raw: a trace is a
    // timeline of what happened.
    let mut probe = Some(Slowdown::start());
    let mut slowdowns = Vec::with_capacity(2);
    for n in 0..SUMMONS {
        if n == SUMMONS - WINDOW {
            probe = Some(Slowdown::start());
        }
        let id = n as u64;
        let svc = &services[n % SERVICES];
        let name = svc.name.as_str();
        let now = SimTime::from_millis(id);
        let fail = |what: &str| format!("scripted summon {n} ({name}): {what}");

        // DNS query in, directory decision, DNS answer out.
        log.enter_root(ROOT, "dns.query_emit_parse", id);
        let wire = DnsMessage::query(n as u16, name).emit();
        let query = DnsMessage::parse(&wire).map_err(|e| fail(&format!("{e:?}")))?;
        log.next("directory.handle_query", id);
        let (answer, action) = directory.handle_query(&query, now, true);
        if !matches!(action, DirectoryAction::Launch { .. }) || answer.rcode != Rcode::NoError {
            return Err(fail(&format!("directory said {action:?}")));
        }
        log.next("dns.answer_emit_parse", id);
        DnsMessage::parse(&answer.emit()).map_err(|e| fail(&format!("{e:?}")))?;

        // Proxy up, domain built, boot registered in the store.
        log.next("synjitsu.start_proxying", id);
        synjitsu
            .start_proxying(&mut launcher.toolstack.xenstore, svc)
            .map_err(|e| fail(&format!("{e:?}")))?;
        log.next("launcher.summon", id);
        let (outcome, mut instance) = launcher
            .summon(svc, now, unit_seed(seed, STREAM_SCRIPTED, 1 + id))
            .map_err(|e| fail(&format!("{e:?}")))?;
        log.next("xenstore.boot_record", id);
        let record = format!("/jitsu/service/{name}");
        let xs = &mut launcher.toolstack.xenstore;
        xs.with_transaction(DOM0, 8, |xs, t| {
            xs.write(DOM0, Some(t), &format!("{record}/state"), b"built")?;
            xs.write(
                DOM0,
                Some(t),
                &format!("{record}/dom"),
                outcome.dom.0.to_string().as_bytes(),
            )
        })
        .map_err(|e| fail(&format!("{e:?}")))?;

        // The client's SYN, ACK and GET, all answered by the proxy.
        log.next("client.iface", id);
        let cid = n as u32 + 1;
        let mut client = Interface::new(client_mac(cid), client_ip(cid));
        client.add_arp_entry(svc.ip, svc.mac());
        let mut to_proxy = vec![client.tcp_connect(svc.ip, svc.port)];
        while let Some(frame) = to_proxy.pop() {
            log.next("synjitsu.handle_frame", id);
            let replies = synjitsu
                .handle_frame(&mut launcher.toolstack.xenstore, name, &frame)
                .map_err(|e| fail(&format!("{e:?}")))?;
            log.next("client.iface", id);
            for reply in replies {
                let (out, events) = client.handle_frame(&reply);
                to_proxy.extend(out);
                if let Some(IfaceEvent::TcpConnected { remote, local_port }) = events.first() {
                    let request = HttpRequest::get("/", name).emit();
                    to_proxy.extend(client.tcp_send(*remote, *local_port, request));
                }
            }
        }

        // Phase 1: flush the records, rendezvous, drain them over a vchan.
        log.next("synjitsu.prepare_handoff", id);
        synjitsu
            .prepare_handoff(&mut launcher.toolstack.xenstore, name)
            .map_err(|e| fail(&format!("{e:?}")))?;
        log.next("tcb.to_sexp", id);
        let mut records = Vec::new();
        for (_, tcb) in synjitsu.connection_records(name) {
            let sexp = tcb.to_sexp();
            records.extend_from_slice(&(sexp.len() as u32).to_be_bytes());
            records.extend_from_slice(sexp.as_bytes());
        }
        log.next("conduit.rendezvous", id);
        let conn = name.replace('.', "_");
        let (xs, grants, evtchn) = launcher.toolstack.conduit_parts();
        ConduitRegistry::connect(xs, outcome.dom, "synjitsu", &conn)
            .map_err(|e| fail(&format!("{e:?}")))?;
        let mut accepted = conduit
            .accept_one(xs, grants, evtchn, "synjitsu", DOM0, &conn)
            .map_err(|e| fail(&format!("{e:?}")))?;
        log.next("vchan.stream", id);
        let drained = accepted
            .channel
            .stream(Side::Server, &records, evtchn)
            .map_err(|e| fail(&format!("{e:?}")))?;
        log.next("conduit.close", id);
        accepted.channel.close(Side::Server);
        accepted.channel.teardown(grants, evtchn);
        ConduitRegistry::close(xs, "synjitsu", DOM0, &conn, accepted.flow_id)
            .map_err(|e| fail(&format!("{e:?}")))?;
        FlowTable::prune_closed(xs, DOM0);
        log.next("tcb.from_sexp", id);
        let mut tcbs = Vec::new();
        let mut rest = &drained[..];
        while rest.len() >= 4 {
            let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let sexp = std::str::from_utf8(&rest[4..4 + len]).map_err(|e| fail(&e.to_string()))?;
            tcbs.push(Tcb::from_sexp(sexp).ok_or_else(|| fail("a record did not parse"))?);
            rest = &rest[4 + len..];
        }
        if tcbs.len() != 1 {
            return Err(fail(&format!(
                "{} connections drained, expected 1",
                tcbs.len()
            )));
        }

        // Phase 2: commit, adopt, replay the buffered request.
        log.next("synjitsu.commit_handoff", id);
        let parked = synjitsu
            .commit_handoff(&mut launcher.toolstack.xenstore, name)
            .map_err(|e| fail(&format!("{e:?}")))?;
        if !parked.is_empty() {
            return Err(fail("frames were parked with no traffic in flight"));
        }
        log.next("unikernel.adopt_handoff", id);
        let mut to_client = Vec::new();
        for tcb in tcbs {
            to_client.extend(instance.adopt_handoff(tcb, client_mac(cid)).0);
        }
        log.next("directory.mark_ready", id);
        directory.mark_ready(name, now);

        // The response reaches the client; its ACK goes to the unikernel.
        log.next("client.iface", id);
        let mut body = Vec::new();
        let mut acks = Vec::new();
        for frame in &to_client {
            let (out, events) = client.handle_frame(frame);
            acks.extend(out);
            for event in events {
                if let IfaceEvent::TcpData { data, .. } = event {
                    body.push(data);
                }
            }
        }
        log.next("unikernel.handle_frame", id);
        for ack in &acks {
            instance.handle_frame(ack);
        }
        log.next("http.parse_response", id);
        let response = FrameBuf::concat(&body);
        let parsed = HttpResponse::parse(&response).map_err(|e| fail(&format!("{e:?}")))?;
        if response != expected[n % SERVICES] || parsed.map(|r| r.status) != Some(200) {
            return Err(fail("the response is not byte-exact"));
        }

        // Idle reap: domain destroyed, lifecycle record removed.
        log.next("launcher.retire", id);
        launcher
            .retire(outcome.dom)
            .map_err(|e| fail(&format!("{e:?}")))?;
        log.next("xenstore.rm_service_record", id);
        launcher
            .toolstack
            .xenstore
            .rm(DOM0, None, &record)
            .map_err(|e| fail(&format!("{e:?}")))?;
        log.next("directory.mark_stopped", id);
        directory.mark_stopped(name);
        log.exit_root();
        if n + 1 == WINDOW || n + 1 == SUMMONS {
            slowdowns.push(probe.take().expect("a probe is open").finish());
        }
    }

    // Every root must be explained by the layer spans under it.
    let spans = &log.spans()[first_span..];
    let cover = child_cover_ns(log.spans());
    let mut roots_us = Vec::with_capacity(SUMMONS);
    let mut least = 1.0f64;
    for root in spans.iter().filter(|s| s.name == ROOT) {
        let share = cover[root.id as usize] as f64 / root.duration_ns() as f64;
        least = least.min(share);
        roots_us.push(root.duration_ns() as f64 / 1e3);
    }
    if least < MIN_COVERAGE {
        return Err(format!(
            "layer spans cover only {:.2}% of a scripted_summon root, under {:.0}%",
            least * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let fresh = mean(&roots_us[..WINDOW]) / slowdowns[0];
    let aged = mean(&roots_us[SUMMONS - WINDOW..]) / slowdowns[1];
    Ok(Scripted {
        summary: format!(
            "scripted_summon: {SUMMONS} summons on one world, every response byte-exact; \
             {fresh:.1} us per summon over the first {WINDOW}, {aged:.1} us over the last {WINDOW} \
             (x{:.2})\nlayer spans cover at least {:.3}% of every scripted_summon root",
            aged / fresh,
            least * 100.0
        ),
        fresh_us_per_summon: fresh,
    })
}
