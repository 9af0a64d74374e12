//! IoT front-end: why moving protocol parsing into memory-safe unikernels
//! matters (§5 "Use cases" and Table 2).
//!
//! Run with `cargo run --example iot_firewall`. The example plays both
//! roles: it prints the CVE analysis behind Table 2 (which classes of bug a
//! Jitsu deployment removes), then demonstrates the narrow attack surface in
//! practice by throwing malformed protocol traffic at the memory-safe stack
//! and showing it is rejected by parsers rather than reaching application
//! logic.

use jitsu_repro::netstack::dns::DnsMessage;
use jitsu_repro::netstack::http::HttpRequest;
use jitsu_repro::netstack::ipv4::Ipv4Packet;
use jitsu_repro::netstack::tcp::TcpSegment;
use jitsu_repro::prelude::*;
use jitsu_repro::security::{classify, summary, JitsuImpact, CVE_DATASET};

fn main() {
    println!("== Table 2: what a Jitsu front-end eliminates ==\n");
    println!(
        "{:<18} {:>6} {:>11} {:>10}",
        "layer", "CVEs", "eliminated", "remaining"
    );
    for s in summary() {
        println!(
            "{:<18} {:>6} {:>11} {:>10}",
            s.component.label(),
            s.total,
            s.eliminated,
            s.remaining
        );
    }
    let remaining: Vec<&str> = CVE_DATASET
        .iter()
        .filter(|c| classify(c) == JitsuImpact::StillApplicable)
        .map(|c| c.id)
        .collect();
    println!(
        "\nStill in the trusted computing base: {}",
        remaining.join(", ")
    );

    println!("\n== Malformed traffic against the memory-safe stack ==\n");
    let src = Ipv4Addr::new(10, 0, 0, 66);
    let dst = Ipv4Addr::new(192, 168, 1, 20);

    // A truncated IPv4 header, an overflow-length TCP segment and a
    // garbage DNS/HTTP payload: each is rejected as data, not executed.
    let cases: Vec<(&str, bool)> = vec![
        (
            "truncated IPv4 header",
            Ipv4Packet::parse(&(&[0x45u8, 0, 0]).into()).is_err(),
        ),
        ("TCP segment with corrupt checksum", {
            let mut seg = TcpSegment::control(1, 80, 1, 0, jitsu_repro::netstack::TcpFlags::SYN)
                .emit(src, dst)
                .to_vec();
            seg[16] ^= 0xff;
            TcpSegment::parse(&seg.into(), src, dst).is_err()
        }),
        ("DNS message with a compression bomb pointer", {
            let mut q = DnsMessage::query(1, "legit.family.name").emit();
            q[12] = 0xc0;
            DnsMessage::parse(&q).is_err()
        }),
        (
            "HTTP request line from a fuzzer",
            HttpRequest::parse(&b"\x00\x01\x02GET\x00/ HTTP/9.9\r\n\r\n".into()).is_err(),
        ),
    ];
    for (what, rejected) in &cases {
        println!(
            "  {:<44} {}",
            what,
            if *rejected {
                "rejected safely"
            } else {
                "ACCEPTED (!)"
            }
        );
    }
    assert!(cases.iter().all(|(_, rejected)| *rejected));

    println!("\n== The legacy device behind the firewall ==\n");
    // The legacy firmware is reachable only through the unikernel front-end,
    // which forwards only well-formed requests for the one allowed path.
    let allowed = HttpRequest::get("/status", "camera.family.name");
    let blocked = HttpRequest::get("/cgi-bin/../../etc/passwd", "camera.family.name");
    let forward = |req: &HttpRequest| req.path() == "/status" && req.method() == "GET";
    println!(
        "  GET /status                         -> forwarded: {}",
        forward(&allowed)
    );
    println!(
        "  GET /cgi-bin/../../etc/passwd       -> forwarded: {}",
        forward(&blocked)
    );
    assert!(forward(&allowed));
    assert!(!forward(&blocked));
}
