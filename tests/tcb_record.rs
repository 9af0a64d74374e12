//! The TCB handoff record, pinned while its codec changes underneath.
//!
//! `golden/tcb_records.txt` holds `Tcb::to_sexp` of nine control blocks —
//! one per state token, buffers of 0, 1, 65 and 4,096 bytes, addresses, ports
//! and sequence numbers at zero and at their maxima — recorded while the
//! record was still assembled by `format!`, one `String` per buffered byte.
//! Synjitsu and the unikernel exchange these records through XenStore, so
//! the writer that fills one buffer must produce the same bytes.
//!
//! The seeded properties cover what nine records cannot: any control block
//! survives the round trip, and any byte string survives the hex codec. The
//! last test is the decoder's contract on hostile input: a record is read
//! back out of a store any domain with write access may have scribbled in
//! (`read_string` turns a stray non-UTF-8 byte into U+FFFD), so whatever is
//! not pairs of hex digits is refused, never a panic.

use jitsu_repro::netstack::tcp::tcb::{hex_decode, hex_encode};
use jitsu_repro::netstack::tcp::{Tcb, TcpState};
use jitsu_repro::prelude::*;

const GOLDEN: &str = include_str!("golden/tcb_records.txt");

/// Records up to this long are held in full; longer ones by length and
/// FNV-1a hash.
const FULL_TEXT_LIMIT: usize = 400;

const STATES: [TcpState; 9] = [
    TcpState::Listen,
    TcpState::SynReceived,
    TcpState::SynSent,
    TcpState::Established,
    TcpState::FinWait1,
    TcpState::FinWait2,
    TcpState::CloseWait,
    TcpState::LastAck,
    TcpState::Closed,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `len` bytes that visit every byte value.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 3) as u8).collect()
}

fn golden_tcbs() -> Vec<Tcb> {
    let zero = Ipv4Addr::new(0, 0, 0, 0);
    let ones = Ipv4Addr::new(255, 255, 255, 255);
    let server = Ipv4Addr::new(192, 168, 1, 20);
    let client = Ipv4Addr::new(192, 168, 1, 100);
    let request = b"GET /index.html HTTP/1.1\r\nHost: svc003.storm.example\r\n\r\n012345678";
    assert_eq!(request.len(), 65);
    let tcb =
        |state, local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), seq: [u32; 4], buffered| Tcb {
            state,
            local_ip: local.0,
            local_port: local.1,
            remote_ip: remote.0,
            remote_port: remote.1,
            isn: seq[0],
            snd_nxt: seq[1],
            snd_una: seq[2],
            rcv_nxt: seq[3],
            buffered,
        };
    vec![
        tcb(STATES[0], (zero, 0), (zero, 0), [0; 4], Vec::new()),
        tcb(
            STATES[1],
            (ones, u16::MAX),
            (ones, u16::MAX),
            [u32::MAX; 4],
            vec![0xff],
        ),
        tcb(
            STATES[2],
            (client, 51_324),
            (server, 80),
            [7, 8, 7, 0],
            Vec::new(),
        ),
        tcb(
            STATES[3],
            (server, 80),
            (client, 51_324),
            [1_000_000, 1_000_001, 1_000_001, 42_424_243],
            request.to_vec(),
        ),
        tcb(
            STATES[4],
            (server, 443),
            (client, 1),
            [u32::MAX, 0, u32::MAX, 1],
            pattern(4_096),
        ),
        tcb(
            STATES[5],
            (server, 80),
            (client, 2),
            [1, 2, 3, 4],
            vec![0x00],
        ),
        tcb(
            STATES[6],
            (server, 80),
            (client, 3),
            [10, 20, 30, 40],
            pattern(256),
        ),
        tcb(
            STATES[7],
            (server, 8_080),
            (client, 65_534),
            [0, u32::MAX, 0, u32::MAX],
            b"-".to_vec(),
        ),
        tcb(
            STATES[8],
            (zero, 1),
            (ones, 0),
            [4_294_967_294, 1, 2, 3],
            Vec::new(),
        ),
    ]
}

#[test]
fn records_are_byte_identical_to_the_golden() {
    let mut log = String::new();
    for tcb in golden_tcbs() {
        let record = tcb.to_sexp();
        assert_eq!(Tcb::from_sexp(&record), Some(tcb), "{record}");
        let body = if record.len() <= FULL_TEXT_LIMIT {
            &record
        } else {
            "-"
        };
        log.push_str(&format!(
            "len={} fnv={:016x} {body}\n",
            record.len(),
            fnv1a(record.as_bytes())
        ));
    }
    assert!(
        log == GOLDEN,
        "records differ from tests/golden/tcb_records.txt; emitted:\n{log}"
    );
}

#[test]
fn any_tcb_and_any_bytes_survive_the_round_trip() {
    let mut rng = SimRng::seed_from_u64(0x7CB0_5E99);
    let word = |rng: &mut SimRng| match rng.index(4) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.uniform_u64(0, u64::from(u32::MAX)) as u32,
    };
    for case in 0..400 {
        let len = [0, 1, 2, 65, 300, 4_096][rng.index(6)] * usize::from(rng.chance(0.8));
        let bytes: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex.len(), if len == 0 { 1 } else { 2 * len });
        assert_eq!(hex_decode(&hex), Some(bytes.clone()), "case {case}");
        assert_eq!(hex_decode(&hex.to_uppercase()), Some(bytes.clone()));

        let tcb = Tcb {
            state: STATES[rng.index(STATES.len())],
            local_ip: Ipv4Addr(word(&mut rng).to_be_bytes()),
            local_port: word(&mut rng) as u16,
            remote_ip: Ipv4Addr(word(&mut rng).to_be_bytes()),
            remote_port: word(&mut rng) as u16,
            isn: word(&mut rng),
            snd_nxt: word(&mut rng),
            snd_una: word(&mut rng),
            rcv_nxt: word(&mut rng),
            buffered: bytes,
        };
        assert_eq!(Tcb::from_sexp(&tcb.to_sexp()), Some(tcb), "case {case}");
    }
}

#[test]
fn hostile_hex_is_refused_not_a_panic() {
    // A sign (`from_str_radix` took one), a replacement character where a
    // byte offset is no char boundary, a two-byte letter, an odd length,
    // a stray separator.
    let hostile = [
        "+f",
        "a\u{fffd}",
        "é1",
        "\u{fffd}",
        "abc",
        "0g",
        "0x",
        "1-",
        "--",
        " 0",
    ];
    for text in hostile {
        assert_eq!(hex_decode(text), None, "{text:?}");
    }
    assert_eq!(hex_decode("-"), Some(Vec::new()));
    assert_eq!(hex_decode("00Ff1A"), Some(vec![0x00, 0xff, 0x1a]));

    let valid = golden_tcbs().swap_remove(3).to_sexp();
    assert!(Tcb::from_sexp(&valid).is_some());
    let (head, _) = valid.split_once("(packets ").expect("the last field");
    for text in hostile {
        let record = format!("{head}(packets {text}))");
        assert_eq!(Tcb::from_sexp(&record), None, "{text:?}");
    }
    let upper = format!("{head}(packets 4A4b))");
    assert_eq!(
        Tcb::from_sexp(&upper).map(|tcb| tcb.buffered),
        Some(b"JK".to_vec())
    );
}
