//! The Synjitsu → unikernel connection handoff over XenStore.
//!
//! Figure 7 shows the proxy registering embryonic TCP connections under the
//! booting unikernel's conduit subtree (`state`, `tcb`, `packets`), and
//! §3.3.1 describes the final step: "When the unikernel finishes booting and
//! has an active network interface, it signals to synjitsu that it is ready
//! for traffic via a two-phase commit in XenStore, ensuring only one of them
//! ever handles any given packet."
//!
//! The functions below implement that protocol, one XenStore step each:
//!
//! 1. while the phase is [`HandoffPhase::Proxying`], only Synjitsu answers
//!    packets and it keeps the per-connection records up to date;
//! 2. the booted unikernel writes [`HandoffPhase::Prepare`] — Synjitsu stops
//!    answering, flushes its final state and acknowledges;
//! 3. the unikernel drains the records over the conduit vchan,
//!    reconstructs the connections and writes [`HandoffPhase::Committed`]
//!    — from then on only the unikernel answers, and the records are
//!    removed.

use netstack::tcp::tcb::{hex_decode, hex_encode};
use netstack::tcp::Tcb;
use netstack::FrameBuf;
use xen_sim::devices::KeyDir;
use xenstore::{DomId, Result as XsResult, XenStore};

/// The phase of the handoff for one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffPhase {
    /// Synjitsu owns the traffic (unikernel still booting).
    Proxying,
    /// The unikernel has asked to take over; Synjitsu is flushing state.
    Prepare,
    /// The unikernel owns the traffic.
    Committed,
}

impl HandoffPhase {
    fn token(self) -> &'static str {
        match self {
            HandoffPhase::Proxying => "proxying",
            HandoffPhase::Prepare => "prepare",
            HandoffPhase::Committed => "committed",
        }
    }

    fn from_token(s: &str) -> Option<HandoffPhase> {
        Some(match s {
            "proxying" => HandoffPhase::Proxying,
            "prepare" => HandoffPhase::Prepare,
            "committed" => HandoffPhase::Committed,
            _ => return None,
        })
    }
}

/// `/conduit/<service>/<tail>` — the service's dots become underscores,
/// a store path component being no place for a DNS name.
fn conduit_path(name: &str, tail: &str) -> String {
    const TOP: &str = "/conduit/";
    let mut path = String::with_capacity(TOP.len() + name.len() + 1 + tail.len());
    path.push_str(TOP);
    path.extend(name.chars().map(|c| if c == '.' { '_' } else { c }));
    path.push('/');
    path.push_str(tail);
    path
}

fn base(name: &str) -> String {
    conduit_path(name, "tcpv4")
}

fn phase_path(name: &str) -> String {
    conduit_path(name, "synjitsu-phase")
}

fn pending_path(name: &str) -> String {
    conduit_path(name, "pending")
}

/// Initialise the handoff area for a service that is being summoned.
pub fn begin_proxying(xs: &mut XenStore, name: &str) -> XsResult<()> {
    xs.mkdir(DomId::DOM0, None, &base(name))?;
    xs.write(
        DomId::DOM0,
        None,
        &phase_path(name),
        HandoffPhase::Proxying.token().as_bytes(),
    )
}

/// The current phase (defaults to `Committed` when no handoff area
/// exists — i.e. the unikernel is simply running normally).
pub fn phase(xs: &mut XenStore, name: &str) -> HandoffPhase {
    match xs.read_string(DomId::DOM0, None, &phase_path(name)) {
        Ok(s) => HandoffPhase::from_token(s.trim()).unwrap_or(HandoffPhase::Committed),
        Err(_) => HandoffPhase::Committed,
    }
}

/// True if the unikernel should answer packets for this service.
pub fn unikernel_should_handle(xs: &mut XenStore, name: &str) -> bool {
    phase(xs, name) == HandoffPhase::Committed
}

/// Record (or update) one embryonic connection, Figure 7 style: a
/// numbered entry with `state`, `tcb` and `packets` keys.
pub fn record_connection(xs: &mut XenStore, name: &str, index: u32, tcb: &Tcb) -> XsResult<()> {
    let mut entry = KeyDir::under(format!("{}/{index}", base(name)));
    entry.publish(xs, "state", tcb.state.as_token().as_bytes())?;
    entry.publish(xs, "tcb", tcb.to_sexp().as_bytes())?;
    if tcb.buffered.is_empty() {
        entry.publish(xs, "packets", b"()")
    } else {
        let packets = format!("((data {} bytes))", tcb.buffered.len());
        entry.publish(xs, "packets", packets.as_bytes())
    }
}

/// Number of connections currently recorded for a service.
pub fn recorded_connections(xs: &mut XenStore, name: &str) -> usize {
    xs.directory(DomId::DOM0, None, &base(name))
        .map(|entries| entries.len())
        .unwrap_or(0)
}

/// Queue a raw Ethernet frame that arrived while the phase is
/// [`HandoffPhase::Prepare`]. Neither side may answer it — Synjitsu has
/// stopped, the unikernel has not committed — so it is parked in the
/// handoff area and replayed by the unikernel after `Committed`. This is
/// what makes "only one of them ever handles any given packet" hold
/// *across* the phase flip, not just within each phase.
pub fn queue_pending_frame(xs: &mut XenStore, name: &str, frame: &[u8]) -> XsResult<u32> {
    let base = pending_path(name);
    let index = xs
        .directory(DomId::DOM0, None, &base)
        .map(|entries| entries.len() as u32)
        .unwrap_or(0);
    // Zero-padded so the directory's lexical order is arrival order.
    xs.write(
        DomId::DOM0,
        None,
        &format!("{base}/{index:06}"),
        hex_encode(frame).as_bytes(),
    )?;
    Ok(index)
}

/// Number of frames currently parked for replay.
pub fn pending_frames(xs: &mut XenStore, name: &str) -> usize {
    xs.directory(DomId::DOM0, None, &pending_path(name))
        .map(|entries| entries.len())
        .unwrap_or(0)
}

/// Remove and return every parked frame, in arrival order. Called by the
/// unikernel right after it commits the takeover. Each frame is decoded
/// into a fresh shared buffer, replayed downstream without further
/// copies.
pub fn drain_pending_frames(xs: &mut XenStore, name: &str) -> XsResult<Vec<FrameBuf>> {
    let base = pending_path(name);
    let mut entries = xs.directory(DomId::DOM0, None, &base).unwrap_or_default();
    entries.sort();
    let mut frames = Vec::new();
    for entry in entries {
        if let Ok(hex) = xs.read_string(DomId::DOM0, None, &format!("{base}/{entry}")) {
            if let Some(frame) = hex_decode(hex.trim()) {
                frames.push(FrameBuf::from_vec(frame));
            }
        }
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the pending directory may be absent when no frames were parked; rm is best-effort"
    )]
    let _ = xs.rm(DomId::DOM0, None, &base);
    Ok(frames)
}

/// Step 1 of the takeover, performed by the unikernel once its network
/// stack is attached.
pub fn request_takeover(xs: &mut XenStore, name: &str) -> XsResult<()> {
    xs.write(
        DomId::DOM0,
        None,
        &phase_path(name),
        HandoffPhase::Prepare.token().as_bytes(),
    )
}

/// Step 2, performed by the unikernel once it has drained every record
/// over the conduit vchan: flip the phase to `Committed` and clear the
/// record directory in one XenStore transaction, so no observer (and no
/// racing packet) can ever see the phase flipped while records still
/// exist, or records gone while the phase still says `prepare`.
pub fn commit_phase_only(xs: &mut XenStore, name: &str) -> XsResult<()> {
    let base = base(name);
    let phase_path = phase_path(name);
    xs.with_transaction(DomId::DOM0, 8, |xs, t| {
        xs.write(
            DomId::DOM0,
            Some(t),
            &phase_path,
            HandoffPhase::Committed.token().as_bytes(),
        )?;
        if xs.exists(DomId::DOM0, Some(t), &base).unwrap_or(false) {
            xs.rm(DomId::DOM0, Some(t), &base)?;
        }
        Ok(())
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::ipv4::Ipv4Addr;
    use netstack::tcp::TcpState;
    use xenstore::EngineKind;

    fn tcb(port: u16, buffered: &[u8]) -> Tcb {
        Tcb {
            state: TcpState::Established,
            local_ip: Ipv4Addr::new(192, 168, 1, 20),
            local_port: 80,
            remote_ip: Ipv4Addr::new(192, 168, 1, 100),
            remote_port: port,
            isn: 1000,
            snd_nxt: 1001,
            snd_una: 1001,
            rcv_nxt: 5000,
            buffered: buffered.to_vec(),
        }
    }

    /// The TCB a record holds in the store, as Figure 7 lays it out.
    fn stored_tcb(xs: &mut XenStore, name: &str, index: u32) -> Option<Tcb> {
        let path = format!("{}/{index}/tcb", base(name));
        Tcb::from_sexp(&xs.read_string(DomId::DOM0, None, &path).ok()?)
    }

    #[test]
    fn phase_progression_guarantees_single_handler() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        begin_proxying(&mut xs, "alice.family.name").unwrap();
        assert_eq!(phase(&mut xs, "alice.family.name"), HandoffPhase::Proxying);
        assert!(!unikernel_should_handle(&mut xs, "alice.family.name"));

        request_takeover(&mut xs, "alice.family.name").unwrap();
        assert_eq!(phase(&mut xs, "alice.family.name"), HandoffPhase::Prepare);
        // During prepare, *neither* side answers new packets.
        assert_ne!(phase(&mut xs, "alice.family.name"), HandoffPhase::Proxying);
        assert!(!unikernel_should_handle(&mut xs, "alice.family.name"));

        commit_phase_only(&mut xs, "alice.family.name").unwrap();
        assert!(unikernel_should_handle(&mut xs, "alice.family.name"));
        assert_ne!(phase(&mut xs, "alice.family.name"), HandoffPhase::Proxying);
    }

    #[test]
    fn records_round_trip_through_the_store() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        begin_proxying(&mut xs, "alice.family.name").unwrap();
        let t1 = tcb(51000, b"GET / HTTP/1.1\r\n\r\n");
        let mut t2 = tcb(51001, b"");
        t2.state = TcpState::SynReceived;
        record_connection(&mut xs, "alice.family.name", 1, &t1).unwrap();
        record_connection(&mut xs, "alice.family.name", 2, &t2).unwrap();
        assert_eq!(recorded_connections(&mut xs, "alice.family.name"), 2);

        // The store holds Figure 7's structure.
        let state = xs
            .read_string(
                DomId::DOM0,
                None,
                "/conduit/alice_family_name/tcpv4/1/state",
            )
            .unwrap();
        assert_eq!(state, "ESTABLISHED");
        let packets = xs
            .read_string(
                DomId::DOM0,
                None,
                "/conduit/alice_family_name/tcpv4/1/packets",
            )
            .unwrap();
        assert!(packets.contains("18 bytes"));
        assert_eq!(stored_tcb(&mut xs, "alice.family.name", 1), Some(t1));
        assert_eq!(stored_tcb(&mut xs, "alice.family.name", 2), Some(t2));

        request_takeover(&mut xs, "alice.family.name").unwrap();
        commit_phase_only(&mut xs, "alice.family.name").unwrap();
        // Records are gone afterwards.
        assert_eq!(recorded_connections(&mut xs, "alice.family.name"), 0);
    }

    #[test]
    fn updating_a_record_overwrites_it() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        begin_proxying(&mut xs, "q").unwrap();
        let mut t = tcb(51000, b"");
        t.state = TcpState::SynReceived;
        record_connection(&mut xs, "q", 1, &t).unwrap();
        t.state = TcpState::Established;
        t.buffered = b"data".to_vec();
        record_connection(&mut xs, "q", 1, &t).unwrap();
        assert_eq!(recorded_connections(&mut xs, "q"), 1);
        assert_eq!(stored_tcb(&mut xs, "q", 1), Some(t));
    }

    #[test]
    fn frames_parked_during_prepare_replay_in_arrival_order() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        begin_proxying(&mut xs, "alice.family.name").unwrap();
        request_takeover(&mut xs, "alice.family.name").unwrap();
        // The race window: frames arrive while neither side may answer.
        for i in 0..12u8 {
            queue_pending_frame(&mut xs, "alice.family.name", &[0xEE, i, i, i]).unwrap();
        }
        assert_eq!(pending_frames(&mut xs, "alice.family.name"), 12);
        commit_phase_only(&mut xs, "alice.family.name").unwrap();
        let frames = drain_pending_frames(&mut xs, "alice.family.name").unwrap();
        assert_eq!(frames.len(), 12);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame, &vec![0xEE, i as u8, i as u8, i as u8], "order kept");
        }
        // Drained means gone: a second drain yields nothing.
        assert_eq!(pending_frames(&mut xs, "alice.family.name"), 0);
        assert!(drain_pending_frames(&mut xs, "alice.family.name")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn commit_is_atomic_phase_flip_and_record_clear() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        begin_proxying(&mut xs, "q").unwrap();
        record_connection(&mut xs, "q", 1, &tcb(51000, b"GET /")).unwrap();
        request_takeover(&mut xs, "q").unwrap();
        assert_eq!(recorded_connections(&mut xs, "q"), 1);
        commit_phase_only(&mut xs, "q").unwrap();
        // Post-commit the store can never show the intermediate state:
        // phase committed *and* records cleared, together.
        assert_eq!(phase(&mut xs, "q"), HandoffPhase::Committed);
        assert_eq!(recorded_connections(&mut xs, "q"), 0);
    }

    #[test]
    fn services_without_handoff_area_default_to_unikernel_handling() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        assert_eq!(phase(&mut xs, "never.summoned"), HandoffPhase::Committed);
        assert!(unikernel_should_handle(&mut xs, "never.summoned"));
        assert_eq!(recorded_connections(&mut xs, "never.summoned"), 0);
        // Committing with no records is a no-op, not an error.
        commit_phase_only(&mut xs, "never.summoned").unwrap();
        assert_eq!(recorded_connections(&mut xs, "never.summoned"), 0);
    }
}
