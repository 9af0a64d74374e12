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
use std::fmt;
use xenstore::{DomId, Path, Result as XsResult, XenStore};

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

/// A service's name as a store path component: its dots become
/// underscores, a store path component being no place for a DNS name.
struct Underscored<'a>(&'a str);

impl fmt::Display for Underscored<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, piece) in self.0.split('.').enumerate() {
            if i > 0 {
                f.write_str("_")?;
            }
            f.write_str(piece)?;
        }
        Ok(())
    }
}

/// The store keys of one service's handoff area under
/// `/conduit/<service>`, built once and kept by whoever drives the handoff:
/// every frame reads the phase, so no frame formats or parses a path.
#[derive(Debug, Clone)]
pub struct HandoffKeys {
    /// `synjitsu-phase`: who answers the service's traffic.
    phase: Path,
    /// `tcpv4`: one numbered record per proxied connection.
    records: Path,
    /// `pending`: frames parked during [`HandoffPhase::Prepare`].
    pending: Path,
}

/// `/conduit/<service>/<tail>`.
fn conduit_key(name: &str, tail: &str) -> XsResult<Path> {
    Path::root().join(format_args!("conduit/{}/{tail}", Underscored(name)))
}

/// The key of `name`'s handoff phase, which says who answers its traffic.
pub fn phase_key(name: &str) -> XsResult<Path> {
    conduit_key(name, "synjitsu-phase")
}

impl HandoffKeys {
    /// The keys of `name`'s handoff area.
    pub fn new(name: &str) -> XsResult<HandoffKeys> {
        Ok(HandoffKeys {
            records: conduit_key(name, "tcpv4")?,
            phase: phase_key(name)?,
            pending: conduit_key(name, "pending")?,
        })
    }

    /// The phase key.
    pub fn phase(&self) -> &Path {
        &self.phase
    }

    /// The keys of connection record `index`.
    pub fn record(&self, index: u32) -> XsResult<RecordKeys> {
        let entry = self.records.child(index)?;
        Ok(RecordKeys {
            state: entry.child("state")?,
            tcb: entry.child("tcb")?,
            packets: entry.child("packets")?,
        })
    }
}

/// The keys of one connection record, Figure 7's `state`, `tcb` and
/// `packets`: built when the connection is first recorded and kept while
/// it is proxied, since every frame on it rewrites them.
#[derive(Debug, Clone)]
pub struct RecordKeys {
    state: Path,
    tcb: Path,
    packets: Path,
}

/// Initialise the handoff area for a service that is being summoned.
pub fn begin_proxying(xs: &mut XenStore, keys: &HandoffKeys) -> XsResult<()> {
    xs.mkdir(DomId::DOM0, None, &keys.records)?;
    xs.write(
        DomId::DOM0,
        None,
        &keys.phase,
        HandoffPhase::Proxying.token().as_bytes(),
    )
}

/// The current phase, read at the [`phase_key`] `key` (defaults to
/// `Committed` when no handoff area exists — i.e. the unikernel is simply
/// running normally).
pub fn phase(xs: &mut XenStore, key: &Path) -> HandoffPhase {
    xs.read_with(DomId::DOM0, None, key, |value| {
        HandoffPhase::from_token(String::from_utf8_lossy(value).trim())
    })
    .ok()
    .flatten()
    .unwrap_or(HandoffPhase::Committed)
}

/// Record (or update) one embryonic connection, Figure 7 style: a
/// numbered entry with `state`, `tcb` and `packets` keys.
pub fn record_connection(xs: &mut XenStore, keys: &RecordKeys, tcb: &Tcb) -> XsResult<()> {
    let mut publish = |key: &Path, value: &[u8]| xs.write(DomId::DOM0, None, key, value);
    publish(&keys.state, tcb.state.as_token().as_bytes())?;
    publish(&keys.tcb, tcb.to_sexp().as_bytes())?;
    if tcb.buffered.is_empty() {
        publish(&keys.packets, b"()")
    } else {
        let packets = format!("((data {} bytes))", tcb.buffered.len());
        publish(&keys.packets, packets.as_bytes())
    }
}

/// Queue a raw Ethernet frame that arrived while the phase is
/// [`HandoffPhase::Prepare`]. Neither side may answer it — Synjitsu has
/// stopped, the unikernel has not committed — so it is parked in the
/// handoff area and replayed by the unikernel after `Committed`. This is
/// what makes "only one of them ever handles any given packet" hold
/// *across* the phase flip, not just within each phase.
pub fn queue_pending_frame(xs: &mut XenStore, keys: &HandoffKeys, frame: &[u8]) -> XsResult<u32> {
    let index = xs
        .directory(DomId::DOM0, None, &keys.pending)
        .map(|entries| entries.len() as u32)
        .unwrap_or(0);
    // Zero-padded so the directory's lexical order is arrival order.
    xs.write(
        DomId::DOM0,
        None,
        keys.pending.child(format_args!("{index:06}"))?,
        hex_encode(frame).as_bytes(),
    )?;
    Ok(index)
}

/// Remove and return every parked frame, in arrival order. Called by the
/// unikernel right after it commits the takeover. Each frame is decoded
/// into a fresh shared buffer, replayed downstream without further
/// copies.
pub fn drain_pending_frames(xs: &mut XenStore, keys: &HandoffKeys) -> XsResult<Vec<FrameBuf>> {
    let mut entries = xs
        .directory(DomId::DOM0, None, &keys.pending)
        .unwrap_or_default();
    entries.sort();
    let mut frames = Vec::new();
    for entry in entries {
        let frame = xs.read_with(DomId::DOM0, None, keys.pending.child(&entry)?, |hex| {
            hex_decode(String::from_utf8_lossy(hex).trim())
        });
        if let Ok(Some(frame)) = frame {
            frames.push(FrameBuf::from_vec(frame));
        }
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the pending directory may be absent when no frames were parked; rm is best-effort"
    )]
    let _ = xs.rm(DomId::DOM0, None, &keys.pending);
    Ok(frames)
}

/// Step 1 of the takeover, performed by the unikernel once its network
/// stack is attached.
pub fn request_takeover(xs: &mut XenStore, keys: &HandoffKeys) -> XsResult<()> {
    xs.write(
        DomId::DOM0,
        None,
        &keys.phase,
        HandoffPhase::Prepare.token().as_bytes(),
    )
}

/// Step 2, performed by the unikernel once it has drained every record
/// over the conduit vchan: flip the phase to `Committed` and clear the
/// record directory in one XenStore transaction, so no observer (and no
/// racing packet) can ever see the phase flipped while records still
/// exist, or records gone while the phase still says `prepare`.
pub fn commit_phase_only(xs: &mut XenStore, keys: &HandoffKeys) -> XsResult<()> {
    xs.with_transaction(DomId::DOM0, 8, |xs, t| {
        xs.write(
            DomId::DOM0,
            Some(t),
            &keys.phase,
            HandoffPhase::Committed.token().as_bytes(),
        )?;
        if xs
            .exists(DomId::DOM0, Some(t), &keys.records)
            .unwrap_or(false)
        {
            xs.rm(DomId::DOM0, Some(t), &keys.records)?;
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
    fn stored_tcb(xs: &mut XenStore, keys: &HandoffKeys, index: u32) -> Option<Tcb> {
        let path = &keys.record(index).unwrap().tcb;
        Tcb::from_sexp(&xs.read_string(DomId::DOM0, None, path).ok()?)
    }

    fn keys(name: &str) -> HandoffKeys {
        HandoffKeys::new(name).unwrap()
    }

    /// The entries of a store directory, none if it is absent.
    fn entries(xs: &mut XenStore, dir: &Path) -> usize {
        xs.directory(DomId::DOM0, None, dir).map_or(0, |e| e.len())
    }

    /// Record `tcb` as connection `index`.
    fn record(xs: &mut XenStore, keys: &HandoffKeys, index: u32, tcb: &Tcb) -> XsResult<()> {
        record_connection(xs, &keys.record(index)?, tcb)
    }

    #[test]
    fn phase_progression_guarantees_single_handler() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let k = keys("alice.family.name");
        begin_proxying(&mut xs, &k).unwrap();
        assert_eq!(phase(&mut xs, k.phase()), HandoffPhase::Proxying);
        assert_ne!(phase(&mut xs, k.phase()), HandoffPhase::Committed);

        request_takeover(&mut xs, &k).unwrap();
        assert_eq!(phase(&mut xs, k.phase()), HandoffPhase::Prepare);
        // During prepare, *neither* side answers new packets.
        assert_ne!(phase(&mut xs, k.phase()), HandoffPhase::Proxying);
        assert_ne!(phase(&mut xs, k.phase()), HandoffPhase::Committed);

        commit_phase_only(&mut xs, &k).unwrap();
        assert_eq!(phase(&mut xs, k.phase()), HandoffPhase::Committed);
        assert_ne!(phase(&mut xs, k.phase()), HandoffPhase::Proxying);
    }

    #[test]
    fn records_round_trip_through_the_store() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let k = keys("alice.family.name");
        begin_proxying(&mut xs, &k).unwrap();
        let t1 = tcb(51000, b"GET / HTTP/1.1\r\n\r\n");
        let mut t2 = tcb(51001, b"");
        t2.state = TcpState::SynReceived;
        record(&mut xs, &k, 1, &t1).unwrap();
        record(&mut xs, &k, 2, &t2).unwrap();
        assert_eq!(entries(&mut xs, &k.records), 2);

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
        assert_eq!(stored_tcb(&mut xs, &k, 1), Some(t1));
        assert_eq!(stored_tcb(&mut xs, &k, 2), Some(t2));

        request_takeover(&mut xs, &k).unwrap();
        commit_phase_only(&mut xs, &k).unwrap();
        // Records are gone afterwards.
        assert_eq!(entries(&mut xs, &k.records), 0);
    }

    #[test]
    fn updating_a_record_overwrites_it() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let k = keys("q");
        begin_proxying(&mut xs, &k).unwrap();
        let mut t = tcb(51000, b"");
        t.state = TcpState::SynReceived;
        record(&mut xs, &k, 1, &t).unwrap();
        t.state = TcpState::Established;
        t.buffered = b"data".to_vec();
        record(&mut xs, &k, 1, &t).unwrap();
        assert_eq!(entries(&mut xs, &k.records), 1);
        assert_eq!(stored_tcb(&mut xs, &k, 1), Some(t));
    }

    #[test]
    fn frames_parked_during_prepare_replay_in_arrival_order() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let k = keys("alice.family.name");
        begin_proxying(&mut xs, &k).unwrap();
        request_takeover(&mut xs, &k).unwrap();
        // The race window: frames arrive while neither side may answer.
        for i in 0..12u8 {
            queue_pending_frame(&mut xs, &k, &[0xEE, i, i, i]).unwrap();
        }
        assert_eq!(entries(&mut xs, &k.pending), 12);
        commit_phase_only(&mut xs, &k).unwrap();
        let frames = drain_pending_frames(&mut xs, &k).unwrap();
        assert_eq!(frames.len(), 12);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame, &vec![0xEE, i as u8, i as u8, i as u8], "order kept");
        }
        // Drained means gone: a second drain yields nothing.
        assert_eq!(entries(&mut xs, &k.pending), 0);
        assert!(drain_pending_frames(&mut xs, &k).unwrap().is_empty());
    }

    #[test]
    fn commit_is_atomic_phase_flip_and_record_clear() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let k = keys("q");
        begin_proxying(&mut xs, &k).unwrap();
        record(&mut xs, &k, 1, &tcb(51000, b"GET /")).unwrap();
        request_takeover(&mut xs, &k).unwrap();
        assert_eq!(entries(&mut xs, &k.records), 1);
        commit_phase_only(&mut xs, &k).unwrap();
        // Post-commit the store can never show the intermediate state:
        // phase committed *and* records cleared, together.
        assert_eq!(phase(&mut xs, k.phase()), HandoffPhase::Committed);
        assert_eq!(entries(&mut xs, &k.records), 0);
    }

    #[test]
    fn services_without_handoff_area_default_to_unikernel_handling() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let k = keys("never.summoned");
        assert_eq!(phase(&mut xs, k.phase()), HandoffPhase::Committed);
        assert_eq!(phase(&mut xs, k.phase()), HandoffPhase::Committed);
        assert_eq!(entries(&mut xs, &k.records), 0);
        // Committing with no records is a no-op, not an error.
        commit_phase_only(&mut xs, &k).unwrap();
        assert_eq!(entries(&mut xs, &k.records), 0);
    }
}
