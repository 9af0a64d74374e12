//! The PV console device.
//!
//! Every guest gets a console ring drained by the `xenconsoled` daemon in
//! dom0. Attaching it is cheap but *synchronous* in the stock toolstack: the
//! builder blocks while `xenconsoled` picks up the new ring and registers the
//! log file. Jitsu's final optimisation in Figure 4 ("Remove primary
//! console") makes this attachment asynchronous so it no longer sits on the
//! critical path of domain creation.

use super::{frontend_path, write_state, DeviceKind, KeyDir, XenbusState};
use crate::event_channel::{EventChannelTable, Port};
use crate::grant_table::{GrantRef, GrantTable};
use jitsu_sim::SimDuration;
use platform::Board;
use xenstore::{DomId, Result as XsResult, XenStore};

/// A guest console: one shared ring page plus an event channel, drained by
/// dom0's `xenconsoled`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsoleDevice {
    /// The guest the console belongs to.
    pub dom: DomId,
    /// Grant reference of the console ring page.
    pub ring_ref: GrantRef,
    /// The guest-side event channel port.
    pub port: Port,
    /// Buffered output not yet drained by `xenconsoled`.
    buffer: Vec<u8>,
}

impl ConsoleDevice {
    /// Allocate the console resources for a guest and publish them in
    /// XenStore (the `console/` keys the real toolstack writes).
    pub fn setup(
        xs: &mut XenStore,
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        dom: DomId,
    ) -> XsResult<ConsoleDevice> {
        let ring_ref = grants
            .grant(dom, DomId::DOM0)
            // jitsu-lint: allow(P001, "a freshly built domain starts under its grant quota")
            .expect("fresh domain has grant capacity");
        let port = evtchn.alloc_unbound(dom, DomId::DOM0);
        let mut dir = Self::keys(dom);
        dir.publish(xs, "ring-ref", ring_ref.0.to_string().as_bytes())?;
        dir.publish(xs, "port", port.0.to_string().as_bytes())?;
        dir.publish(xs, "type", b"xenconsoled")?;
        write_state(xs, DomId::DOM0, &mut dir, XenbusState::Initialised)?;
        Ok(ConsoleDevice {
            dom,
            ring_ref,
            port,
            buffer: Vec::new(),
        })
    }

    /// The keys of the console's one directory, the frontend's.
    fn keys(dom: DomId) -> KeyDir {
        KeyDir::under(frontend_path(dom, DeviceKind::Console, 0))
    }

    /// The time `xenconsoled` takes to notice and attach the new console on
    /// a given board. This is the cost the "Remove primary console"
    /// optimisation takes off the critical path.
    pub fn attach_time(board: &Board) -> SimDuration {
        // ≈8.3 ms on the x86 server → ≈50 ms on the Cubieboard2.
        board.scale_cpu(SimDuration::from_micros(8_300))
    }

    /// Mark the console connected (what `xenconsoled` does once attached).
    pub fn mark_connected(&self, xs: &mut XenStore) -> XsResult<()> {
        write_state(
            xs,
            DomId::DOM0,
            &mut Self::keys(self.dom),
            XenbusState::Connected,
        )
    }

    /// Guest writes bytes to its console.
    pub fn guest_write(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// `xenconsoled` drains buffered output for logging.
    pub fn drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buffer)
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::read_state;
    use platform::BoardKind;
    use xenstore::EngineKind;

    fn setup_env() -> (XenStore, GrantTable, EventChannelTable) {
        (
            XenStore::new(EngineKind::JitsuMerge),
            GrantTable::new(),
            EventChannelTable::new(),
        )
    }

    #[test]
    fn setup_publishes_keys() {
        let (mut xs, mut gt, mut ec) = setup_env();
        let console = ConsoleDevice::setup(&mut xs, &mut gt, &mut ec, DomId(5)).unwrap();
        let dir = frontend_path(DomId(5), DeviceKind::Console, 0);
        assert_eq!(
            xs.read_string(DomId::DOM0, None, &format!("{dir}/ring-ref"))
                .unwrap(),
            console.ring_ref.0.to_string()
        );
        assert_eq!(
            xs.read_string(DomId::DOM0, None, &format!("{dir}/port"))
                .unwrap(),
            console.port.0.to_string()
        );
        let mut end = KeyDir::under(dir);
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut end),
            XenbusState::Initialised
        );
        console.mark_connected(&mut xs).unwrap();
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut end),
            XenbusState::Connected
        );
    }

    #[test]
    fn attach_time_scales_with_board() {
        let arm = ConsoleDevice::attach_time(&BoardKind::Cubieboard2.board());
        let x86 = ConsoleDevice::attach_time(&BoardKind::X86Server.board());
        assert!((45..60).contains(&arm.as_millis()), "arm={arm}");
        assert!(x86 < arm / 5);
    }

    #[test]
    fn guest_output_buffers_until_drained() {
        let (mut xs, mut gt, mut ec) = setup_env();
        let mut console = ConsoleDevice::setup(&mut xs, &mut gt, &mut ec, DomId(5)).unwrap();
        console.guest_write(b"MirageOS booting...\n");
        console.guest_write(b"TCP/IP ready\n");
        assert_eq!(
            console.buffered(),
            "MirageOS booting...\nTCP/IP ready\n".len()
        );
        let out = console.drain();
        assert!(out.starts_with(b"MirageOS"));
        assert_eq!(console.buffered(), 0);
        assert!(console.drain().is_empty());
    }
}
