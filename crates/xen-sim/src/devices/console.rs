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
use xenstore::{DomId, Path, Result as XsResult, XenStore};

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
    /// The console's `state` key, built at setup for the writes after it.
    state: Path,
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
        #[expect(
            clippy::expect_used,
            reason = "a freshly built domain starts under its grant quota"
        )]
        let ring_ref = grants
            .grant(dom, DomId::DOM0)
            .expect("fresh domain has grant capacity");
        let port = evtchn.alloc_unbound(dom, DomId::DOM0);
        // The console's one directory is the frontend's.
        let dir = KeyDir::under(frontend_path(dom, DeviceKind::Console, 0)?);
        dir.publish(xs, "ring-ref", ring_ref.0.to_string().as_bytes())?;
        dir.publish(xs, "port", port.0.to_string().as_bytes())?;
        dir.publish(xs, "type", b"xenconsoled")?;
        let state = dir.key("state")?;
        write_state(xs, DomId::DOM0, &state, XenbusState::Initialised)?;
        Ok(ConsoleDevice {
            dom,
            ring_ref,
            port,
            state,
        })
    }

    /// Mark the console connected (what `xenconsoled` does once attached).
    pub fn mark_connected(&self, xs: &mut XenStore) -> XsResult<()> {
        write_state(xs, DomId::DOM0, &self.state, XenbusState::Connected)
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
        let dir = KeyDir::under(frontend_path(DomId(5), DeviceKind::Console, 0).unwrap());
        assert_eq!(
            xs.read_string(DomId::DOM0, None, dir.key("ring-ref").unwrap())
                .unwrap(),
            console.ring_ref.0.to_string()
        );
        assert_eq!(
            xs.read_string(DomId::DOM0, None, dir.key("port").unwrap())
                .unwrap(),
            console.port.0.to_string()
        );
        let state = dir.key("state").unwrap();
        assert_eq!(console.state, state);
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &state),
            XenbusState::Initialised
        );
        console.mark_connected(&mut xs).unwrap();
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &state),
            XenbusState::Connected
        );
    }

    #[test]
    fn attach_time_scales_with_board() {
        let arm = BoardKind::Cubieboard2.board().costs.console_attach;
        let x86 = BoardKind::X86Server.board().costs.console_attach;
        assert!((45..60).contains(&arm.as_millis()), "arm={arm}");
        assert!(x86 < arm / 5);
    }
}
