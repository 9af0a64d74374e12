//! Split (paravirtualised) devices.
//!
//! Xen/ARM has no emulated hardware at all: every virtual device uses the PV
//! split-driver model (§2.3). A *frontend* in the guest and a *backend* in
//! dom0 discover each other through XenStore, negotiate a shared ring (a
//! grant reference) and an event channel, and advance through the XenBus
//! state machine until both are `Connected`. This module implements the
//! state machine and the key layout; [`console`] and [`vif`] provide the two
//! devices every Jitsu unikernel attaches, and [`vbd`] a block device (no
//! appliance attaches one yet).

pub mod console;
pub mod vbd;
pub mod vif;

pub use console::ConsoleDevice;
pub use vbd::VbdDevice;
pub use vif::VifDevice;

use xenstore::{DomId, Result as XsResult, XenStore};

/// The kinds of split device the toolstack attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The PV console (`hvc0`), drained by `xenconsoled` in dom0.
    Console,
    /// A PV network interface (netfront/netback).
    Vif,
    /// A PV block device (blkfront/blkback).
    Vbd,
}

impl DeviceKind {
    /// The directory name used under `device/` and `backend/`.
    pub fn dir_name(self) -> &'static str {
        match self {
            DeviceKind::Console => "console",
            DeviceKind::Vif => "vif",
            DeviceKind::Vbd => "vbd",
        }
    }
}

/// XenBus connection states, as written to the `state` key of each end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum XenbusState {
    /// State unknown / key missing.
    Unknown = 0,
    /// The end is initialising.
    Initialising = 1,
    /// Backend waiting for frontend details.
    InitWait = 2,
    /// Frontend has published ring and event channel.
    Initialised = 3,
    /// Both ends connected; the device is live.
    Connected = 4,
    /// Shutting down.
    Closing = 5,
    /// Fully closed.
    Closed = 6,
}

impl XenbusState {
    /// Decode the numeric wire value.
    pub fn from_u8(v: u8) -> XenbusState {
        match v {
            1 => XenbusState::Initialising,
            2 => XenbusState::InitWait,
            3 => XenbusState::Initialised,
            4 => XenbusState::Connected,
            5 => XenbusState::Closing,
            6 => XenbusState::Closed,
            _ => XenbusState::Unknown,
        }
    }

    /// Encode for the `state` key.
    pub fn as_str(self) -> &'static str {
        match self {
            XenbusState::Unknown => "0",
            XenbusState::Initialising => "1",
            XenbusState::InitWait => "2",
            XenbusState::Initialised => "3",
            XenbusState::Connected => "4",
            XenbusState::Closing => "5",
            XenbusState::Closed => "6",
        }
    }
}

/// The XenStore path of a device frontend directory:
/// `/local/domain/<domid>/device/<kind>/<index>`.
pub fn frontend_path(dom: DomId, kind: DeviceKind, index: u32) -> String {
    format!(
        "/local/domain/{}/device/{}/{}",
        dom.0,
        kind.dir_name(),
        index
    )
}

/// The XenStore path of a device backend directory:
/// `/local/domain/<backend>/backend/<kind>/<frontend-domid>/<index>`.
pub fn backend_path(backend: DomId, frontend: DomId, kind: DeviceKind, index: u32) -> String {
    format!(
        "/local/domain/{}/backend/{}/{}/{}",
        backend.0,
        kind.dir_name(),
        frontend.0,
        index
    )
}

/// The keys of one store directory — an end of a device, a domain's home —
/// named one at a time in one buffer: the directory is written once and each
/// key behind it in turn, so publishing a dozen keys builds one string, not
/// a dozen.
#[derive(Debug, Clone)]
pub struct KeyDir {
    path: String,
    /// `path[..dir]` is the directory and its trailing slash.
    dir: usize,
}

impl KeyDir {
    /// The keys under `dir` (a [`frontend_path`], say, or a [`backend_path`]).
    pub fn under(mut dir: String) -> KeyDir {
        dir.push('/');
        KeyDir {
            dir: dir.len(),
            path: dir,
        }
    }

    /// The directory itself, without a trailing slash.
    pub fn dir(&self) -> &str {
        &self.path[..self.dir - 1]
    }

    /// The path of `key` in the directory; good until the next call.
    pub fn key(&mut self, key: &str) -> &str {
        self.path.truncate(self.dir);
        self.path.push_str(key);
        &self.path
    }

    /// Write `key` as dom0, which is who publishes a device's keys.
    pub fn publish(&mut self, xs: &mut XenStore, key: &str, value: &[u8]) -> XsResult<()> {
        xs.write(DomId::DOM0, None, self.key(key), value)
    }
}

/// `format!` into a buffer of `capacity` bytes. `format!` sizes its buffer
/// from the literal text alone, so a name that embeds a domid outgrows it,
/// and makes a second allocation, once the domid has enough digits; sized
/// for the largest id, the name costs one allocation at any domid.
pub(crate) fn format_sized(capacity: usize, args: std::fmt::Arguments<'_>) -> String {
    let mut s = String::with_capacity(capacity);
    std::fmt::Write::write_fmt(&mut s, args)
        // jitsu-lint: allow(P001, "formatting into a String cannot fail")
        .expect("a String accepts any text");
    s
}

/// Read an end's XenBus state key (missing keys read as `Unknown`).
pub fn read_state(xs: &mut XenStore, reader: DomId, end: &mut KeyDir) -> XenbusState {
    match xs.read_string(reader, None, end.key("state")) {
        Ok(s) => XenbusState::from_u8(s.trim().parse::<u8>().unwrap_or(0)),
        Err(_) => XenbusState::Unknown,
    }
}

/// Write an end's XenBus state key.
pub fn write_state(
    xs: &mut XenStore,
    writer: DomId,
    end: &mut KeyDir,
    state: XenbusState,
) -> XsResult<()> {
    xs.write(writer, None, end.key("state"), state.as_str().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xenstore::EngineKind;

    #[test]
    fn state_round_trip() {
        for v in 0..=6u8 {
            let s = XenbusState::from_u8(v);
            assert_eq!(s.as_str().parse::<u8>().unwrap(), v);
        }
        assert_eq!(XenbusState::from_u8(42), XenbusState::Unknown);
        assert!(XenbusState::Connected > XenbusState::Initialised);
    }

    #[test]
    fn path_layout_matches_xen_convention() {
        assert_eq!(
            frontend_path(DomId(5), DeviceKind::Vif, 0),
            "/local/domain/5/device/vif/0"
        );
        assert_eq!(
            backend_path(DomId::DOM0, DomId(5), DeviceKind::Vif, 0),
            "/local/domain/0/backend/vif/5/0"
        );
        assert_eq!(
            frontend_path(DomId(7), DeviceKind::Console, 1),
            "/local/domain/7/device/console/1"
        );
        assert_eq!(DeviceKind::Vbd.dir_name(), "vbd");
    }

    #[test]
    fn state_keys_read_and_write_through_xenstore() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut end = KeyDir::under(frontend_path(DomId(5), DeviceKind::Vif, 0));
        assert_eq!(end.dir(), "/local/domain/5/device/vif/0");
        assert_eq!(end.key("mac"), "/local/domain/5/device/vif/0/mac");
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut end),
            XenbusState::Unknown
        );
        write_state(&mut xs, DomId::DOM0, &mut end, XenbusState::Initialised).unwrap();
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut end),
            XenbusState::Initialised
        );
        write_state(&mut xs, DomId::DOM0, &mut end, XenbusState::Connected).unwrap();
        assert_eq!(
            read_state(&mut xs, DomId::DOM0, &mut end),
            XenbusState::Connected
        );
        assert_eq!(end.dir(), "/local/domain/5/device/vif/0");
    }
}
