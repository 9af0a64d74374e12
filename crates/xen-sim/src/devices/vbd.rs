//! The PV block device (blkfront / blkback).
//!
//! Unikernel appliances that persist data — such as the HTTP persistent
//! queue service whose throughput §4 measures — attach a virtual block
//! device backed by one of dom0's storage devices. The cost model simply
//! composes the backend storage device's timing with a fixed ring-protocol
//! overhead per request.

use super::{backend_path, frontend_path, write_state, DeviceKind, KeyDir, XenbusState};
use crate::event_channel::{EventChannelTable, Port};
use crate::grant_table::{GrantRef, GrantTable};
use jitsu_sim::{SimDuration, SimRng};
use platform::StorageDevice;
use xenstore::{DomId, Result as XsResult, XenStore};

/// A guest block device backed by a dom0 storage device.
#[derive(Debug, Clone)]
pub struct VbdDevice {
    /// Owning guest.
    pub dom: DomId,
    /// Device index (xvda = 0, xvdb = 1, …).
    pub index: u32,
    /// Ring grant reference.
    pub ring: GrantRef,
    /// Event channel port.
    pub port: Port,
    /// The backing store in dom0.
    pub backing: StorageDevice,
    /// Per-request ring/interrupt overhead.
    pub ring_overhead: SimDuration,
    bytes_read: u64,
    bytes_written: u64,
}

impl VbdDevice {
    /// Create the device and publish its XenStore entries.
    pub fn setup(
        xs: &mut XenStore,
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        dom: DomId,
        index: u32,
        backing: StorageDevice,
    ) -> XsResult<VbdDevice> {
        let ring = grants
            .grant(dom, DomId::DOM0)
            // jitsu-lint: allow(P001, "a freshly built domain starts under its grant quota")
            .expect("grant capacity");
        let port = evtchn.alloc_unbound(dom, DomId::DOM0);
        let mut fe = KeyDir::under(frontend_path(dom, DeviceKind::Vbd, index));
        let mut be = KeyDir::under(backend_path(DomId::DOM0, dom, DeviceKind::Vbd, index));
        fe.publish(xs, "ring-ref", ring.0.to_string().as_bytes())?;
        fe.publish(xs, "event-channel", port.0.to_string().as_bytes())?;
        fe.publish(xs, "backend", be.dir().as_bytes())?;
        write_state(xs, DomId::DOM0, &mut fe, XenbusState::Initialised)?;
        be.publish(xs, "params", backing.kind.label().as_bytes())?;
        write_state(xs, DomId::DOM0, &mut be, XenbusState::Connected)?;
        write_state(xs, DomId::DOM0, &mut fe, XenbusState::Connected)?;
        Ok(VbdDevice {
            dom,
            index,
            ring,
            port,
            backing,
            ring_overhead: SimDuration::from_micros(120),
            bytes_read: 0,
            bytes_written: 0,
        })
    }

    /// Time to read `bytes` through the ring from the backing store.
    pub fn read(&mut self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        self.bytes_read += bytes as u64;
        self.ring_overhead + self.backing.read_time(bytes, rng)
    }

    /// Time to write `bytes` through the ring to the backing store.
    pub fn write(&mut self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        self.bytes_written += bytes as u64;
        self.ring_overhead + self.backing.write_time(bytes, rng)
    }

    /// Total `(read, written)` byte counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::StorageKind;
    use xenstore::EngineKind;

    #[test]
    fn setup_and_io_accounting() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut gt = GrantTable::new();
        let mut ec = EventChannelTable::new();
        let mut rng = SimRng::seed_from_u64(3);
        let mut vbd = VbdDevice::setup(
            &mut xs,
            &mut gt,
            &mut ec,
            DomId(5),
            0,
            StorageKind::SdCard.device(),
        )
        .unwrap();
        let fe = frontend_path(DomId(5), DeviceKind::Vbd, 0);
        assert!(xs
            .exists(DomId::DOM0, None, &format!("{fe}/ring-ref"))
            .unwrap());

        let t_read = vbd.read(1024 * 1024, &mut rng);
        let t_write = vbd.write(512 * 1024, &mut rng);
        assert!(t_read > vbd.ring_overhead);
        assert!(t_write > vbd.ring_overhead);
        assert_eq!(vbd.counters(), (1024 * 1024, 512 * 1024));
    }

    #[test]
    fn sd_card_backed_reads_are_slower_than_ssd() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut gt = GrantTable::new();
        let mut ec = EventChannelTable::new();
        let mut rng = SimRng::seed_from_u64(4);
        let mut sd = VbdDevice::setup(
            &mut xs,
            &mut gt,
            &mut ec,
            DomId(5),
            0,
            StorageKind::SdCard.device(),
        )
        .unwrap();
        let mut ssd = VbdDevice::setup(
            &mut xs,
            &mut gt,
            &mut ec,
            DomId(6),
            0,
            StorageKind::Ssd.device(),
        )
        .unwrap();
        let t_sd = sd.read(4 * 1024 * 1024, &mut rng);
        let t_ssd = ssd.read(4 * 1024 * 1024, &mut rng);
        assert!(t_sd > t_ssd);
    }
}
