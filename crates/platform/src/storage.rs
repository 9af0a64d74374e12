//! Storage device models.
//!
//! Figure 9b shows Docker container start time dominated by disk I/O on a
//! 10 MB/s SD card, improving (but still ≥600 ms) on an ext4 loopback inside
//! tmpfs. The HTTP persistent-queue throughput experiment (§4) is bound by
//! its backing store. These models capture per-device throughput and access
//! latency so those experiments reproduce the same orderings.

use jitsu_sim::{Distribution, SimDuration, SimRng};

/// The kinds of storage used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageKind {
    /// The boards' SD card (~10 MB/s sequential, high and variable access
    /// latency).
    SdCard,
    /// An external USB solid-state drive.
    Ssd,
    /// An ext4 loopback file inside a RAM-backed tmpfs.
    TmpfsLoopback,
    /// The on-board eMMC flash used for unikernel images.
    Mmc,
}

impl StorageKind {
    /// All storage kinds.
    pub const ALL: [StorageKind; 4] = [
        StorageKind::SdCard,
        StorageKind::Ssd,
        StorageKind::TmpfsLoopback,
        StorageKind::Mmc,
    ];

    /// Build the device model.
    pub fn device(self) -> StorageDevice {
        StorageDevice::new(self)
    }

    /// Label used in Figure 9b's legend.
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::SdCard => "ext4 on SD card",
            StorageKind::Ssd => "ext4 on SSD",
            StorageKind::TmpfsLoopback => "ext4 on tmpfs",
            StorageKind::Mmc => "internal MMC flash",
        }
    }
}

/// A storage device with a simple throughput + access-latency cost model.
#[derive(Debug, Clone)]
pub struct StorageDevice {
    /// Which device this is.
    pub kind: StorageKind,
    /// Sustained sequential read throughput in MB/s.
    pub read_mbps: f64,
    /// Sustained sequential write throughput in MB/s.
    pub write_mbps: f64,
    /// Per-operation access latency distribution (seek/erase/FTL overhead).
    pub access_latency: Distribution,
    /// Probability that a metadata-heavy operation fails with an I/O error —
    /// the paper observed "buffer IO, ext4 and VFS errors in a significant
    /// fraction of tests" for the devicemapper-on-tmpfs configuration.
    pub io_error_rate: f64,
}

impl StorageDevice {
    /// Build the calibrated model for a device kind.
    pub fn new(kind: StorageKind) -> StorageDevice {
        match kind {
            StorageKind::SdCard => StorageDevice {
                kind,
                read_mbps: 10.0,
                write_mbps: 6.0,
                access_latency: Distribution::LogNormal {
                    median: SimDuration::from_millis(2),
                    sigma: 0.6,
                },
                io_error_rate: 0.0,
            },
            StorageKind::Ssd => StorageDevice {
                kind,
                read_mbps: 180.0,
                write_mbps: 120.0,
                access_latency: Distribution::LogNormal {
                    median: SimDuration::from_micros(150),
                    sigma: 0.4,
                },
                io_error_rate: 0.0,
            },
            StorageKind::TmpfsLoopback => StorageDevice {
                kind,
                read_mbps: 400.0,
                write_mbps: 350.0,
                access_latency: Distribution::LogNormal {
                    median: SimDuration::from_micros(40),
                    sigma: 0.3,
                },
                // The loopback-on-tmpfs workaround is fragile on ARM (§4).
                io_error_rate: 0.08,
            },
            StorageKind::Mmc => StorageDevice {
                kind,
                read_mbps: 25.0,
                write_mbps: 12.0,
                access_latency: Distribution::LogNormal {
                    median: SimDuration::from_millis(1),
                    sigma: 0.5,
                },
                io_error_rate: 0.0,
            },
        }
    }

    /// Time to read `bytes` sequentially, including one access latency draw.
    pub fn read_time(&self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let transfer = SimDuration::from_secs_f64(bytes as f64 / (self.read_mbps * 1e6));
        self.access_latency.sample(rng) + transfer
    }

    /// Time to write `bytes` sequentially, including one access latency draw.
    pub fn write_time(&self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let transfer = SimDuration::from_secs_f64(bytes as f64 / (self.write_mbps * 1e6));
        self.access_latency.sample(rng) + transfer
    }

    /// Time for a metadata-heavy random I/O burst of `ops` operations, each
    /// reading roughly `bytes_per_op` — the pattern produced by mounting
    /// container layers and materialising a union filesystem.
    pub fn random_io_time(&self, ops: usize, bytes_per_op: usize, rng: &mut SimRng) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for _ in 0..ops {
            total += self.read_time(bytes_per_op, rng);
        }
        total
    }

    /// Draw whether a metadata-heavy operation hits an I/O error.
    pub fn draw_io_error(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.io_error_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    #[test]
    fn sd_card_matches_paper_throughput() {
        let sd = StorageKind::SdCard.device();
        assert!((sd.read_mbps - 10.0).abs() < 1e-9, "paper: 10MB/s SD card");
        assert_eq!(sd.kind, StorageKind::SdCard);
        assert_eq!(sd.io_error_rate, 0.0);
    }

    #[test]
    fn device_ordering_sd_slowest_tmpfs_fastest() {
        let mut r = rng();
        let mb = 1024 * 1024;
        let sd = StorageKind::SdCard.device().read_time(10 * mb, &mut r);
        let ssd = StorageKind::Ssd.device().read_time(10 * mb, &mut r);
        let tmpfs = StorageKind::TmpfsLoopback
            .device()
            .read_time(10 * mb, &mut r);
        assert!(sd > ssd, "SD card slower than SSD");
        assert!(ssd > tmpfs, "SSD slower than tmpfs");
        // 10 MB at 10 MB/s is about a second.
        assert!(sd.as_millis() >= 990 && sd.as_millis() < 1300, "sd={sd}");
    }

    #[test]
    fn write_slower_than_read_on_flash() {
        let mut r = rng();
        let sd = StorageKind::SdCard.device();
        let read = sd.read_time(1024 * 1024, &mut r);
        let write = sd.write_time(1024 * 1024, &mut r);
        assert!(
            write > read - SimDuration::from_millis(3),
            "writes should not be faster"
        );
    }

    #[test]
    fn random_io_accumulates_access_latency() {
        let mut r = rng();
        let sd = StorageKind::SdCard.device();
        let one = sd.read_time(4096, &mut r);
        let many = sd.random_io_time(100, 4096, &mut r);
        assert!(
            many > one * 50,
            "100 random ops must cost much more than one"
        );
    }

    #[test]
    fn tmpfs_loopback_has_error_rate() {
        let tmpfs = StorageKind::TmpfsLoopback.device();
        assert!(tmpfs.io_error_rate > 0.0);
        let mut r = rng();
        let errors = (0..10_000).filter(|_| tmpfs.draw_io_error(&mut r)).count();
        let rate = errors as f64 / 10_000.0;
        assert!((rate - tmpfs.io_error_rate).abs() < 0.02, "rate={rate}");
        assert!(!StorageKind::SdCard.device().draw_io_error(&mut r));
    }

    #[test]
    fn labels_and_throughput() {
        assert_eq!(StorageKind::SdCard.label(), "ext4 on SD card");
        assert_eq!(StorageKind::TmpfsLoopback.label(), "ext4 on tmpfs");
        assert_eq!(StorageKind::ALL.len(), 4);
        // 10 MB/s is 80 Mb/s — just above what the disk-bound HTTP queue
        // service achieved (57.92 Mb/s) once protocol overheads are added.
        assert!((StorageKind::SdCard.device().read_mbps * 8.0 - 80.0).abs() < 1e-9);
    }
}
