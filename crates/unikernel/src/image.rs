//! Unikernel and legacy-VM images.
//!
//! "the small binary size of unikernels (around 1MB) means that in many
//! cases we do not require a lot of space beyond that provided by the
//! internal MMC flash" (§4). Image descriptors capture the size and memory
//! requirements that drive both the domain-build time (Figure 4) and the
//! storage footprint comparison with containers and Linux VMs.

use xen_sim::domain::DomainConfig;

/// What kind of guest an image boots into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageKind {
    /// A MirageOS unikernel (single-purpose appliance).
    MirageUnikernel,
    /// A full Linux distribution image (the legacy-VM baseline).
    LinuxVm,
}

/// An image stored on the board, ready to be summoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnikernelImage {
    /// Service name (also the DNS label Jitsu maps to it).
    pub name: String,
    /// Image kind.
    pub kind: ImageKind,
    /// Size of the kernel image in bytes.
    pub kernel_bytes: usize,
    /// Memory the guest needs, in MiB.
    pub memory_mib: u32,
    /// Whether the appliance needs a block device (e.g. the persistent
    /// queue); pure network appliances do not.
    pub needs_storage: bool,
}

impl UnikernelImage {
    /// A typical MirageOS appliance image: ~1 MB binary, 16 MiB of RAM.
    pub fn mirage(name: impl Into<String>) -> UnikernelImage {
        UnikernelImage {
            name: name.into(),
            kind: ImageKind::MirageUnikernel,
            kernel_bytes: 1024 * 1024,
            memory_mib: 16,
            needs_storage: false,
        }
    }

    /// A full Ubuntu 14.04 guest, the legacy-VM comparison point: hundreds
    /// of MiB of disk and at least 128 MiB of RAM.
    pub fn ubuntu(name: impl Into<String>) -> UnikernelImage {
        UnikernelImage {
            name: name.into(),
            kind: ImageKind::LinuxVm,
            kernel_bytes: 12 * 1024 * 1024,
            memory_mib: 128,
            needs_storage: true,
        }
    }

    /// The domain configuration needed to build this image.
    pub fn domain_config(&self) -> DomainConfig {
        let base = match self.kind {
            ImageKind::MirageUnikernel => DomainConfig::unikernel(self.name.clone()),
            ImageKind::LinuxVm => DomainConfig::linux_vm(self.name.clone()),
        };
        DomainConfig {
            memory_mib: self.memory_mib,
            kernel_size_bytes: self.kernel_bytes,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirage_images_are_tiny() {
        let img = UnikernelImage::mirage("www-alice");
        assert_eq!(img.kernel_bytes, 1024 * 1024);
        assert_eq!(img.memory_mib, 16);
        assert!(!img.needs_storage);
        let ubuntu = UnikernelImage::ubuntu("legacy");
        assert!(ubuntu.kernel_bytes > 10 * img.kernel_bytes);
        assert!(ubuntu.memory_mib >= 128);
    }

    #[test]
    fn domain_config_reflects_image() {
        let img = UnikernelImage::mirage("www");
        let cfg = img.domain_config();
        assert_eq!(cfg.memory_mib, 16);
        assert_eq!(cfg.kernel_size_bytes, 1024 * 1024);
        assert_eq!(cfg.name, "www");
        let ucfg = UnikernelImage::ubuntu("u").domain_config();
        assert_eq!(ucfg.memory_mib, 128);
    }

    #[test]
    fn many_unikernels_fit_in_onboard_flash() {
        // A 4 GB eMMC holds thousands of 1 MB appliances but only a handful
        // of multi-GB Linux images.
        let flash: usize = 4 * 1024 * 1024 * 1024;
        assert!(flash / UnikernelImage::mirage("x").kernel_bytes >= 4000);
    }
}
