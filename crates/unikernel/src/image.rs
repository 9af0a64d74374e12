//! Unikernel images.
//!
//! "the small binary size of unikernels (around 1MB) means that in many
//! cases we do not require a lot of space beyond that provided by the
//! internal MMC flash" (§4). Image descriptors capture the size and memory
//! requirements that drive the domain-build time (Figure 4).

use xen_sim::domain::DomainConfig;

/// A MirageOS unikernel image stored on the board, ready to be summoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnikernelImage {
    /// Service name (also the DNS label Jitsu maps to it).
    pub name: String,
    /// Size of the kernel image in bytes.
    pub kernel_bytes: usize,
    /// Memory the guest needs, in MiB.
    pub memory_mib: u32,
}

impl UnikernelImage {
    /// A typical MirageOS appliance image: ~1 MB binary, 16 MiB of RAM.
    pub fn mirage(name: impl Into<String>) -> UnikernelImage {
        UnikernelImage {
            name: name.into(),
            kernel_bytes: 1024 * 1024,
            memory_mib: 16,
        }
    }

    /// The domain configuration needed to build this image.
    pub fn domain_config(&self) -> DomainConfig {
        DomainConfig {
            memory_mib: self.memory_mib,
            kernel_size_bytes: self.kernel_bytes,
            ..DomainConfig::unikernel(self.name.clone())
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
    }

    #[test]
    fn domain_config_reflects_image() {
        let img = UnikernelImage::mirage("www");
        let cfg = img.domain_config();
        assert_eq!(cfg.memory_mib, 16);
        assert_eq!(cfg.kernel_size_bytes, 1024 * 1024);
        assert_eq!(cfg.name, "www");
        let big = UnikernelImage {
            memory_mib: 128,
            ..UnikernelImage::mirage("big")
        };
        assert_eq!(big.domain_config().memory_mib, 128);
    }

    #[test]
    fn many_unikernels_fit_in_onboard_flash() {
        // A 4 GB eMMC holds thousands of 1 MB appliances but only a handful
        // of multi-GB Linux images.
        let flash: usize = 4 * 1024 * 1024 * 1024;
        assert!(flash / UnikernelImage::mirage("x").kernel_bytes >= 4000);
    }
}
