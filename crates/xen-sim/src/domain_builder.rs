//! The domain builder: turning a kernel image and a memory allocation into
//! a bootable domain.
//!
//! "Xen's domain builder creates the initial VM kernel image. Most of its
//! work is to initialise and zero out physical memory pages, thus guests with
//! less memory are naturally built more quickly" (§3.1). The builder here
//! allocates and scrubs pages from the [`PageAllocator`], loads the kernel at
//! the zImage offset 0x8000, writes the Flattened Device Tree handed to the
//! guest in `r2` (§2.3) straight into its DTB bytes with
//! [`fdt::standard_guest`], and reports the time spent in each stage so the
//! toolstack can compose Figure 4. A build allocates that one buffer and,
//! on a fresh page pool, the pool's record of the assignment.

use crate::domain::{Domain, DomainConfig, DomainState};
use crate::fdt;
use crate::memory::{MemoryLayout, PageAllocator};
use jitsu_sim::SimDuration;
use platform::Board;
use xenstore::DomId;

/// Why a build failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The host cannot satisfy the memory request. Jitsu surfaces this to
    /// DNS clients as `SERVFAIL` so they can fail over to another host
    /// (§3.3.2).
    OutOfMemory {
        /// MiB requested.
        requested_mib: u32,
        /// MiB available.
        available_mib: u32,
    },
    /// The domain was not in a buildable state.
    WrongState(DomainState),
}

/// Per-stage timing of one domain build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Creating the empty domain descriptor (hypercall).
    pub descriptor: SimDuration,
    /// Zeroing the assigned memory — the memory-proportional component.
    pub zeroing: SimDuration,
    /// Loading the kernel image at offset 0x8000.
    pub kernel_load: SimDuration,
    /// Writing the FDT.
    pub fdt_build: SimDuration,
    /// Length of the DTB handed to the guest, in bytes.
    pub fdt_bytes: usize,
    /// The guest memory layout configured for the boot code.
    pub layout: MemoryLayout,
}

impl BuildReport {
    /// Total builder-path time (the part §3.1 optimisation (ii) overlaps
    /// with vif setup).
    pub fn total(&self) -> SimDuration {
        self.descriptor + self.zeroing + self.kernel_load + self.fdt_build
    }
}

/// The domain builder, bound to a board and its page allocator.
#[derive(Debug)]
pub struct DomainBuilder {
    board: Board,
    allocator: PageAllocator,
}

impl DomainBuilder {
    /// Create a builder for a board, with a page pool sized for it.
    pub fn new(board: Board) -> DomainBuilder {
        let allocator = PageAllocator::for_board(&board);
        DomainBuilder { board, allocator }
    }

    /// The board this builder targets.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Free guest memory remaining, in MiB.
    pub fn free_mib(&self) -> u32 {
        self.allocator.free_mib()
    }

    /// Number of assignments the page pool currently holds.
    pub fn memory_assignments(&self) -> usize {
        self.allocator.assignments()
    }

    /// Whether a request for `mib` MiB can currently be satisfied.
    pub fn can_allocate(&self, mib: u32) -> bool {
        self.allocator.free_mib() >= mib
    }

    /// Build a domain: assign and zero memory, load the kernel, write the
    /// FDT and advance the domain to [`DomainState::Built`].
    pub fn build(
        &mut self,
        domain: &mut Domain,
        config: &DomainConfig,
    ) -> Result<BuildReport, BuildError> {
        if domain.state != DomainState::Created {
            return Err(BuildError::WrongState(domain.state));
        }
        let zeroing =
            self.allocator
                .assign(domain.id, config.memory_mib)
                .ok_or(BuildError::OutOfMemory {
                    requested_mib: config.memory_mib,
                    available_mib: self.allocator.free_mib(),
                })?;

        let ram_bytes = config.memory_mib as u64 * 1024 * 1024;
        let layout = MemoryLayout::mirage_arm(ram_bytes.min(u32::MAX as u64) as u32);
        let dtb = fdt::standard_guest(
            layout.ram_base_ipa as u64,
            ram_bytes,
            &["console=hvc0 jitsu.name=", &config.name],
            1, // xenstore event channel (bound later)
            2, // console event channel (bound later)
        );

        // Loading reads the image from the page cache and copies it into
        // the guest.
        let costs = &self.board.costs;
        let kernel_mib = config.kernel_size_bytes as f64 / (1024.0 * 1024.0);
        let report = BuildReport {
            descriptor: costs.domain_descriptor,
            zeroing,
            kernel_load: costs.kernel_load_per_mib.mul_f64(kernel_mib),
            fdt_build: costs.fdt_write,
            fdt_bytes: dtb.len(),
            layout,
        };
        #[expect(
            clippy::expect_used,
            reason = "Created -> Built is a legal lifecycle transition by construction"
        )]
        domain
            .transition(DomainState::Built)
            .expect("Created -> Built is legal");
        Ok(report)
    }

    /// Release a destroyed domain's memory back to the pool.
    pub fn release(&mut self, dom: DomId) -> usize {
        self.allocator.release(dom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    fn builder() -> DomainBuilder {
        DomainBuilder::new(BoardKind::Cubieboard2.board())
    }

    #[test]
    fn building_a_unikernel_is_fast() {
        let mut b = builder();
        let config = DomainConfig::unikernel("www");
        let mut dom = Domain::new(DomId(5), config.clone());
        let report = b.build(&mut dom, &config).unwrap();
        assert_eq!(dom.state, DomainState::Built);
        // 16 MiB of zeroing plus small fixed costs: a few tens of ms on ARM.
        assert!(
            (25..70).contains(&report.total().as_millis()),
            "total={}",
            report.total()
        );
        assert!(report.zeroing > report.kernel_load);
        assert!(report.layout.region_order_is_valid());
    }

    #[test]
    fn fdt_bytes_is_the_written_dtbs_length() {
        let config = DomainConfig::unikernel("svc003.storm.example");
        let mut dom = Domain::new(DomId(3), config.clone());
        let report = builder().build(&mut dom, &config).unwrap();
        let bootargs = ["console=hvc0 jitsu.name=", &config.name];
        let dtb = fdt::standard_guest(0x4000_0000, 16 << 20, &bootargs, 1, 2);
        assert_eq!(report.fdt_bytes, dtb.len());
        assert_eq!(report.fdt_bytes, 341);
    }

    #[test]
    fn larger_memory_builds_slower() {
        let mut b = builder();
        let small_cfg = DomainConfig::unikernel("small");
        let mut small = Domain::new(DomId(1), small_cfg.clone());
        let small_report = b.build(&mut small, &small_cfg).unwrap();
        let big_cfg = DomainConfig::unikernel("big").with_memory_mib(256);
        let mut big = Domain::new(DomId(2), big_cfg.clone());
        let big_report = b.build(&mut big, &big_cfg).unwrap();
        assert!(big_report.total() > small_report.total() * 4);
        assert!(big_report.zeroing.as_millis() > 300);
    }

    #[test]
    fn x86_builds_about_six_times_faster() {
        let mut arm = DomainBuilder::new(BoardKind::Cubieboard2.board());
        let mut x86 = DomainBuilder::new(BoardKind::X86Server.board());
        let config = DomainConfig::unikernel("u");
        let mut d1 = Domain::new(DomId(1), config.clone());
        let mut d2 = Domain::new(DomId(1), config.clone());
        let ra = arm.build(&mut d1, &config).unwrap();
        let rx = x86.build(&mut d2, &config).unwrap();
        let ratio = ra.total().as_secs_f64() / rx.total().as_secs_f64();
        assert!((4.5..7.5).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn out_of_memory_is_reported_for_servfail() {
        let mut b = builder(); // Cubieboard2: ~832 MiB of guest RAM
        let big_cfg = DomainConfig::unikernel("hog").with_memory_mib(700);
        let mut hog = Domain::new(DomId(1), big_cfg.clone());
        b.build(&mut hog, &big_cfg).unwrap();
        let cfg = DomainConfig::unikernel("second").with_memory_mib(700);
        let mut second = Domain::new(DomId(2), cfg.clone());
        match b.build(&mut second, &cfg) {
            Err(BuildError::OutOfMemory {
                requested_mib,
                available_mib,
            }) => {
                assert_eq!(requested_mib, 700);
                assert!(available_mib < 700);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        assert_eq!(second.state, DomainState::Created);
        // Releasing the hog frees the memory again.
        assert!(b.release(DomId(1)) > 0);
        assert!(b.can_allocate(700));
    }

    #[test]
    fn rebuilding_a_built_domain_is_rejected() {
        let mut b = builder();
        let config = DomainConfig::unikernel("u");
        let mut dom = Domain::new(DomId(5), config.clone());
        b.build(&mut dom, &config).unwrap();
        assert_eq!(
            b.build(&mut dom, &config),
            Err(BuildError::WrongState(DomainState::Built))
        );
    }

    #[test]
    fn linux_kernel_takes_longer_to_load() {
        let mut b = builder();
        let ucfg = DomainConfig::unikernel("u");
        // A Linux kernel plus initrd: an order of magnitude bigger.
        let lcfg = DomainConfig {
            kernel_size_bytes: 12 * 1024 * 1024,
            ..DomainConfig::unikernel("l")
        };
        let mut ud = Domain::new(DomId(1), ucfg.clone());
        let mut ld = Domain::new(DomId(2), lcfg.clone());
        let ur = b.build(&mut ud, &ucfg).unwrap();
        let lr = b.build(&mut ld, &lcfg).unwrap();
        assert!(lr.kernel_load > ur.kernel_load * 5);
    }
}
