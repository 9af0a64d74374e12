//! Guest memory: page accounting, zeroing cost and the ARM unikernel
//! memory layout of §2.3.
//!
//! Most of the domain builder's work is "to initialise and zero out physical
//! memory pages, thus guests with less memory are naturally built more
//! quickly" (§3.1) — this is why Figure 4's build time grows with VM memory
//! and why 8–16 MiB unikernels have a structural advantage over 64–256 MiB
//! Linux guests. [`PageAllocator`] models the host's page pool and the cost
//! of scrubbing; [`MemoryLayout`] reproduces the fixed virtual→IPA mapping
//! MirageOS/ARM uses (stack at the bottom of RAM, 16 KB first-level
//! translation table of 1 MiB sections, kernel at offset 0x8000).

use jitsu_sim::SimDuration;
use platform::Board;
use xenstore::DomId;

/// Page size used throughout (4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// Pages per MiB.
pub const PAGES_PER_MIB: usize = 1024 * 1024 / PAGE_SIZE;

/// Host physical page pool and per-domain accounting.
#[derive(Debug, Clone)]
pub struct PageAllocator {
    total_pages: usize,
    free_pages: usize,
    /// (domain, pages) assignments.
    assignments: Vec<(DomId, usize)>,
    /// Rate at which dom0 can zero pages, in pages per millisecond,
    /// calibrated against Figure 4 on the Cubieboard2: the gap between
    /// building a 16 MiB and a 256 MiB guest is roughly 350 ms of extra
    /// scrubbing (650 ms vs "a full second" on the vanilla toolstack).
    zero_pages_per_ms: f64,
}

impl PageAllocator {
    /// Create a pool covering `total_mib` of guest-allocatable RAM with the
    /// given zeroing rate.
    pub fn new(total_mib: u32, zero_pages_per_ms: f64) -> PageAllocator {
        let total_pages = total_mib as usize * PAGES_PER_MIB;
        PageAllocator {
            total_pages,
            free_pages: total_pages,
            assignments: Vec::new(),
            zero_pages_per_ms: zero_pages_per_ms.max(1.0),
        }
    }

    /// A pool sized for a board, reserving 192 MiB for Xen and dom0, with a
    /// zeroing rate scaled by the board's CPU speed.
    pub fn for_board(board: &Board) -> PageAllocator {
        let reserved = 192u32;
        let guest_mib = board.ram_mib.saturating_sub(reserved).max(64);
        // Calibration: the x86 server scrubs ~1050 pages/ms; the ARM boards
        // are ~6x slower, giving ~175 pages/ms — so zeroing costs ≈23 ms for
        // a 16 MiB unikernel and ≈375 ms for a 256 MiB guest on ARM, the
        // memory-dependent component of Figure 4.
        let x86_rate = 1050.0;
        PageAllocator::new(guest_mib, x86_rate / board.cpu_scale)
    }

    /// Total pages in the pool.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages not currently assigned to any domain.
    pub fn free_pages(&self) -> usize {
        self.free_pages
    }

    /// Free memory in MiB.
    pub fn free_mib(&self) -> u32 {
        (self.free_pages / PAGES_PER_MIB) as u32
    }

    /// Number of `(domain, pages)` assignments currently held.
    pub fn assignments(&self) -> usize {
        self.assignments.len()
    }

    /// Pages assigned to a domain, if any.
    pub fn assigned_to(&self, dom: DomId) -> usize {
        self.assignments
            .iter()
            .find(|(d, _)| *d == dom)
            .map(|(_, p)| *p)
            .unwrap_or(0)
    }

    /// Assign `mib` of fresh (zeroed) memory to a domain. Returns the time
    /// spent zeroing, or `None` if the pool cannot satisfy the request.
    pub fn assign(&mut self, dom: DomId, mib: u32) -> Option<SimDuration> {
        let pages = mib as usize * PAGES_PER_MIB;
        if pages > self.free_pages {
            return None;
        }
        self.free_pages -= pages;
        self.assignments.push((dom, pages));
        Some(self.zeroing_time(pages))
    }

    /// Release a domain's memory back to the pool.
    pub fn release(&mut self, dom: DomId) -> usize {
        let mut released = 0;
        self.assignments.retain(|(d, p)| {
            if *d == dom {
                released += *p;
                false
            } else {
                true
            }
        });
        self.free_pages += released;
        released
    }

    /// Time to zero `pages` pages at the calibrated rate.
    pub fn zeroing_time(&self, pages: usize) -> SimDuration {
        SimDuration::from_millis_f64(pages as f64 / self.zero_pages_per_ms)
    }

    /// Time to zero a whole `mib` MiB assignment.
    pub fn zeroing_time_mib(&self, mib: u32) -> SimDuration {
        self.zeroing_time(mib as usize * PAGES_PER_MIB)
    }
}

/// One entry of the unikernel's first-level translation table: a 1 MiB
/// section mapping (MirageOS deliberately avoids second-level tables to
/// reduce TLB pressure, §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionMapping {
    /// Virtual address of the 1 MiB section (1 MiB aligned).
    pub virt: u32,
    /// Intermediate physical address it maps to.
    pub ipa: u32,
}

/// The fixed MirageOS/ARM memory layout from §2.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Base intermediate physical address of guest RAM (Xen 4.5 places guest
    /// RAM at 0x40000000).
    pub ram_base_ipa: u32,
    /// Guest RAM size in bytes.
    pub ram_bytes: u32,
    /// Virtual address of the stack (bottom of RAM so overflow faults).
    pub stack_virt: u32,
    /// Stack size in bytes.
    pub stack_bytes: u32,
    /// Virtual address of the first-level translation table.
    pub translation_table_virt: u32,
    /// Translation table size in bytes (16 KiB maps the whole 4 GiB space).
    pub translation_table_bytes: u32,
    /// Virtual address the kernel image is linked at (offset 0x8000, the
    /// zImage convention).
    pub kernel_virt: u32,
    /// Fixed offset added to a virtual address to obtain the IPA.
    pub virt_to_ipa_offset: u32,
}

impl MemoryLayout {
    /// The layout used by MirageOS on Xen 4.5/ARM (§2.3's table):
    ///
    /// | Virtual    | Physical    | Purpose                    |
    /// |------------|-------------|----------------------------|
    /// | 0x400000   | 0x40000000  | Stack (16 KB)              |
    /// | 0x404000   | 0x40004000  | Translation tables (16 KB) |
    /// | 0x408000   | 0x40008000  | Kernel image               |
    pub fn mirage_arm(ram_bytes: u32) -> MemoryLayout {
        MemoryLayout {
            ram_base_ipa: 0x4000_0000,
            ram_bytes,
            stack_virt: 0x0040_0000,
            stack_bytes: 16 * 1024,
            translation_table_virt: 0x0040_4000,
            translation_table_bytes: 16 * 1024,
            kernel_virt: 0x0040_8000,
            virt_to_ipa_offset: 0x4000_0000u32.wrapping_sub(0x0040_0000),
        }
    }

    /// Translate a guest virtual address to its IPA using the fixed offset
    /// (addresses wrap around the 32-bit space, so virtual 0xC0400000 maps
    /// back to IPA 0, as the paper notes).
    pub fn virt_to_ipa(&self, virt: u32) -> u32 {
        virt.wrapping_add(self.virt_to_ipa_offset)
    }

    /// Number of 4-byte first-level entries in the translation table.
    pub fn translation_entries(&self) -> u32 {
        self.translation_table_bytes / 4
    }

    /// Amount of address space each first-level entry maps (1 MiB sections).
    pub fn bytes_per_entry(&self) -> u64 {
        // 16 KiB of 4-byte entries covering the full 4 GiB space.
        (1u64 << 32) / self.translation_entries() as u64
    }

    /// Build the section mappings covering guest RAM.
    pub fn ram_sections(&self) -> Vec<SectionMapping> {
        let section = self.bytes_per_entry() as u32;
        let count = self.ram_bytes.div_ceil(section);
        (0..count)
            .map(|i| SectionMapping {
                virt: self.stack_virt.wrapping_add(i * section) & !(section - 1),
                ipa: self.ram_base_ipa + i * section,
            })
            .collect()
    }

    /// The order of regions from the bottom of RAM: stack, translation
    /// tables, kernel image (then data/bss and the allocator-managed heap).
    pub fn region_order_is_valid(&self) -> bool {
        self.stack_virt < self.translation_table_virt
            && self.translation_table_virt < self.kernel_virt
            && self.stack_virt + self.stack_bytes <= self.translation_table_virt
            && self.translation_table_virt + self.translation_table_bytes <= self.kernel_virt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::BoardKind;

    #[test]
    fn assign_and_release_pages() {
        let mut pa = PageAllocator::new(512, 100.0);
        assert_eq!(pa.free_mib(), 512);
        let t = pa.assign(DomId(1), 16).unwrap();
        assert!(t > SimDuration::ZERO);
        assert_eq!(pa.assigned_to(DomId(1)), 16 * PAGES_PER_MIB);
        assert_eq!(pa.free_mib(), 496);
        let released = pa.release(DomId(1));
        assert_eq!(released, 16 * PAGES_PER_MIB);
        assert_eq!(pa.free_mib(), 512);
        assert_eq!(pa.assigned_to(DomId(1)), 0);
        assert_eq!(pa.release(DomId(9)), 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut pa = PageAllocator::new(64, 100.0);
        assert!(pa.assign(DomId(1), 48).is_some());
        assert!(pa.assign(DomId(2), 32).is_none());
        assert_eq!(pa.assigned_to(DomId(2)), 0);
        assert!(pa.assign(DomId(2), 16).is_some());
        assert_eq!(pa.free_pages(), 0);
    }

    #[test]
    fn zeroing_scales_with_memory() {
        let pa = PageAllocator::new(1024, 70.0);
        let t16 = pa.zeroing_time_mib(16);
        let t256 = pa.zeroing_time_mib(256);
        assert!(
            t256 > t16 * 15 && t256 < t16 * 17,
            "zeroing is linear in pages"
        );
    }

    #[test]
    fn arm_board_zeroing_matches_figure4_scale() {
        // Figure 4: on the Cubieboard2 the extra memory of a 256 MiB guest
        // adds roughly 350 ms of scrubbing over a 16 MiB unikernel.
        let board = BoardKind::Cubieboard2.board();
        let pa = PageAllocator::for_board(&board);
        let t256 = pa.zeroing_time_mib(256);
        assert!((300..450).contains(&t256.as_millis()), "t256={t256}");
        let t16 = pa.zeroing_time_mib(16);
        assert!((15..35).contains(&t16.as_millis()), "t16={t16}");
        // x86 is roughly 6x faster.
        let x86 = BoardKind::X86Server.board();
        let pax = PageAllocator::for_board(&x86);
        assert!(pax.zeroing_time_mib(256) < t256 / 5);
    }

    #[test]
    fn board_pool_reserves_dom0_memory() {
        let board = BoardKind::Cubieboard2.board(); // 1 GiB
        let pa = PageAllocator::for_board(&board);
        assert!(pa.free_mib() < 1024);
        assert!(pa.free_mib() >= 512);
    }

    #[test]
    fn mirage_layout_matches_paper_table() {
        let l = MemoryLayout::mirage_arm(16 * 1024 * 1024);
        assert_eq!(l.stack_virt, 0x400000);
        assert_eq!(l.translation_table_virt, 0x404000);
        assert_eq!(l.kernel_virt, 0x408000);
        assert_eq!(l.virt_to_ipa(0x400000), 0x4000_0000);
        assert_eq!(l.virt_to_ipa(0x404000), 0x4000_4000);
        assert_eq!(l.virt_to_ipa(0x408000), 0x4000_8000);
        // Addresses wrap: virtual 0xC0400000 maps back to physical 0.
        assert_eq!(l.virt_to_ipa(0xC040_0000), 0);
        assert!(l.region_order_is_valid());
    }

    #[test]
    fn translation_table_maps_whole_address_space_with_1mib_sections() {
        let l = MemoryLayout::mirage_arm(16 * 1024 * 1024);
        assert_eq!(l.translation_entries(), 4096, "16KB of 4-byte entries");
        assert_eq!(l.bytes_per_entry(), 1024 * 1024, "each entry maps 1MiB");
        let sections = l.ram_sections();
        assert_eq!(sections.len(), 16, "16MiB of RAM needs 16 sections");
        assert_eq!(sections[0].ipa, 0x4000_0000);
        assert_eq!(sections[1].ipa, 0x4010_0000);
    }

    #[test]
    fn stack_is_at_bottom_of_ram_for_overflow_detection() {
        // §2.3: the stack is placed at the start of RAM so an overflow
        // triggers a page fault rather than silently corrupting data.
        let l = MemoryLayout::mirage_arm(8 * 1024 * 1024);
        assert!(l.stack_virt < l.translation_table_virt);
        assert!(l.stack_virt < l.kernel_virt);
        assert_eq!(l.virt_to_ipa(l.stack_virt), l.ram_base_ipa);
    }
}
