//! Grant tables: page sharing between domains.
//!
//! A domain *grants* access to one of its pages to a named peer domain by
//! filling in a grant-table entry; the peer then *maps* the grant to reach
//! the shared memory. The split-driver rings (netfront/netback, console) and
//! the vchan transport used by Conduit (§3.2) are built on exactly this
//! primitive. This model tracks entries, enforces that only the intended
//! peer may map a grant, supports read-only grants, and stores the shared
//! page contents so higher layers genuinely move bytes through it.

use crate::memory::PAGE_SIZE;
use std::collections::{btree_map, BTreeMap, BTreeSet};
use xenstore::DomId;

/// A grant reference: an index into the granting domain's grant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GrantRef(pub u32);

/// Errors from grant-table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrantError {
    /// The grant reference does not exist.
    BadRef(GrantRef),
    /// The mapping domain is not the peer the grant names.
    NotPermitted {
        /// The domain that attempted the mapping.
        mapper: DomId,
        /// The domain the grant actually names.
        expected: DomId,
    },
    /// Attempted to write through a read-only grant.
    ReadOnly(GrantRef),
    /// The grant is still mapped and cannot be revoked.
    StillMapped(GrantRef),
    /// The granting domain has exhausted its grant table.
    TableFull,
}

/// One grant entry.
#[derive(Debug, Clone)]
struct GrantEntry {
    granter: DomId,
    peer: DomId,
    readonly: bool,
    mapped_by: Option<DomId>,
    /// The shared page contents: empty until the first write (a page nobody
    /// wrote reads as zeros), one PAGE_SIZE page from then on.
    page: Vec<u8>,
}

/// Per-host grant table state (indexed by granting domain).
#[derive(Debug, Default)]
pub struct GrantTable {
    entries: BTreeMap<(DomId, GrantRef), GrantEntry>,
    next_ref: BTreeMap<DomId, u32>,
    /// `(mapper, granter, ref)` of every mapped entry, so that a dying
    /// domain finds the grants it mapped without walking the host's.
    mappings: BTreeSet<(DomId, DomId, GrantRef)>,
    /// Maximum entries per domain (the default Xen grant table v1 size).
    max_per_domain: u32,
}

/// The part of a page an access of `len` bytes at a guest-chosen `offset`
/// covers: clamped to the page, empty when it starts at or past its end.
fn in_page(offset: usize, len: usize) -> std::ops::Range<usize> {
    let start = offset.min(PAGE_SIZE);
    start..start + len.min(PAGE_SIZE - start)
}

impl GrantTable {
    /// Create a grant table with the default per-domain capacity.
    pub fn new() -> GrantTable {
        GrantTable::with_capacity(512)
    }

    /// Create a grant table with an explicit per-domain capacity.
    pub fn with_capacity(max_per_domain: u32) -> GrantTable {
        GrantTable {
            max_per_domain,
            ..GrantTable::default()
        }
    }

    /// The grants of `dom`: its contiguous key range of the host-wide map.
    fn range_of(&self, dom: DomId) -> btree_map::Range<'_, (DomId, GrantRef), GrantEntry> {
        self.entries
            .range((dom, GrantRef(0))..=(dom, GrantRef(u32::MAX)))
    }

    /// Number of grants a domain currently has outstanding.
    pub fn grants_of(&self, dom: DomId) -> usize {
        self.range_of(dom).count()
    }

    /// Number of grants outstanding host-wide — what a launch→reap cycle
    /// must return to where it found it.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no domain has a grant outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Grant `peer` access to a fresh shared page owned by `granter`.
    pub fn grant(
        &mut self,
        granter: DomId,
        peer: DomId,
        readonly: bool,
    ) -> Result<GrantRef, GrantError> {
        if self.grants_of(granter) as u32 >= self.max_per_domain {
            return Err(GrantError::TableFull);
        }
        let counter = self.next_ref.entry(granter).or_insert(0);
        let gref = GrantRef(*counter);
        *counter += 1;
        self.entries.insert(
            (granter, gref),
            GrantEntry {
                granter,
                peer,
                readonly,
                mapped_by: None,
                page: Vec::new(),
            },
        );
        Ok(gref)
    }

    /// Map a grant as `mapper`. Only the peer named in the grant may map it.
    pub fn map(&mut self, granter: DomId, gref: GrantRef, mapper: DomId) -> Result<(), GrantError> {
        let entry = self
            .entries
            .get_mut(&(granter, gref))
            .ok_or(GrantError::BadRef(gref))?;
        if entry.peer != mapper && !mapper.is_privileged() {
            return Err(GrantError::NotPermitted {
                mapper,
                expected: entry.peer,
            });
        }
        if let Some(previous) = entry.mapped_by.replace(mapper) {
            self.mappings.remove(&(previous, granter, gref));
        }
        self.mappings.insert((mapper, granter, gref));
        Ok(())
    }

    /// Unmap a previously mapped grant.
    pub fn unmap(&mut self, granter: DomId, gref: GrantRef) -> Result<(), GrantError> {
        let entry = self
            .entries
            .get_mut(&(granter, gref))
            .ok_or(GrantError::BadRef(gref))?;
        if let Some(mapper) = entry.mapped_by.take() {
            self.mappings.remove(&(mapper, granter, gref));
        }
        Ok(())
    }

    /// Revoke (end access to) a grant. Fails while the peer still has it
    /// mapped — the source of many real-world driver bugs.
    pub fn revoke(&mut self, granter: DomId, gref: GrantRef) -> Result<(), GrantError> {
        let entry = self
            .entries
            .get(&(granter, gref))
            .ok_or(GrantError::BadRef(gref))?;
        if entry.mapped_by.is_some() {
            return Err(GrantError::StillMapped(gref));
        }
        self.entries.remove(&(granter, gref));
        Ok(())
    }

    /// Write into the shared page as `writer` (granter, or the peer if the
    /// grant is read-write and mapped). Bytes that fall outside the page are
    /// dropped: a write at or past its end writes nothing.
    pub fn write_page(
        &mut self,
        granter: DomId,
        gref: GrantRef,
        writer: DomId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), GrantError> {
        let entry = self
            .entries
            .get_mut(&(granter, gref))
            .ok_or(GrantError::BadRef(gref))?;
        if writer != entry.granter {
            if entry.peer != writer {
                return Err(GrantError::NotPermitted {
                    mapper: writer,
                    expected: entry.peer,
                });
            }
            if entry.readonly {
                return Err(GrantError::ReadOnly(gref));
            }
        }
        let span = in_page(offset, data.len());
        if span.is_empty() {
            return Ok(());
        }
        entry.page.resize(PAGE_SIZE, 0);
        let n = span.len();
        entry.page[span].copy_from_slice(&data[..n]);
        Ok(())
    }

    /// Read from the shared page as `reader` (granter or peer).
    pub fn read_page(
        &self,
        granter: DomId,
        gref: GrantRef,
        reader: DomId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, GrantError> {
        let entry = self
            .entries
            .get(&(granter, gref))
            .ok_or(GrantError::BadRef(gref))?;
        if reader != entry.granter && reader != entry.peer && !reader.is_privileged() {
            return Err(GrantError::NotPermitted {
                mapper: reader,
                expected: entry.peer,
            });
        }
        let span = in_page(offset, len);
        Ok(match entry.page.get(span.clone()) {
            Some(bytes) => bytes.to_vec(),
            None => vec![0; span.len()],
        })
    }

    /// Drop all grants owned by, or mapped by, a destroyed domain, and its
    /// reference counter with them (domain ids are never reused). Costs the
    /// dying domain's own grants and mappings, however many the rest of the
    /// host holds.
    pub fn domain_destroyed(&mut self, dom: DomId) {
        while let Some(key) = self.range_of(dom).next().map(|(key, _)| *key) {
            if let Some(mapper) = self.entries.remove(&key).and_then(|e| e.mapped_by) {
                self.mappings.remove(&(mapper, key.0, key.1));
            }
        }
        let own = (dom, DomId(0), GrantRef(0))..=(dom, DomId(u32::MAX), GrantRef(u32::MAX));
        while let Some(&mapping) = self.mappings.range(own.clone()).next() {
            self.mappings.remove(&mapping);
            if let Some(entry) = self.entries.get_mut(&(mapping.1, mapping.2)) {
                entry.mapped_by = None;
            }
        }
        self.next_ref.remove(&dom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_map_readwrite_flow() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(DomId(3), DomId(7), false).unwrap();
        gt.map(DomId(3), gref, DomId(7)).unwrap();
        gt.write_page(DomId(3), gref, DomId(7), 0, b"hello from dom7")
            .unwrap();
        let data = gt.read_page(DomId(3), gref, DomId(3), 0, 15).unwrap();
        assert_eq!(&data, b"hello from dom7");
        gt.unmap(DomId(3), gref).unwrap();
        gt.revoke(DomId(3), gref).unwrap();
        assert_eq!(gt.grants_of(DomId(3)), 0);
    }

    #[test]
    fn only_named_peer_may_map() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(DomId(3), DomId(7), false).unwrap();
        assert_eq!(
            gt.map(DomId(3), gref, DomId(9)),
            Err(GrantError::NotPermitted {
                mapper: DomId(9),
                expected: DomId(7)
            })
        );
        // dom0 (backend drivers) may map anything.
        assert!(gt.map(DomId(3), gref, DomId::DOM0).is_ok());
    }

    #[test]
    fn readonly_grants_reject_peer_writes() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(DomId(3), DomId(7), true).unwrap();
        gt.map(DomId(3), gref, DomId(7)).unwrap();
        assert_eq!(
            gt.write_page(DomId(3), gref, DomId(7), 0, b"x"),
            Err(GrantError::ReadOnly(gref))
        );
        // The granter itself can still write.
        assert!(gt.write_page(DomId(3), gref, DomId(3), 0, b"x").is_ok());
        assert_eq!(gt.read_page(DomId(3), gref, DomId(7), 0, 1).unwrap(), b"x");
    }

    #[test]
    fn revoke_fails_while_mapped() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(DomId(3), DomId(7), false).unwrap();
        gt.map(DomId(3), gref, DomId(7)).unwrap();
        assert_eq!(
            gt.revoke(DomId(3), gref),
            Err(GrantError::StillMapped(gref))
        );
        gt.unmap(DomId(3), gref).unwrap();
        assert!(gt.revoke(DomId(3), gref).is_ok());
    }

    #[test]
    fn bad_refs_and_foreign_readers_rejected() {
        let mut gt = GrantTable::new();
        assert_eq!(
            gt.map(DomId(3), GrantRef(42), DomId(7)),
            Err(GrantError::BadRef(GrantRef(42)))
        );
        let gref = gt.grant(DomId(3), DomId(7), false).unwrap();
        assert!(matches!(
            gt.read_page(DomId(3), gref, DomId(9), 0, 4),
            Err(GrantError::NotPermitted { .. })
        ));
    }

    #[test]
    fn table_capacity_enforced() {
        let mut gt = GrantTable::with_capacity(2);
        gt.grant(DomId(3), DomId(7), false).unwrap();
        gt.grant(DomId(3), DomId(7), false).unwrap();
        assert_eq!(
            gt.grant(DomId(3), DomId(7), false),
            Err(GrantError::TableFull)
        );
        // Another domain has its own budget.
        assert!(gt.grant(DomId(4), DomId(7), false).is_ok());
    }

    #[test]
    fn writes_clamp_to_page_size() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(DomId(3), DomId(7), false).unwrap();
        let big = vec![0xAB; PAGE_SIZE + 100];
        gt.write_page(DomId(3), gref, DomId(3), 0, &big).unwrap();
        let page = gt
            .read_page(DomId(3), gref, DomId(3), 0, PAGE_SIZE + 100)
            .unwrap();
        assert_eq!(page.len(), PAGE_SIZE);
        assert!(page.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn domain_destruction_cleans_grants() {
        let mut gt = GrantTable::new();
        let g1 = gt.grant(DomId(3), DomId(7), false).unwrap();
        let _g2 = gt.grant(DomId(7), DomId(3), false).unwrap();
        gt.map(DomId(3), g1, DomId(7)).unwrap();
        gt.domain_destroyed(DomId(7));
        // dom7's own grants are gone; dom3's grant is no longer mapped.
        assert_eq!(gt.grants_of(DomId(7)), 0);
        assert!(gt.revoke(DomId(3), g1).is_ok(), "mapping was torn down");
    }

    #[test]
    fn grant_refs_are_per_domain_monotonic() {
        let mut gt = GrantTable::new();
        let a = gt.grant(DomId(3), DomId(7), false).unwrap();
        let b = gt.grant(DomId(3), DomId(7), false).unwrap();
        let c = gt.grant(DomId(5), DomId(7), false).unwrap();
        assert_eq!(a, GrantRef(0));
        assert_eq!(b, GrantRef(1));
        assert_eq!(c, GrantRef(0), "each domain numbers its own table");
    }

    #[test]
    fn a_write_past_the_page_is_an_empty_write_not_a_panic() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(DomId(3), DomId(7), false).unwrap();
        for offset in [PAGE_SIZE, PAGE_SIZE + 1, usize::MAX] {
            assert_eq!(
                gt.write_page(DomId(3), gref, DomId(7), offset, b"guest-chosen"),
                Ok(())
            );
            assert_eq!(
                gt.read_page(DomId(3), gref, DomId(3), offset, 12),
                Ok(Vec::new())
            );
        }
        // A write that straddles the end keeps the part inside.
        gt.write_page(DomId(3), gref, DomId(7), PAGE_SIZE - 2, b"abcd")
            .unwrap();
        assert_eq!(
            gt.read_page(DomId(3), gref, DomId(3), PAGE_SIZE - 3, usize::MAX),
            Ok(b"\0ab".to_vec())
        );
    }

    #[test]
    fn an_untouched_page_reads_as_zeros() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(DomId(3), DomId(7), false).unwrap();
        assert_eq!(
            gt.read_page(DomId(3), gref, DomId(7), 10, 6),
            Ok(vec![0; 6])
        );
        assert_eq!(
            gt.read_page(DomId(3), gref, DomId(7), 0, usize::MAX)
                .unwrap()
                .len(),
            PAGE_SIZE
        );
        // An empty write does not materialise it either.
        gt.write_page(DomId(3), gref, DomId(3), 0, b"").unwrap();
        assert!(gt.entries[&(DomId(3), gref)].page.is_empty());
        gt.write_page(DomId(3), gref, DomId(3), 8, b"x").unwrap();
        assert_eq!(
            gt.read_page(DomId(3), gref, DomId(7), 7, 3),
            Ok(b"\0x\0".to_vec())
        );
    }

    #[test]
    fn the_quota_counts_only_the_granters_own_entries() {
        let mut gt = GrantTable::new();
        for dom in 100..120 {
            for _ in 0..500 {
                gt.grant(DomId(dom), DomId::DOM0, false).unwrap();
            }
        }
        assert_eq!(gt.len(), 10_000);
        for _ in 0..512 {
            gt.grant(DomId(3), DomId(7), false).unwrap();
        }
        assert_eq!(
            gt.grant(DomId(3), DomId(7), false),
            Err(GrantError::TableFull)
        );
        assert_eq!(gt.grants_of(DomId(3)), 512);
        gt.domain_destroyed(DomId(3));
        assert_eq!(gt.len(), 10_000, "and a death takes only its own");
    }

    #[test]
    fn remapping_and_death_keep_the_mapping_index_in_step() {
        let mut gt = GrantTable::new();
        let g = gt.grant(DomId(3), DomId(7), false).unwrap();
        gt.map(DomId(3), g, DomId(7)).unwrap();
        gt.map(DomId(3), g, DomId::DOM0).unwrap();
        assert_eq!(gt.mappings.len(), 1, "one mapper at a time");
        // dom7 no longer maps it, so its death changes nothing …
        gt.domain_destroyed(DomId(7));
        assert_eq!(gt.revoke(DomId(3), g), Err(GrantError::StillMapped(g)));
        // … and the granter's death drops the mapping with the grant.
        gt.domain_destroyed(DomId(3));
        assert!(gt.is_empty());
        assert!(gt.mappings.is_empty());
    }

    #[test]
    fn a_thousand_cycles_hand_out_the_grant_refs_they_always_did() {
        // Recorded on the parent of the per-domain tables: a guest numbers
        // its grants from 0 whatever came before it, and dom0's counter
        // never goes back, so every ref written into XenStore is unchanged.
        let dom0 = DomId::DOM0;
        let mut gt = GrantTable::new();
        for i in 0..1_000u32 {
            let guest = DomId(i + 1);
            // Console ring, vif tx and rx rings (mapped by the backend).
            let rings = [(); 3].map(|()| gt.grant(guest, dom0, false).unwrap());
            assert_eq!(rings, [GrantRef(0), GrantRef(1), GrantRef(2)]);
            gt.map(guest, rings[1], dom0).unwrap();
            gt.map(guest, rings[2], dom0).unwrap();
            // A vchan served by dom0, established and torn down.
            let vchan = [(); 2].map(|()| gt.grant(dom0, guest, false).unwrap());
            assert_eq!(vchan, [GrantRef(2 * i), GrantRef(2 * i + 1)]);
            for gref in vchan {
                gt.map(dom0, gref, guest).unwrap();
                gt.unmap(dom0, gref).unwrap();
                gt.revoke(dom0, gref).unwrap();
            }
            gt.domain_destroyed(guest);
            assert!(gt.is_empty());
            assert!(gt.mappings.is_empty());
        }
        assert_eq!(gt.next_ref.len(), 1, "only dom0's counter is kept");
    }
}
