//! Page-level logical-to-physical mapping.
//!
//! A forward table (LPN → PPN) plus the reverse table (PPN → LPN) that
//! garbage collection needs to find the owner of a valid physical page.
//! Entries are 32-bit — [`nssd_flash::Geometry::validate`] refuses a device
//! of `u32::MAX` pages or more — and both tables are [`ChunkedTable`]s, so
//! they cost 4 bytes of host memory per entry only in the 1,024-entry
//! chunks a run has mapped into: a new table holds just its directories,
//! and a fill of half the logical space pays for that half of the forward
//! map and for the blocks it programmed in the reverse one.

use core::fmt;

use nssd_flash::Ppn;
use nssd_sim::{ChunkedTable, CkptError, CkptReader, CkptWriter};

/// A logical page number (host-visible page index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lpn(u64);

impl Lpn {
    /// Creates an LPN from its raw index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Lpn(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lpn{}", self.0)
    }
}

/// Sentinel for an empty entry; never a page index, since a geometry has
/// fewer than `u32::MAX` pages.
const UNMAPPED: u32 = u32::MAX;

/// Bidirectional page mapping table with 32-bit entries, held in
/// [`ChunkedTable`]s that allocate only the chunks a run maps into.
///
/// # Examples
///
/// ```
/// use nssd_flash::Ppn;
/// use nssd_ftl::{Lpn, MappingTable};
///
/// let mut m = MappingTable::new(100, 200);
/// assert_eq!(m.lookup(Lpn::new(5)), None);
/// m.map(Lpn::new(5), Ppn::new(42));
/// assert_eq!(m.lookup(Lpn::new(5)), Some(Ppn::new(42)));
/// assert_eq!(m.reverse(Ppn::new(42)), Some(Lpn::new(5)));
/// ```
#[derive(Debug, Clone)]
pub struct MappingTable {
    l2p: ChunkedTable<u32>,
    p2l: ChunkedTable<u32>,
    mapped: u64,
}

impl MappingTable {
    /// Creates an empty table for `logical_pages` LPNs and `physical_pages`
    /// PPNs. Only the two chunk directories are allocated.
    ///
    /// # Panics
    ///
    /// Panics if either count is `u32::MAX` or more (a geometry that passes
    /// [`nssd_flash::Geometry::validate`] never is).
    pub fn new(logical_pages: u64, physical_pages: u64) -> Self {
        assert!(
            logical_pages < UNMAPPED as u64 && physical_pages < UNMAPPED as u64,
            "32-bit page maps hold fewer than {UNMAPPED} pages, \
             asked for {logical_pages} logical / {physical_pages} physical"
        );
        MappingTable {
            l2p: ChunkedTable::new(logical_pages as usize, UNMAPPED),
            p2l: ChunkedTable::new(physical_pages as usize, UNMAPPED),
            mapped: 0,
        }
    }

    /// Number of logical pages the table covers.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Number of physical pages the table covers.
    pub fn physical_pages(&self) -> u64 {
        self.p2l.len() as u64
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Chunks of [`nssd_sim::table::CHUNK_LEN`] entries the forward and
    /// the reverse map hold memory for.
    pub fn chunks_allocated(&self) -> (usize, usize) {
        (self.l2p.chunks_allocated(), self.p2l.chunks_allocated())
    }

    /// The physical page backing `lpn`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range, except that a release build reads
    /// an index past the end but inside the last chunk as unmapped (see
    /// [`ChunkedTable::get`]).
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        let v = self.l2p.get(lpn.raw() as usize);
        (v != UNMAPPED).then(|| Ppn::new(v as u64))
    }

    /// The logical owner of physical page `ppn`, if it is mapped.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is out of range, except that a release build reads
    /// an index past the end but inside the last chunk as unmapped (see
    /// [`ChunkedTable::get`]).
    pub fn reverse(&self, ppn: Ppn) -> Option<Lpn> {
        let v = self.p2l.get(ppn.raw() as usize);
        (v != UNMAPPED).then(|| Lpn::new(v as u64))
    }

    /// Maps `lpn` to `ppn`, returning the previously mapped physical page
    /// (which the caller must invalidate).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or if `ppn` is already the
    /// backing page of a different LPN (a double-allocation bug).
    pub fn map(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        // Both indices are bounds-checked below against tables shorter than
        // `u32::MAX`, so the narrowing casts never truncate a valid page.
        let (l, p) = (lpn.raw() as usize, ppn.raw() as usize);
        let prev_p = self.p2l.get(p);
        assert!(
            prev_p == UNMAPPED || prev_p as u64 == lpn.raw(),
            "physical page {ppn} already owned by lpn{prev_p}"
        );
        let old = self.l2p.get(l);
        if old != UNMAPPED {
            self.p2l.set(old as usize, UNMAPPED);
        } else {
            self.mapped += 1;
        }
        self.l2p.set(l, p as u32);
        self.p2l.set(p, l as u32);
        (old != UNMAPPED).then(|| Ppn::new(old as u64))
    }

    /// Unmaps `lpn` (trim), returning its former physical page.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        let l = lpn.raw() as usize;
        let old = self.l2p.get(l);
        if old == UNMAPPED {
            return None;
        }
        self.l2p.set(l, UNMAPPED);
        self.p2l.set(old as usize, UNMAPPED);
        self.mapped -= 1;
        Some(Ppn::new(old as u64))
    }

    /// Swaps the backing pages of two mapped LPNs *consistently* — both the
    /// forward and the reverse entries move, so the corruption is invisible
    /// to [`MappingTable::check_consistency`]. This models a silent FTL bug
    /// (data served from the wrong page) and exists solely as a mutation
    /// hook for oracle self-tests.
    ///
    /// # Panics
    ///
    /// Panics if either LPN is unmapped or out of range.
    pub fn debug_swap(&mut self, a: Lpn, b: Lpn) {
        let (a, b) = (a.raw() as usize, b.raw() as usize);
        let (pa, pb) = (self.l2p.get(a), self.l2p.get(b));
        assert!(
            pa != UNMAPPED && pb != UNMAPPED,
            "debug_swap requires two mapped LPNs"
        );
        self.l2p.set(a, pb);
        self.l2p.set(b, pa);
        self.p2l.set(pa as usize, b as u32);
        self.p2l.set(pb as usize, a as u32);
    }

    /// Serializes both direction tables (as dense `u32` slices, the bytes
    /// [`nssd_sim::put_u32_slice`] writes) and the mapped count.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        self.l2p.ckpt_save(w);
        self.p2l.ckpt_save(w);
        w.put_u64(self.mapped);
    }

    /// Restores state saved by [`MappingTable::ckpt_save`] into a table of
    /// the same dimensions, allocating only the chunks that hold mappings.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a dimension mismatch, or a table
    /// that fails the forward/reverse consistency invariant. The table may
    /// then be partly restored and must be discarded.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.l2p.ckpt_load(r, "l2p table")?;
        self.p2l.ckpt_load(r, "p2l table")?;
        self.mapped = r.take_u64()?;
        // Range-check raw entries first so check_consistency cannot index
        // out of bounds on corrupt input.
        let (logical, physical) = (self.l2p.len(), self.p2l.len());
        if self
            .l2p
            .iter()
            .any(|p| p != UNMAPPED && p as usize >= physical)
        {
            return Err(CkptError::Invalid("l2p entry out of physical range".into()));
        }
        if self
            .p2l
            .iter()
            .any(|l| l != UNMAPPED && l as usize >= logical)
        {
            return Err(CkptError::Invalid("p2l entry out of logical range".into()));
        }
        if !self.check_consistency() {
            return Err(CkptError::Invalid(
                "mapping table fails forward/reverse consistency".into(),
            ));
        }
        Ok(())
    }

    /// Checks the forward/reverse consistency invariant; used by tests.
    pub fn check_consistency(&self) -> bool {
        let mut count = 0;
        let forward = self.l2p.iter().enumerate().all(|(l, p)| {
            p == UNMAPPED || {
                count += 1;
                self.p2l.get(p as usize) as usize == l
            }
        });
        forward
            && self
                .p2l
                .iter()
                .enumerate()
                .all(|(p, l)| l == UNMAPPED || self.l2p.get(l as usize) as usize == p)
            && count == self.mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_lookup() {
        let mut m = MappingTable::new(10, 20);
        assert_eq!(m.map(Lpn::new(3), Ppn::new(7)), None);
        assert_eq!(m.lookup(Lpn::new(3)), Some(Ppn::new(7)));
        assert_eq!(m.reverse(Ppn::new(7)), Some(Lpn::new(3)));
        assert_eq!(m.mapped_pages(), 1);
        assert!(m.check_consistency());
    }

    #[test]
    fn remap_returns_old_page_and_releases_it() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(3), Ppn::new(7));
        assert_eq!(m.map(Lpn::new(3), Ppn::new(9)), Some(Ppn::new(7)));
        assert_eq!(m.reverse(Ppn::new(7)), None);
        assert_eq!(m.reverse(Ppn::new(9)), Some(Lpn::new(3)));
        assert_eq!(m.mapped_pages(), 1);
        assert!(m.check_consistency());
    }

    #[test]
    fn unmap_trims() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(2));
        assert_eq!(m.unmap(Lpn::new(1)), Some(Ppn::new(2)));
        assert_eq!(m.unmap(Lpn::new(1)), None);
        assert_eq!(m.mapped_pages(), 0);
        assert!(m.check_consistency());
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_allocation_detected() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(2));
        m.map(Lpn::new(3), Ppn::new(2));
    }

    #[test]
    fn debug_swap_stays_internally_consistent() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(4));
        m.map(Lpn::new(2), Ppn::new(9));
        m.debug_swap(Lpn::new(1), Lpn::new(2));
        // The corruption is real (pages crossed)...
        assert_eq!(m.lookup(Lpn::new(1)), Some(Ppn::new(9)));
        assert_eq!(m.lookup(Lpn::new(2)), Some(Ppn::new(4)));
        // ...but structurally invisible: only a shadow model can see it.
        assert!(m.check_consistency());
    }

    #[test]
    #[should_panic(expected = "two mapped LPNs")]
    fn debug_swap_rejects_unmapped() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(4));
        m.debug_swap(Lpn::new(1), Lpn::new(5));
    }

    #[test]
    fn mapping_same_pair_is_idempotent() {
        let mut m = MappingTable::new(10, 20);
        m.map(Lpn::new(1), Ppn::new(2));
        assert_eq!(m.map(Lpn::new(1), Ppn::new(2)), Some(Ppn::new(2)));
        assert!(m.check_consistency());
    }
}
