//! Page-level logical-to-physical mapping.
//!
//! A dense forward table (LPN → PPN) plus the reverse table (PPN → LPN) that
//! garbage collection needs to find the owner of a valid physical page.
//! Entries are 32-bit — [`nssd_flash::Geometry::validate`] refuses a device
//! of `u32::MAX` pages or more — so the two tables cost 8 bytes of host
//! memory per simulated page, not 16.

use core::fmt;

use nssd_flash::Ppn;
use nssd_sim::{ckpt, CkptError, CkptReader, CkptWriter};

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

/// Dense bidirectional page mapping table with 32-bit entries.
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
    l2p: Vec<u32>,
    p2l: Vec<u32>,
    mapped: u64,
}

impl MappingTable {
    /// Creates an empty table for `logical_pages` LPNs and `physical_pages`
    /// PPNs.
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
            l2p: vec![UNMAPPED; logical_pages as usize],
            p2l: vec![UNMAPPED; physical_pages as usize],
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

    /// The physical page backing `lpn`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        let v = self.l2p[lpn.raw() as usize];
        (v != UNMAPPED).then(|| Ppn::new(v as u64))
    }

    /// The logical owner of physical page `ppn`, if it is mapped.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is out of range.
    pub fn reverse(&self, ppn: Ppn) -> Option<Lpn> {
        let v = self.p2l[ppn.raw() as usize];
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
        let prev_p = self.p2l[ppn.raw() as usize];
        assert!(
            prev_p == UNMAPPED || prev_p as u64 == lpn.raw(),
            "physical page {ppn} already owned by lpn{prev_p}"
        );
        let old = self.l2p[lpn.raw() as usize];
        if old != UNMAPPED {
            self.p2l[old as usize] = UNMAPPED;
        } else {
            self.mapped += 1;
        }
        self.l2p[lpn.raw() as usize] = ppn.raw() as u32;
        self.p2l[ppn.raw() as usize] = lpn.raw() as u32;
        (old != UNMAPPED).then(|| Ppn::new(old as u64))
    }

    /// Unmaps `lpn` (trim), returning its former physical page.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        let old = self.l2p[lpn.raw() as usize];
        if old == UNMAPPED {
            return None;
        }
        self.l2p[lpn.raw() as usize] = UNMAPPED;
        self.p2l[old as usize] = UNMAPPED;
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
        let pa = self.l2p[a.raw() as usize];
        let pb = self.l2p[b.raw() as usize];
        assert!(
            pa != UNMAPPED && pb != UNMAPPED,
            "debug_swap requires two mapped LPNs"
        );
        self.l2p[a.raw() as usize] = pb;
        self.l2p[b.raw() as usize] = pa;
        self.p2l[pa as usize] = b.raw() as u32;
        self.p2l[pb as usize] = a.raw() as u32;
    }

    /// Serializes both direction tables (as `u32`s, straight from the
    /// tables) and the mapped count.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        ckpt::put_u32_slice(w, &self.l2p);
        ckpt::put_u32_slice(w, &self.p2l);
        w.put_u64(self.mapped);
    }

    /// Restores state saved by [`MappingTable::ckpt_save`] into a table of
    /// the same dimensions, decoding in place.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a dimension mismatch, or a table
    /// that fails the forward/reverse consistency invariant. The table may
    /// then be partly restored and must be discarded.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        ckpt::take_u32_slice(r, &mut self.l2p, "l2p table")?;
        ckpt::take_u32_slice(r, &mut self.p2l, "p2l table")?;
        self.mapped = r.take_u64()?;
        // Range-check raw entries first so check_consistency cannot index
        // out of bounds on corrupt input.
        let (logical, physical) = (self.l2p.len(), self.p2l.len());
        if self
            .l2p
            .iter()
            .any(|&p| p != UNMAPPED && p as usize >= physical)
        {
            return Err(CkptError::Invalid("l2p entry out of physical range".into()));
        }
        if self
            .p2l
            .iter()
            .any(|&l| l != UNMAPPED && l as usize >= logical)
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
        for (l, &p) in self.l2p.iter().enumerate() {
            if p != UNMAPPED {
                count += 1;
                if self.p2l[p as usize] as usize != l {
                    return false;
                }
            }
        }
        for (p, &l) in self.p2l.iter().enumerate() {
            if l != UNMAPPED && self.l2p[l as usize] as usize != p {
                return false;
            }
        }
        count == self.mapped
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
