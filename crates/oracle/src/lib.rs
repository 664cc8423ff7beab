//! Timing-free functional shadow model for the Networked SSD simulator.
//!
//! The engine in `nssd-core` answers *when* — the oracle answers *whether*.
//! [`Oracle`] maintains an independent reference page map plus the owner
//! LPN of every physical page (one dense `u32` per page), and is notified,
//! in lockstep, of every functional action the simulator takes: host
//! writes, host reads, GC relocations, erases, retirements. Each read is
//! cross-checked against the page its LPN was last written or relocated
//! to, and that page must still be owned by the LPN; each erase is checked
//! to never wipe a page the shadow still considers live; and a conservation
//! checker verifies that valid + invalid + unwritten + bad pages per plane
//! always sum to the geometric capacity and that erase counts only grow.
//!
//! The oracle never aborts the simulation: violations accumulate in a
//! [`ViolationLog`] and surface in the run report,
//! where tests assert the log is empty (or, for mutation self-tests, that
//! it is not).
//!
//! ```
//! use nssd_ftl::{Ftl, FtlConfig, Lpn};
//! use nssd_oracle::Oracle;
//! use nssd_sim::SimTime;
//!
//! let mut cfg = FtlConfig::evaluation_defaults();
//! cfg.geometry = nssd_flash::Geometry::tiny();
//! cfg.gc.victims_per_trigger = 2;
//! let mut ftl = Ftl::new(cfg)?;
//! let mut oracle = Oracle::new(*ftl.geometry(), ftl.logical_pages());
//!
//! let out = ftl.write(Lpn::new(3))?;
//! oracle.note_host_write(Lpn::new(3), out.ppn, SimTime::ZERO);
//! oracle.check_host_read(Lpn::new(3), ftl.lookup(Lpn::new(3)), SimTime::ZERO);
//! assert!(oracle.violations().is_empty());
//! # Ok::<(), nssd_ftl::FtlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nssd_flash::{Geometry, Pbn, Ppn};
use nssd_ftl::{Ftl, Lpn, Relocation};
use nssd_sim::{ckpt, CkptError, CkptReader, CkptWriter, SimTime, ViolationLog};

/// Shadow sentinel, in both directions: an unmapped L2P entry (the same
/// 32-bit empty entry as the FTL's map) and a page with no owner.
const UNMAPPED: u32 = u32::MAX;

/// A shadow L2P entry as a raw PPN, `u64::MAX` when unmapped (how a
/// violation message prints an unmapped side).
#[inline]
fn widen(raw: u32) -> u64 {
    if raw == UNMAPPED {
        u64::MAX
    } else {
        raw as u64
    }
}

/// SplitMix64 finalizer — the deterministic mixing function behind the
/// functional digest.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// What the oracle observed over a run, embedded in the run report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleSummary {
    /// Whether an oracle ran at all (`false` in the default report).
    pub enabled: bool,
    /// Cross-checks performed (reads verified + invariant sweeps).
    pub checks: u64,
    /// Rendered violations, in detection order (empty = clean run).
    pub violations: Vec<String>,
    /// Order-independent hash of the final functional state — equal across
    /// architectures that carried the same logical workload to the same
    /// functional outcome.
    pub functional_digest: u64,
}

/// The shadow model: reference page map, per-page owners, and the
/// conservation-invariant checker.
///
/// An owner entry is only ever written together with its LPN's L2P entry,
/// and cleared when that LPN moves, so every LPN owns at most one page, its
/// shadow home. A page owned by the LPN being read therefore holds that
/// LPN's latest write: no per-write content token is needed to tell.
#[derive(Debug, Clone)]
pub struct Oracle {
    geometry: Geometry,
    logical_pages: u64,
    /// Shadow L2P: raw PPN per LPN, [`UNMAPPED`] when never written. 32-bit
    /// like the FTL's own map (a valid geometry has fewer than `u32::MAX`
    /// pages).
    l2p: Vec<u32>,
    /// Host writes observed per LPN (the digest input).
    writes: Vec<u64>,
    /// Shadow physical state: the owner raw LPN of each raw PPN,
    /// [`UNMAPPED`] where the shadow holds no content.
    phys: Vec<u32>,
    /// Erase-count snapshot from the previous invariant sweep.
    last_erase_counts: Vec<u32>,
    checks: u64,
    log: ViolationLog,
}

impl Oracle {
    /// Creates a shadow model of an erased device.
    pub fn new(geometry: Geometry, logical_pages: u64) -> Self {
        Oracle {
            geometry,
            logical_pages,
            l2p: vec![UNMAPPED; logical_pages as usize],
            writes: vec![0; logical_pages as usize],
            phys: vec![UNMAPPED; geometry.page_count() as usize],
            last_erase_counts: vec![0; geometry.block_count() as usize],
            checks: 0,
            log: ViolationLog::new(),
        }
    }

    /// Adopts the FTL's current mapping wholesale — the trusted-resync path
    /// for state built outside the observed event stream (preconditioning
    /// before `run()`, pages lost with a failed chip). Where two LPNs share
    /// a page, the higher one owns it. Write counters are untouched.
    pub fn sync_from_ftl(&mut self, ftl: &Ftl) {
        self.phys.fill(UNMAPPED);
        for (l, home) in self.l2p.iter_mut().enumerate() {
            *home = match ftl.lookup(Lpn::new(l as u64)) {
                Some(ppn) => {
                    self.phys[ppn.raw() as usize] = l as u32;
                    ppn.raw() as u32
                }
                None => UNMAPPED,
            };
        }
        self.last_erase_counts = ftl.blocks().erase_counts();
    }

    /// Records a host write of `lpn` onto `ppn`, which it now owns. Fires if
    /// `ppn` is still the live home of a *different* LPN — a double
    /// allocation the mapping table itself might miss.
    pub fn note_host_write(&mut self, lpn: Lpn, ppn: Ppn, at: SimTime) {
        let l = lpn.raw() as usize;
        let p = ppn.raw() as u32;
        let owner = self.phys[p as usize];
        if owner != UNMAPPED && owner as usize != l && self.l2p[owner as usize] == p {
            self.log.report(
                "write-double-alloc",
                at,
                format!("{ppn} written for {lpn} but still live for lpn{owner}"),
            );
        }
        let old = self.l2p[l];
        if old != UNMAPPED {
            self.phys[old as usize] = UNMAPPED;
        }
        self.l2p[l] = p;
        self.writes[l] += 1;
        self.phys[p as usize] = l as u32;
    }

    /// Cross-checks a host read at issue time: the translation the real FTL
    /// produced (`ppn`, `None` = unmapped) must match the shadow map, and
    /// the physical page must still be owned by `lpn` — anything else is
    /// data served from the wrong place.
    pub fn check_host_read(&mut self, lpn: Lpn, ppn: Option<Ppn>, at: SimTime) {
        self.checks += 1;
        let shadow = widen(self.l2p[lpn.raw() as usize]);
        match ppn {
            None if shadow == u64::MAX => {}
            None => self.log.report(
                "read-mapping",
                at,
                format!("{lpn} read as unmapped but shadow maps it to ppn{shadow}"),
            ),
            Some(p) if shadow == u64::MAX => self.log.report(
                "read-mapping",
                at,
                format!("never-written {lpn} served from {p}"),
            ),
            Some(p) if p.raw() != shadow => self.log.report(
                "read-mapping",
                at,
                format!("{lpn} served from {p} but shadow maps it to ppn{shadow}"),
            ),
            Some(p) => match self.phys[p.raw() as usize] {
                owner if owner as u64 == lpn.raw() => {}
                UNMAPPED => self.log.report(
                    "read-content",
                    at,
                    format!("{p} read for {lpn} but the shadow has no content there"),
                ),
                owner => self.log.report(
                    "read-content",
                    at,
                    format!("{p} read for {lpn} but holds lpn{owner}'s data"),
                ),
            },
        }
    }

    /// Records a GC relocation: the source must be the shadow's current home
    /// of the LPN (else the collector copied a stale page), and ownership
    /// moves from the shadow home to the destination.
    pub fn note_relocation(&mut self, rel: Relocation, at: SimTime) {
        let l = rel.lpn.raw() as usize;
        let shadow = self.l2p[l];
        if widen(shadow) != rel.src.raw() {
            self.log.report(
                "relocation-source",
                at,
                format!(
                    "{} relocated from {} but shadow maps it to ppn{}",
                    rel.lpn,
                    rel.src,
                    widen(shadow)
                ),
            );
        }
        if shadow != UNMAPPED {
            self.phys[shadow as usize] = UNMAPPED;
        }
        self.l2p[l] = rel.dst.raw() as u32;
        self.phys[rel.dst.raw() as usize] = l as u32;
    }

    /// Checks and records a block erase: no page of `pbn` may still be the
    /// shadow's live home of any LPN — GC must have relocated everything.
    /// The block's shadow content is purged either way.
    pub fn note_erase(&mut self, pbn: Pbn, at: SimTime) {
        self.check_block_gone(pbn, "erase-live-page", at);
    }

    /// Same check as [`Oracle::note_erase`], for a block retired (grown
    /// bad) instead of freed.
    pub fn note_retire(&mut self, pbn: Pbn, at: SimTime) {
        self.check_block_gone(pbn, "retire-live-page", at);
    }

    fn check_block_gone(&mut self, pbn: Pbn, invariant: &'static str, at: SimTime) {
        self.checks += 1;
        for ppn in self.geometry.block_ppns(pbn) {
            let p = ppn.raw() as usize;
            let owner = std::mem::replace(&mut self.phys[p], UNMAPPED);
            if owner != UNMAPPED && self.l2p[owner as usize] as usize == p {
                self.log.report(
                    invariant,
                    at,
                    format!("{pbn} wiped {ppn}, still live for lpn{owner}"),
                );
                self.l2p[owner as usize] = UNMAPPED;
            }
        }
    }

    /// Conservation sweep over the real FTL: structural block/mapping
    /// invariants, per-plane page conservation, and erase-count
    /// monotonicity against the previous sweep's snapshot.
    pub fn check_invariants(&mut self, ftl: &Ftl, at: SimTime) {
        self.checks += 1;
        for problem in ftl.check_invariants() {
            self.log.report("ftl-structural", at, problem);
        }
        let counts = ftl.blocks().erase_counts();
        for (raw, (&now, &before)) in counts.iter().zip(&self.last_erase_counts).enumerate() {
            if now < before {
                self.log.report(
                    "erase-count-monotone",
                    at,
                    format!(
                        "{} erase count fell from {before} to {now}",
                        Pbn::new(raw as u64)
                    ),
                );
            }
        }
        self.last_erase_counts = counts;
    }

    /// End-of-run sweep: every LPN's real translation must equal the shadow
    /// map, plus a final conservation sweep.
    pub fn final_check(&mut self, ftl: &Ftl, at: SimTime) {
        self.check_invariants(ftl, at);
        self.checks += 1;
        for l in 0..self.logical_pages {
            let lpn = Lpn::new(l);
            let real = ftl.lookup(lpn).map(Ppn::raw).unwrap_or(u64::MAX);
            let shadow = widen(self.l2p[l as usize]);
            if real != shadow {
                self.log.report(
                    "final-mapping",
                    at,
                    format!("{lpn}: ftl says {real}, shadow says {shadow} (raw ppn)"),
                );
            }
        }
    }

    /// Hash of the final functional state — per-LPN write counts and
    /// mapped-ness, folded in LPN order. Timing, placement, and commit
    /// interleaving between *different* LPNs do not enter, so packetized
    /// and dedicated backends driving the same logical workload must agree.
    pub fn functional_digest(&self) -> u64 {
        let mut h = mix(self.logical_pages);
        for l in 0..self.logical_pages as usize {
            let mapped = (self.l2p[l] != UNMAPPED) as u64;
            if self.writes[l] != 0 || mapped != 0 {
                h = mix(h ^ mix(l as u64) ^ mix(self.writes[l].wrapping_mul(3)) ^ mapped);
            }
        }
        h
    }

    /// Serializes the shadow model as dense slices — the L2P map, the write
    /// counters, the owner of every physical page and the erase-count
    /// snapshot — then the check count and the violation log. Its size
    /// depends on the geometry alone, not on how many pages are mapped.
    /// Geometry and logical-page count are not written — restore targets an
    /// [`Oracle::new`]-built instance of the same shape.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        ckpt::put_u32_slice(w, &self.l2p);
        ckpt::put_u64_slice(w, &self.writes);
        ckpt::put_u32_slice(w, &self.phys);
        ckpt::put_u32_slice(w, &self.last_erase_counts);
        w.put_u64(self.checks);
        self.log.ckpt_save(w);
    }

    /// Restores state saved by [`Oracle::ckpt_save`] into a shadow model of
    /// the same geometry, decoding in place.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a slice whose length does not match
    /// the geometry, a shadow home beyond the device, or a page owner
    /// beyond the logical space. The model may then be partly restored and
    /// must be discarded.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let page_count = self.geometry.page_count();
        ckpt::take_u32_slice(r, &mut self.l2p, "oracle l2p")?;
        if let Some((l, &ppn)) = self
            .l2p
            .iter()
            .enumerate()
            .find(|&(_, &p)| p != UNMAPPED && p as u64 >= page_count)
        {
            return Err(CkptError::Invalid(format!(
                "oracle shadow home ppn{ppn} of lpn{l} beyond device capacity {page_count}"
            )));
        }
        ckpt::take_u64_slice(r, &mut self.writes, "oracle write counts")?;
        ckpt::take_u32_slice(r, &mut self.phys, "oracle shadow pages")?;
        if let Some((ppn, &owner)) = self
            .phys
            .iter()
            .enumerate()
            .find(|&(_, &o)| o != UNMAPPED && o as u64 >= self.logical_pages)
        {
            return Err(CkptError::Invalid(format!(
                "oracle shadow owner lpn{owner} of ppn{ppn} beyond logical space {}",
                self.logical_pages
            )));
        }
        ckpt::take_u32_slice(r, &mut self.last_erase_counts, "oracle erase snapshot")?;
        self.checks = r.take_u64()?;
        self.log = ViolationLog::ckpt_load(r)?;
        Ok(())
    }

    /// The violation log accumulated so far.
    pub fn violations(&self) -> &ViolationLog {
        &self.log
    }

    /// Cross-checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Condenses the oracle's observations for the run report.
    pub fn summary(&self) -> OracleSummary {
        OracleSummary {
            enabled: true,
            checks: self.checks,
            violations: self.log.render(),
            functional_digest: self.functional_digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nssd_ftl::{FtlConfig, GcStream, WayMask};
    use nssd_sim::DetRng;

    fn tiny_pair() -> (Ftl, Oracle) {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        let ftl = Ftl::new(cfg).unwrap();
        let oracle = Oracle::new(*ftl.geometry(), ftl.logical_pages());
        (ftl, oracle)
    }

    #[test]
    fn clean_write_read_cycle_has_no_violations() {
        let (mut ftl, mut oracle) = tiny_pair();
        for l in 0..32 {
            let out = ftl.write(Lpn::new(l)).unwrap();
            oracle.note_host_write(Lpn::new(l), out.ppn, SimTime::from_ns(l));
        }
        for l in 0..40 {
            let lpn = Lpn::new(l);
            oracle.check_host_read(lpn, ftl.lookup(lpn), SimTime::from_ns(100 + l));
        }
        oracle.final_check(&ftl, SimTime::from_ns(1000));
        assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());
        assert!(oracle.checks() > 40);
    }

    #[test]
    fn lockstep_gc_stays_clean() {
        let (mut ftl, mut oracle) = tiny_pair();
        let mut rng = DetRng::seed_from_u64(5);
        let logical = ftl.logical_pages();
        let mut t = 0u64;
        // Overwrite churn until GC has run several times, all observed.
        for i in 0..logical * 4 {
            let lpn = Lpn::new(i % (logical / 2).max(1));
            if ftl.needs_gc() {
                let mut reloc_notes = Vec::new();
                let mut erase_notes = Vec::new();
                ftl.instant_gc_with(&mut rng, &mut |rel| reloc_notes.push(rel), &mut |pbn| {
                    erase_notes.push(pbn)
                })
                .unwrap();
                // Hooks preserve FTL order: relocations of a victim land
                // before its erase, and victims finish one at a time, so
                // replaying grouped-by-kind is only safe per trigger when
                // each erase's copies are all in `reloc_notes` — which
                // instant_gc guarantees (it fully drains a victim first).
                for rel in reloc_notes {
                    oracle.note_relocation(rel, SimTime::from_ns(t));
                }
                for pbn in erase_notes {
                    oracle.note_erase(pbn, SimTime::from_ns(t));
                }
            }
            let out = ftl.write(lpn).unwrap();
            oracle.note_host_write(lpn, out.ppn, SimTime::from_ns(t));
            t += 1;
        }
        oracle.check_invariants(&ftl, SimTime::from_ns(t));
        oracle.final_check(&ftl, SimTime::from_ns(t));
        assert!(ftl.stats().erases > 0, "churn never triggered GC");
        assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());
    }

    #[test]
    fn swapped_mapping_fires_read_check() {
        let (mut ftl, mut oracle) = tiny_pair();
        for l in 0..2 {
            let out = ftl.write(Lpn::new(l)).unwrap();
            oracle.note_host_write(Lpn::new(l), out.ppn, SimTime::ZERO);
        }
        ftl.debug_swap_mapping(Lpn::new(0), Lpn::new(1));
        // The FTL's own structural check cannot see the corruption...
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // ...the shadow model can.
        oracle.check_host_read(Lpn::new(0), ftl.lookup(Lpn::new(0)), SimTime::from_ns(1));
        assert_eq!(oracle.violations().len(), 1);
        assert_eq!(
            oracle.violations().iter().next().unwrap().invariant,
            "read-mapping"
        );
    }

    #[test]
    fn dropped_gc_copy_fires_on_erase_and_read() {
        let (mut ftl, mut oracle) = tiny_pair();
        let out = ftl.write(Lpn::new(7)).unwrap();
        oracle.note_host_write(Lpn::new(7), out.ppn, SimTime::ZERO);
        // GC moves the page for real, but the observation is "lost" — the
        // copy never happened as far as the shadow knows.
        let all = WayMask::all(ftl.geometry().ways);
        let rel = ftl
            .relocate_to(Lpn::new(7), out.ppn, all, GcStream::Gc)
            .unwrap()
            .unwrap();
        let victim = ftl.geometry().pbn_of(rel.src);
        ftl.erase_block(victim);
        oracle.note_erase(victim, SimTime::from_ns(1));
        let erase_fired = oracle.violations().len();
        assert_eq!(erase_fired, 1, "{:?}", oracle.violations());
        assert_eq!(
            oracle.violations().iter().next().unwrap().invariant,
            "erase-live-page"
        );
        // And the next read of the LPN cannot check out either.
        oracle.check_host_read(Lpn::new(7), ftl.lookup(Lpn::new(7)), SimTime::from_ns(2));
        assert!(oracle.violations().len() > erase_fired);
    }

    #[test]
    fn sync_from_ftl_adopts_preconditioned_state() {
        let (mut ftl, mut oracle) = tiny_pair();
        let mut rng = DetRng::seed_from_u64(11);
        ftl.precondition(0.8, 0.4, &mut rng).unwrap();
        oracle.sync_from_ftl(&ftl);
        for l in 0..ftl.logical_pages() {
            let lpn = Lpn::new(l);
            oracle.check_host_read(lpn, ftl.lookup(lpn), SimTime::ZERO);
        }
        oracle.final_check(&ftl, SimTime::from_ns(1));
        assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());
    }

    #[test]
    fn functional_digest_ignores_placement_but_not_content() {
        let (mut a, mut oa) = tiny_pair();
        let (mut b, mut ob) = tiny_pair();
        // Same logical writes, different physical interleaving: b writes a
        // decoy first and trims it, so placements diverge.
        let decoy = Lpn::new(50);
        let d = b.write(decoy).unwrap();
        ob.note_host_write(decoy, d.ppn, SimTime::ZERO);
        for l in 0..16 {
            let wa = a.write(Lpn::new(l)).unwrap();
            oa.note_host_write(Lpn::new(l), wa.ppn, SimTime::ZERO);
            let wb = b.write(Lpn::new(l)).unwrap();
            ob.note_host_write(Lpn::new(l), wb.ppn, SimTime::ZERO);
        }
        // Digests differ while the decoy is extant...
        assert_ne!(oa.functional_digest(), ob.functional_digest());
        // ...and still differ after trim (write counts are part of history).
        b.trim(decoy).unwrap();
        ob.l2p[decoy.raw() as usize] = UNMAPPED;
        assert_ne!(oa.functional_digest(), ob.functional_digest());
        // Identical histories agree despite different physical placement.
        let (mut c, mut oc) = tiny_pair();
        // c shifts its physical placement with an unobserved scratch write.
        c.write(Lpn::new(99)).unwrap();
        c.trim(Lpn::new(99)).unwrap();
        for l in 0..16 {
            let wc = c.write(Lpn::new(l)).unwrap();
            oc.note_host_write(Lpn::new(l), wc.ppn, SimTime::ZERO);
        }
        assert_eq!(oa.functional_digest(), oc.functional_digest());
    }

    fn saved(oracle: &Oracle) -> Vec<u8> {
        let mut w = CkptWriter::new();
        oracle.ckpt_save(&mut w);
        w.into_bytes()
    }

    /// Decodes a saved oracle as four slices of the geometry's lengths —
    /// L2P and write counts per logical page, owners per physical page,
    /// erase counts per block — then the check count and violation log.
    fn dense_slices(bytes: &[u8], g: &Geometry, logical: usize) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
        let mut r = CkptReader::new(bytes);
        let (mut l2p, mut writes) = (vec![0; logical], vec![0; logical]);
        let mut phys = vec![0; g.page_count() as usize];
        let mut erases = vec![0; g.block_count() as usize];
        ckpt::take_u32_slice(&mut r, &mut l2p, "l2p").unwrap();
        ckpt::take_u64_slice(&mut r, &mut writes, "writes").unwrap();
        ckpt::take_u32_slice(&mut r, &mut phys, "owners").unwrap();
        ckpt::take_u32_slice(&mut r, &mut erases, "erases").unwrap();
        r.take_u64().unwrap();
        ViolationLog::ckpt_load(&mut r).unwrap();
        r.finish().unwrap();
        (l2p, writes, phys)
    }

    #[test]
    fn checkpoint_is_dense_however_many_pages_are_mapped() {
        let (mut ftl, mut oracle) = tiny_pair();
        let g = *ftl.geometry();
        let logical = ftl.logical_pages() as usize;
        let check = |oracle: &Oracle, what: &str| {
            let bytes = saved(oracle);
            let (l2p, writes, phys) = dense_slices(&bytes, &g, logical);
            assert_eq!(
                (l2p, writes, phys),
                (
                    oracle.l2p.clone(),
                    oracle.writes.clone(),
                    oracle.phys.clone()
                ),
                "{what}"
            );
            let mut back = Oracle::new(g, logical as u64);
            back.ckpt_load(&mut CkptReader::new(&bytes)).unwrap();
            assert_eq!(saved(&back), bytes, "{what}");
            bytes.len()
        };
        // Nothing mapped: each slice is its length and one run (at most
        // a first entry, a zero and a run length: 5 + 1 + 4 bytes).
        let mut log = CkptWriter::new();
        ViolationLog::new().ckpt_save(&mut log);
        let empty = check(&oracle, "nothing mapped");
        assert!(empty <= 4 * (8 + 10) + 8 + log.len(), "{empty} bytes");
        for l in 0..logical as u64 / 2 {
            let out = ftl.write(Lpn::new(l)).unwrap();
            oracle.note_host_write(Lpn::new(l), out.ppn, SimTime::ZERO);
        }
        let half = check(&oracle, "half mapped");
        let mut rng = DetRng::seed_from_u64(3);
        ftl.precondition(1.0, 0.5, &mut rng).unwrap();
        oracle.sync_from_ftl(&ftl);
        let all = check(&oracle, "all mapped");
        assert!(empty < half && half < all, "{empty} {half} {all}");
    }

    #[test]
    fn load_refuses_a_home_beyond_the_device_or_an_owner_beyond_the_logical_space() {
        let (mut ftl, mut oracle) = tiny_pair();
        let out = ftl.write(Lpn::new(0)).unwrap();
        oracle.note_host_write(Lpn::new(0), out.ppn, SimTime::ZERO);
        let logical = ftl.logical_pages();
        let pages = ftl.geometry().page_count();
        let ppn = out.ppn.raw() as usize;
        assert_eq!((oracle.l2p[0], oracle.phys[ppn]), (ppn as u32, 0));
        // lpn0's shadow home, then ppn's owner, each pushed just out of
        // range and saved through the codec.
        let mut far_home = oracle.clone();
        far_home.l2p[0] = pages as u32;
        let mut far_owner = oracle.clone();
        far_owner.phys[ppn] = logical as u32;
        for (corrupt, message) in [
            (far_home, "beyond device capacity"),
            (far_owner, "beyond logical space"),
        ] {
            let mut back = Oracle::new(*ftl.geometry(), logical);
            let err = back
                .ckpt_load(&mut CkptReader::new(&saved(&corrupt)))
                .unwrap_err();
            assert!(err.to_string().contains(message), "got {err}");
        }
    }

    #[test]
    fn summary_reports_enabled_checks_and_digest() {
        let (mut ftl, mut oracle) = tiny_pair();
        let out = ftl.write(Lpn::new(0)).unwrap();
        oracle.note_host_write(Lpn::new(0), out.ppn, SimTime::ZERO);
        oracle.check_host_read(Lpn::new(0), ftl.lookup(Lpn::new(0)), SimTime::ZERO);
        let s = oracle.summary();
        assert!(s.enabled);
        assert_eq!(s.checks, 1);
        assert!(s.violations.is_empty());
        assert_eq!(s.functional_digest, oracle.functional_digest());
        assert_ne!(s, OracleSummary::default());
    }
}
