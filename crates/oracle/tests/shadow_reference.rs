//! Reference-model test for the dense shadow oracle.
//!
//! `Oracle` keeps the owner LPN of every physical page in one dense array
//! and no content tokens. The reference below is the model it replaced: a
//! hash map from each shadowed page to its owner and a content token, and a
//! per-LPN token that every host write draws afresh. Seeded streams over a
//! real tiny-geometry FTL drive both through the same calls (host writes
//! and reads, observed GC, invariant sweeps) with planted faults mixed in:
//! writes onto another LPN's live page, relocations from a stale source or
//! onto another LPN's live page, relocations the oracle never sees,
//! `debug_swap_mapping`, erasing or retiring a live block, a `fail_chip`
//! followed by `sync_from_ftl`, and checkpoint round trips in the middle of
//! a stream. After every call both summaries must be equal: the violations
//! in order, the check count and the functional digest. At each round trip,
//! and at the end of each stream, both must also hold the same state: the
//! reference's pages, laid out as owners, save to the dense oracle's bytes.

use std::collections::{BTreeSet, HashMap};

use nssd_flash::{Geometry, Pbn, Ppn};
use nssd_ftl::{Ftl, FtlConfig, GcStream, Lpn, Relocation, WayMask};
use nssd_oracle::{Oracle, OracleSummary};
use nssd_sim::{ckpt, CkptError, CkptReader, CkptWriter, DetRng, Rng, SimTime, ViolationLog};

/// Seeded cases; deep under `heavy-tests`.
const CASES: usize = if cfg!(feature = "heavy-tests") {
    192
} else {
    24
};

/// Calls per case.
const OPS: u64 = if cfg!(feature = "heavy-tests") {
    1200
} else {
    600
};

const UNMAPPED: u32 = u32::MAX;

fn widen(raw: u32) -> u64 {
    if raw == UNMAPPED {
        u64::MAX
    } else {
        raw as u64
    }
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The shadow model with a sparse page map and content tokens, as it was
/// before the owner array replaced both.
struct Reference {
    geometry: Geometry,
    logical_pages: u64,
    l2p: Vec<u32>,
    token: Vec<u64>,
    writes: Vec<u64>,
    /// Raw PPN → (owner raw LPN, content token).
    phys: HashMap<u64, (u64, u64)>,
    last_erase_counts: Vec<u32>,
    write_seq: u64,
    checks: u64,
    log: ViolationLog,
}

impl Reference {
    fn new(geometry: Geometry, logical_pages: u64) -> Self {
        Reference {
            geometry,
            logical_pages,
            l2p: vec![UNMAPPED; logical_pages as usize],
            token: vec![0; logical_pages as usize],
            writes: vec![0; logical_pages as usize],
            phys: HashMap::new(),
            last_erase_counts: vec![0; geometry.block_count() as usize],
            write_seq: 0,
            checks: 0,
            log: ViolationLog::new(),
        }
    }

    fn sync_from_ftl(&mut self, ftl: &Ftl) {
        self.phys.clear();
        for l in 0..self.logical_pages {
            match ftl.lookup(Lpn::new(l)) {
                Some(ppn) => {
                    if self.l2p[l as usize] == UNMAPPED {
                        self.write_seq += 1;
                        self.token[l as usize] = mix(l ^ mix(self.write_seq));
                    }
                    self.l2p[l as usize] = ppn.raw() as u32;
                    self.phys.insert(ppn.raw(), (l, self.token[l as usize]));
                }
                None => {
                    self.l2p[l as usize] = UNMAPPED;
                    self.token[l as usize] = 0;
                }
            }
        }
        self.last_erase_counts = ftl.blocks().erase_counts();
    }

    fn note_host_write(&mut self, lpn: Lpn, ppn: Ppn, at: SimTime) {
        let l = lpn.raw() as usize;
        if let Some(&(owner, _)) = self.phys.get(&ppn.raw()) {
            if owner != lpn.raw() && widen(self.l2p[owner as usize]) == ppn.raw() {
                self.log.report(
                    "write-double-alloc",
                    at,
                    format!("{ppn} written for {lpn} but still live for lpn{owner}"),
                );
            }
        }
        let old = self.l2p[l];
        if old != UNMAPPED {
            self.phys.remove(&(old as u64));
        }
        self.write_seq += 1;
        let token = mix(lpn.raw() ^ mix(self.write_seq));
        self.l2p[l] = ppn.raw() as u32;
        self.token[l] = token;
        self.writes[l] += 1;
        self.phys.insert(ppn.raw(), (lpn.raw(), token));
    }

    fn check_host_read(&mut self, lpn: Lpn, ppn: Option<Ppn>, at: SimTime) {
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
            Some(p) => match self.phys.get(&p.raw()) {
                Some(&(owner, tok))
                    if owner == lpn.raw() && tok == self.token[lpn.raw() as usize] => {}
                Some(&(owner, _)) => self.log.report(
                    "read-content",
                    at,
                    format!("{p} read for {lpn} but holds lpn{owner}'s data"),
                ),
                None => self.log.report(
                    "read-content",
                    at,
                    format!("{p} read for {lpn} but the shadow has no content there"),
                ),
            },
        }
    }

    fn note_relocation(&mut self, rel: Relocation, at: SimTime) {
        let l = rel.lpn.raw() as usize;
        let shadow = widen(self.l2p[l]);
        if shadow != rel.src.raw() {
            self.log.report(
                "relocation-source",
                at,
                format!(
                    "{} relocated from {} but shadow maps it to ppn{shadow}",
                    rel.lpn, rel.src
                ),
            );
        }
        self.phys.remove(&shadow);
        self.l2p[l] = rel.dst.raw() as u32;
        self.phys
            .insert(rel.dst.raw(), (rel.lpn.raw(), self.token[l]));
    }

    fn check_block_gone(&mut self, pbn: Pbn, invariant: &'static str, at: SimTime) {
        self.checks += 1;
        for ppn in self.geometry.block_ppns(pbn) {
            if let Some(&(owner, _)) = self.phys.get(&ppn.raw()) {
                if widen(self.l2p[owner as usize]) == ppn.raw() {
                    self.log.report(
                        invariant,
                        at,
                        format!("{pbn} wiped {ppn}, still live for lpn{owner}"),
                    );
                    self.l2p[owner as usize] = UNMAPPED;
                }
            }
            self.phys.remove(&ppn.raw());
        }
    }

    fn check_invariants(&mut self, ftl: &Ftl, at: SimTime) {
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

    fn final_check(&mut self, ftl: &Ftl, at: SimTime) {
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

    fn functional_digest(&self) -> u64 {
        let mut h = mix(self.logical_pages);
        for l in 0..self.logical_pages as usize {
            let mapped = (self.l2p[l] != UNMAPPED) as u64;
            if self.writes[l] != 0 || mapped != 0 {
                h = mix(h ^ mix(l as u64) ^ mix(self.writes[l].wrapping_mul(3)) ^ mapped);
            }
        }
        h
    }

    /// The envelope v7 oracle section: sorted `(ppn, lpn, token)` triples.
    fn ckpt_save(&self, w: &mut CkptWriter) {
        ckpt::put_u32_slice(w, &self.l2p);
        ckpt::put_u64_slice(w, &self.token);
        ckpt::put_u64_slice(w, &self.writes);
        let mut phys: Vec<(u64, (u64, u64))> = self.phys.iter().map(|(&k, &v)| (k, v)).collect();
        phys.sort_unstable_by_key(|&(k, _)| k);
        w.put_usize(phys.len());
        for (ppn, (lpn, tok)) in phys {
            w.put_u64(ppn);
            w.put_u64(lpn);
            w.put_u64(tok);
        }
        ckpt::put_u32_slice(w, &self.last_erase_counts);
        w.put_u64(self.write_seq);
        w.put_u64(self.checks);
        self.log.ckpt_save(w);
    }

    fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        ckpt::take_u32_slice(r, &mut self.l2p, "oracle l2p")?;
        ckpt::take_u64_slice(r, &mut self.token, "oracle tokens")?;
        ckpt::take_u64_slice(r, &mut self.writes, "oracle write counts")?;
        let n = r.take_count(24)?;
        self.phys = HashMap::with_capacity(n);
        for _ in 0..n {
            let ppn = r.take_u64()?;
            let lpn = r.take_u64()?;
            let tok = r.take_u64()?;
            self.phys.insert(ppn, (lpn, tok));
        }
        ckpt::take_u32_slice(r, &mut self.last_erase_counts, "oracle erase snapshot")?;
        self.write_seq = r.take_u64()?;
        self.checks = r.take_u64()?;
        self.log = ViolationLog::ckpt_load(r)?;
        Ok(())
    }

    /// The same state in the dense oracle's checkpoint layout: each page's
    /// owner in place of the triples, and no tokens.
    fn ckpt_save_dense(&self, w: &mut CkptWriter) {
        let mut owners = vec![UNMAPPED; self.geometry.page_count() as usize];
        for (&ppn, &(lpn, _)) in &self.phys {
            owners[ppn as usize] = lpn as u32;
        }
        ckpt::put_u32_slice(w, &self.l2p);
        ckpt::put_u64_slice(w, &self.writes);
        ckpt::put_u32_slice(w, &owners);
        ckpt::put_u32_slice(w, &self.last_erase_counts);
        w.put_u64(self.checks);
        self.log.ckpt_save(w);
    }

    fn summary(&self) -> OracleSummary {
        OracleSummary {
            enabled: true,
            checks: self.checks,
            violations: self.log.render(),
            functional_digest: self.functional_digest(),
        }
    }
}

/// The calls a stream makes, on either model.
trait Shadow {
    fn sync_from_ftl(&mut self, ftl: &Ftl);
    fn note_host_write(&mut self, lpn: Lpn, ppn: Ppn, at: SimTime);
    fn check_host_read(&mut self, lpn: Lpn, ppn: Option<Ppn>, at: SimTime);
    fn note_relocation(&mut self, rel: Relocation, at: SimTime);
    fn note_erase(&mut self, pbn: Pbn, at: SimTime);
    fn note_retire(&mut self, pbn: Pbn, at: SimTime);
    fn check_invariants(&mut self, ftl: &Ftl, at: SimTime);
    fn final_check(&mut self, ftl: &Ftl, at: SimTime);
}

impl Shadow for Oracle {
    fn sync_from_ftl(&mut self, ftl: &Ftl) {
        Oracle::sync_from_ftl(self, ftl)
    }
    fn note_host_write(&mut self, lpn: Lpn, ppn: Ppn, at: SimTime) {
        Oracle::note_host_write(self, lpn, ppn, at)
    }
    fn check_host_read(&mut self, lpn: Lpn, ppn: Option<Ppn>, at: SimTime) {
        Oracle::check_host_read(self, lpn, ppn, at)
    }
    fn note_relocation(&mut self, rel: Relocation, at: SimTime) {
        Oracle::note_relocation(self, rel, at)
    }
    fn note_erase(&mut self, pbn: Pbn, at: SimTime) {
        Oracle::note_erase(self, pbn, at)
    }
    fn note_retire(&mut self, pbn: Pbn, at: SimTime) {
        Oracle::note_retire(self, pbn, at)
    }
    fn check_invariants(&mut self, ftl: &Ftl, at: SimTime) {
        Oracle::check_invariants(self, ftl, at)
    }
    fn final_check(&mut self, ftl: &Ftl, at: SimTime) {
        Oracle::final_check(self, ftl, at)
    }
}

impl Shadow for Reference {
    fn sync_from_ftl(&mut self, ftl: &Ftl) {
        Reference::sync_from_ftl(self, ftl)
    }
    fn note_host_write(&mut self, lpn: Lpn, ppn: Ppn, at: SimTime) {
        Reference::note_host_write(self, lpn, ppn, at)
    }
    fn check_host_read(&mut self, lpn: Lpn, ppn: Option<Ppn>, at: SimTime) {
        Reference::check_host_read(self, lpn, ppn, at)
    }
    fn note_relocation(&mut self, rel: Relocation, at: SimTime) {
        Reference::note_relocation(self, rel, at)
    }
    fn note_erase(&mut self, pbn: Pbn, at: SimTime) {
        self.check_block_gone(pbn, "erase-live-page", at)
    }
    fn note_retire(&mut self, pbn: Pbn, at: SimTime) {
        self.check_block_gone(pbn, "retire-live-page", at)
    }
    fn check_invariants(&mut self, ftl: &Ftl, at: SimTime) {
        Reference::check_invariants(self, ftl, at)
    }
    fn final_check(&mut self, ftl: &Ftl, at: SimTime) {
        Reference::final_check(self, ftl, at)
    }
}

/// Both models, fed the same calls and compared after each one.
struct Pair {
    geometry: Geometry,
    logical: u64,
    dense: Oracle,
    reference: Reference,
    /// Case and call number, for a failure message.
    at: (usize, u64),
}

impl Pair {
    fn new(ftl: &Ftl, case: usize) -> Self {
        let (geometry, logical) = (*ftl.geometry(), ftl.logical_pages());
        Pair {
            geometry,
            logical,
            dense: Oracle::new(geometry, logical),
            reference: Reference::new(geometry, logical),
            at: (case, 0),
        }
    }

    fn call(&mut self, what: &str, f: impl Fn(&mut dyn Shadow)) {
        f(&mut self.dense);
        f(&mut self.reference);
        self.compare(what);
    }

    fn compare(&self, what: &str) {
        assert_eq!(
            self.dense.summary(),
            self.reference.summary(),
            "case {} call {}: {what}",
            self.at.0,
            self.at.1
        );
    }

    /// Saves both models, checks that they hold the same state, and
    /// continues from freshly restored copies.
    fn round_trip(&mut self) {
        let mut w = CkptWriter::new();
        self.dense.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let mut projected = CkptWriter::new();
        self.reference.ckpt_save_dense(&mut projected);
        assert!(
            projected.into_bytes() == bytes,
            "case {} call {}: the two models hold different state",
            self.at.0,
            self.at.1
        );
        let mut dense = Oracle::new(self.geometry, self.logical);
        let mut r = CkptReader::new(&bytes);
        dense.ckpt_load(&mut r).expect("dense checkpoint loads");
        assert_eq!(r.remaining(), 0, "dense checkpoint has trailing bytes");
        let mut again = CkptWriter::new();
        dense.ckpt_save(&mut again);
        assert_eq!(again.into_bytes(), bytes, "save∘load ≠ identity");
        self.dense = dense;

        let mut w = CkptWriter::new();
        self.reference.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let mut reference = Reference::new(self.geometry, self.logical);
        reference
            .ckpt_load(&mut CkptReader::new(&bytes))
            .expect("reference checkpoint loads");
        self.reference = reference;
        self.compare("checkpoint round trip");
    }
}

/// A case's device: the tiny geometry or a narrower variant of it.
fn device(rng: &mut DetRng) -> Ftl {
    let mut cfg = FtlConfig::evaluation_defaults();
    cfg.geometry = Geometry::tiny();
    if rng.gen_bool(0.5) {
        cfg.geometry.blocks_per_plane = 12;
        cfg.geometry.pages_per_block = 8;
    }
    cfg.gc.victims_per_trigger = rng.gen_range(1..3u64) as u32;
    Ftl::new(cfg).unwrap()
}

/// An LPN from a small hot set most of the time, so planted faults are
/// read back before they are overwritten.
fn pick(rng: &mut DetRng, logical: u64) -> Lpn {
    if rng.gen_bool(0.8) {
        Lpn::new(rng.gen_range(0..32u64.min(logical)))
    } else {
        Lpn::new(rng.gen_range(0..logical))
    }
}

/// A mapped LPN and its real home, if the draw finds one.
fn mapped(ftl: &Ftl, rng: &mut DetRng) -> Option<(Lpn, Ppn)> {
    let lpn = pick(rng, ftl.logical_pages());
    ftl.lookup(lpn).map(|ppn| (lpn, ppn))
}

/// Real GC, every hook observed in the order it fired.
fn collect(ftl: &mut Ftl, pair: &mut Pair, rng: &mut DetRng, at: SimTime) {
    #[derive(Clone, Copy)]
    enum Hook {
        Relocate(Relocation),
        Erase(Pbn),
    }
    let hooks = std::cell::RefCell::new(Vec::new());
    // Out of space is a device state here, not a failure of the test.
    let _ = ftl.instant_gc_with(
        rng,
        &mut |rel| hooks.borrow_mut().push(Hook::Relocate(rel)),
        &mut |pbn| hooks.borrow_mut().push(Hook::Erase(pbn)),
    );
    for hook in hooks.into_inner() {
        match hook {
            Hook::Relocate(rel) => pair.call("gc relocation", |o| o.note_relocation(rel, at)),
            Hook::Erase(pbn) => pair.call("gc erase", |o| o.note_erase(pbn, at)),
        }
    }
}

/// One seeded stream. Adds the invariants and read-content messages that
/// fired to `seen`, so the suite can show every planted fault was caught.
fn run_case(case: usize, seen: &mut BTreeSet<String>) {
    let mut rng = DetRng::seed_from_u64(0x5AD0 + case as u64);
    let mut ftl = device(&mut rng);
    let mut pair = Pair::new(&ftl, case);
    let fill = rng.gen_range(0.0..0.9f64);
    ftl.precondition(fill, rng.gen_range(0.0..0.5f64), &mut rng)
        .unwrap();
    pair.call("sync after precondition", |o| o.sync_from_ftl(&ftl));
    let logical = ftl.logical_pages();
    let all = WayMask::all(ftl.geometry().ways);
    let pages = ftl.geometry().page_count();
    let fail_at = rng.gen_bool(0.5).then(|| rng.gen_range(0..OPS));
    for i in 0..OPS {
        pair.at.1 = i;
        let at = SimTime::from_ns(i);
        if fail_at == Some(i) {
            let channel = rng.gen_range(0..ftl.geometry().channels as u64) as u32;
            let way = rng.gen_range(0..ftl.geometry().ways as u64) as u32;
            ftl.fail_chip(channel, way);
            pair.call("sync after fail_chip", |o| o.sync_from_ftl(&ftl));
            continue;
        }
        let roll = rng.gen_range(0..1000u64);
        match roll {
            // Host write, with real GC first when the device needs it.
            0..=439 => {
                let lpn = pick(&mut rng, logical);
                if ftl.needs_gc() {
                    collect(&mut ftl, &mut pair, &mut rng, at);
                }
                if let Ok(out) = ftl.write(lpn) {
                    pair.call("host write", |o| o.note_host_write(lpn, out.ppn, at));
                }
            }
            440..=909 => {
                let lpn = pick(&mut rng, logical);
                let ppn = ftl.lookup(lpn);
                pair.call("host read", |o| o.check_host_read(lpn, ppn, at));
            }
            910..=939 => pair.call("invariant sweep", |o| o.check_invariants(&ftl, at)),
            940..=944 => pair.call("trusted sync", |o| o.sync_from_ftl(&ftl)),
            945..=949 => pair.round_trip(),
            // Planted: a write onto another LPN's live page.
            950..=955 => {
                let lpn = pick(&mut rng, logical);
                if let Some((_, home)) = mapped(&ftl, &mut rng) {
                    pair.call("write onto a live page", |o| {
                        o.note_host_write(lpn, home, at)
                    });
                }
            }
            // Planted: a real relocation reported from a stale source.
            956..=961 => {
                if let Some((lpn, src)) = mapped(&ftl, &mut rng) {
                    if let Ok(Some(rel)) = ftl.relocate_to(lpn, src, all, GcStream::Gc) {
                        let stale = Relocation {
                            src: Ppn::new(rng.gen_range(0..pages)),
                            ..rel
                        };
                        pair.call("stale relocation source", |o| o.note_relocation(stale, at));
                    }
                }
            }
            // Planted: a relocation onto another LPN's live page.
            962..=967 => {
                if let (Some((lpn, src)), Some((_, dst))) =
                    (mapped(&ftl, &mut rng), mapped(&ftl, &mut rng))
                {
                    let rel = Relocation { lpn, src, dst };
                    pair.call("relocation onto a live page", |o| {
                        o.note_relocation(rel, at)
                    });
                }
            }
            // Planted: a relocation the oracle never sees.
            968..=973 => {
                if let Some((lpn, src)) = mapped(&ftl, &mut rng) {
                    let _ = ftl.relocate_to(lpn, src, all, GcStream::Gc);
                }
            }
            // Planted: two live mappings swapped under the shadow.
            974..=979 => {
                if let (Some((a, _)), Some((b, _))) =
                    (mapped(&ftl, &mut rng), mapped(&ftl, &mut rng))
                {
                    ftl.debug_swap_mapping(a, b);
                }
            }
            // Planted: a live block erased or retired under the shadow.
            _ => {
                if let Some((_, home)) = mapped(&ftl, &mut rng) {
                    let pbn = ftl.geometry().pbn_of(home);
                    if roll % 2 == 0 {
                        pair.call("erase of a live block", |o| o.note_erase(pbn, at));
                    } else {
                        pair.call("retirement of a live block", |o| o.note_retire(pbn, at));
                    }
                }
            }
        }
    }
    pair.at.1 = OPS;
    pair.call("final check", |o| {
        o.final_check(&ftl, SimTime::from_ns(OPS))
    });
    pair.round_trip();
    for v in pair.dense.violations().iter() {
        seen.insert(v.invariant.to_string());
        for message in ["holds lpn", "no content there"] {
            if v.detail.contains(message) {
                seen.insert(message.to_string());
            }
        }
    }
}

#[test]
fn dense_oracle_matches_the_token_reference_call_for_call() {
    let mut seen = BTreeSet::new();
    for case in 0..CASES {
        run_case(case, &mut seen);
    }
    for expected in [
        "write-double-alloc",
        "read-mapping",
        "read-content",
        "holds lpn",
        "no content there",
        "relocation-source",
        "erase-live-page",
        "retire-live-page",
        "final-mapping",
    ] {
        assert!(
            seen.contains(expected),
            "no case fired {expected}; seen: {seen:?}"
        );
    }
}
