//! Full-simulator state serialization.
//!
//! Everything the event loop can observe is written: the clock, the pending
//! event queue (with its FIFO tiebreak counters), the FTL, flash-array and
//! channel timelines, host pipes, the drive's unissued requests,
//! request/transaction slabs, the writes parked for free space (in order)
//! and the end-of-life time, the GC runtime, the RNG, the shadow oracle,
//! the fault engine, and every statistics accumulator. Requests already
//! issued are gone from the device's point of view and are not written, in
//! every drive. Derived state is *rebuilt* instead of stored: the fabric
//! backend is a pure function of the configuration, the per-core
//! `ftl_core_free` cache is recomputed from the restored core timelines
//! (its entries are exactly each core's `next_free()`), and closed loop's
//! token count is the number of restored `Arrive` events.
//!
//! [`SsdSim::ckpt_load_state`] validates every index against the configured
//! geometry and the restored collection lengths before it is ever used, so
//! corrupt input yields `Err`, never a panic or an out-of-bounds access
//! later in the run. On error the simulator may be left partially restored —
//! [`crate::Checkpoint::resume`] always decodes into a fresh simulator and
//! discards it on failure.

use std::collections::VecDeque;

use nssd_host::IoOp;
use nssd_sim::ckpt::{put_u32_slice, take_u32_slice};
use nssd_sim::{CkptError, CkptReader, CkptWriter, DetRng, Histogram, SimTime};

use super::{
    DriveState, EngineSummary, Event, Mover, MoverCopy, PendingSpan, ReqState, SsdSim, TransState,
};

/// Serialized floor of one record of each variable-length collection, for
/// [`CkptReader::take_count`] allocation caps.
const REQ_MIN_BYTES: usize = 1 + 8 + 4 + 4 + 4 + 1 + 1;
const TRANS_MIN_BYTES: usize = 8 + 6 * 4 + 1 + 1 + 4 + 1 + 1;
const SPAN_MIN_BYTES: usize = 8 + 8 + 4;

fn enc_event(w: &mut CkptWriter, ev: &Event) {
    w.put_u8(ev.tag());
    match *ev {
        Event::IssuePages(i)
        | Event::StartTrans(i)
        | Event::ArrayDone(i)
        | Event::XferHalfDone(i)
        | Event::PageDone(i)
        | Event::GcCopyReadDone(i)
        | Event::GcEraseDone(i) => w.put_usize(i),
        Event::CopyXferDone(mc) | Event::CopyProgDone(mc) => w.put_usize(mc.index()),
        Event::Arrive | Event::Pump(_) | Event::ChipFail | Event::GcRetry => {}
    }
}

/// Index bounds a decoded event payload must respect (the lengths of the
/// collections each variant indexes into, restored before the queue).
#[derive(Clone, Copy)]
struct EventBounds {
    requests: usize,
    trans: usize,
    copies: [usize; 2],
    gc_victims: usize,
    chip_failure: bool,
}

fn dec_event(r: &mut CkptReader, b: EventBounds) -> Result<Event, CkptError> {
    let tag = r.take_u8()?;
    let idx = |r: &mut CkptReader, limit: usize, what: &str| -> Result<usize, CkptError> {
        let i = r.take_usize()?;
        if i >= limit {
            return Err(CkptError::Invalid(format!(
                "event {what} index {i} out of range (limit {limit})"
            )));
        }
        Ok(i)
    };
    let copy = |r: &mut CkptReader, m: Mover| -> Result<MoverCopy, CkptError> {
        Ok(MoverCopy::new(m, idx(r, b.copies[m as usize], m.name())?))
    };
    Ok(match tag {
        0 => Event::Arrive,
        1 => Event::IssuePages(idx(r, b.requests, "request")?),
        2 => Event::StartTrans(idx(r, b.trans, "transaction")?),
        3 => Event::ArrayDone(idx(r, b.trans, "transaction")?),
        4 => Event::XferHalfDone(idx(r, b.trans, "transaction")?),
        5 => Event::PageDone(idx(r, b.trans, "transaction")?),
        6 => Event::Pump(Mover::Gc),
        7 => Event::GcCopyReadDone(copy(r, Mover::Gc)?.index()),
        8 => Event::CopyXferDone(copy(r, Mover::Gc)?),
        9 => Event::CopyProgDone(copy(r, Mover::Gc)?),
        10 => Event::GcEraseDone(idx(r, b.gc_victims, "gc victim")?),
        11 => {
            if !b.chip_failure {
                return Err(CkptError::Invalid(
                    "chip-failure event without a configured failure".into(),
                ));
            }
            Event::ChipFail
        }
        12 => Event::Pump(Mover::Rebuild),
        13 => Event::CopyXferDone(copy(r, Mover::Rebuild)?),
        14 => Event::CopyProgDone(copy(r, Mover::Rebuild)?),
        15 => Event::GcRetry,
        t => return Err(CkptError::Invalid(format!("unknown event tag {t}"))),
    })
}

impl SsdSim {
    /// Serializes the complete simulation state into `w`.
    ///
    /// The configuration itself is not written — restore targets a fresh
    /// simulator built from an identical [`crate::SsdConfig`] (the envelope
    /// in [`crate::Checkpoint`] fingerprints it).
    pub(crate) fn ckpt_save_state(&self, w: &mut CkptWriter) {
        w.put_bool(self.started);
        w.put_time(self.now);
        self.ftl.ckpt_save(w);
        w.put_usize(self.chips.len());
        for chip in &self.chips {
            chip.ckpt_save(w);
        }
        for group in [
            &self.h_channels,
            &self.v_channels,
            &self.mesh_links,
            &self.ftl_cores,
        ] {
            w.put_usize(group.len());
            for res in group.iter() {
                res.ckpt_save(w);
            }
        }
        self.host.ckpt_save(w);
        self.drive.ckpt_save(w);
        for &n in &self.event_counts {
            w.put_u64(n);
        }
        w.put_usize(self.requests.len());
        for req in &self.requests {
            w.put_u8(match req.op {
                IoOp::Read => 0,
                IoOp::Write => 1,
            });
            w.put_time(req.submitted);
            w.put_u32(req.tenant as u32);
            w.put_u32(req.pages_total);
            w.put_u32(req.pages_done);
            w.put_bool(req.failed);
            w.put_bool(req.degraded);
        }
        w.put_usize(self.req_free.len());
        for &i in &self.req_free {
            w.put_usize(i);
        }
        w.put_usize(self.trans.len());
        for t in &self.trans {
            w.put_usize(t.req);
            for v in [
                t.addr.channel,
                t.addr.way,
                t.addr.die,
                t.addr.plane,
                t.addr.block,
                t.addr.page,
            ] {
                w.put_u32(v);
            }
            w.put_bool(t.is_read);
            w.put_u8(t.halves_left);
            w.put_u32(t.mesh_ctrl);
            w.put_bool(t.failed);
            w.put_bool(t.degraded);
        }
        w.put_usize(self.trans_free.len());
        for &i in &self.trans_free {
            w.put_usize(i);
        }
        // The slab is indexed by request slot, so iterating it yields the
        // same sorted-by-key byte stream the map-based format produced.
        let spans = self
            .pending_write_spans
            .iter()
            .enumerate()
            .filter_map(|(k, v)| v.map(|s| (k, s)));
        w.put_usize(spans.clone().count());
        for (req, s) in spans {
            w.put_usize(req);
            w.put_u64(s.first_page);
            w.put_u32(s.pages);
        }
        w.put_usize(self.parked.len());
        for &req in &self.parked {
            w.put_usize(req);
        }
        w.put_opt_u64(self.end_of_life.map(SimTime::as_ns));
        w.put_usize(self.inflight_io);
        self.gc.ckpt_save(w);
        self.rebuild.ckpt_save(w);
        put_u32_slice(w, &self.parity_pending);
        put_u32_slice(w, &self.parity_rot);
        w.put_usize(self.lost_pages.len());
        for &l in &self.lost_pages {
            w.put_u64(l);
        }
        self.degraded_lat.ckpt_save(w);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_bool(self.oracle_synced);
        match self.oracle.as_ref() {
            None => w.put_bool(false),
            Some(o) => {
                w.put_bool(true);
                o.ckpt_save(w);
            }
        }
        self.faults.ckpt_save(w);
        self.all_lat.ckpt_save(w);
        self.read_lat.ckpt_save(w);
        self.write_lat.ckpt_save(w);
        w.put_u64(self.completed);
        w.put_u64(self.unmapped_reads);
        w.put_u64(self.host_bytes);
        w.put_time(self.first_arrival);
        w.put_time(self.last_completion);
        // The queue goes last so decode can bounds-check every event payload
        // against the collections restored above.
        self.queue.ckpt_save(w, enc_event);
    }

    /// Restores state saved by [`SsdSim::ckpt_save_state`] into a fresh
    /// simulator built from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, any shape mismatch against the
    /// configuration, or any out-of-range index. The simulator may be left
    /// partially restored on error and must then be discarded.
    pub(crate) fn ckpt_load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let g = self.cfg.geometry;
        self.started = r.take_bool()?;
        self.now = r.take_time()?;
        self.ftl.ckpt_load(r)?;
        let n = r.take_usize()?;
        if n != self.chips.len() {
            return Err(CkptError::Invalid(format!(
                "checkpoint has {n} chips, configuration has {}",
                self.chips.len()
            )));
        }
        for chip in &mut self.chips {
            chip.ckpt_load(r)?;
        }
        for group in [
            &mut self.h_channels,
            &mut self.v_channels,
            &mut self.mesh_links,
            &mut self.ftl_cores,
        ] {
            let n = r.take_usize()?;
            if n != group.len() {
                return Err(CkptError::Invalid(format!(
                    "checkpoint has {n} resources in a group, configuration has {}",
                    group.len()
                )));
            }
            for res in group.iter_mut() {
                res.ckpt_load(r)?;
            }
        }
        self.ftl_core_free = self.ftl_cores.iter().map(|c| c.next_free()).collect();
        self.host.ckpt_load(r)?;

        self.drive = DriveState::ckpt_load(r, self.now)?;
        let tenant_count = self.drive.tenant_count();
        let mut event_counts = [0; EngineSummary::EVENT_KINDS.len()];
        for n in &mut event_counts {
            *n = r.take_u64()?;
        }

        let n = r.take_count(REQ_MIN_BYTES)?;
        let mut requests = Vec::with_capacity(n);
        for _ in 0..n {
            let op = match r.take_u8()? {
                0 => IoOp::Read,
                1 => IoOp::Write,
                t => return Err(CkptError::Invalid(format!("unknown io op tag {t}"))),
            };
            let submitted = r.take_time()?;
            let tenant = r.take_u32()?;
            let limit = tenant_count.max(1);
            if tenant as usize >= limit {
                return Err(CkptError::Invalid(format!(
                    "request tenant {tenant} out of range"
                )));
            }
            let pages_total = r.take_u32()?;
            let pages_done = r.take_u32()?;
            if pages_done > pages_total {
                return Err(CkptError::Invalid(format!(
                    "request progress {pages_done}/{pages_total} inconsistent"
                )));
            }
            let failed = r.take_bool()?;
            let degraded = r.take_bool()?;
            requests.push(ReqState {
                op,
                submitted,
                tenant: tenant as u16,
                pages_total,
                pages_done,
                failed,
                degraded,
            });
        }
        let n = r.take_count(8)?;
        let mut req_free = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.take_usize()?;
            if i >= requests.len() {
                return Err(CkptError::Invalid(format!("free request slot {i} invalid")));
            }
            req_free.push(i);
        }
        let n = r.take_count(TRANS_MIN_BYTES)?;
        let mut trans = Vec::with_capacity(n);
        for _ in 0..n {
            let req = r.take_usize()?;
            if req >= requests.len() {
                return Err(CkptError::Invalid(format!(
                    "transaction request slot {req} invalid"
                )));
            }
            let mut f = [0u32; 6];
            for v in &mut f {
                *v = r.take_u32()?;
            }
            let [channel, way, die, plane, block, page] = f;
            if channel >= g.channels
                || way >= g.ways
                || die >= g.dies
                || plane >= g.planes
                || block >= g.blocks_per_plane
                || page >= g.pages_per_block
            {
                return Err(CkptError::Invalid(
                    "transaction page address out of geometry".into(),
                ));
            }
            let is_read = r.take_bool()?;
            let halves_left = r.take_u8()?;
            let mesh_ctrl = r.take_u32()?;
            if mesh_ctrl >= g.channels {
                return Err(CkptError::Invalid(format!(
                    "mesh controller {mesh_ctrl} out of range"
                )));
            }
            let failed = r.take_bool()?;
            let degraded = r.take_bool()?;
            trans.push(TransState {
                req,
                addr: nssd_flash::PageAddr {
                    channel,
                    way,
                    die,
                    plane,
                    block,
                    page,
                },
                is_read,
                halves_left,
                mesh_ctrl,
                failed,
                degraded,
            });
        }
        let n = r.take_count(8)?;
        let mut trans_free = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.take_usize()?;
            if i >= trans.len() {
                return Err(CkptError::Invalid(format!(
                    "free transaction slot {i} invalid"
                )));
            }
            trans_free.push(i);
        }
        let n = r.take_count(SPAN_MIN_BYTES)?;
        let mut pending_write_spans: Vec<Option<PendingSpan>> = vec![None; requests.len()];
        let mut prev_key = None;
        for _ in 0..n {
            let req = r.take_usize()?;
            if req >= requests.len() {
                return Err(CkptError::Invalid(format!(
                    "pending span request slot {req} invalid"
                )));
            }
            if prev_key.is_some_and(|p| req <= p) {
                return Err(CkptError::Invalid("pending spans not sorted".into()));
            }
            prev_key = Some(req);
            let first_page = r.take_u64()?;
            let pages = r.take_u32()?;
            pending_write_spans[req] = Some(PendingSpan { first_page, pages });
        }
        let n = r.take_count(8)?;
        let mut parked = VecDeque::with_capacity(n);
        let mut is_parked = vec![false; requests.len()];
        for _ in 0..n {
            let req = r.take_usize()?;
            if pending_write_spans.get(req).is_none_or(Option::is_none) || is_parked[req] {
                return Err(CkptError::Invalid(format!(
                    "parked request slot {req} has no pending span or repeats"
                )));
            }
            is_parked[req] = true;
            parked.push_back(req);
        }
        let end_of_life = r.take_opt_u64()?.map(SimTime::from_ns);
        let inflight_io = r.take_usize()?;
        if inflight_io > requests.len() {
            return Err(CkptError::Invalid(format!(
                "{inflight_io} in-flight requests but only {} slots",
                requests.len()
            )));
        }
        self.gc.ckpt_load(r, &g, self.ftl.logical_pages())?;
        self.rebuild
            .ckpt_load(r, g.page_count(), self.ftl.logical_pages())?;
        take_u32_slice(r, &mut self.parity_pending, "parity_pending")?;
        take_u32_slice(r, &mut self.parity_rot, "parity_rot")?;
        let n = r.take_count(8)?;
        let mut lost_pages = Vec::with_capacity(n);
        for _ in 0..n {
            let l = r.take_u64()?;
            if l >= self.ftl.logical_pages() {
                return Err(CkptError::Invalid(format!("lost lpn {l} out of range")));
            }
            if lost_pages.last().is_some_and(|&p| l <= p) {
                return Err(CkptError::Invalid("lost pages not sorted".into()));
            }
            lost_pages.push(l);
        }
        self.lost_pages = lost_pages;
        self.degraded_lat = Histogram::ckpt_load(r)?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.take_u64()?;
        }
        self.rng = DetRng::from_state(state);
        self.oracle_synced = r.take_bool()?;
        let oracle_present = r.take_bool()?;
        if oracle_present != self.oracle.is_some() {
            return Err(CkptError::Invalid(format!(
                "checkpoint oracle presence ({oracle_present}) disagrees with the configuration"
            )));
        }
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.ckpt_load(r)?;
        }
        self.faults.ckpt_load(r)?;
        self.all_lat = Histogram::ckpt_load(r)?;
        self.read_lat = Histogram::ckpt_load(r)?;
        self.write_lat = Histogram::ckpt_load(r)?;
        self.completed = r.take_u64()?;
        self.unmapped_reads = r.take_u64()?;
        self.host_bytes = r.take_u64()?;
        self.first_arrival = r.take_time()?;
        self.last_completion = r.take_time()?;

        let bounds = EventBounds {
            requests: requests.len(),
            trans: trans.len(),
            copies: Mover::ALL.map(|m| self.backlog(m).copies.len()),
            gc_victims: self.gc.victim_count(),
            chip_failure: self.cfg.faults.chip_failure.is_some(),
        };
        // Every copy a mover counts as outstanding is an event in the queue
        // (GC's parked copies wait outside it), every copy past its read
        // has a destination, and a queued poll is a queued pump: the copy
        // tail relies on the first two, and a mover whose poll never fires
        // never polls again.
        let backlogs = [&self.gc.backlog, &self.rebuild.backlog];
        let mut in_flight = [self.gc.parked.len(), 0];
        let mut pumps = [0; 2];
        let mut tokens = 0;
        self.queue.ckpt_load(r, |r| {
            let ev = dec_event(r, bounds)?;
            match ev {
                Event::Arrive => tokens += 1,
                Event::Pump(m) => pumps[m as usize] += 1,
                Event::GcCopyReadDone(_) => in_flight[Mover::Gc as usize] += 1,
                Event::CopyXferDone(mc) | Event::CopyProgDone(mc) => {
                    let (m, c) = (mc.mover(), mc.index());
                    in_flight[m as usize] += 1;
                    if backlogs[m as usize].copies[c].dst.is_none() {
                        return Err(CkptError::Invalid(format!(
                            "{} {c} is past its read with no destination",
                            m.name()
                        )));
                    }
                }
                _ => {}
            }
            Ok(ev)
        })?;
        let outstanding = backlogs.map(|b| b.outstanding);
        if outstanding != in_flight {
            return Err(CkptError::Invalid(format!(
                "gc and rebuild count {outstanding:?} copies outstanding, but {in_flight:?} are in flight"
            )));
        }
        for m in Mover::ALL {
            if let Some(at) = backlogs[m as usize].poll_at {
                if at < self.now || pumps[m as usize] == 0 {
                    return Err(CkptError::Invalid(format!(
                        "{} poll at {at} is not a queued pump",
                        m.name()
                    )));
                }
            }
        }
        self.drive.restore_tokens(tokens)?;

        self.event_counts = event_counts;
        self.requests = requests;
        self.req_free = req_free;
        self.trans = trans;
        self.trans_free = trans_free;
        self.pending_write_spans = pending_write_spans;
        self.parked = parked;
        self.end_of_life = end_of_life;
        self.inflight_io = inflight_io;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use nssd_sim::SimTime;

    use super::Mover;
    use crate::golden::matrix;
    use crate::{Checkpoint, SsdConfig, SsdSim};

    /// The first matrix case that runs mover `m`, stepped until one of its
    /// copies is past the read (the rebuild's are from launch on).
    fn copy_in_flight(m: Mover) -> (SsdConfig, SsdSim) {
        let case = matrix()
            .into_iter()
            .find(|c| match m {
                Mover::Gc => c.plan.is_some(),
                Mover::Rebuild => c.redundancy.is_some(),
            })
            .expect("the matrix runs both movers");
        let (mut sim, drive) = case.prepare().unwrap();
        sim.start(drive);
        while !sim.backlog(m).copies.iter().any(|p| p.dst.is_some())
            || sim.backlog(m).outstanding == 0
        {
            assert!(
                sim.step(),
                "drained before a {} copy was in flight",
                m.name()
            );
        }
        (case.config(), sim)
    }

    /// A checkpoint whose in-flight accounting or poll disagrees with its
    /// queue would underflow `outstanding`, find no destination mid-copy or
    /// never poll again once resumed; it is refused with a message instead.
    #[test]
    fn inconsistent_in_flight_accounting_is_refused() {
        for m in Mover::ALL {
            let (cfg, mut sim) = copy_in_flight(m);
            let resume = |sim: &SsdSim| Checkpoint::resume(cfg, &Checkpoint::save(sim));
            assert!(
                resume(&sim).is_ok(),
                "{}: consistent state refused",
                m.name()
            );

            sim.backlog_mut(m).outstanding -= 1;
            let err = resume(&sim).expect_err("outstanding below the copies in flight");
            assert!(err.contains("copies outstanding"), "{}: {err}", m.name());
            sim.backlog_mut(m).outstanding += 1;

            let poll_at = sim.backlog(m).poll_at;
            sim.backlog_mut(m).poll_at = Some(SimTime::ZERO);
            let err = resume(&sim).expect_err("a poll before the checkpoint's instant");
            assert!(err.contains("not a queued pump"), "{}: {err}", m.name());
            sim.backlog_mut(m).poll_at = poll_at;

            for p in &mut sim.backlog_mut(m).copies {
                p.dst = None;
            }
            let err = resume(&sim).expect_err("a copy past its read without a destination");
            assert!(err.contains("no destination"), "{}: {err}", m.name());
        }
    }
}
