//! Full-simulator state serialization.
//!
//! Everything the event loop can observe is written: the clock, the pending
//! event queue (with its FIFO tiebreak counters), the FTL, flash-array and
//! channel timelines, host pipes, workload cursors, request/transaction
//! slabs, the GC runtime, the RNG, the shadow oracle, the fault engine, and
//! every statistics accumulator. Derived state is *rebuilt* instead of
//! stored: the fabric backend is a pure function of the configuration, and
//! the per-core `ftl_core_free` cache is recomputed from the restored core
//! timelines (its entries are exactly each core's `next_free()`).
//!
//! [`SsdSim::ckpt_load_state`] validates every index against the configured
//! geometry and the restored collection lengths before it is ever used, so
//! corrupt input yields `Err`, never a panic or an out-of-bounds access
//! later in the run. On error the simulator may be left partially restored —
//! [`crate::Checkpoint::resume`] always decodes into a fresh simulator and
//! discards it on failure.

use nssd_host::{HostFrontend, IoOp, IoRequest, SchedulerKind, TenantConfig};
use nssd_sim::{CkptError, CkptReader, CkptWriter, DetRng, Histogram};

use super::{Event, MtRuntime, PendingSpan, ReqState, SsdSim, TenantStats, TransState};

/// Serialized floor of one record of each variable-length collection, for
/// [`CkptReader::take_count`] allocation caps.
const REQ_MIN_BYTES: usize = 1 + 8 + 4 + 4 + 4 + 1 + 1;
const TRANS_MIN_BYTES: usize = 8 + 6 * 4 + 1 + 1 + 4 + 1 + 1;
const SPAN_MIN_BYTES: usize = 8 + 8 + 4 + 4;
const TENANT_MIN_BYTES: usize = 8 + 4 + 8;

fn enc_event(w: &mut CkptWriter, ev: &Event) {
    let (tag, payload) = match *ev {
        Event::Arrive(i) => (0u8, Some(i)),
        Event::IssuePages(i) => (1, Some(i)),
        Event::StartTrans(i) => (2, Some(i)),
        Event::ArrayDone(i) => (3, Some(i)),
        Event::XferHalfDone(i) => (4, Some(i)),
        Event::PageDone(i) => (5, Some(i)),
        Event::GcPump => (6, None),
        Event::GcCopyReadDone(i) => (7, Some(i)),
        Event::GcCopyXferDone(i) => (8, Some(i)),
        Event::GcCopyProgDone(i) => (9, Some(i)),
        Event::GcEraseDone(i) => (10, Some(i)),
        Event::ChipFail => (11, None),
        Event::RebuildPump => (12, None),
        Event::RebuildXferDone(i) => (13, Some(i)),
        Event::RebuildProgDone(i) => (14, Some(i)),
    };
    w.put_u8(tag);
    if let Some(i) = payload {
        w.put_usize(i);
    }
}

/// Index bounds a decoded event payload must respect (the lengths of the
/// collections each variant indexes into, restored before the queue).
#[derive(Clone, Copy)]
struct EventBounds {
    arrivals: usize,
    requests: usize,
    trans: usize,
    gc_copies: usize,
    gc_victims: usize,
    rebuild_copies: usize,
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
    Ok(match tag {
        0 => Event::Arrive(idx(r, b.arrivals, "arrival")?),
        1 => Event::IssuePages(idx(r, b.requests, "request")?),
        2 => Event::StartTrans(idx(r, b.trans, "transaction")?),
        3 => Event::ArrayDone(idx(r, b.trans, "transaction")?),
        4 => Event::XferHalfDone(idx(r, b.trans, "transaction")?),
        5 => Event::PageDone(idx(r, b.trans, "transaction")?),
        6 => Event::GcPump,
        7 => Event::GcCopyReadDone(idx(r, b.gc_copies, "gc copy")?),
        8 => Event::GcCopyXferDone(idx(r, b.gc_copies, "gc copy")?),
        9 => Event::GcCopyProgDone(idx(r, b.gc_copies, "gc copy")?),
        10 => Event::GcEraseDone(idx(r, b.gc_victims, "gc victim")?),
        11 => {
            if !b.chip_failure {
                return Err(CkptError::Invalid(
                    "chip-failure event without a configured failure".into(),
                ));
            }
            Event::ChipFail
        }
        12 => Event::RebuildPump,
        13 => Event::RebuildXferDone(idx(r, b.rebuild_copies, "rebuild copy")?),
        14 => Event::RebuildProgDone(idx(r, b.rebuild_copies, "rebuild copy")?),
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
        w.put_usize(self.arrivals.len());
        for r in &self.arrivals {
            r.ckpt_save(w);
        }
        w.put_usize(self.arrival_tenants.len());
        for &t in &self.arrival_tenants {
            w.put_u32(t as u32);
        }
        match self.closed_loop_depth {
            Some(d) => {
                w.put_bool(true);
                w.put_usize(d);
            }
            None => w.put_bool(false),
        }
        match self.mt.as_ref() {
            None => w.put_bool(false),
            Some(mt) => {
                w.put_bool(true);
                w.put_usize(mt.stats.len());
                for i in 0..mt.stats.len() {
                    let c = mt.frontend.config(i);
                    w.put_str(&c.name);
                    w.put_u32(c.weight);
                    w.put_time(c.slo_latency);
                }
                w.put_u8(match mt.scheduler {
                    SchedulerKind::RoundRobin => 0,
                    SchedulerKind::StrictPriority => 1,
                    SchedulerKind::WeightedFair => 2,
                });
                w.put_usize(mt.depth);
                mt.frontend.ckpt_save(w);
                for st in &mt.stats {
                    st.all.ckpt_save(w);
                    st.read.ckpt_save(w);
                    st.write.ckpt_save(w);
                    w.put_u64(st.bytes);
                    w.put_u64(st.completed);
                    w.put_u64(st.slo_violations);
                    w.put_u64(st.dispatched);
                    w.put_time(st.queue_delay);
                    w.put_time(st.last_completion);
                }
            }
        }
        w.put_usize(self.next_issue);
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
            w.put_u32(s.retries);
        }
        w.put_usize(self.inflight_io);
        self.gc.ckpt_save(w);
        self.rebuild.ckpt_save(w);
        for group in [&self.parity_pending, &self.parity_rot] {
            w.put_usize(group.len());
            for &v in group.iter() {
                w.put_u32(v);
            }
        }
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
        w.put_usize(self.programmed_at.len());
        for &t in &self.programmed_at {
            w.put_time(t);
        }
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

        let n = r.take_count(IoRequest::CKPT_MIN_BYTES)?;
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            arrivals.push(IoRequest::ckpt_load(r)?);
        }
        let n = r.take_count(4)?;
        if n != 0 && n != arrivals.len() {
            return Err(CkptError::Invalid(format!(
                "{n} arrival tenants for {} arrivals",
                arrivals.len()
            )));
        }
        let mut arrival_tenants = Vec::with_capacity(n);
        for _ in 0..n {
            let t = r.take_u32()?;
            if t > u16::MAX as u32 {
                return Err(CkptError::Invalid(format!("tenant tag {t} too wide")));
            }
            arrival_tenants.push(t as u16);
        }
        let closed_loop_depth = if r.take_bool()? {
            Some(r.take_usize()?)
        } else {
            None
        };
        let mt = if r.take_bool()? {
            let count = r.take_count(TENANT_MIN_BYTES)?;
            if count == 0 || count > u16::MAX as usize {
                return Err(CkptError::Invalid(format!("bad tenant count {count}")));
            }
            let mut configs = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.take_string()?;
                let weight = r.take_u32()?;
                if weight == 0 {
                    return Err(CkptError::Invalid("zero tenant weight".into()));
                }
                let slo_latency = r.take_time()?;
                configs.push(TenantConfig {
                    name,
                    weight,
                    slo_latency,
                });
            }
            let scheduler = match r.take_u8()? {
                0 => SchedulerKind::RoundRobin,
                1 => SchedulerKind::StrictPriority,
                2 => SchedulerKind::WeightedFair,
                t => return Err(CkptError::Invalid(format!("unknown scheduler tag {t}"))),
            };
            let depth = r.take_usize()?;
            if depth == 0 {
                return Err(CkptError::Invalid("zero multi-tenant depth".into()));
            }
            let mut frontend = HostFrontend::new(configs, scheduler);
            frontend.ckpt_load(r)?;
            let mut stats = Vec::with_capacity(count);
            for _ in 0..count {
                let all = Histogram::ckpt_load(r)?;
                let read = Histogram::ckpt_load(r)?;
                let write = Histogram::ckpt_load(r)?;
                let bytes = r.take_u64()?;
                let completed = r.take_u64()?;
                let slo_violations = r.take_u64()?;
                let dispatched = r.take_u64()?;
                let queue_delay = r.take_time()?;
                let last_completion = r.take_time()?;
                stats.push(TenantStats {
                    all,
                    read,
                    write,
                    bytes,
                    completed,
                    slo_violations,
                    dispatched,
                    queue_delay,
                    last_completion,
                });
            }
            Some(MtRuntime {
                frontend,
                scheduler,
                depth,
                stats,
            })
        } else {
            None
        };
        let tenant_count = mt.as_ref().map_or(0, |m| m.stats.len());
        if mt.is_some() {
            if arrival_tenants.len() != arrivals.len() {
                return Err(CkptError::Invalid(
                    "multi-tenant arrivals without tenant tags".into(),
                ));
            }
            if arrival_tenants.iter().any(|&t| t as usize >= tenant_count) {
                return Err(CkptError::Invalid("arrival tenant out of range".into()));
            }
        } else if !arrival_tenants.is_empty() {
            return Err(CkptError::Invalid(
                "tenant tags without a multi-tenant frontend".into(),
            ));
        }
        let next_issue = r.take_usize()?;
        if next_issue > arrivals.len() {
            return Err(CkptError::Invalid(format!(
                "issue cursor {next_issue} past {} arrivals",
                arrivals.len()
            )));
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
            let retries = r.take_u32()?;
            pending_write_spans[req] = Some(PendingSpan {
                first_page,
                pages,
                retries,
            });
        }
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
        for field in ["parity_pending", "parity_rot"] {
            let n = r.take_count(4)?;
            let group = if field == "parity_pending" {
                &mut self.parity_pending
            } else {
                &mut self.parity_rot
            };
            if n != group.len() {
                return Err(CkptError::Invalid(format!(
                    "checkpoint has {n} {field} groups, configuration has {}",
                    group.len()
                )));
            }
            for v in group.iter_mut() {
                *v = r.take_u32()?;
            }
        }
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
        let n = r.take_usize()?;
        if n != self.programmed_at.len() {
            return Err(CkptError::Invalid(format!(
                "checkpoint tracks {n} programmed blocks, configuration has {}",
                self.programmed_at.len()
            )));
        }
        for t in &mut self.programmed_at {
            *t = r.take_time()?;
        }
        self.all_lat = Histogram::ckpt_load(r)?;
        self.read_lat = Histogram::ckpt_load(r)?;
        self.write_lat = Histogram::ckpt_load(r)?;
        self.completed = r.take_u64()?;
        self.unmapped_reads = r.take_u64()?;
        self.host_bytes = r.take_u64()?;
        self.first_arrival = r.take_time()?;
        self.last_completion = r.take_time()?;

        let bounds = EventBounds {
            arrivals: arrivals.len(),
            requests: requests.len(),
            trans: trans.len(),
            gc_copies: self.gc.copy_count(),
            gc_victims: self.gc.victim_count(),
            rebuild_copies: self.rebuild.copy_count(),
            chip_failure: self.cfg.faults.chip_failure.is_some(),
        };
        self.queue.ckpt_load(r, |r| dec_event(r, bounds))?;

        self.arrivals = arrivals;
        self.arrival_tenants = arrival_tenants;
        self.closed_loop_depth = closed_loop_depth;
        self.mt = mt;
        self.next_issue = next_issue;
        self.requests = requests;
        self.req_free = req_free;
        self.trans = trans;
        self.trans_free = trans_free;
        self.pending_write_spans = pending_write_spans;
        self.inflight_io = inflight_io;
        Ok(())
    }
}
