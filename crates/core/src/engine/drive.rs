//! The drive: one request list behind a cursor (`requests[cursor..]` are
//! not issued yet, and a checkpoint writes only those), advanced one of
//! three ways. Open loop issues each request at its timestamp; tenants
//! move each into its tenant's submission queue at its timestamp; closed
//! loop issues one per queued [`Event::Arrive`] token, and a completion
//! queues a new token while the unissued requests outnumber the tokens
//! queued. The tokens stay events because a completion's replacement
//! starts behind the events already queued for that instant, an order no
//! rule issuing by time reproduces.

use nssd_host::{HostFrontend, IoOp, IoRequest, SchedulerKind, TenantConfig};
use nssd_sim::{CkptError, CkptReader, CkptWriter, Histogram, SimTime};

use super::{Drive, Event, SsdSim, CURSOR_ARRIVAL};
use crate::{LatencySummary, TenantSummary};

/// Serialized floor of one tenant's QoS record (empty name, weight, SLO),
/// for [`CkptReader::take_count`] allocation caps.
const TENANT_MIN_BYTES: usize = 8 + 4 + 8;

/// The started drive's requests, the cursor, and how it advances.
#[derive(Debug, Default)]
pub(crate) struct DriveState {
    requests: Vec<IoRequest>,
    cursor: usize,
    mode: Mode,
}

#[derive(Debug, Default)]
enum Mode {
    /// Open loop: requests issue at their timestamps.
    #[default]
    Timed,
    /// Closed loop: each queued `Arrive` token issues the next request.
    /// The token count is derived state: a checkpoint does not store it,
    /// and loading rebuilds it by counting the restored `Arrive` events.
    ClosedLoop { tokens: usize },
    /// Multi-tenant: requests reach their tenants' queues at their
    /// timestamps.
    Tenants(Tenants),
}

/// Live state of a multi-tenant drive: the submission frontend plus
/// per-tenant accounting.
#[derive(Debug)]
struct Tenants {
    /// Owning tenant per request (parallel to [`DriveState::requests`]).
    tags: Vec<u16>,
    frontend: HostFrontend,
    /// Outstanding-request budget ([`SsdSim::inflight_io`] ceiling).
    depth: usize,
    stats: Vec<TenantStats>,
}

#[derive(Debug, Default)]
struct TenantStats {
    all: Histogram,
    read: Histogram,
    write: Histogram,
    bytes: u64,
    completed: u64,
    slo_violations: u64,
    dispatched: u64,
    queue_delay: SimTime,
    last_completion: SimTime,
}

impl DriveState {
    /// Requests not issued yet.
    pub(crate) fn unissued(&self) -> usize {
        self.requests.len() - self.cursor
    }

    /// Time of the next request the cursor issues by time; `None` once
    /// every request is issued, and always in closed loop (whose requests
    /// issue on queued tokens).
    pub(crate) fn next_timed(&self) -> Option<SimTime> {
        match self.mode {
            Mode::ClosedLoop { .. } => None,
            Mode::Timed | Mode::Tenants(_) => self.requests.get(self.cursor).map(|r| r.at),
        }
    }

    /// Tenants of a multi-tenant drive; zero otherwise.
    pub(crate) fn tenant_count(&self) -> usize {
        match &self.mode {
            Mode::Tenants(t) => t.stats.len(),
            Mode::Timed | Mode::ClosedLoop { .. } => 0,
        }
    }

    /// Per-tenant rollup (empty for single-tenant drives, which keeps
    /// their canonical snapshots byte-identical).
    pub(crate) fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let Mode::Tenants(t) = &self.mode else {
            return Vec::new();
        };
        t.stats
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let config = t.frontend.config(i);
                TenantSummary {
                    name: config.name.clone(),
                    weight: config.weight,
                    slo_latency: config.slo_latency,
                    completed: st.completed,
                    bytes: st.bytes,
                    all: LatencySummary::from_histogram(&st.all),
                    read: LatencySummary::from_histogram(&st.read),
                    write: LatencySummary::from_histogram(&st.write),
                    slo_violations: st.slo_violations,
                    mean_queue_delay: if st.dispatched == 0 {
                        SimTime::ZERO
                    } else {
                        st.queue_delay / st.dispatched
                    },
                    last_completion: st.last_completion,
                }
            })
            .collect()
    }

    /// Writes the drive: its tag, a multi-tenant drive's frontend and
    /// accounting, then the unissued requests as columns in the delta
    /// codec — arrival (no runs), offset, length, op (0 read, 1 write) and,
    /// for tenants, the tenant tag. No cursor is written, so a resumed
    /// drive (cursor 0) re-saves the same bytes; neither is closed loop's
    /// token count.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        let unissued = &self.requests[self.cursor..];
        match &self.mode {
            Mode::Timed => w.put_u8(0),
            Mode::ClosedLoop { .. } => w.put_u8(1),
            Mode::Tenants(t) => {
                w.put_u8(2);
                w.put_usize(t.stats.len());
                for i in 0..t.stats.len() {
                    let c = t.frontend.config(i);
                    w.put_str(&c.name);
                    w.put_u32(c.weight);
                    w.put_time(c.slo_latency);
                }
                t.frontend.kind().ckpt_save(w);
                w.put_usize(t.depth);
                t.frontend.ckpt_save(w);
                for st in &t.stats {
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
        w.put_usize(unissued.len());
        w.put_deltas(unissued.iter().map(|r| r.at.as_ns()), false);
        w.put_deltas(unissued.iter().map(|r| r.offset), true);
        w.put_deltas(unissued.iter().map(|r| r.len as u64), true);
        w.put_deltas(unissued.iter().map(|r| u64::from(!r.op.is_read())), true);
        if let Mode::Tenants(t) = &self.mode {
            w.put_deltas(t.tags[self.cursor..].iter().map(|&tag| tag as u64), true);
        }
    }

    /// Reads a drive saved by [`DriveState::ckpt_save`] at simulated time
    /// `now`. A closed-loop drive comes back with no tokens; the caller
    /// restores them with [`DriveState::restore_tokens`] once the event
    /// queue is loaded.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, an unknown tag, a bad tenant
    /// record, or timed requests out of time order from `now`.
    pub(crate) fn ckpt_load(r: &mut CkptReader, now: SimTime) -> Result<Self, CkptError> {
        let mut mode = match r.take_u8()? {
            0 => Mode::Timed,
            1 => Mode::ClosedLoop { tokens: 0 },
            2 => Mode::Tenants(Tenants::ckpt_load(r)?),
            t => return Err(CkptError::Invalid(format!("unknown drive tag {t}"))),
        };
        // The arrival column has no runs, so each request costs at least
        // a byte of it.
        let n = r.take_count(1)?;
        let mut requests = Vec::with_capacity(n);
        r.take_deltas(n, false, |_, at| {
            requests.push(IoRequest {
                op: IoOp::Read,
                offset: 0,
                len: 0,
                at: SimTime::from_ns(at),
            });
            Ok(())
        })?;
        r.take_deltas(n, true, |i, offset| {
            requests[i].offset = offset;
            Ok(())
        })?;
        r.take_deltas(n, true, |i, len| {
            requests[i].len = match u32::try_from(len) {
                Ok(len @ 1..) => len,
                _ => return Err(CkptError::Invalid(format!("request length {len}"))),
            };
            Ok(())
        })?;
        r.take_deltas(n, true, |i, op| {
            requests[i].op = match op {
                0 => IoOp::Read,
                1 => IoOp::Write,
                t => return Err(CkptError::Invalid(format!("unknown io op tag {t}"))),
            };
            Ok(())
        })?;
        if let Mode::Tenants(t) = &mut mode {
            let tenants = t.stats.len() as u64;
            t.tags = Vec::with_capacity(n);
            r.take_deltas(n, true, |_, tag| {
                if tag >= tenants {
                    return Err(CkptError::Invalid(format!(
                        "request tenant {tag} out of range"
                    )));
                }
                t.tags.push(tag as u16);
                Ok(())
            })?;
        }
        // Closed loop ignores timestamps; the others issue by them.
        if !matches!(mode, Mode::ClosedLoop { .. })
            && (requests.first().is_some_and(|a| a.at < now)
                || requests.windows(2).any(|p| p[1].at < p[0].at))
        {
            return Err(CkptError::Invalid(
                "unissued requests not in time order from now".into(),
            ));
        }
        Ok(DriveState {
            requests,
            cursor: 0,
            mode,
        })
    }

    /// Restores closed loop's token count from the `tokens` `Arrive` events
    /// found in the restored queue.
    ///
    /// # Errors
    ///
    /// Returns an error when another drive has `Arrive` events queued, or
    /// closed loop more of them than unissued requests.
    pub(crate) fn restore_tokens(&mut self, tokens: usize) -> Result<(), CkptError> {
        let unissued = self.unissued();
        let refusal = match &mut self.mode {
            Mode::ClosedLoop { tokens: t } if tokens <= unissued => {
                *t = tokens;
                return Ok(());
            }
            Mode::ClosedLoop { .. } => {
                format!("{tokens} queued arrivals for {unissued} unissued requests")
            }
            _ if tokens == 0 => return Ok(()),
            Mode::Timed => "queued arrival under an open-loop drive".into(),
            Mode::Tenants(_) => "queued arrival under a multi-tenant drive".into(),
        };
        Err(CkptError::Invalid(refusal))
    }
}

impl Tenants {
    /// Merges per-tenant streams into one time-ordered request list
    /// (stable on ties, so same-instant requests keep tenant order) and
    /// stands up the submission frontend.
    fn new(
        tenants: Vec<(TenantConfig, Vec<IoRequest>)>,
        scheduler: SchedulerKind,
        depth: usize,
    ) -> (Vec<IoRequest>, Self) {
        assert!(!tenants.is_empty(), "multi-tenant drive needs a tenant");
        assert!(
            tenants.len() <= u16::MAX as usize,
            "tenant count exceeds the per-request tag width"
        );
        assert!(depth > 0, "multi-tenant depth 0");
        let mut configs = Vec::with_capacity(tenants.len());
        let mut merged: Vec<(IoRequest, u16)> = Vec::new();
        for (t, (config, requests)) in tenants.into_iter().enumerate() {
            configs.push(config);
            merged.extend(requests.into_iter().map(|r| (r, t as u16)));
        }
        merged.sort_by_key(|&(r, _)| r.at);
        let tags = merged.iter().map(|&(_, t)| t).collect();
        let requests = merged.into_iter().map(|(r, _)| r).collect();
        let stats = configs.iter().map(|_| TenantStats::default()).collect();
        let tenants = Tenants {
            tags,
            frontend: HostFrontend::new(configs, scheduler),
            depth,
            stats,
        };
        (requests, tenants)
    }

    /// Reads the frontend and accounting of a multi-tenant drive; the tags
    /// follow the request list and are read by the caller.
    fn ckpt_load(r: &mut CkptReader) -> Result<Self, CkptError> {
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
        let scheduler = SchedulerKind::ckpt_load(r)?;
        let depth = r.take_usize()?;
        if depth == 0 {
            return Err(CkptError::Invalid("zero multi-tenant depth".into()));
        }
        let mut frontend = HostFrontend::new(configs, scheduler);
        frontend.ckpt_load(r)?;
        let mut stats = Vec::with_capacity(count);
        for _ in 0..count {
            stats.push(TenantStats {
                all: Histogram::ckpt_load(r)?,
                read: Histogram::ckpt_load(r)?,
                write: Histogram::ckpt_load(r)?,
                bytes: r.take_u64()?,
                completed: r.take_u64()?,
                slo_violations: r.take_u64()?,
                dispatched: r.take_u64()?,
                queue_delay: r.take_time()?,
                last_completion: r.take_time()?,
            });
        }
        Ok(Tenants {
            tags: Vec::new(),
            frontend,
            depth,
            stats,
        })
    }
}

impl SsdSim {
    /// Loads a drive without running anything.
    ///
    /// On a fresh simulator `now` is zero, so trace timestamps are absolute.
    /// A simulator that has drained an earlier drive can `start` a new one:
    /// timestamps are then relative to the current simulated time, which is
    /// how the lifetime bench strings segments together.
    ///
    /// Open-loop and multi-tenant requests are stable-sorted by time and
    /// stay behind the cursor; only the configured chip failure is queued.
    /// [`SsdSim::step`] and [`SsdSim::run_to_idle`] merge the cursor with
    /// the queue in the order a queue holding every arrival would give: at
    /// equal times an arrival goes before any event queued while the drive
    /// runs, but after the chip failure, which `start` queues first. Closed
    /// loop queues `depth` `Arrive` tokens instead, each issuing the
    /// cursor's next request.
    ///
    /// # Panics
    ///
    /// Panics on a closed-loop or multi-tenant depth of 0. The run panics
    /// when it reaches a request addressing a page beyond the logical
    /// capacity ([`crate::SsdConfig::logical_bytes`]). [`crate::prepare`]
    /// rejects both up front.
    pub fn start(&mut self, drive: Drive) {
        debug_assert!(self.is_idle(), "starting a drive with work pending");
        let base = self.now;
        let (mut requests, mode) = match drive {
            Drive::OpenLoop(requests) => (requests, Mode::Timed),
            Drive::ClosedLoop { requests, depth } => {
                assert!(depth > 0, "closed-loop depth 0");
                let tokens = depth.min(requests.len());
                (requests, Mode::ClosedLoop { tokens })
            }
            Drive::MultiTenant {
                tenants,
                scheduler,
                depth,
            } => {
                let (requests, tenants) = Tenants::new(tenants, scheduler, depth);
                (requests, Mode::Tenants(tenants))
            }
        };
        if matches!(mode, Mode::Timed) {
            requests.sort_by_key(|r| r.at);
        }
        if !matches!(mode, Mode::ClosedLoop { .. }) && base > SimTime::ZERO {
            for r in &mut requests {
                r.at += base;
            }
        }
        self.drive = DriveState {
            requests,
            cursor: 0,
            mode,
        };
        self.oracle_sync();

        if !self.started {
            if let Some(spec) = self.cfg.faults.chip_failure {
                self.queue.schedule(spec.at, Event::ChipFail);
            }
        }
        self.started = true;

        if let Mode::ClosedLoop { tokens } = self.drive.mode {
            for _ in 0..tokens {
                self.queue.schedule(base, Event::Arrive);
            }
        }
    }

    /// Issues the cursor's next request, which the caller has checked is
    /// due: nothing queued fires strictly before it. The one queued event
    /// that goes first at the same instant is the chip failure, which
    /// [`SsdSim::start`] queued ahead of every arrival; it is handled
    /// instead, and the request stays next.
    pub(crate) fn issue_arrival(&mut self) {
        let at = self.drive.requests[self.drive.cursor].at;
        debug_assert!(at >= self.now, "time went backwards");
        if self.chip_failure_due(at) {
            let (t, ev) = self.queue.pop().expect("the chip failure is queued");
            debug_assert!(t == at && matches!(ev, Event::ChipFail));
            self.now = t;
            self.handle(ev);
            return;
        }
        self.event_counts[CURSOR_ARRIVAL] += 1;
        self.now = at;
        self.on_arrive();
    }

    /// Whether the configured chip failure is still queued and fires at
    /// `at`.
    fn chip_failure_due(&self, at: SimTime) -> bool {
        self.cfg
            .faults
            .chip_failure
            .is_some_and(|spec| spec.at == at && self.faults.stats().chip_failures == 0)
    }

    /// Issues the cursor's next request at the current instant: from the
    /// cursor itself (timed and multi-tenant drives) or on a queued
    /// closed-loop token.
    pub(crate) fn on_arrive(&mut self) {
        let i = self.drive.cursor;
        let r = self.drive.requests[i];
        self.drive.cursor += 1;
        self.first_arrival = self.first_arrival.min(self.now);
        self.host_bytes += r.len as u64;
        match &mut self.drive.mode {
            Mode::Timed => self.start_request(r, 0, self.now),
            Mode::ClosedLoop { tokens } => {
                *tokens -= 1;
                self.start_request(r, 0, self.now);
            }
            Mode::Tenants(t) => {
                // The request lands in its tenant's submission queue; the
                // device pulls it when the arbitration policy and the
                // outstanding budget allow.
                let tenant = t.tags[i] as usize;
                t.stats[tenant].bytes += r.len as u64;
                t.frontend.push(tenant, r);
                self.mt_dispatch();
            }
        }
    }

    /// Pulls queued requests into the device while the outstanding budget
    /// allows, charging each dispatch's queueing delay to its tenant.
    fn mt_dispatch(&mut self) {
        loop {
            let Mode::Tenants(t) = &mut self.drive.mode else {
                return;
            };
            if self.inflight_io >= t.depth {
                return;
            }
            let Some((tenant, r)) = t.frontend.pop_next() else {
                return;
            };
            let st = &mut t.stats[tenant];
            st.dispatched += 1;
            st.queue_delay += self.now.saturating_sub(r.at);
            // Latency is measured from queue arrival (`r.at`), so time spent
            // waiting behind other tenants shows up in this tenant's tail.
            self.start_request(r, tenant as u16, r.at);
        }
    }

    /// A request of `tenant` completed, served with latency `served` or
    /// failed (`None`), and freed its outstanding slot: closed loop queues
    /// the next token while the unissued requests outnumber the tokens
    /// already queued; a multi-tenant drive charges the tenant and pulls
    /// the next queued request through the arbitration policy.
    pub(crate) fn drive_completed(&mut self, tenant: u16, op: IoOp, served: Option<SimTime>) {
        let unissued = self.drive.unissued();
        match &mut self.drive.mode {
            Mode::Timed => {}
            Mode::ClosedLoop { tokens } => {
                if unissued > *tokens {
                    *tokens += 1;
                    self.queue.schedule(self.now, Event::Arrive);
                }
            }
            Mode::Tenants(t) => {
                let tenant = tenant as usize;
                let slo = t.frontend.config(tenant).slo_latency;
                let st = &mut t.stats[tenant];
                st.completed += 1;
                if let Some(lat) = served {
                    st.all.record(lat);
                    match op {
                        IoOp::Read => st.read.record(lat),
                        IoOp::Write => st.write.record(lat),
                    }
                }
                // A failed request misses any latency objective.
                if served.is_none_or(|lat| lat > slo) {
                    st.slo_violations += 1;
                }
                st.last_completion = st.last_completion.max(self.now);
                self.mt_dispatch();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An open-loop drive written by hand: tag, count, then the arrival
    /// column without runs and the offset, length and op columns with.
    fn timed(cols: [&[u64]; 4]) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.put_u8(0);
        w.put_usize(cols[0].len());
        w.put_deltas(cols[0].iter().copied(), false);
        for col in &cols[1..] {
            w.put_deltas(col.iter().copied(), true);
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<DriveState, CkptError> {
        let mut r = CkptReader::new(bytes);
        let drive = DriveState::ckpt_load(&mut r, SimTime::ZERO)?;
        r.finish()?;
        Ok(drive)
    }

    #[test]
    fn unissued_requests_are_written_as_columns() {
        let at = SimTime::from_ns;
        let drive = DriveState {
            requests: vec![
                IoRequest::new(IoOp::Write, 0, 4096, at(1)),
                IoRequest::new(IoOp::Read, 4096, 4096, at(5)),
                IoRequest::new(IoOp::Write, 0, 8192, at(9)),
            ],
            cursor: 1,
            mode: Mode::Timed,
        };
        let mut w = CkptWriter::new();
        drive.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, timed([&[5, 9], &[4096, 0], &[4096, 8192], &[0, 1]]));
        let back = load(&bytes).unwrap();
        assert_eq!(back.requests, drive.requests[1..]);
        let mut again = CkptWriter::new();
        back.ckpt_save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn bad_request_columns_are_refused() {
        for (cols, message) in [
            ([&[5u64][..], &[0], &[0], &[0]], "request length 0"),
            (
                [&[5][..], &[0], &[1 << 32], &[0]],
                "request length 4294967296",
            ),
            ([&[5][..], &[0], &[4096], &[2]], "unknown io op tag 2"),
            (
                [&[9, 5][..], &[0, 0], &[1, 1], &[0, 0]],
                "not in time order",
            ),
        ] {
            let err = load(&timed(cols)).expect_err("refused");
            assert!(err.to_string().contains(message), "{message}: got {err}");
        }
        // A count the arrival column cannot hold fails before allocating.
        let mut w = CkptWriter::new();
        w.put_u8(0);
        w.put_u64(u64::MAX / 2);
        assert!(matches!(
            load(&w.into_bytes()),
            Err(CkptError::Truncated { .. })
        ));
    }
}
