//! The event-driven SSD simulator.
//!
//! One [`SsdSim`] owns every timed resource — h-channels, v-channels, mesh
//! links, flash planes, host pipes — and advances a deterministic
//! discrete-event loop over them. I/O transactions are staged so that every
//! routing decision (the greedy h-vs-v choice, page splitting, preemptive GC
//! yielding) is made with resource state *at the moment the data is ready*.

mod ckpt;
mod drive;
mod fabric;
mod gcrun;
mod iopath;
mod mover;
mod rebuild;
mod stall;

use std::collections::VecDeque;

use nssd_faults::{FaultEngine, ReadFault, ReliabilityStats};
use nssd_flash::{FlashChip, PageAddr, Pbn};
use nssd_ftl::{Ftl, FtlConfig};
use nssd_host::{HostPipes, IoOp, IoRequest, SchedulerKind, TenantConfig};
use nssd_oracle::Oracle;
use nssd_sim::DetRng;
use nssd_sim::{EventQueue, Histogram, Reservation, Resource, SimTime};

use crate::{
    ChannelUtilSummary, EccMode, EnergySummary, EngineSummary, GcSummary, LatencySummary,
    RedundancySummary, SimReport, SsdConfig, Traffic,
};

use drive::DriveState;
pub(crate) use fabric::{FabricBackend, FabricCtx, GcEcc, SurvivorRead};
pub(crate) use gcrun::GcRuntime;
use mover::{Mover, MoverCopy};
pub(crate) use rebuild::RebuildRuntime;

/// Events driving the simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A closed-loop token: issue the drive's next request. Open-loop and
    /// multi-tenant requests never enter the queue: the cursor issues them
    /// by time (see [`SsdSim::start`]).
    Arrive,
    /// A write request's data has landed in DRAM; issue its page
    /// transactions.
    IssuePages(usize),
    /// Begin a page transaction's first channel phase.
    StartTrans(usize),
    /// The flash array finished tR (reads) or tPROG (writes).
    ArrayDone(usize),
    /// One path-half of a page data transfer finished.
    XferHalfDone(usize),
    /// A page transaction fully completed (including host DMA for reads).
    PageDone(usize),
    /// Advance a background mover's paced launching (GC also re-checks its
    /// trigger).
    Pump(Mover),
    /// Retry a starved GC trigger at `starved_until` on behalf of the
    /// writes waiting for space (one per starved period, not one per write).
    GcRetry,
    /// GC copy: source page read into the page register.
    GcCopyReadDone(usize),
    /// Mover copy: data arrived at the destination chip.
    CopyXferDone(MoverCopy),
    /// Mover copy: destination program finished.
    CopyProgDone(MoverCopy),
    /// GC: victim block erase finished.
    GcEraseDone(usize),
    /// The configured whole-chip failure fires.
    ChipFail,
}

/// [`EngineSummary::events_by_kind`] slot of arrivals issued from the
/// cursor; every [`Event`] counts in the slot of its [`Event::tag`].
const CURSOR_ARRIVAL: usize = EngineSummary::EVENT_KINDS.len() - 1;

impl Event {
    /// The event's kind: its checkpoint tag and its slot in
    /// [`EngineSummary::events_by_kind`] (named by
    /// [`EngineSummary::EVENT_KINDS`]).
    fn tag(&self) -> u8 {
        match self {
            Event::Arrive => 0,
            Event::IssuePages(_) => 1,
            Event::StartTrans(_) => 2,
            Event::ArrayDone(_) => 3,
            Event::XferHalfDone(_) => 4,
            Event::PageDone(_) => 5,
            Event::Pump(Mover::Gc) => 6,
            Event::GcCopyReadDone(_) => 7,
            Event::CopyXferDone(mc) if mc.mover() == Mover::Gc => 8,
            Event::CopyProgDone(mc) if mc.mover() == Mover::Gc => 9,
            Event::GcEraseDone(_) => 10,
            Event::ChipFail => 11,
            Event::Pump(Mover::Rebuild) => 12,
            Event::CopyXferDone(_) => 13,
            Event::CopyProgDone(_) => 14,
            Event::GcRetry => 15,
        }
    }
}

#[derive(Debug)]
struct ReqState {
    op: IoOp,
    submitted: SimTime,
    /// Owning tenant's queue index (0 outside multi-tenant runs).
    tenant: u16,
    pages_total: u32,
    pages_done: u32,
    /// Whether any page of this request failed host-visibly: a link leg
    /// exhausted its retransmissions, a read hit a page lost with its chip,
    /// or a write failed at end of life.
    failed: bool,
    /// Whether any page of this request was served by parity
    /// reconstruction (degraded-window latency accounting).
    degraded: bool,
}

/// The pages of a write request not yet issued: its data is in flight to
/// DRAM, or it is parked waiting for free space. Keyed by request slot in
/// [`SsdSim::pending_write_spans`].
#[derive(Debug, Clone, Copy)]
struct PendingSpan {
    first_page: u64,
    pages: u32,
}

#[derive(Debug)]
struct TransState {
    req: usize,
    /// Resolved physical target (read: the mapped page; write: the page the
    /// allocator granted).
    addr: PageAddr,
    is_read: bool,
    halves_left: u8,
    /// NoSSD only: the controller chosen (greedily) for this transaction.
    mesh_ctrl: u32,
    /// A CRC-framed leg of this page exhausted its retransmission budget.
    failed: bool,
    /// The mapped page sits on the fail-stopped chip: serve it by parity
    /// reconstruction from the surviving stripe members.
    degraded: bool,
}

/// How a workload drives the simulator.
///
/// Requests are host input, not device state: [`SsdSim::start`] keeps every
/// drive's requests in one list behind a cursor, so the event queue (and a
/// checkpoint) holds only in-flight work and the requests not yet issued.
/// Open-loop and multi-tenant requests issue as simulated time reaches
/// them; closed-loop requests issue on queued tokens.
#[derive(Debug, Clone)]
pub enum Drive {
    /// Open loop: requests arrive at their trace timestamps. The trace need
    /// not be sorted; requests with equal timestamps arrive in trace order.
    OpenLoop(Vec<IoRequest>),
    /// Closed loop: keep `depth` requests outstanding until all issued.
    ClosedLoop {
        /// The request list (timestamps ignored).
        requests: Vec<IoRequest>,
        /// Target number of concurrently outstanding requests.
        depth: usize,
    },
    /// Multi-tenant: each tenant's stream arrives at its trace timestamps
    /// into that tenant's submission queue; the device pulls from the
    /// queues through the arbitration policy, keeping at most `depth`
    /// requests outstanding. Latency is measured from queue arrival, so
    /// cross-tenant queueing interference is visible per tenant in
    /// [`SimReport::tenants`].
    MultiTenant {
        /// Per-tenant QoS configuration and request stream, in queue-index
        /// order (arbitration ties break toward the earlier tenant).
        tenants: Vec<(TenantConfig, Vec<IoRequest>)>,
        /// Queue-arbitration policy.
        scheduler: SchedulerKind,
        /// Outstanding-request budget shared by all tenants.
        depth: usize,
    },
}

/// The full-system SSD simulator.
///
/// Construct with [`SsdSim::new`], optionally precondition via
/// [`SsdSim::ftl_mut`], then [`SsdSim::run`] a [`Drive`].
#[derive(Debug)]
pub struct SsdSim {
    cfg: SsdConfig,
    now: SimTime,
    queue: EventQueue<Event>,
    /// Reusable same-tick dispatch buffer for [`SsdSim::run_to_idle`];
    /// always empty between events, kept on the struct so its capacity
    /// survives across batches and the hot loop never allocates.
    batch: Vec<Event>,
    /// Reusable survivor-read buffer for [`SsdSim::reconstruct`]; empty
    /// between reconstructions, kept so degraded reads and rebuild copies
    /// never allocate.
    survivor_reads: Vec<SurvivorRead>,
    pub(crate) ftl: Ftl,
    pub(crate) chips: Vec<FlashChip>,
    pub(crate) h_channels: Vec<Resource>,
    pub(crate) v_channels: Vec<Resource>,
    pub(crate) mesh_links: Vec<Resource>,
    /// The controller's FTL cores (Fig 2); contended only when
    /// `ftl_page_latency` is nonzero.
    ftl_cores: Vec<Resource>,
    /// Cached `next_free` per FTL core, indexed by core. A handful of cores
    /// means the min scan is a few branchless compares over one cache line —
    /// cheaper than the old `BinaryHeap` pop/push pair and allocation-free.
    /// Entries stay exact because [`SsdSim::ftl_compute`] is the only
    /// mutator of the core timelines; first-wins on ties reproduces the
    /// heap's `(time, index)` ordering bit-for-bit.
    ftl_core_free: Vec<SimTime>,
    pub(crate) host: HostPipes,
    /// The architecture's data-movement backend; the only per-architecture
    /// dispatch happens once, at construction (see [`fabric::build`]).
    fabric: Box<dyn FabricBackend>,
    /// The started drive: its unissued requests and how they issue.
    drive: DriveState,
    /// Events handled over the simulator's lifetime, per kind
    /// ([`EngineSummary::events_by_kind`]). Arrivals issued from the cursor
    /// count in their own slot; each stands in for the `Arrive` event it
    /// replaced, so [`EngineSummary::scheduled_events`] still counts it once.
    event_counts: [u64; EngineSummary::EVENT_KINDS.len()],
    requests: Vec<ReqState>,
    /// Completed request slots available for reuse (a slot recycles only
    /// after its last page completes, so a live id is never aliased).
    req_free: Vec<usize>,
    trans: Vec<TransState>,
    /// Completed page-transaction slots available for reuse (`PageDone` is
    /// always a transaction's final event). Keeps memory bounded on
    /// multi-million-page runs instead of growing one state per page.
    trans_free: Vec<usize>,
    /// In-flight write spans, indexed by request slot (at most one per
    /// request). Slab-parallel to `requests`, so insertion and removal are
    /// plain indexed stores with no hashing on the write hot path.
    pending_write_spans: Vec<Option<PendingSpan>>,
    /// Write requests stalled on free space, oldest first. Each waits with
    /// the rest of its span in `pending_write_spans` and is woken in order
    /// when space may have freed ([`SsdSim::wake_parked`]). The buffer
    /// keeps its capacity, so steady-state parking allocates nothing.
    parked: VecDeque<usize>,
    /// When the device reached end of life: a write had to wait for space
    /// that nothing could free any more. From then on writes fail
    /// host-visibly and reads keep working.
    end_of_life: Option<SimTime>,
    pub(crate) inflight_io: usize,
    // GC.
    pub(crate) gc: GcRuntime,
    // Background rebuild after a redundant chip failure.
    pub(crate) rebuild: RebuildRuntime,
    /// Per-parity-group count of data programs since the last parity
    /// write; at `stripe_width - 1` one rotated parity program is charged.
    /// Empty when redundancy is off.
    parity_pending: Vec<u32>,
    /// Per-parity-group rotation position of the next parity write.
    parity_rot: Vec<u32>,
    /// LPNs lost to a chip failure without parity, sorted: host reads of
    /// these complete as host-visible I/O errors.
    lost_pages: Vec<u64>,
    pub(crate) rng: DetRng,
    // Shadow oracle (None unless `cfg.oracle`), cross-checking every
    // functional action in lockstep.
    pub(crate) oracle: Option<Oracle>,
    /// Whether the oracle has adopted the FTL state built before `run()`
    /// (preconditioning happens outside the observed event stream).
    oracle_synced: bool,
    // Fault injection.
    pub(crate) faults: FaultEngine,
    // Statistics.
    all_lat: Histogram,
    read_lat: Histogram,
    write_lat: Histogram,
    /// Latency of requests that included a reconstructed (degraded) page.
    degraded_lat: Histogram,
    completed: u64,
    unmapped_reads: u64,
    host_bytes: u64,
    first_arrival: SimTime,
    last_completion: SimTime,
    /// Whether [`SsdSim::start`] has run at least once (the one-shot chip
    /// failure is scheduled only on the first drive).
    started: bool,
    /// Host wall-clock spent inside the event loop (reported, never part of
    /// the canonical snapshot — see [`crate::golden`]).
    loop_wall: std::time::Duration,
}

impl SsdSim {
    /// Builds an idle simulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration field.
    pub fn new(cfg: SsdConfig) -> Result<Self, String> {
        cfg.validate()?;
        let g = cfg.geometry;
        let mut ftl = Ftl::new(FtlConfig {
            geometry: g,
            alloc_policy: cfg.alloc_policy,
            op_ratio: cfg.op_ratio,
            endurance_limit: cfg.endurance_limit,
            gc: cfg.gc,
            redundancy: cfg.redundancy,
        })
        .map_err(|e| e.to_string())?;
        // Factory bad blocks are retired before the device ever serves I/O;
        // with a zero rate this draws no randomness at all.
        let mut faults = FaultEngine::new(cfg.faults);
        let marked =
            ftl.mark_manufacture_bad(cfg.faults.bad_blocks.manufacture_rate, faults.rng_mut());
        faults.note_manufacture_bad(marked as u64);

        let oracle = cfg.oracle.then(|| Oracle::new(g, ftl.logical_pages()));
        // The FTL's copy of the GC configuration holds the plan it resolved.
        let gc = GcRuntime::new(&ftl.config().gc, g.ways);

        let chips = (0..g.chip_count())
            .map(|_| FlashChip::new(&g, cfg.timing))
            .collect();
        let h_channels = (0..g.channels)
            .map(|_| Resource::with_recorder(cfg.util_window, Traffic::COUNT))
            .collect();
        let fabric = fabric::build(&cfg);
        // No report reads a v-channel's windows: its busy total (energy)
        // is all the run uses.
        let v_channels = (0..fabric.v_channel_count())
            .map(|_| Resource::new())
            .collect();
        // Only the edge links (injection `c`, ejection `channels + c`) feed
        // the utilization report; interior links keep plain busy accounting,
        // so routing a packet never grows a recorder it would not read.
        let edge_links = 2 * g.channels as usize;
        let mesh_links = (0..fabric.mesh_link_count())
            .map(|l| {
                if l < edge_links {
                    Resource::with_recorder(cfg.util_window, Traffic::COUNT)
                } else {
                    Resource::new()
                }
            })
            .collect();

        let sim = SsdSim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            batch: Vec::new(),
            survivor_reads: Vec::new(),
            ftl,
            chips,
            h_channels,
            v_channels,
            mesh_links,
            ftl_cores: (0..SsdConfig::FTL_CORES).map(|_| Resource::new()).collect(),
            ftl_core_free: vec![SimTime::ZERO; SsdConfig::FTL_CORES],
            host: HostPipes::new(cfg.host_params()),
            fabric,
            drive: DriveState::default(),
            event_counts: [0; EngineSummary::EVENT_KINDS.len()],
            requests: Vec::new(),
            req_free: Vec::new(),
            trans: Vec::new(),
            trans_free: Vec::new(),
            pending_write_spans: Vec::new(),
            parked: VecDeque::new(),
            end_of_life: None,
            inflight_io: 0,
            gc,
            rebuild: RebuildRuntime::default(),
            parity_pending: if cfg.redundancy.enabled {
                vec![0; cfg.redundancy.group_count(&g) as usize]
            } else {
                Vec::new()
            },
            parity_rot: if cfg.redundancy.enabled {
                vec![0; cfg.redundancy.group_count(&g) as usize]
            } else {
                Vec::new()
            },
            lost_pages: Vec::new(),
            rng: DetRng::seed_from_u64(cfg.seed),
            oracle,
            oracle_synced: false,
            faults,
            all_lat: Histogram::new(),
            read_lat: Histogram::new(),
            write_lat: Histogram::new(),
            degraded_lat: Histogram::new(),
            completed: 0,
            unmapped_reads: 0,
            host_bytes: 0,
            first_arrival: SimTime::MAX,
            last_completion: SimTime::ZERO,
            started: false,
            loop_wall: std::time::Duration::ZERO,
            cfg,
        };
        Ok(sim)
    }

    /// Splits the simulator into the fabric backend and the resource
    /// context it reserves against — disjoint field borrows, so the
    /// caller's other state (queue, trans, gc, …) stays usable.
    pub(crate) fn fabric_parts(&mut self) -> (&dyn FabricBackend, FabricCtx<'_>) {
        (
            self.fabric.as_ref(),
            FabricCtx {
                h_channels: &mut self.h_channels,
                v_channels: &mut self.v_channels,
                mesh_links: &mut self.mesh_links,
                faults: &mut self.faults,
                host: &mut self.host,
            },
        )
    }

    /// The GC ECC charges under the configured mode, resolved once per copy
    /// for the fabric backend.
    pub(crate) fn gc_ecc(&self) -> GcEcc {
        GcEcc {
            staged: self.ecc_gc_staged_delay(),
            f2f: self.ecc_f2f_delay(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Immutable FTL access (inspection).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access, for preconditioning before [`SsdSim::run`].
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Deterministic RNG access (shares the simulator seed).
    pub fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Reliability counters accumulated by the fault engine so far.
    pub fn reliability(&self) -> ReliabilityStats {
        self.faults.stats()
    }

    /// The cumulative end-to-end latency histogram (all operations).
    /// Snapshot it between [`SsdSim::start`] segments and use
    /// [`Histogram::delta_since`] for per-segment tails.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.all_lat
    }

    /// Makes the shadow oracle (when enabled) adopt the FTL's current state
    /// as ground truth. Called automatically at the start of [`SsdSim::run`]
    /// if it has not happened yet, so preconditioning done via
    /// [`SsdSim::ftl_mut`] is trusted rather than flagged. Mutation
    /// self-tests call it explicitly *before* corrupting the FTL, so the
    /// corruption stays visible to the oracle.
    pub fn oracle_sync(&mut self) {
        if let Some(oracle) = self.oracle.as_mut() {
            if !self.oracle_synced {
                oracle.sync_from_ftl(&self.ftl);
                self.oracle_synced = true;
            }
        }
    }

    fn page_bytes(&self) -> u32 {
        self.cfg.geometry.page_bytes
    }

    /// Occupies the least-loaded FTL core for one page operation's compute
    /// and returns when it completes (`now` unchanged when the FTL compute
    /// model is disabled).
    fn ftl_compute(&mut self, now: SimTime) -> SimTime {
        let dur = self.cfg.ftl_page_latency;
        if dur.is_zero() {
            return now;
        }
        let mut core = 0usize;
        for (i, &free) in self.ftl_core_free.iter().enumerate().skip(1) {
            if free < self.ftl_core_free[core] {
                core = i;
            }
        }
        let end = self.ftl_cores[core].reserve(now, dur).end;
        self.ftl_core_free[core] = end;
        end
    }

    /// Allocates a request slot, reusing a completed one when available.
    fn alloc_req(&mut self, st: ReqState) -> usize {
        match self.req_free.pop() {
            Some(i) => {
                self.requests[i] = st;
                i
            }
            None => {
                self.requests.push(st);
                self.requests.len() - 1
            }
        }
    }

    /// Records `span` as request `req`'s in-flight write span, growing the
    /// slab to cover the slot.
    fn set_pending_span(&mut self, req: usize, span: PendingSpan) {
        if self.pending_write_spans.len() <= req {
            self.pending_write_spans.resize(req + 1, None);
        }
        self.pending_write_spans[req] = Some(span);
    }

    /// Allocates a page-transaction slot, reusing a completed one when
    /// available.
    fn alloc_trans(&mut self, st: TransState) -> usize {
        match self.trans_free.pop() {
            Some(t) => {
                self.trans[t] = st;
                t
            }
            None => {
                self.trans.push(st);
                self.trans.len() - 1
            }
        }
    }

    /// Controller ECC decode added to every host read (§VIII); zero in the
    /// paper's main (ideal) setting.
    pub(crate) fn ecc_host_read_delay(&self) -> SimTime {
        match self.cfg.ecc {
            EccMode::Ideal => SimTime::ZERO,
            EccMode::Hybrid | EccMode::ControllerStrict => EccMode::CONTROLLER_DECODE,
        }
    }

    /// ECC cost of staging a GC copy through the controller (decode +
    /// re-encode).
    pub(crate) fn ecc_gc_staged_delay(&self) -> SimTime {
        match self.cfg.ecc {
            EccMode::Ideal => SimTime::ZERO,
            EccMode::Hybrid | EccMode::ControllerStrict => EccMode::CONTROLLER_DECODE * 2,
        }
    }

    /// ECC cost of a direct flash-to-flash copy, or `None` when the mode
    /// forbids bypassing the controller's decoder.
    pub(crate) fn ecc_f2f_delay(&self) -> Option<SimTime> {
        match self.cfg.ecc {
            EccMode::Ideal => Some(SimTime::ZERO),
            EccMode::Hybrid => Some(EccMode::ON_DIE_CHECK),
            EccMode::ControllerStrict => None,
        }
    }

    /// Runs the workload to completion and returns the report.
    pub fn run(mut self, drive: Drive) -> SimReport {
        let wall_start = std::time::Instant::now();
        self.start(drive);
        self.run_to_idle();
        self.loop_wall = wall_start.elapsed();
        self.into_report()
    }

    /// Advances the simulation by exactly one event or arrival (or fails the
    /// writes stranded at end of life, see [`SsdSim::end_of_life`]); `false`
    /// once the event queue and the arrival cursor have both drained (the
    /// started drive is complete).
    pub fn step(&mut self) -> bool {
        let popped = match self.drive.next_timed() {
            None => self.queue.pop(),
            Some(at) => match self.queue.pop_before(at) {
                None => {
                    self.issue_arrival();
                    return true;
                }
                popped => popped,
            },
        };
        match popped {
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "time went backwards");
                self.now = t;
                self.handle(ev);
                true
            }
            None => self.resolve_deadlock(),
        }
    }

    /// Drains the event queue and the arrival cursor with same-tick batch
    /// dispatch: all events pending at one instant are popped in a single
    /// bucket access, then handled in FIFO order. Events a handler schedules
    /// for the current instant land in the next batch at the same time, and
    /// a batch is popped only when it is strictly earlier than the next
    /// arrival, so the handle order is exactly the order repeated
    /// [`SsdSim::step`] calls would produce — this is a faster loop, not a
    /// different schedule.
    pub fn run_to_idle(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            let next = self.drive.next_timed();
            let popped = match next {
                None => self.queue.pop_batch(&mut batch),
                Some(at) => self.queue.pop_batch_before(at, &mut batch),
            };
            match popped {
                Some(t) => {
                    debug_assert!(t >= self.now, "time went backwards");
                    self.now = t;
                    for ev in batch.drain(..) {
                        self.handle(ev);
                    }
                }
                None if next.is_some() => self.issue_arrival(),
                None if self.resolve_deadlock() => {}
                None => break,
            }
        }
        self.batch = batch;
    }

    /// Whether the started drive is complete: no event is pending and every
    /// arrival has been issued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.drive.unissued() == 0
    }

    /// Number of events pending in the event queue. Requests not yet
    /// issued are not events (closed loop queues at most `depth` tokens
    /// for them), so this is bounded by in-flight work rather than by the
    /// trace length.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Host requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Write requests waiting for free space right now.
    pub fn parked_writes(&self) -> usize {
        self.parked.len()
    }

    /// When the device reached end of life, if it has: a write had to wait
    /// for space nothing could free any more (garbage collection idle with
    /// no block it could reclaim, or a collection stuck with every copy
    /// waiting for a page). Writes fail from then on; reads still work.
    pub fn end_of_life(&self) -> Option<SimTime> {
        self.end_of_life
    }

    /// Consumes the simulator and produces the final report.
    pub fn into_report(self) -> SimReport {
        self.report()
    }

    fn handle(&mut self, ev: Event) {
        self.event_counts[ev.tag() as usize] += 1;
        match ev {
            Event::Arrive => self.on_arrive(),
            Event::IssuePages(req) => self.on_issue_pages(req),
            Event::StartTrans(t) => self.on_start_trans(t),
            Event::ArrayDone(t) => self.on_array_done(t),
            Event::XferHalfDone(t) => self.on_xfer_half_done(t),
            Event::PageDone(t) => self.on_page_done(t),
            Event::Pump(m) => self.pump(m),
            Event::GcRetry => self.gc_retry(),
            Event::GcCopyReadDone(c) => self.gc_copy_read_done(c),
            Event::CopyXferDone(mc) => self.copy_xfer_done(mc.mover(), mc.index()),
            Event::CopyProgDone(mc) => self.copy_prog_done(mc.mover(), mc.index()),
            Event::GcEraseDone(v) => self.gc_erase_done(v),
            Event::ChipFail => self.on_chip_fail(),
        }
    }

    /// Handles the scheduled fail-stop chip failure. The outcome follows
    /// from whether parity is configured:
    ///
    /// * **With parity:** mappings stay in place, reads of the dead chip are
    ///   served by reconstruction, and a paced background rebuild re-places
    ///   every degraded page. The oracle is *not* resynced — its content
    ///   tokens must survive the failure byte-for-byte, which is exactly the
    ///   zero-silent-loss claim.
    /// * **Without parity:** the chip's live pages are gone; host reads of
    ///   them complete as host-visible I/O errors.
    fn on_chip_fail(&mut self) {
        let spec = self
            .cfg
            .faults
            .chip_failure
            .expect("ChipFail only scheduled with a spec");
        let out = self.ftl.fail_chip(spec.channel, spec.way);
        self.faults.note_chip_failure(out.lost.len() as u64);
        if self.ftl.redundancy().enabled {
            self.faults.note_pages_degraded(out.pages_degraded);
            self.start_rebuild();
            return;
        }
        self.lost_pages = out.lost.iter().map(|l| l.raw()).collect();
        // The failure dropped mappings outside the observed event stream:
        // resync the shadow model.
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.sync_from_ftl(&self.ftl);
        }
    }

    /// Samples the bit-error outcome of reading one page. Free (no RNG
    /// draw) when faults are off.
    pub(crate) fn sample_read_fault(&mut self) -> ReadFault {
        if !self.faults.active() {
            return ReadFault::NONE;
        }
        self.faults.page_read(self.page_bytes() as u64 * 8)
    }

    /// Chains a faulty read's extra senses (full tR each, back-to-back on
    /// the plane) and the soft-decode latency after the base sense; returns
    /// when the corrected data is actually available. Uncorrectable pages
    /// still pay the full ladder — the device only learns the read failed
    /// after exhausting it.
    pub(crate) fn apply_read_fault(
        &mut self,
        chip: usize,
        addr: PageAddr,
        read_end: SimTime,
        fault: ReadFault,
    ) -> SimTime {
        let mut end = read_end;
        if fault.extra_senses > 0 {
            end = self.chips[chip]
                .reserve_read_retries(addr.die, addr.plane, end, fault.extra_senses)
                .expect("extra_senses > 0 reserves at least one sense")
                .end;
        }
        if fault.soft_decode {
            end += nssd_faults::SOFT_DECODE;
        }
        end
    }

    /// Accrues one data program of block `pbn`, finished at `at`, toward
    /// its parity group; every `stripe_width - 1` programs one rotated
    /// parity write is charged — the fabric write-in plus the plane
    /// program on the group's current parity chip. Purely a
    /// timing/bandwidth model: parity *content* is implicit in the capacity
    /// the FTL reserved. No-op with redundancy off, so baseline runs are
    /// untouched.
    pub(crate) fn note_programmed(&mut self, pbn: Pbn, at: SimTime) {
        let red = self.cfg.redundancy;
        if !red.enabled {
            return;
        }
        let g = self.cfg.geometry;
        let a = g.block_addr(pbn);
        let group = red.group_index(&g, a.channel, a.way) as usize;
        self.parity_pending[group] += 1;
        if self.parity_pending[group] < red.stripe_width - 1 {
            return;
        }
        self.parity_pending[group] = 0;
        let rot = self.parity_rot[group];
        self.parity_rot[group] = (rot + 1) % red.stripe_width;
        let channel = red.group_base(a.channel) + rot;
        if self.ftl.dead_chip() == Some((channel, a.way)) {
            // The rotation landed on the dead chip: the stripe runs
            // unprotected until rebuild completes; nothing to write.
            return;
        }
        let addr = PageAddr {
            channel,
            way: a.way,
            die: a.die,
            plane: a.plane,
            block: a.block,
            page: 0,
        };
        let page = self.page_bytes();
        let tag = Traffic::Gc.tag();
        let plan_end = {
            let (fabric, mut ctx) = self.fabric_parts();
            let plan = fabric.reserve_write_in(&mut ctx, addr, page, at, tag);
            plan.ends().fold(SimTime::ZERO, SimTime::max)
        };
        let chip = self.chip_index(addr);
        self.chips[chip].reserve_program(addr.die, addr.plane, plan_end);
    }

    fn report(mut self) -> SimReport {
        let oracle_summary = match self.oracle.take() {
            Some(mut oracle) => {
                oracle.final_check(&self.ftl, self.now);
                oracle.summary()
            }
            None => Default::default(),
        };
        // A run that completed nothing has no utilization to window; the
        // `+ 1` formula would still allocate one window per channel.
        let windows = if self.completed == 0 {
            0
        } else {
            (self.last_completion.as_ns() / self.cfg.util_window.as_ns() + 1) as usize
        };
        let per_channel = |tag: usize| -> Vec<Vec<f64>> {
            self.h_channels
                .iter()
                .map(|c| {
                    c.recorder()
                        .map(|r| r.fractions(tag, windows))
                        .unwrap_or_default()
                })
                .collect()
        };
        // Mesh architectures report edge-link utilization per column.
        let per_channel_mesh = |tag: usize| -> Vec<Vec<f64>> {
            let cols = self.cfg.geometry.channels as usize;
            (0..cols)
                .map(|c| {
                    // inject link c and eject link cols + c.
                    let mut v = vec![0.0; windows];
                    for link in [c, cols + c] {
                        if let Some(r) = self.mesh_links[link].recorder() {
                            for (w, f) in r.fractions(tag, windows).into_iter().enumerate() {
                                v[w] += f;
                            }
                        }
                    }
                    v
                })
                .collect()
        };
        let util = if self.fabric.mesh_link_count() > 0 {
            ChannelUtilSummary {
                read: per_channel_mesh(Traffic::HostRead.tag()),
                write: per_channel_mesh(Traffic::HostWrite.tag()),
                gc: per_channel_mesh(Traffic::Gc.tag()),
                window: self.cfg.util_window,
            }
        } else {
            ChannelUtilSummary {
                read: per_channel(Traffic::HostRead.tag()),
                write: per_channel(Traffic::HostWrite.tag()),
                gc: per_channel(Traffic::Gc.tag()),
                window: self.cfg.util_window,
            }
        };
        let pj_to_mj = 1e-9;
        let bytes_of =
            |res: &Resource, bps: u64| res.busy_total().as_ns() as f64 * bps as f64 / 1e9;
        let h_bps = self.cfg.h_bus().bytes_per_sec();
        let v_bps = self.cfg.v_bus().bytes_per_sec();
        let energy = EnergySummary {
            h_channel_mj: self
                .h_channels
                .iter()
                .map(|c| bytes_of(c, h_bps) * SsdConfig::PJ_PER_BYTE_CHANNEL * pj_to_mj)
                .sum(),
            v_channel_mj: self
                .v_channels
                .iter()
                .map(|c| bytes_of(c, v_bps) * SsdConfig::PJ_PER_BYTE_CHANNEL * pj_to_mj)
                .sum(),
            mesh_mj: {
                let link_bps = self.cfg.mesh_params().link.bytes_per_sec();
                self.mesh_links
                    .iter()
                    .map(|c| bytes_of(c, link_bps) * SsdConfig::PJ_PER_BYTE_HOP * pj_to_mj)
                    .sum()
            },
            host_bytes: self.host_bytes,
        };
        SimReport {
            architecture: self.cfg.architecture,
            completed: self.completed,
            unmapped_reads: self.unmapped_reads,
            first_arrival: if self.first_arrival == SimTime::MAX {
                SimTime::ZERO
            } else {
                self.first_arrival
            },
            last_completion: self.last_completion,
            end_of_life: self.end_of_life,
            all: LatencySummary::from_histogram(&self.all_lat),
            read: LatencySummary::from_histogram(&self.read_lat),
            write: LatencySummary::from_histogram(&self.write_lat),
            gc: GcSummary {
                events: self.gc.events_completed,
                total_time: self.gc.total_time,
                mean_time: if self.gc.events_completed == 0 {
                    SimTime::ZERO
                } else {
                    self.gc.total_time / self.gc.events_completed
                },
                pages_copied: self.gc.pages_copied,
                blocks_erased: self.gc.blocks_erased,
            },
            ftl: self.ftl.stats(),
            wear: self.ftl.blocks().wear_summary(),
            wear_tracked: self.gc.spec().is_some_and(|s| s.tracks_wear()),
            channel_util: util,
            energy,
            reliability: self.faults.stats(),
            redundancy: self.cfg.redundancy.enabled.then(|| RedundancySummary {
                stripe_width: self.cfg.redundancy.stripe_width,
                degraded: LatencySummary::from_histogram(&self.degraded_lat),
                rebuild_pages: self.faults.stats().rebuild_pages,
                rebuild_started: self.rebuild.started_at,
                rebuild_completed: self.rebuild.finished_at,
            }),
            tenants: self.drive.tenant_summaries(),
            oracle: oracle_summary,
            engine: EngineSummary {
                scheduled_events: self.queue.scheduled_total() + self.event_counts[CURSOR_ARRIVAL],
                wall_clock: self.loop_wall,
                events_by_kind: self.event_counts,
            },
        }
    }
}

/// Reserves one packetized data transfer on `res`, charging any
/// CRC-detected retransmission (NAK signalling, back-off — exponentially
/// growing when configured — then a full re-send) on the same channel
/// timeline. With faults off this is exactly one clean reservation and
/// draws no randomness. The `bool` reports whether the payload was
/// eventually delivered intact; a `false` must surface as a host-visible
/// I/O error on request paths.
pub(crate) fn reserve_with_link_faults(
    res: &mut Resource,
    faults: &mut FaultEngine,
    at: SimTime,
    dur: SimTime,
    bytes: u64,
    tag: usize,
) -> (Reservation, bool) {
    let out = faults.crc_transfer(bytes);
    let link = faults.config().link;
    let mut r = res.reserve_tagged(at, dur, tag);
    for attempt in 1..out.attempts {
        r = res.reserve_tagged(r.end + link.retry_gap(attempt), dur, tag);
    }
    (r, out.delivered)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cached-vector FTL-core pick must reproduce the reference scan
    /// (`min_by_key` over `(next_free, index)`) choice-for-choice — the same
    /// contract the interim `BinaryHeap` held: a mirror set of resources is
    /// driven by the reference scan, and both the returned completion times
    /// and the final per-core timelines must agree at every step.
    #[test]
    fn core_pick_matches_reference_scan() {
        let mut cfg = SsdConfig::tiny(crate::Architecture::BaseSsd);
        cfg.ftl_page_latency = SimTime::from_ns(250);
        let dur = cfg.ftl_page_latency;
        let mut sim = SsdSim::new(cfg).unwrap();
        let mut mirror: Vec<Resource> =
            (0..SsdConfig::FTL_CORES).map(|_| Resource::new()).collect();
        let mut now = SimTime::ZERO;
        for step in 0..500u64 {
            let got = sim.ftl_compute(now);
            let core = mirror
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (c.next_free(), *i))
                .map(|(i, _)| i)
                .unwrap();
            let want = mirror[core].reserve(now, dur).end;
            assert_eq!(got, want, "completion time diverged at step {step}");
            for (i, m) in mirror.iter().enumerate() {
                assert_eq!(
                    sim.ftl_cores[i].next_free(),
                    m.next_free(),
                    "core {i} timeline diverged at step {step}"
                );
            }
            // Irregular arrival gaps (including bursts of simultaneous
            // requests) so ties between cores actually occur.
            now += SimTime::from_ns((step % 7) * 67);
        }
    }

    /// Recycled slots keep `requests`/`trans` bounded by the in-flight
    /// population rather than the run length: a serial closed-loop run of
    /// 64 one-page writes must never grow either table past a handful of
    /// slots. Drives the event loop by hand so the tables remain
    /// observable at every step ([`SsdSim::run`] consumes the simulator).
    #[test]
    fn slot_pools_stay_bounded_across_a_run() {
        let mut cfg = SsdConfig::tiny(crate::Architecture::BaseSsd);
        cfg.gc.plan = None;
        cfg.seed = 42;
        let page = cfg.geometry.page_bytes;
        let mut sim = SsdSim::new(cfg).unwrap();
        let requests = (0..64u64)
            .map(|i| IoRequest::new(IoOp::Write, (i % 8) * page as u64, page, SimTime::ZERO))
            .collect();
        sim.start(Drive::ClosedLoop { requests, depth: 1 });
        let (mut max_reqs, mut max_trans) = (0, 0);
        while let Some((t, ev)) = sim.queue.pop() {
            sim.now = t;
            sim.handle(ev);
            max_reqs = max_reqs.max(sim.requests.len());
            max_trans = max_trans.max(sim.trans.len());
        }
        assert_eq!(sim.completed, 64);
        assert!(max_reqs <= 2, "request slots grew to {max_reqs}");
        assert!(max_trans <= 4, "trans slots grew to {max_trans}");
    }
}
