//! NVMe-style multi-tenant submission frontend.
//!
//! Real deployments of a high-bandwidth SSD serve many tenants through
//! multi-queue submission with per-tenant quality of service. This module
//! models that layer: each tenant owns a weighted [`SubmissionQueue`] with
//! an SLO class, and a pluggable [`QueueScheduler`] — round-robin, strict
//! priority, or weighted-fair, mirroring NVMe's arbitration classes —
//! decides which queue the device pulls from next. The scheduler is one
//! trait behind one construction-time dispatch ([`SchedulerKind::build`]),
//! the same shape as the engine's fabric-backend extraction.
//!
//! Everything here is untimed and deterministic: the engine drives
//! [`HostFrontend::pop_next`] whenever it has an outstanding-request slot
//! free, and ties between queues always break toward the lower index.
//!
//! ```
//! use nssd_host::{HostFrontend, IoOp, IoRequest, SchedulerKind, SloClass, TenantConfig};
//! use nssd_sim::SimTime;
//!
//! let tenants = vec![
//!     TenantConfig::new("latency", 3, SloClass::LatencySensitive),
//!     TenantConfig::new("batch", 1, SloClass::Throughput),
//! ];
//! let mut fe = HostFrontend::new(tenants, SchedulerKind::WeightedFair);
//! fe.push(0, IoRequest::new(IoOp::Read, 0, 4096, SimTime::ZERO));
//! let (tenant, _req) = fe.pop_next().unwrap();
//! assert_eq!(tenant, 0);
//! ```

use core::fmt;
use std::collections::VecDeque;

use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use crate::IoRequest;

/// Service-level-objective class of a tenant, mapping to a preset
/// completion-latency target. The engine counts a violation whenever a
/// request's end-to-end latency (submission-queue arrival to completion,
/// queueing included) exceeds the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Interactive serving: tight tail target (1 ms).
    LatencySensitive,
    /// Bulk/bandwidth work: loose target (20 ms).
    Throughput,
    /// Background/scavenger traffic: nominal target (100 ms).
    BestEffort,
}

impl SloClass {
    /// The class's completion-latency target.
    pub fn target(self) -> SimTime {
        match self {
            SloClass::LatencySensitive => SimTime::from_ms(1),
            SloClass::Throughput => SimTime::from_ms(20),
            SloClass::BestEffort => SimTime::from_ms(100),
        }
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::LatencySensitive => "latency",
            SloClass::Throughput => "throughput",
            SloClass::BestEffort => "best-effort",
        }
    }
}

/// One tenant's identity and service parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant name (reported per tenant in the run summary).
    pub name: String,
    /// Scheduling weight (≥ 1); meaningful under strict-priority (higher
    /// wins) and weighted-fair (bandwidth share) arbitration.
    pub weight: u32,
    /// Completion-latency target counted against
    /// (see [`SloClass::target`]).
    pub slo_latency: SimTime,
}

impl TenantConfig {
    /// A tenant with the class's preset latency target.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn new(name: impl Into<String>, weight: u32, slo: SloClass) -> Self {
        assert!(weight >= 1, "tenant weight must be at least 1");
        TenantConfig {
            name: name.into(),
            weight,
            slo_latency: slo.target(),
        }
    }

    /// Overrides the latency target (builder style).
    pub fn with_slo_latency(mut self, target: SimTime) -> Self {
        self.slo_latency = target;
        self
    }
}

/// One tenant's FIFO submission queue.
#[derive(Debug)]
pub struct SubmissionQueue {
    config: TenantConfig,
    fifo: VecDeque<IoRequest>,
}

impl SubmissionQueue {
    fn new(config: TenantConfig) -> Self {
        SubmissionQueue {
            config,
            fifo: VecDeque::new(),
        }
    }

    /// The owning tenant's configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// Queued (not yet dispatched) requests.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// The request the scheduler would dispatch next from this queue.
    pub fn front(&self) -> Option<&IoRequest> {
        self.fifo.front()
    }
}

/// Queue-arbitration policy: given the submission queues, picks which one
/// the device services next.
///
/// Implementations must be deterministic — same queue states, same pick —
/// and must only return the index of a non-empty queue. Ties break toward
/// the lower index by convention, so reports are independent of everything
/// but the request streams.
pub trait QueueScheduler: fmt::Debug + Send {
    /// Short label used in experiment tables.
    fn label(&self) -> &'static str;

    /// The index of the next queue to service, or `None` when all queues
    /// are empty.
    fn pick(&mut self, queues: &[SubmissionQueue]) -> Option<usize>;

    /// Observes a dispatch of `bytes` from `queue` (whose configured weight
    /// is `weight`) — the hook stateful policies account service with.
    fn note_dispatch(&mut self, _queue: usize, _weight: u32, _bytes: u32) {}

    /// The policy's mutable state as a flat word vector, for checkpointing.
    /// Stateless policies return the default empty vector.
    fn export_state(&self) -> Vec<u128> {
        Vec::new()
    }

    /// Restores state captured by [`QueueScheduler::export_state`].
    ///
    /// # Errors
    ///
    /// Returns a message when the vector does not match the policy's shape.
    fn import_state(&mut self, state: &[u128]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} scheduler carries no state, got {} words",
                self.label(),
                state.len()
            ))
        }
    }
}

/// Round-robin arbitration: rotate over non-empty queues, one request each.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl QueueScheduler for RoundRobin {
    fn label(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&mut self, queues: &[SubmissionQueue]) -> Option<usize> {
        let n = queues.len();
        for off in 0..n {
            let i = (self.next + off) % n;
            if !queues[i].is_empty() {
                self.next = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    fn export_state(&self) -> Vec<u128> {
        vec![self.next as u128]
    }

    fn import_state(&mut self, state: &[u128]) -> Result<(), String> {
        match state {
            [next] => {
                self.next = usize::try_from(*next)
                    .map_err(|_| "round-robin cursor overflows usize".to_string())?;
                Ok(())
            }
            _ => Err(format!(
                "round-robin state must be one word, got {}",
                state.len()
            )),
        }
    }
}

/// Strict-priority arbitration: always the highest-weight non-empty queue
/// (ties toward the lower index); lower-weight tenants are served only when
/// every heavier queue is drained.
#[derive(Debug, Default)]
pub struct StrictPriority;

impl QueueScheduler for StrictPriority {
    fn label(&self) -> &'static str {
        "strict-priority"
    }

    fn pick(&mut self, queues: &[SubmissionQueue]) -> Option<usize> {
        queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .max_by(|(i, a), (j, b)| {
                // max_by keeps the *last* maximal element; order equal
                // weights by descending index so the lower index wins.
                (a.config.weight, std::cmp::Reverse(*i)).cmp(&(b.config.weight, Reverse(*j)))
            })
            .map(|(i, _)| i)
    }
}

use std::cmp::Reverse;

/// Weighted-fair queueing via integer virtual finish times.
///
/// Each queue carries a virtual finish time that advances by
/// `bytes × SCALE / weight` per dispatch; the scheduler always serves the
/// smallest clamped finish time, so over any backlogged interval each
/// tenant's byte share converges on `weight / Σweights`. All arithmetic is
/// `u128` integer — no floats, so the schedule is exactly reproducible.
#[derive(Debug, Default)]
pub struct WeightedFair {
    /// Global virtual clock: the start tag of the last dispatch, so queues
    /// going idle do not bank credit against active ones.
    vclock: u128,
    /// Per-queue virtual finish time.
    vft: Vec<u128>,
}

impl WeightedFair {
    /// Fixed-point scale for the byte/weight quotient (keeps small
    /// requests from rounding to a zero-length virtual slice).
    const SCALE: u128 = 1 << 20;

    fn key(&self, i: usize) -> u128 {
        self.vft.get(i).copied().unwrap_or(0).max(self.vclock)
    }
}

impl QueueScheduler for WeightedFair {
    fn label(&self) -> &'static str {
        "weighted-fair"
    }

    fn pick(&mut self, queues: &[SubmissionQueue]) -> Option<usize> {
        (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .min_by_key(|&i| (self.key(i), i))
    }

    fn note_dispatch(&mut self, queue: usize, weight: u32, bytes: u32) {
        if self.vft.len() <= queue {
            self.vft.resize(queue + 1, 0);
        }
        let start = self.vft[queue].max(self.vclock);
        self.vclock = start;
        self.vft[queue] = start + bytes as u128 * Self::SCALE / weight.max(1) as u128;
    }

    fn export_state(&self) -> Vec<u128> {
        let mut state = Vec::with_capacity(1 + self.vft.len());
        state.push(self.vclock);
        state.extend_from_slice(&self.vft);
        state
    }

    fn import_state(&mut self, state: &[u128]) -> Result<(), String> {
        match state.split_first() {
            Some((&vclock, vft)) => {
                self.vclock = vclock;
                self.vft = vft.to_vec();
                Ok(())
            }
            None => Err("weighted-fair state needs at least the virtual clock".into()),
        }
    }
}

/// The available queue schedulers, for configuration surfaces (experiment
/// matrices, golden cases) where a boxed trait object cannot travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`StrictPriority`].
    StrictPriority,
    /// [`WeightedFair`].
    WeightedFair,
}

impl SchedulerKind {
    /// Every scheduler, in presentation order.
    pub fn all() -> [SchedulerKind; 3] {
        [
            SchedulerKind::RoundRobin,
            SchedulerKind::StrictPriority,
            SchedulerKind::WeightedFair,
        ]
    }

    /// Constructs the scheduler — the single point of per-policy dispatch,
    /// mirroring the engine's fabric-backend construction.
    pub fn build(self) -> Box<dyn QueueScheduler> {
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobin::default()),
            SchedulerKind::StrictPriority => Box::new(StrictPriority),
            SchedulerKind::WeightedFair => Box::new(WeightedFair::default()),
        }
    }

    /// Short label used in experiment tables and file names.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::StrictPriority => "strict-priority",
            SchedulerKind::WeightedFair => "weighted-fair",
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The multi-queue submission frontend: one [`SubmissionQueue`] per tenant
/// plus the arbitration policy between them.
#[derive(Debug)]
pub struct HostFrontend {
    queues: Vec<SubmissionQueue>,
    scheduler: Box<dyn QueueScheduler>,
}

impl HostFrontend {
    /// Builds the frontend with one queue per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    pub fn new(tenants: Vec<TenantConfig>, scheduler: SchedulerKind) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant required");
        HostFrontend {
            queues: tenants.into_iter().map(SubmissionQueue::new).collect(),
            scheduler: scheduler.build(),
        }
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.queues.len()
    }

    /// Tenant `i`'s configuration.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn config(&self, tenant: usize) -> &TenantConfig {
        self.queues[tenant].config()
    }

    /// Enqueues a request on `tenant`'s submission queue.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn push(&mut self, tenant: usize, req: IoRequest) {
        self.queues[tenant].fifo.push_back(req);
    }

    /// Dispatches the next request per the arbitration policy, returning
    /// the owning tenant's index with it; `None` when every queue is empty.
    pub fn pop_next(&mut self) -> Option<(usize, IoRequest)> {
        let i = self.scheduler.pick(&self.queues)?;
        let req = self.queues[i]
            .fifo
            .pop_front()
            .expect("scheduler picked an empty queue");
        let weight = self.queues[i].config.weight;
        self.scheduler.note_dispatch(i, weight, req.len);
        Some((i, req))
    }

    /// Total requests queued across all tenants.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(SubmissionQueue::len).sum()
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(SubmissionQueue::is_empty)
    }

    /// Serializes the queued requests and the arbitration policy's state.
    /// Tenant configurations are not written — restore targets a frontend
    /// built from the same tenants and [`SchedulerKind`].
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_usize(self.queues.len());
        for q in &self.queues {
            w.put_usize(q.fifo.len());
            for req in &q.fifo {
                req.ckpt_save(w);
            }
        }
        let state = self.scheduler.export_state();
        w.put_usize(state.len());
        for word in state {
            w.put_u128(word);
        }
    }

    /// Restores state saved by [`HostFrontend::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a tenant-count mismatch, or
    /// scheduler state of the wrong shape for the configured policy.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.take_count(8)?;
        if n != self.queues.len() {
            return Err(CkptError::Invalid(format!(
                "checkpoint has {n} tenant queues, frontend has {}",
                self.queues.len()
            )));
        }
        for q in &mut self.queues {
            let len = r.take_count(IoRequest::CKPT_MIN_BYTES)?;
            let mut fifo = VecDeque::with_capacity(len);
            for _ in 0..len {
                fifo.push_back(IoRequest::ckpt_load(r)?);
            }
            q.fifo = fifo;
        }
        let words = r.take_count(16)?;
        let mut state = Vec::with_capacity(words);
        for _ in 0..words {
            state.push(r.take_u128()?);
        }
        self.scheduler
            .import_state(&state)
            .map_err(CkptError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoOp;
    use nssd_sim::{DetRng, Rng};

    fn req(bytes: u32) -> IoRequest {
        IoRequest::new(IoOp::Read, 0, bytes, SimTime::ZERO)
    }

    fn frontend(weights: &[u32], kind: SchedulerKind) -> HostFrontend {
        let tenants = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| TenantConfig::new(format!("t{i}"), w, SloClass::Throughput))
            .collect();
        HostFrontend::new(tenants, kind)
    }

    /// Drains `dispatches` pops with every queue kept backlogged, returning
    /// bytes served per tenant.
    fn backlogged_shares(weights: &[u32], kind: SchedulerKind, dispatches: usize) -> Vec<u64> {
        let mut fe = frontend(weights, kind);
        let mut served = vec![0u64; weights.len()];
        for _ in 0..dispatches {
            for t in 0..weights.len() {
                // Top queues up so no tenant ever runs dry mid-test.
                while fe.queues[t].len() < 4 {
                    fe.push(t, req(16 * 1024));
                }
            }
            let (t, r) = fe.pop_next().expect("backlogged");
            served[t] += r.len as u64;
        }
        served
    }

    #[test]
    fn round_robin_rotates_over_non_empty_queues() {
        let mut fe = frontend(&[1, 1, 1], SchedulerKind::RoundRobin);
        for t in [0usize, 2] {
            for _ in 0..3 {
                fe.push(t, req(4096));
            }
        }
        // Queue 1 is empty and must be skipped without losing the rotation.
        let order: Vec<usize> = std::iter::from_fn(|| fe.pop_next().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![0, 2, 0, 2, 0, 2]);
        assert!(fe.is_empty());
        assert_eq!(fe.pop_next(), None);
    }

    #[test]
    fn strict_priority_drains_heavy_queue_first() {
        let mut fe = frontend(&[1, 5, 5], SchedulerKind::StrictPriority);
        for t in 0..3 {
            for _ in 0..2 {
                fe.push(t, req(4096));
            }
        }
        let order: Vec<usize> = std::iter::from_fn(|| fe.pop_next().map(|(t, _)| t)).collect();
        // Equal-weight tie (1 vs 2) breaks toward the lower index; tenant 0
        // is served only after both heavy queues drain.
        assert_eq!(order, vec![1, 1, 2, 2, 0, 0]);
    }

    #[test]
    fn weighted_fair_shares_track_weights_exactly() {
        let served = backlogged_shares(&[3, 1], SchedulerKind::WeightedFair, 400);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.1,
            "3:1 weights served {served:?} (ratio {ratio:.3})"
        );
    }

    /// The satellite property test: over random weight vectors, every
    /// backlogged tenant's observed byte share tracks its configured
    /// weight share.
    #[test]
    fn weighted_fair_share_property_over_random_weights() {
        let mut rng = DetRng::seed_from_u64(0x7E4A47);
        for case in 0..crate::CASES.min(64) {
            let n = rng.gen_range(2..5usize);
            let weights: Vec<u32> = (0..n).map(|_| rng.gen_range(1..9u64) as u32).collect();
            let dispatches = 600;
            let served = backlogged_shares(&weights, SchedulerKind::WeightedFair, dispatches);
            let total_served: u64 = served.iter().sum();
            let total_weight: u32 = weights.iter().sum();
            for (t, (&s, &w)) in served.iter().zip(&weights).enumerate() {
                let got = s as f64 / total_served as f64;
                let want = w as f64 / total_weight as f64;
                // One dispatch of slack per tenant on top of the asymptote.
                let tol = 1.5 / dispatches as f64 + 0.01;
                assert!(
                    (got - want).abs() < tol,
                    "case {case}: tenant {t} share {got:.4} vs weight share \
                     {want:.4} (weights {weights:?})"
                );
            }
        }
    }

    #[test]
    fn weighted_fair_idle_queue_banks_no_credit() {
        let mut fe = frontend(&[1, 1], SchedulerKind::WeightedFair);
        // Tenant 0 runs alone for a while...
        for _ in 0..50 {
            fe.push(0, req(16 * 1024));
            let (t, _) = fe.pop_next().unwrap();
            assert_eq!(t, 0);
        }
        // ...then tenant 1 wakes up. Without the vclock clamp it would now
        // monopolize service for 50 dispatches of "banked" idle credit;
        // with it, service alternates fairly from the start.
        let mut first_eight = Vec::new();
        for _ in 0..8 {
            fe.push(0, req(16 * 1024));
            fe.push(1, req(16 * 1024));
        }
        for _ in 0..8 {
            first_eight.push(fe.pop_next().unwrap().0);
        }
        let t0 = first_eight.iter().filter(|&&t| t == 0).count();
        assert!(
            (3..=5).contains(&t0),
            "idle tenant banked credit: first eight picks {first_eight:?}"
        );
    }

    #[test]
    fn schedulers_are_deterministic() {
        for kind in SchedulerKind::all() {
            let a = backlogged_shares(&[2, 3, 1], kind, 200);
            let b = backlogged_shares(&[2, 3, 1], kind, 200);
            assert_eq!(a, b, "{kind} not deterministic");
        }
    }

    #[test]
    fn slo_classes_order_sensibly() {
        assert!(SloClass::LatencySensitive.target() < SloClass::Throughput.target());
        assert!(SloClass::Throughput.target() < SloClass::BestEffort.target());
        let t = TenantConfig::new("x", 2, SloClass::LatencySensitive)
            .with_slo_latency(SimTime::from_us(500));
        assert_eq!(t.slo_latency, SimTime::from_us(500));
        assert_eq!(t.weight, 2);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_weight_rejected() {
        TenantConfig::new("bad", 0, SloClass::Throughput);
    }

    #[test]
    #[should_panic(expected = "tenant")]
    fn empty_frontend_rejected() {
        HostFrontend::new(Vec::new(), SchedulerKind::RoundRobin);
    }

    #[test]
    fn frontend_reports_queue_state() {
        let mut fe = frontend(&[1, 1], SchedulerKind::RoundRobin);
        assert_eq!(fe.tenant_count(), 2);
        assert_eq!(fe.config(1).name, "t1");
        fe.push(1, req(4096));
        assert_eq!(fe.pending(), 1);
        assert!(!fe.is_empty());
        assert_eq!(fe.queues[1].front().unwrap().len, 4096);
        assert_eq!(fe.pop_next().unwrap().0, 1);
        assert_eq!(fe.pending(), 0);
    }
}
