//! NVMe-style multi-tenant submission frontend.
//!
//! Real deployments of a high-bandwidth SSD serve many tenants through
//! multi-queue submission with per-tenant quality of service. This module
//! models that layer: [`HostFrontend`] gives each tenant a weighted FIFO
//! submission queue with an SLO class, and one of three arbitration
//! policies ([`SchedulerKind`]: round-robin, strict priority, or
//! weighted-fair, mirroring NVMe's arbitration classes) decides which
//! queue the device pulls from next. The policy is a closed enum that the
//! frontend matches on, and the frontend holds the only state the
//! policies have: a round-robin cursor, and the weighted-fair virtual
//! clock with its per-queue finish times.
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
use std::cmp::Reverse;
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

/// The queue-arbitration policies, mirroring NVMe's arbitration classes.
///
/// Every policy is deterministic — same queue states, same pick — and ties
/// between queues break toward the lower index, so reports depend on
/// nothing but the request streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Rotate over the non-empty queues, one request each.
    RoundRobin,
    /// Always the highest-weight non-empty queue (ties toward the lower
    /// index); lower-weight tenants are served only when every heavier
    /// queue is drained.
    StrictPriority,
    /// Weighted-fair queueing via integer virtual finish times. Each
    /// queue's finish time advances by `bytes × SCALE / weight` per
    /// dispatch and the smallest clamped finish time is served next, so
    /// over any backlogged interval each tenant's byte share converges on
    /// `weight / Σweights`. All arithmetic is `u128` integer — no floats,
    /// so the schedule is exactly reproducible.
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

    /// Short label used in experiment tables and file names.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::StrictPriority => "strict-priority",
            SchedulerKind::WeightedFair => "weighted-fair",
        }
    }

    /// Writes the kind as its one-byte checkpoint tag (its declaration
    /// index: round-robin 0, strict priority 1, weighted-fair 2).
    pub fn ckpt_save(self, w: &mut CkptWriter) {
        w.put_u8(self as u8);
    }

    /// Reads a kind written by [`SchedulerKind::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or an unknown tag.
    pub fn ckpt_load(r: &mut CkptReader) -> Result<Self, CkptError> {
        let tag = r.take_u8()?;
        Self::all()
            .into_iter()
            .find(|&k| k as u8 == tag)
            .ok_or_else(|| CkptError::Invalid(format!("unknown scheduler tag {tag}")))
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One tenant's FIFO submission queue.
#[derive(Debug)]
struct Queue {
    config: TenantConfig,
    fifo: VecDeque<IoRequest>,
}

/// The multi-queue submission frontend: one FIFO per tenant, the
/// arbitration policy between them, and that policy's state.
#[derive(Debug)]
pub struct HostFrontend {
    kind: SchedulerKind,
    queues: Vec<Queue>,
    /// Round-robin: the queue the next rotation starts from (always below
    /// the tenant count).
    cursor: usize,
    /// Weighted-fair: the start tag of the last dispatch, so queues going
    /// idle do not bank credit against active ones.
    vclock: u128,
    /// Weighted-fair: per-queue virtual finish times, grown to cover a
    /// queue on its first dispatch.
    finish: Vec<u128>,
}

impl HostFrontend {
    /// Weighted-fair fixed-point scale for the byte/weight quotient (keeps
    /// small requests from rounding to a zero-length virtual slice).
    const SCALE: u128 = 1 << 20;

    /// Builds the frontend with one queue per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    pub fn new(tenants: Vec<TenantConfig>, kind: SchedulerKind) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant required");
        HostFrontend {
            kind,
            queues: tenants
                .into_iter()
                .map(|config| Queue {
                    config,
                    fifo: VecDeque::new(),
                })
                .collect(),
            cursor: 0,
            vclock: 0,
            finish: Vec::new(),
        }
    }

    /// The arbitration policy.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Tenant `i`'s configuration.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn config(&self, tenant: usize) -> &TenantConfig {
        &self.queues[tenant].config
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
        let i = self.pick()?;
        let req = self.queues[i]
            .fifo
            .pop_front()
            .expect("picked a backlogged queue");
        Some((i, req))
    }

    /// The index of the next queue to service, with the dispatch of its
    /// front request charged to the policy's state; `None` when every
    /// queue is empty.
    fn pick(&mut self) -> Option<usize> {
        let n = self.queues.len();
        let backlogged = |i: &usize| !self.queues[*i].fifo.is_empty();
        match self.kind {
            SchedulerKind::RoundRobin => {
                let i = (0..n).map(|off| (self.cursor + off) % n).find(backlogged)?;
                self.cursor = (i + 1) % n;
                Some(i)
            }
            SchedulerKind::StrictPriority => (0..n)
                .filter(backlogged)
                .max_by_key(|&i| (self.queues[i].config.weight, Reverse(i))),
            SchedulerKind::WeightedFair => {
                let start = |i: usize| self.finish.get(i).copied().unwrap_or(0).max(self.vclock);
                let i = (0..n).filter(backlogged).min_by_key(|&i| (start(i), i))?;
                self.vclock = start(i);
                let q = &self.queues[i];
                let slice =
                    u128::from(q.fifo[0].len) * Self::SCALE / u128::from(q.config.weight.max(1));
                if self.finish.len() <= i {
                    self.finish.resize(i + 1, 0);
                }
                // Saturating: a real run adds at most 2^52 per dispatch, so
                // only a corrupt checkpoint's clock comes near the bound.
                self.finish[i] = self.vclock.saturating_add(slice);
                Some(i)
            }
        }
    }

    /// Serializes the queued requests and the policy's state: a
    /// count-prefixed word list, `[cursor]` under round-robin, empty under
    /// strict priority, `[vclock, finish…]` under weighted-fair. Tenant
    /// configurations and the kind are not written — restore targets a
    /// frontend built from the same tenants and [`SchedulerKind`].
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_usize(self.queues.len());
        for q in &self.queues {
            w.put_usize(q.fifo.len());
            for req in &q.fifo {
                req.ckpt_save(w);
            }
        }
        match self.kind {
            SchedulerKind::RoundRobin => {
                w.put_usize(1);
                w.put_u128(self.cursor as u128);
            }
            SchedulerKind::StrictPriority => w.put_usize(0),
            SchedulerKind::WeightedFair => {
                w.put_usize(1 + self.finish.len());
                w.put_u128(self.vclock);
                for &f in &self.finish {
                    w.put_u128(f);
                }
            }
        }
    }

    /// Restores state saved by [`HostFrontend::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a tenant-count mismatch, policy
    /// state of the wrong shape, a round-robin cursor outside the tenants,
    /// or more weighted-fair finish times than tenants.
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
        let invalid = |msg: String| Err(CkptError::Invalid(msg));
        match self.kind {
            SchedulerKind::RoundRobin => {
                if words != 1 {
                    return invalid(format!("round-robin state must be one word, got {words}"));
                }
                let cursor = r.take_u128()?;
                if cursor >= n as u128 {
                    return invalid(format!("round-robin cursor {cursor} not below {n} tenants"));
                }
                self.cursor = cursor as usize;
            }
            SchedulerKind::StrictPriority => {
                if words != 0 {
                    return invalid(format!(
                        "strict-priority state must be empty, got {words} words"
                    ));
                }
            }
            SchedulerKind::WeightedFair => {
                let Some(finish) = words.checked_sub(1) else {
                    return invalid("weighted-fair state needs at least the virtual clock".into());
                };
                if finish > n {
                    return invalid(format!(
                        "{finish} weighted-fair finish times for {n} tenants"
                    ));
                }
                self.vclock = r.take_u128()?;
                self.finish = (0..finish)
                    .map(|_| r.take_u128())
                    .collect::<Result<_, _>>()?;
            }
        }
        Ok(())
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
                while fe.queues[t].fifo.len() < 4 {
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
        assert_eq!(fe.kind(), SchedulerKind::RoundRobin);
        assert_eq!(fe.config(1).name, "t1");
        fe.push(1, req(4096));
        assert_eq!(fe.queues[1].fifo[0].len, 4096);
        assert_eq!(fe.pop_next().unwrap().0, 1);
        assert_eq!(fe.pop_next(), None);
    }

    /// Saves a two-tenant frontend of `kind` with one request queued per
    /// tenant, after `dispatches` dispatches.
    fn saved(kind: SchedulerKind, dispatches: usize) -> Vec<u8> {
        let mut fe = frontend(&[2, 1], kind);
        for _ in 0..dispatches {
            fe.push(1, req(4096));
            fe.pop_next();
        }
        fe.push(0, req(4096));
        fe.push(1, req(4096));
        let mut w = CkptWriter::new();
        fe.ckpt_save(&mut w);
        w.into_bytes()
    }

    /// Loads `bytes` into a fresh two-tenant frontend of `kind` and drains
    /// it, returning the dispatch order.
    fn load_and_drain(kind: SchedulerKind, bytes: &[u8]) -> Result<Vec<usize>, CkptError> {
        let mut fe = frontend(&[2, 1], kind);
        fe.ckpt_load(&mut CkptReader::new(bytes))?;
        Ok(std::iter::from_fn(|| fe.pop_next().map(|(t, _)| t)).collect())
    }

    /// Byte offset of the policy state's word count: two queues of one
    /// request each, behind the queue count and their lengths.
    const STATE_AT: usize = 8 + 2 * (8 + IoRequest::CKPT_MIN_BYTES);

    fn word(bytes: &mut [u8], i: usize) -> &mut [u8] {
        let at = STATE_AT + 8 + 16 * i;
        &mut bytes[at..at + 16]
    }

    #[test]
    fn huge_round_robin_cursor_is_refused() {
        let mut bytes = saved(SchedulerKind::RoundRobin, 1);
        assert_eq!(
            load_and_drain(SchedulerKind::RoundRobin, &bytes).unwrap(),
            [0, 1]
        );
        word(&mut bytes, 0).copy_from_slice(&u128::from(u64::MAX).to_le_bytes());
        let err = load_and_drain(SchedulerKind::RoundRobin, &bytes).unwrap_err();
        assert!(err.to_string().contains("cursor"), "{err}");
        word(&mut bytes, 0).copy_from_slice(&2u128.to_le_bytes());
        assert!(load_and_drain(SchedulerKind::RoundRobin, &bytes).is_err());
    }

    #[test]
    fn huge_weighted_fair_clock_dispatches_without_panicking() {
        let mut bytes = saved(SchedulerKind::WeightedFair, 1);
        word(&mut bytes, 0).copy_from_slice(&u128::MAX.to_le_bytes());
        let order = load_and_drain(SchedulerKind::WeightedFair, &bytes).unwrap();
        assert_eq!(order, [0, 1]);
    }

    #[test]
    fn overlong_weighted_fair_tag_list_is_refused() {
        let mut bytes = saved(SchedulerKind::WeightedFair, 1);
        // [vclock, finish(0), finish(1)]: tenant 1 dispatched once.
        let words = STATE_AT..STATE_AT + 8;
        assert_eq!(bytes[words.clone()], 3u64.to_le_bytes());
        bytes[words].copy_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&[0; 32]);
        let err = load_and_drain(SchedulerKind::WeightedFair, &bytes).unwrap_err();
        assert!(
            err.to_string().contains("finish times for 2 tenants"),
            "{err}"
        );
    }

    #[test]
    fn misshapen_policy_state_and_unknown_kinds_are_refused() {
        for (kind, other) in [
            (SchedulerKind::RoundRobin, SchedulerKind::StrictPriority),
            (SchedulerKind::StrictPriority, SchedulerKind::RoundRobin),
            (SchedulerKind::WeightedFair, SchedulerKind::StrictPriority),
        ] {
            let err = load_and_drain(kind, &saved(other, 1)).unwrap_err();
            assert!(err.to_string().contains(kind.label()), "{kind}: {err}");
        }
        let err = SchedulerKind::ckpt_load(&mut CkptReader::new(&[3])).unwrap_err();
        assert!(err.to_string().contains("scheduler tag 3"), "{err}");
    }
}
