//! Hierarchical timing-wheel storage behind [`crate::EventQueue`].
//!
//! A calendar queue specialized for discrete-event simulation: pending
//! events live in power-of-two-spaced bucket levels indexed by their
//! absolute firing time, and the queue advances a monotone *cursor* (the
//! time of the last event handed out). Compared to a binary heap this
//! makes `schedule` and `pop` O(1) amortized on the dense near-horizon
//! traffic a flash timing model generates, and lets a whole same-instant
//! batch be drained with one bucket access.
//!
//! # Geometry
//!
//! `LEVELS` levels of `SLOTS` buckets each. A bucket at level `l` is keyed
//! by bits `[l*BITS, (l+1)*BITS)` of the event's absolute nanosecond time;
//! level 0 buckets therefore each hold exactly **one** nanosecond instant
//! of the current 256 ns window, level 1 buckets a 256 ns span, level 2 a
//! 65 µs span, and so on. With `BITS = 8` and `LEVELS = 8` the wheel spans
//! the whole `u64` nanosecond range exactly, so there is no separate
//! unbounded-overflow structure: a retention timer months in the future
//! simply parks in a high level until the cursor approaches. Eight bits
//! per level (rather than six) puts the flash timing model's dominant
//! 3–100 µs deltas one level lower, saving a cascade hop per event.
//!
//! An event is filed at the level of the *highest bit in which its time
//! differs from the cursor* (`level = highest_bit(at ^ cursor) / BITS`).
//! When the cursor would enter a still-populated higher-level bucket's
//! span, that bucket *cascades*: the cursor jumps to the bucket's base
//! time and every event redistributes to strictly lower levels. Each event
//! therefore moves at most `LEVELS - 1` times before it pops.
//!
//! # Storage
//!
//! Events live in a single slab of linked nodes; a bucket is just a
//! `(head, tail)` pair of node indices and its FIFO chain is threaded
//! through the nodes' `next` links. Filing, cascading and popping are
//! pointer relinks — an event's key and payload are written once at
//! insert and never moved, and the whole bucket table is a few KiB of
//! contiguous memory instead of per-bucket heap buffers. Freed nodes go
//! on a free list threaded through the same slab, so once a simulation
//! reaches its steady-state event population the wheel performs no
//! allocation at all (`tests/alloc_free.rs` gates this invariant with a
//! counting allocator).
//!
//! # Determinism
//!
//! The public contract is the strict `(at, seq)` order of the old
//! binary-heap queue. Three structural facts deliver it:
//!
//! 1. Two events with the same firing time map to the same bucket at every
//!    level for every cursor value, so they are only ever stored in one
//!    bucket, in insertion order (cascades walk and re-append in FIFO
//!    order, preserving relative order).
//! 2. By the time the cursor sits inside a bucket's span, that bucket has
//!    been fully cascaded (the cursor can only enter a span through the
//!    cascade that empties it), so a later direct insert into a level-0
//!    bucket can never slide in front of an earlier, cascaded event.
//! 3. A live level-0 bucket holds exactly one instant, so FIFO bucket
//!    order *is* `(at, seq)` order.
//!
//! Events scheduled in the past (`at < cursor`) — which the engine never
//! does, but the public API permits — go to a small `past` list popped in
//! exact `(at, seq)` order ahead of the wheel (everything in the wheel is
//! `>= cursor`, everything in `past` is `< cursor`).

use crate::SimTime;

/// log2 of the slot count per level.
const BITS: u32 = 8;
/// Buckets per level.
const SLOTS: usize = 1 << BITS;
const MASK: u64 = (SLOTS as u64) - 1;
/// Levels needed to span the full `u64` nanosecond range.
const LEVELS: usize = 64usize.div_ceil(BITS as usize);
/// `u64` words per level in the occupancy bitmap.
const OCC_WORDS: usize = SLOTS.div_ceil(64);
/// Null link in the node slab.
const NIL: u32 = u32::MAX;

/// Total pop order: firing time, then schedule sequence (FIFO tiebreak).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    pub at: SimTime,
    pub seq: u64,
}

/// One slab entry: an event with its key, threaded into a bucket FIFO (or
/// the free list) through `next`.
#[derive(Debug)]
struct Node<E> {
    key: Key,
    event: Option<E>,
    next: u32,
}

/// A bucket's FIFO chain: slab indices of its first and last node.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

const EMPTY_CHAIN: Chain = Chain {
    head: NIL,
    tail: NIL,
};

/// The wheel proper. Sequence numbering and the checkpoint wire format
/// live in [`crate::EventQueue`]; this type only stores and orders.
#[derive(Debug)]
pub(crate) struct TimingWheel<E> {
    /// Slab of event nodes; bucket chains and the free list are threaded
    /// through `next`, so nodes never move once written.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list (threaded through `next`).
    free: u32,
    /// `LEVELS * SLOTS` bucket chains, flattened as `level * SLOTS + index`.
    buckets: Box<[Chain]>,
    /// One occupancy bit per bucket, per level; lets `pop` jump straight
    /// to the next populated bucket instead of scanning empty ones.
    occ: [[u64; OCC_WORDS]; LEVELS],
    /// Events scheduled before the cursor (possible only through the
    /// public API, never from the engine); always popped first.
    past: Vec<(Key, E)>,
    /// Time of the last event handed out (or of the last cascade base);
    /// monotone, and `<=` every pending wheel event's time.
    cursor: u64,
    len: usize,
}

impl<E> TimingWheel<E> {
    pub fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY_CHAIN; LEVELS * SLOTS].into_boxed_slice(),
            occ: [[0; OCC_WORDS]; LEVELS],
            past: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The level and slot `at` files under, relative to the current cursor.
    fn place(&self, at: u64) -> (usize, usize) {
        let diff = at ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        };
        let idx = ((at >> (level as u32 * BITS)) & MASK) as usize;
        (level, idx)
    }

    /// Takes a node off the free list (or grows the slab) and writes the
    /// entry into it.
    fn alloc_node(&mut self, key: Key, event: E) -> u32 {
        if self.free != NIL {
            let n = self.free;
            let node = &mut self.nodes[n as usize];
            self.free = node.next;
            node.key = key;
            node.event = Some(event);
            node.next = NIL;
            n
        } else {
            assert!(self.nodes.len() < NIL as usize, "event slab full");
            self.nodes.push(Node {
                key,
                event: Some(event),
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Appends node `n` to bucket `(level, idx)`'s FIFO chain.
    fn push_bucket(&mut self, level: usize, idx: usize, n: u32) {
        let chain = &mut self.buckets[level * SLOTS + idx];
        if chain.head == NIL {
            chain.head = n;
        } else {
            self.nodes[chain.tail as usize].next = n;
        }
        chain.tail = n;
        self.occ[level][idx >> 6] |= 1 << (idx & 63);
    }

    pub fn insert(&mut self, key: Key, event: E) {
        self.len += 1;
        let at = key.at.as_ns();
        if at < self.cursor {
            self.past.push((key, event));
            return;
        }
        let (level, idx) = self.place(at);
        let n = self.alloc_node(key, event);
        self.push_bucket(level, idx, n);
    }

    /// The lowest-level populated bucket at or after the cursor's slot —
    /// always the bucket containing the earliest pending wheel event
    /// (within a level, lower slots are earlier; across levels, any
    /// level-`l` candidate ends before any level-`l+1` candidate begins).
    fn candidate(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let cidx = ((self.cursor >> (level as u32 * BITS)) & MASK) as usize;
            let occ = &self.occ[level];
            let mut word = cidx >> 6;
            let mut m = occ[word] & (!0u64 << (cidx & 63));
            loop {
                if m != 0 {
                    return Some((level, (word << 6) | m.trailing_zeros() as usize));
                }
                word += 1;
                if word >= OCC_WORDS {
                    break;
                }
                m = occ[word];
            }
        }
        None
    }

    /// Earliest time bucket `(level, idx)` can hold: its span's start in
    /// the cursor's current rotation of that level.
    fn bucket_base(&self, level: usize, idx: usize) -> u64 {
        let shift = (level as u32 + 1) * BITS;
        let high = if shift >= 64 {
            0
        } else {
            (self.cursor >> shift) << shift
        };
        high | ((idx as u64) << (level as u32 * BITS))
    }

    /// Cascades until the earliest pending wheel event heads a level-0
    /// bucket and returns that bucket — or `None` when the earliest event is
    /// later than `limit`. A higher-level bucket whose span starts after
    /// `limit` is left in place, so the cursor never moves past `limit`:
    /// a caller may then schedule at any time after `limit` without the
    /// event landing in `past`.
    #[inline]
    fn front(&mut self, limit: u64) -> Option<usize> {
        loop {
            let (level, idx) = self.candidate()?;
            if level == 0 {
                let head = self.buckets[idx].head;
                return (self.nodes[head as usize].key.at.as_ns() <= limit).then_some(idx);
            }
            if self.bucket_base(level, idx) > limit {
                return None;
            }
            self.cascade(level, idx);
        }
    }

    /// Advances the cursor to `(level, idx)`'s base time and redistributes
    /// its events to strictly lower levels — pure relinks; no entry is
    /// copied or moved in memory.
    fn cascade(&mut self, level: usize, idx: usize) {
        let base = self.bucket_base(level, idx);
        debug_assert!(base > self.cursor, "cascade must advance the cursor");
        self.cursor = base;
        self.occ[level][idx >> 6] &= !(1 << (idx & 63));
        let mut n = self.buckets[level * SLOTS + idx].head;
        self.buckets[level * SLOTS + idx] = EMPTY_CHAIN;
        while n != NIL {
            let next = self.nodes[n as usize].next;
            let at = self.nodes[n as usize].key.at.as_ns();
            debug_assert!(at >= base);
            let (l, i) = self.place(at);
            debug_assert!(l < level, "cascade must move events down");
            self.nodes[n as usize].next = NIL;
            self.push_bucket(l, i, n);
            n = next;
        }
    }

    /// Unlinks the head node of bucket `(0, idx)`, frees it, and returns
    /// its entry.
    fn pop_bucket_head(&mut self, idx: usize) -> (Key, E) {
        let chain = &mut self.buckets[idx];
        let n = chain.head;
        debug_assert!(n != NIL, "occupied bucket was empty");
        let node = &mut self.nodes[n as usize];
        chain.head = node.next;
        if chain.head == NIL {
            chain.tail = NIL;
            self.occ[0][idx >> 6] &= !(1 << (idx & 63));
        }
        let key = node.key;
        let event = node.event.take().expect("linked node holds an event");
        node.next = self.free;
        self.free = n;
        (key, event)
    }

    /// Index of the `(at, seq)`-minimal entry of `past`.
    fn past_min(&self) -> usize {
        self.past
            .iter()
            .enumerate()
            .min_by_key(|(_, (k, _))| *k)
            .map(|(i, _)| i)
            .expect("past_min on empty past list")
    }

    /// Removes and returns the `(at, seq)`-minimal event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Key, E)> {
        self.pop_until(u64::MAX)
    }

    /// Drains every event at the earliest pending instant into `out`.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        self.pop_batch_until(u64::MAX, out)
    }

    /// Removes and returns the `(at, seq)`-minimal event, if its time is at
    /// most `limit` (pass `u64::MAX` for an unbounded pop).
    pub fn pop_until(&mut self, limit: u64) -> Option<(Key, E)> {
        if self.len == 0 {
            return None;
        }
        if !self.past.is_empty() {
            // Everything in `past` precedes everything in the wheel; the
            // scan order is irrelevant because keys are totally ordered.
            let i = self.past_min();
            if self.past[i].0.at.as_ns() > limit {
                return None;
            }
            self.len -= 1;
            return Some(self.past.swap_remove(i));
        }
        let idx = self.front(limit)?;
        let (key, event) = self.pop_bucket_head(idx);
        self.cursor = key.at.as_ns();
        self.len -= 1;
        Some((key, event))
    }

    /// Drains every event at the earliest pending instant into `out` (in
    /// `(at, seq)` order) and returns that instant, if it is at most
    /// `limit`. The fast path is one bucket drain: a live level-0 bucket
    /// holds exactly the same-tick batch.
    pub fn pop_batch_until(&mut self, limit: u64, out: &mut Vec<E>) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if !self.past.is_empty() {
            let first = self.past_min();
            let at = self.past[first].0.at;
            if at.as_ns() > limit {
                return None;
            }
            loop {
                let i = self.past_min();
                if self.past[i].0.at != at {
                    break;
                }
                out.push(self.past.swap_remove(i).1);
                self.len -= 1;
                if self.past.is_empty() {
                    break;
                }
            }
            return Some(at);
        }
        let idx = self.front(limit)?;
        let chain = self.buckets[idx];
        let at = self.nodes[chain.head as usize].key.at;
        self.buckets[idx] = EMPTY_CHAIN;
        self.occ[0][idx >> 6] &= !(1 << (idx & 63));
        self.cursor = at.as_ns();
        let mut n = chain.head;
        while n != NIL {
            let node = &mut self.nodes[n as usize];
            debug_assert!(node.key.at == at, "level-0 bucket mixed instants");
            out.push(node.event.take().expect("linked node holds an event"));
            let next = node.next;
            node.next = self.free;
            self.free = n;
            n = next;
            self.len -= 1;
        }
        Some(at)
    }

    /// Firing time of the earliest pending event, without disturbing the
    /// wheel. For a level > 0 candidate the exact minimum requires one
    /// chain scan — a cold path (`pop` would cascade the same bucket).
    pub fn peek(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if !self.past.is_empty() {
            return self.past.iter().map(|(k, _)| k.at).min();
        }
        let (level, idx) = self.candidate()?;
        let mut n = self.buckets[level * SLOTS + idx].head;
        if level == 0 {
            return Some(self.nodes[n as usize].key.at);
        }
        let mut min = SimTime::MAX;
        while n != NIL {
            let node = &self.nodes[n as usize];
            min = min.min(node.key.at);
            n = node.next;
        }
        Some(min)
    }

    /// Number of events parked in the `past` list.
    #[cfg(test)]
    pub fn past_len(&self) -> usize {
        self.past.len()
    }

    /// Visits every pending event in storage order (callers sort by key).
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(&'a Key, &'a E)) {
        for (k, e) in &self.past {
            f(k, e);
        }
        for chain in self.buckets.iter() {
            let mut n = chain.head;
            while n != NIL {
                let node = &self.nodes[n as usize];
                f(
                    &node.key,
                    node.event.as_ref().expect("linked node holds an event"),
                );
                n = node.next;
            }
        }
    }

    /// Drops every pending event and rewinds the cursor; slab and bucket
    /// capacity are retained.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.buckets.fill(EMPTY_CHAIN);
        self.occ = [[0; OCC_WORDS]; LEVELS];
        self.past.clear();
        self.cursor = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, seq: u64) -> Key {
        Key {
            at: SimTime::from_ns(at),
            seq,
        }
    }

    #[test]
    fn cascades_far_future_events_down_to_exact_order() {
        let mut w = TimingWheel::new();
        // One event per level scale, inserted far-to-near.
        let times = [u64::MAX - 1, 1 << 40, 1 << 20, 70_000, 4_000, 100, 3];
        for (seq, &t) in times.iter().enumerate() {
            w.insert(key(t, seq as u64), t);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn same_instant_batch_drains_in_one_call() {
        let mut w = TimingWheel::new();
        w.insert(key(500, 0), 0u32);
        for seq in 1..=64 {
            w.insert(key(1_000, seq), seq as u32);
        }
        let mut out = Vec::new();
        assert_eq!(w.pop_batch(&mut out), Some(SimTime::from_ns(500)));
        assert_eq!(out, vec![0]);
        out.clear();
        assert_eq!(w.pop_batch(&mut out), Some(SimTime::from_ns(1_000)));
        assert_eq!(out, (1..=64).collect::<Vec<u32>>());
        assert_eq!(w.pop_batch(&mut out), None);
    }

    #[test]
    fn past_events_pop_before_the_wheel_in_key_order() {
        let mut w = TimingWheel::new();
        w.insert(key(1_000, 0), "advance");
        assert_eq!(w.pop().unwrap().1, "advance"); // cursor now 1000
        w.insert(key(2_000, 1), "future");
        w.insert(key(400, 2), "past-late");
        w.insert(key(200, 3), "past-early");
        assert_eq!(w.peek(), Some(SimTime::from_ns(200)));
        assert_eq!(w.pop().unwrap().1, "past-early");
        assert_eq!(w.pop().unwrap().1, "past-late");
        assert_eq!(w.pop().unwrap().1, "future");
        assert!(w.pop().is_none());
    }

    #[test]
    fn clear_rewinds_and_reuses() {
        let mut w = TimingWheel::new();
        for seq in 0..100u64 {
            w.insert(key(seq * 97, seq), seq);
        }
        w.pop();
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(w.peek(), None);
        w.insert(key(5, 0), 5u64);
        assert_eq!(w.pop().map(|(k, _)| k.at), Some(SimTime::from_ns(5)));
    }

    #[test]
    fn max_time_events_park_in_the_top_level() {
        let mut w = TimingWheel::new();
        w.insert(key(u64::MAX, 0), "end-of-time");
        w.insert(key(1, 1), "now");
        assert_eq!(w.pop().unwrap().1, "now");
        assert_eq!(w.peek(), Some(SimTime::MAX));
        assert_eq!(w.pop().unwrap().1, "end-of-time");
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn freed_nodes_are_recycled_without_slab_growth() {
        let mut w = TimingWheel::new();
        for round in 0..50u64 {
            for seq in 0..8 {
                w.insert(key(round * 1_000 + seq, round * 8 + seq), seq);
            }
            let mut out = Vec::new();
            while w.pop_batch(&mut out).is_some() {}
        }
        // Peak population was 8; the slab never grows past it.
        assert!(w.nodes.len() <= 8, "slab grew to {}", w.nodes.len());
    }
}
