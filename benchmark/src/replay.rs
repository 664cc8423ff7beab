//! Unit-cost replays of single layers, timed on the state a cell prepared
//! before its run starts, and the fixed host-calibration kernel.
//!
//! A replay isolates one layer's cost through its public API: FTL writes
//! and lookups over the trace's own pages, victim selection on the aged
//! block table, an oracle sync and sweep, the checkpoint codec, simulator
//! construction, and fixed `EventQueue` / `Resource` streams. Multiplied by
//! the run's own operation count and divided by the untraced loop time, a
//! replay estimates the layer's share of the loop (`*.est_share`).

use std::hint::black_box;
use std::time::Instant;

use nssd_core::{Checkpoint, Drive, Oracle, SsdSim};
use nssd_ftl::{select_victims, Lpn, VictimPolicy, WayMask};
use nssd_host::{IoOp, IoRequest};
use nssd_sim::{DetRng, EventQueue, Resource, Rng, SimTime};

use crate::spans::Spans;
use crate::Metrics;

/// Schedule/pop pairs in the fixed event-queue stream.
const QUEUE_PAIRS: usize = 1 << 20;
/// Events held pending during the queue stream, comparable to a busy device.
const QUEUE_POPULATION: usize = 4096;
/// Reservations in the fixed `Resource` stream.
const RESERVES: usize = 1 << 20;
/// Victim selections timed on the aged block table.
const VICTIM_CALLS: usize = 64;

/// Every request a drive will issue, in drive order.
pub fn drive_requests(drive: &Drive) -> Vec<&IoRequest> {
    match drive {
        Drive::OpenLoop(requests) | Drive::ClosedLoop { requests, .. } => requests.iter().collect(),
        Drive::MultiTenant { tenants, .. } => tenants.iter().flat_map(|(_, r)| r).collect(),
    }
}

/// Runs every replay on `sim` (prepared, not started) and `drive`,
/// recording one span per replay and its metrics into `m`.
///
/// # Errors
///
/// Returns a message if the FTL replay or the checkpoint round trip fails.
pub fn replays(
    sim: &SsdSim,
    drive: &Drive,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let cfg = *sim.config();
    m.insert(
        "sim.queue.ns_per_op".into(),
        spans.time("replay.event_queue", queue_stream),
    );
    m.insert(
        "sim.resource.ns_per_reserve".into(),
        spans.time("replay.resource", resource_stream),
    );
    spans.time("replay.ftl", || ftl_replay(sim, drive, m))?;

    let victims = cfg.gc.victims_per_trigger as usize;
    let mask = WayMask::all(cfg.geometry.ways);
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let t = Instant::now();
    spans.time("replay.select_victims", || {
        for _ in 0..VICTIM_CALLS {
            black_box(select_victims(
                sim.ftl().blocks(),
                victims,
                mask,
                VictimPolicy::Greedy,
                &mut rng,
            ));
        }
    });
    m.insert(
        "ftl.victim.select_us".into(),
        t.elapsed().as_secs_f64() * 1e6 / VICTIM_CALLS as f64,
    );

    let t = Instant::now();
    let mut oracle = spans.time("replay.oracle_sync", || {
        let mut oracle = Oracle::new(cfg.geometry, sim.ftl().logical_pages());
        oracle.sync_from_ftl(sim.ftl());
        oracle
    });
    m.insert("oracle.sync_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    spans.time("replay.oracle_sweep", || {
        oracle.check_invariants(sim.ftl(), sim.now())
    });
    m.insert("oracle.sweep_us".into(), t.elapsed().as_secs_f64() * 1e6);
    drop(black_box(oracle));

    let t = Instant::now();
    let bytes = spans.time("Checkpoint::save", || Checkpoint::save(sim));
    m.insert("ckpt.save_s".into(), t.elapsed().as_secs_f64());
    m.insert("ckpt.bytes".into(), bytes.len() as f64);
    let t = Instant::now();
    let resumed = spans.time("Checkpoint::resume", || Checkpoint::resume(cfg, &bytes))?;
    m.insert("ckpt.resume_s".into(), t.elapsed().as_secs_f64());
    drop((resumed, bytes));

    let t = Instant::now();
    let fresh = spans.time("SsdSim::new", || SsdSim::new(cfg))?;
    m.insert("runner.sim_new_s".into(), t.elapsed().as_secs_f64());
    drop(black_box(fresh));
    Ok(())
}

/// `Ftl::write` over the trace's written pages (instant GC whenever
/// `needs_gc()`), then `Ftl::lookup` over its read pages, on a clone of the
/// prepared FTL.
fn ftl_replay(sim: &SsdSim, drive: &Drive, m: &mut Metrics) -> Result<(), String> {
    let page = sim.config().geometry.page_bytes;
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    for r in drive_requests(drive) {
        let (first, pages) = r.page_span(page);
        let lpns = (first..first + pages as u64).map(Lpn::new);
        match r.op {
            IoOp::Write => writes.extend(lpns),
            IoOp::Read => reads.extend(lpns),
        }
    }
    let mut ftl = sim.ftl().clone();
    let mut rng = DetRng::seed_from_u64(sim.config().seed);
    let t = Instant::now();
    for &lpn in &writes {
        if ftl.needs_gc() {
            ftl.instant_gc(&mut rng)
                .map_err(|e| format!("FTL replay GC: {e}"))?;
        }
        ftl.write(lpn)
            .map_err(|e| format!("FTL replay write: {e}"))?;
    }
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut mapped = 0u64;
    for &lpn in &reads {
        mapped += ftl.lookup(lpn).is_some() as u64;
    }
    black_box(mapped);
    let lookup_s = t.elapsed().as_secs_f64();
    m.insert("ftl.replay.s".into(), write_s + lookup_s);
    m.insert("ftl.replay.write_pages".into(), writes.len() as f64);
    m.insert("ftl.replay.read_pages".into(), reads.len() as f64);
    m.insert(
        "ftl.replay.write_ns".into(),
        per_op_ns(write_s, writes.len()),
    );
    m.insert(
        "ftl.replay.lookup_ns".into(),
        per_op_ns(lookup_s, reads.len()),
    );
    Ok(())
}

fn per_op_ns(secs: f64, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        secs * 1e9 / ops as f64
    }
}

/// Nanoseconds per schedule+pop pair with a held near-horizon population
/// (the engine's steady state).
fn queue_stream() -> f64 {
    let mut rng = DetRng::seed_from_u64(0xD3A5E);
    let mut q = EventQueue::new();
    let mut now = SimTime::ZERO;
    for _ in 0..QUEUE_POPULATION {
        q.schedule(now + SimTime::from_ns(rng.gen_range(1..100_000u64)), 0u32);
    }
    let t = Instant::now();
    for i in 0..QUEUE_PAIRS {
        let (at, ev) = q.pop().expect("held population");
        black_box(ev);
        now = at;
        q.schedule(
            now + SimTime::from_ns(rng.gen_range(1..100_000u64)),
            i as u32,
        );
    }
    per_op_ns(t.elapsed().as_secs_f64(), QUEUE_PAIRS)
}

/// Nanoseconds per tagged reservation on a recorder-backed `Resource`
/// (the engine's channel model).
fn resource_stream() -> f64 {
    let mut rng = DetRng::seed_from_u64(0x5E5);
    let mut res = Resource::with_recorder(SimTime::from_us(100), 3);
    let mut now = SimTime::ZERO;
    let t = Instant::now();
    for i in 0..RESERVES {
        now += SimTime::from_ns(rng.gen_range(0..2_000u64));
        let dur = SimTime::from_ns(rng.gen_range(100..5_000u64));
        black_box(res.reserve_tagged(now, dur, i % 3));
    }
    per_op_ns(t.elapsed().as_secs_f64(), RESERVES)
}

/// Milliseconds for a fixed ALU loop plus a pointer chase through an 8 MiB
/// single-cycle permutation: a host-speed probe independent of the
/// simulator, so two result sets taken on a drifting host can be told apart.
pub fn calibrate_ms() -> f64 {
    const ALU_STEPS: u64 = 1 << 24;
    const SLOTS: usize = 1 << 21;
    const HOPS: usize = 1 << 19;
    // Sattolo's shuffle: one cycle through every slot, so the chase never
    // settles into a cache-resident loop.
    let mut rng = DetRng::seed_from_u64(0xCA11B);
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    for i in (1..SLOTS).rev() {
        let j = rng.gen_range(0..i as u64) as usize;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ALU_STEPS {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    let mut at = black_box(0usize);
    for _ in 0..HOPS {
        at = next[at] as usize;
    }
    black_box((x, at));
    t.elapsed().as_secs_f64() * 1e3
}
