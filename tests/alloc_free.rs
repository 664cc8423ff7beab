//! Allocation-free hot-loop and memory-budget gates.
//!
//! The event queue reuses its slab once it reaches a steady-state event
//! population, and the engine's per-event handlers route, reserve and
//! complete without touching the heap — including on an aged device, where
//! writes that cannot get a page park in a FIFO and are woken as erases
//! free space, and after a chip failure, where degraded reads and the
//! parity rebuild reconstruct pages from their survivors. The FTL's
//! per-page state is 4 bytes per mapping entry plus
//! one valid bit per page, and erasing or retiring a block clears bits in
//! place. These tests count allocations and the bytes they request with a
//! wrapping global allocator and assert all of it. The counters are
//! thread-local, so the test harness's parallel threads never see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use networked_ssd::core::{
    prepare_closed_loop_preconditioned, prepare_trace, Architecture, ChipFailureSpec, SsdConfig,
};
use networked_ssd::flash::{Geometry, Pbn};
use networked_ssd::ftl::{BlockTable, Ftl, FtlConfig, RedundancyConfig};
use networked_ssd::sim::{DetRng, EventQueue, Rng, SimTime};
use networked_ssd::{GcPolicy, PaperWorkload};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of allocations and reallocations and
/// of the bytes they request (a reallocation counts its whole new size).
struct CountingAlloc;

fn bump(bytes: usize) {
    // `try_with`: allocations during thread teardown, after the counters
    // are gone, are simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a plain
// thread-local statistic that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes requested by allocations on this thread so far.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

#[test]
fn ftl_state_costs_four_bytes_per_map_entry_plus_the_bitmap() {
    let cfg = FtlConfig::evaluation_defaults();
    let g = cfg.geometry;
    assert_eq!(g, Geometry::scaled());
    let before = bytes();
    let ftl = Ftl::new(cfg).expect("valid configuration");
    let allocated = bytes() - before;
    let maps = 4 * (ftl.logical_pages() + g.page_count());
    let bitmap = g.block_count() * g.pages_per_block.div_ceil(64) as u64 * 8;
    // Block records, free lists and allocator frontiers: about 30 B per
    // block, far below a second set of 4-byte map entries.
    let slack = 48 * g.block_count();
    let budget = maps + bitmap + slack;
    assert!(
        allocated <= budget,
        "Ftl::new allocated {allocated} B; budget {budget} B \
         ({maps} B of maps + {bitmap} B of bitmap + {slack} B of slack)"
    );
    drop(ftl);
}

#[test]
fn block_erases_and_retirements_never_allocate() {
    let g = Geometry::scaled();
    let mut t = BlockTable::new(&g);
    let planes = g.plane_count() as usize;
    // Two full blocks per plane with every page invalidated (erase
    // victims), and one open block per plane holding live data.
    let mut victims = Vec::new();
    let mut open = Vec::new();
    for unit in 0..planes {
        for _ in 0..2 {
            let pbn = t.take_free_block(unit).expect("fresh plane");
            while let Some(ppn) = t.program_next_page(pbn) {
                t.invalidate(ppn);
            }
            victims.push(pbn);
        }
        let pbn = t.take_free_block(unit).expect("fresh plane");
        t.program_next_page(pbn).expect("open block has room");
        open.push(pbn);
    }
    let free: Vec<Pbn> = (0..planes as u64)
        .map(|unit| Pbn::new((unit + 1) * g.blocks_per_plane as u64 - 1))
        .collect();
    let before = allocs();
    for (i, &pbn) in victims.iter().enumerate() {
        // Every other victim wears out at this erase.
        let limit = (i % 2 == 1).then_some(1);
        t.erase_with_endurance(pbn, limit);
    }
    for &pbn in open.iter().chain(&free) {
        t.force_retire(pbn);
    }
    assert_eq!(allocs() - before, 0, "an erase or a retirement allocated");
    assert!(t.check_invariants().is_empty());
    assert_eq!(t.retired_blocks(), (victims.len() / 2 + 2 * planes) as u64);
}

#[test]
fn steady_state_event_queue_never_allocates() {
    const HELD: usize = 4096;
    let mut rng = DetRng::seed_from_u64(0x57EAD);
    let mut q = EventQueue::new();
    for _ in 0..HELD {
        q.schedule(SimTime::from_ns(rng.gen_range(1..100_000u64)), 0u32);
    }
    // Each pair pops the earliest event and schedules a near-horizon one,
    // holding the population constant (the engine's steady state).
    let mut churn = |q: &mut EventQueue<u32>, pairs: u32| {
        for i in 0..pairs {
            let (now, _) = q.pop().expect("held population");
            q.schedule(now + SimTime::from_ns(rng.gen_range(1..100_000u64)), i);
        }
    };
    // Warm-up: twice the measured length, so every bucket the measured
    // loop can reach has grown to its steady-state footprint.
    churn(&mut q, 200_000);
    let before = allocs();
    churn(&mut q, 100_000);
    assert_eq!(allocs() - before, 0, "steady-state schedule/pop allocated");
    assert_eq!(q.len(), HELD);
}

#[test]
fn engine_hot_loop_is_allocation_free_on_every_fabric_family() {
    for arch in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
        Architecture::NoSsdUnconstrained,
    ] {
        let mut cfg = SsdConfig::new(arch);
        cfg.gc.policy = GcPolicy::None;
        let trace = PaperWorkload::YcsbA.generate(20_000, cfg.logical_bytes() / 2, 7);
        let (mut sim, drive) = prepare_trace(cfg, trace).expect("prepare");
        let before = allocs();
        sim.start(drive);
        sim.run_to_idle();
        let allocated = allocs() - before;
        let events = sim.into_report().engine.scheduled_events;
        let per_event = allocated as f64 / events as f64;
        assert!(
            per_event <= 0.01,
            "{}: {allocated} allocations over {events} events ({per_event:.4}/event)",
            arch.label()
        );
    }
}

#[test]
fn stalled_writes_on_an_aged_device_do_not_allocate() {
    // Built like the benchmark's `gc-aged` base cell at a third of its
    // length: PaGC on `gc_scaled`, aged to 0.85 fill plus 0.3x overwrites,
    // closed loop at depth 32, the experiments' seed. Writes park once the
    // free blocks reach the GC reserve, partway through the run.
    const FILL: f64 = 0.85;
    const SEED: u64 = 0x20220C0;
    let mut cfg = SsdConfig::gc_scaled(Architecture::BaseSsd);
    cfg.gc.policy = GcPolicy::Parallel;
    cfg.seed = SEED;
    let footprint = (cfg.logical_bytes() as f64 * (FILL - 0.05)) as u64;
    let trace = PaperWorkload::YcsbA.generate(50_000, footprint, SEED);
    let (mut sim, drive) =
        prepare_closed_loop_preconditioned(cfg, trace, 32, FILL, 0.3).expect("prepare");
    let mut stalled = false;
    let before = allocs();
    sim.start(drive);
    while sim.step() {
        stalled |= sim.parked_writes() > 0;
    }
    let allocated = allocs() - before;
    let events = sim.into_report().engine.scheduled_events;
    assert!(
        stalled,
        "no write parked: the cell never exercised the stall path"
    );
    let per_event = allocated as f64 / events as f64;
    assert!(
        per_event <= 0.01,
        "{allocated} allocations over {events} events ({per_event:.4}/event)"
    );
}

#[test]
fn degraded_reads_and_the_parity_rebuild_do_not_allocate() {
    // Built like the benchmark's `rebuild-oracle` cells at a twentieth of
    // their length: read-heavy WebSearch-0 with stripe-2 parity, the
    // oracle on and PaGC, with chip (0, 0) failing a third of the way
    // through the arrivals.
    for arch in [Architecture::BaseSsd, Architecture::PnSsdSplit] {
        let mut cfg = SsdConfig::new(arch);
        cfg.gc.policy = GcPolicy::Parallel;
        cfg.redundancy = RedundancyConfig::with_stripe(2);
        cfg.oracle = true;
        let trace = PaperWorkload::WebSearch0.generate(30_000, cfg.logical_bytes() / 2, 7);
        cfg.faults.chip_failure = Some(ChipFailureSpec {
            channel: 0,
            way: 0,
            at: trace.records()[trace.len() / 3].at + SimTime::from_ns(1),
        });
        let (mut sim, drive) = prepare_trace(cfg, trace).expect("prepare");
        let before = allocs();
        sim.start(drive);
        sim.run_to_idle();
        let allocated = allocs() - before;
        let report = sim.into_report();
        let label = arch.label();
        assert!(
            report.reliability.reconstructed_reads > 0,
            "{label}: no read was served by reconstruction"
        );
        let rebuilt = report.redundancy.map_or(0, |r| r.rebuild_pages);
        assert!(rebuilt > 0, "{label}: the rebuild moved nothing");
        let events = report.engine.scheduled_events;
        let per_event = allocated as f64 / events as f64;
        assert!(
            per_event <= 0.01,
            "{label}: {allocated} allocations over {events} events ({per_event:.4}/event)"
        );
    }
}
