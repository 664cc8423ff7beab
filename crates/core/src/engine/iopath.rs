//! The host I/O transaction path, architecture-agnostic.
//!
//! Read: command → array tR → data-out → host DMA. Write: data-in → array
//! tPROG. Every data movement and path choice (the greedy adaptive h/v
//! policy, page splitting, mesh controller selection) lives behind the
//! [`super::FabricBackend`] the simulator was constructed with; this module
//! only sequences the flash array, the fabric, and the host pipes.
//!
//! Requests enter here too: [`SsdSim::start_request`] admits one, writes
//! allocate their pages as their data lands, and [`SsdSim::pages_done`]
//! completes a request with its last page.

use std::cell::RefCell;

use nssd_flash::{FlashCommand, PageAddr, Pbn, Ppn};
use nssd_ftl::{FtlError, Lpn, Relocation};
use nssd_host::{IoOp, IoRequest};
use nssd_sim::SimTime;

use super::{Event, Mover, PendingSpan, ReqState, SsdSim, SurvivorRead, TransState};
use crate::Traffic;

/// One functional GC action captured during an instant (untimed)
/// collection, replayed to the shadow oracle *in order* afterwards — an
/// erased block can be reused as a relocation destination within the same
/// collection, so grouping by kind would replay incorrectly.
enum GcNote {
    Rel(Relocation),
    Erase(Pbn),
}

impl SsdSim {
    pub(crate) fn chip_index(&self, addr: PageAddr) -> usize {
        self.cfg.geometry.chip_index(addr.channel, addr.way)
    }

    /// StartTrans: reads issue the command and the array read; writes move
    /// the page data toward the chip.
    pub(crate) fn on_start_trans(&mut self, t: usize) {
        let (addr, is_read, degraded) = {
            let tr = &self.trans[t];
            (tr.addr, tr.is_read, tr.degraded)
        };
        if degraded {
            self.start_degraded_read(t, addr);
        } else if is_read {
            self.start_read_command(t, addr);
        } else {
            self.start_write_data_in(t, addr);
        }
    }

    fn start_read_command(&mut self, t: usize, addr: PageAddr) {
        let tag = Traffic::io(true).tag();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let cmd = fabric.control_handshake(&mut ctx, addr, FlashCommand::ReadPage, now, tag);
        self.trans[t].mesh_ctrl = cmd.ctrl;
        let chip = self.chip_index(addr);
        let fault = self.sample_read_fault();
        let read = self.chips[chip].reserve_read(addr.die, addr.plane, cmd.end);
        let ready = self.apply_read_fault(chip, addr, read.end, fault);
        self.queue.schedule(ready, Event::ArrayDone(t));
    }

    /// A read whose mapped page sits on the fail-stopped chip: the data is
    /// reconstructed from the surviving stripe members instead of touching
    /// the dead chip ([`SsdSim::reconstruct`]), after which the page flows
    /// down the normal host-DMA tail.
    fn start_degraded_read(&mut self, t: usize, addr: PageAddr) {
        let done = self.reconstruct(addr, None);
        self.faults.note_reconstructed_read();
        self.trans[t].halves_left = 1;
        self.queue.schedule(done, Event::XferHalfDone(t));
    }

    /// Reconstructs the page at `addr` from its surviving stripe members
    /// and returns when the fabric has delivered it. Without `dst` this
    /// serves a host read: every survivor pays a full command handshake and
    /// array read, and the page heads for the controller. With `dst` it is
    /// a rebuild copy: survivors take GC read commands and the page heads
    /// for the destination chip. The fabric routes the gather and the XOR
    /// combine (see [`super::FabricBackend::reserve_reconstruct`]).
    /// Survivor reads are timed in stripe order into the reusable
    /// `survivor_reads` buffer, so a reconstruction allocates nothing.
    pub(crate) fn reconstruct(&mut self, addr: PageAddr, dst: Option<PageAddr>) -> SimTime {
        let tag = match dst {
            None => Traffic::io(true).tag(),
            Some(_) => Traffic::Gc.tag(),
        };
        let now = self.now;
        let page = self.page_bytes();
        let ecc = self.gc_ecc();
        let mut reads = std::mem::take(&mut self.survivor_reads);
        reads.clear();
        for s in self.ftl.redundancy().survivors(addr) {
            let (cmd_end, ctrl) = {
                let (fabric, mut ctx) = self.fabric_parts();
                match dst {
                    None => {
                        let cmd =
                            fabric.control_handshake(&mut ctx, s, FlashCommand::ReadPage, now, tag);
                        (cmd.end, cmd.ctrl)
                    }
                    Some(_) => (fabric.gc_read_command(&mut ctx, s, false, now, tag), 0),
                }
            };
            let chip = self.chip_index(s);
            let fault = self.sample_read_fault();
            let read = self.chips[chip].reserve_read(s.die, s.plane, cmd_end);
            let ready = self.apply_read_fault(chip, s, read.end, fault);
            reads.push(SurvivorRead {
                addr: s,
                ready,
                ctrl,
            });
        }
        debug_assert!(!reads.is_empty(), "stripe width >= 2 leaves a survivor");
        let (fabric, mut ctx) = self.fabric_parts();
        let done = fabric.reserve_reconstruct(&mut ctx, &reads, dst, page, ecc, tag);
        self.survivor_reads = reads;
        done
    }

    fn start_write_data_in(&mut self, t: usize, addr: PageAddr) {
        let tag = Traffic::io(false).tag();
        let page = self.page_bytes();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let plan = fabric.reserve_write_in(&mut ctx, addr, page, now, tag);
        self.trans[t].mesh_ctrl = plan.ctrl;
        self.trans[t].halves_left = plan.halves();
        self.trans[t].failed |= plan.failed;
        for end in plan.ends() {
            self.queue.schedule(end, Event::XferHalfDone(t));
        }
    }

    /// ArrayDone: a read's tR finished (page register holds the data — move
    /// it out), or a write's tPROG finished (the page is durable).
    pub(crate) fn on_array_done(&mut self, t: usize) {
        let (addr, is_read, ctrl) = {
            let tr = &self.trans[t];
            (tr.addr, tr.is_read, tr.mesh_ctrl)
        };
        if !is_read {
            let pbn = self.cfg.geometry.pbn(addr.block_addr());
            self.note_programmed(pbn, self.now);
            self.queue.schedule(self.now, Event::PageDone(t));
            return;
        }
        let tag = Traffic::io(true).tag();
        let page = self.page_bytes();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let plan = fabric.reserve_read_out(&mut ctx, addr, page, ctrl, now, tag);
        self.trans[t].halves_left = plan.halves();
        self.trans[t].failed |= plan.failed;
        for end in plan.ends() {
            self.queue.schedule(end, Event::XferHalfDone(t));
        }
    }

    /// XferHalfDone: one data-path half landed. When the page is fully
    /// transferred, reads DMA to the host and writes start the program.
    pub(crate) fn on_xfer_half_done(&mut self, t: usize) {
        let tr = &mut self.trans[t];
        debug_assert!(tr.halves_left > 0);
        tr.halves_left -= 1;
        if tr.halves_left > 0 {
            return;
        }
        let (addr, is_read, req) = (tr.addr, tr.is_read, tr.req);
        if is_read {
            let op = self.requests[req].op;
            debug_assert_eq!(op, IoOp::Read);
            // Controller ECC decode (if modeled) gates the host DMA.
            let decoded = self.now + self.ecc_host_read_delay();
            let out =
                self.host
                    .outbound(decoded, self.page_bytes() as u64, Traffic::HostRead.tag());
            self.queue.schedule(out.end, Event::PageDone(t));
        } else {
            let chip = self.chip_index(addr);
            let prog = self.chips[chip].reserve_program(addr.die, addr.plane, self.now);
            self.queue.schedule(prog.end, Event::ArrayDone(t));
        }
    }

    /// Admits one request into the device: allocates its slot, counts it
    /// in-flight, and begins its page work. `submitted` is the latency
    /// origin — equal to `now` for open/closed-loop drives, the original
    /// queue-arrival time for multi-tenant dispatches.
    pub(crate) fn start_request(&mut self, r: IoRequest, tenant: u16, submitted: SimTime) {
        let (first_page, pages) = r.page_span(self.page_bytes());
        let req_id = self.alloc_req(ReqState {
            op: r.op,
            submitted,
            tenant,
            pages_total: pages,
            pages_done: 0,
            failed: false,
            degraded: false,
        });
        self.inflight_io += 1;
        match r.op {
            IoOp::Read => {
                // Command submission cost is negligible; page reads start
                // immediately and DMA back per page.
                self.issue_read_pages(req_id, first_page, pages);
            }
            IoOp::Write => {
                // Data moves host → DRAM first, then pages are issued; the
                // allocator runs at issue time so spatial-GC masks apply.
                let landed = self
                    .host
                    .inbound(self.now, r.len as u64, Traffic::HostWrite.tag());
                self.queue.schedule(landed.end, Event::IssuePages(req_id));
                self.set_pending_span(req_id, PendingSpan { first_page, pages });
            }
        }
    }

    /// A write's data has landed in DRAM: issue its pages. Once the device
    /// is at end of life the write fails; while earlier writes are parked
    /// it parks behind them, so stalled writes resume in arrival order.
    pub(crate) fn on_issue_pages(&mut self, req: usize) {
        if self.end_of_life.is_some() {
            self.fail_span(req);
        } else if !self.parked.is_empty() || !self.issue_span(req) {
            self.park(req);
        } else {
            self.maybe_start_gc();
        }
    }

    /// Issues request `req`'s pending pages in order. On the first page
    /// that cannot be allocated, keeps the rest as its pending span and
    /// returns `false`.
    pub(crate) fn issue_span(&mut self, req: usize) -> bool {
        let PendingSpan { first_page, pages } = self.pending_write_spans[req]
            .take()
            .expect("write span recorded at arrival");
        for p in 0..pages {
            let lpn = Lpn::new(first_page + p as u64);
            let Some(ppn) = self.try_allocate(lpn) else {
                self.pending_write_spans[req] = Some(PendingSpan {
                    first_page: first_page + p as u64,
                    pages: pages - p,
                });
                return false;
            };
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_host_write(lpn, ppn, self.now);
            }
            let addr = self.cfg.geometry.page_addr(ppn);
            let t = self.alloc_trans(TransState {
                req,
                addr,
                is_read: false,
                halves_left: 0,
                mesh_ctrl: 0,
                failed: false,
                degraded: false,
            });
            let ready = self.ftl_compute(self.now);
            self.queue.schedule(ready, Event::StartTrans(t));
        }
        true
    }

    pub(crate) fn try_allocate(&mut self, lpn: Lpn) -> Option<Ppn> {
        // With GC disabled there is no timed reclamation; reclaim instantly
        // at the watermark (counted in FtlStats) so pure interconnect
        // studies are not polluted by GC timing — and crucially *before*
        // free space hits zero, when relocation itself would have no room.
        if !self.gc.enabled() && self.ftl.needs_gc() {
            match self.oracle.as_mut() {
                None => {
                    let _ = self.ftl.instant_gc(&mut self.rng);
                }
                Some(oracle) => {
                    // Both observation hooks would need the oracle at once;
                    // capture the interleaved action stream instead and
                    // replay it in order afterwards.
                    let notes = RefCell::new(Vec::new());
                    let _ = self.ftl.instant_gc_with(
                        &mut self.rng,
                        &mut |rel| notes.borrow_mut().push(GcNote::Rel(rel)),
                        &mut |pbn| notes.borrow_mut().push(GcNote::Erase(pbn)),
                    );
                    for note in notes.into_inner() {
                        match note {
                            GcNote::Rel(rel) => oracle.note_relocation(rel, self.now),
                            GcNote::Erase(pbn) => oracle.note_erase(pbn, self.now),
                        }
                    }
                    oracle.check_invariants(&self.ftl, self.now);
                }
            }
            // The collection may have freed the page a rebuild copy waits
            // for.
            self.wake_rebuild();
        }
        match self.ftl.write(lpn) {
            Ok(out) => Some(out.ppn),
            Err(FtlError::OutOfSpace) => None,
            // The only other failure is a page beyond the logical span: a
            // caller error `SsdSim::start` documents, not a device state.
            Err(e) => panic!("host write failed: {e}"),
        }
    }

    pub(crate) fn issue_read_pages(&mut self, req: usize, first_page: u64, pages: u32) {
        for p in 0..pages {
            let lpn = Lpn::new(first_page + p as u64);
            let mapped = self.ftl.lookup(lpn);
            if let Some(oracle) = self.oracle.as_mut() {
                // Checked at issue time: this is the translation the data
                // will actually be served from, and the shadow map cannot
                // drift underneath it while the transfer is in flight.
                oracle.check_host_read(lpn, mapped, self.now);
            }
            match mapped {
                Some(ppn) => {
                    let addr = self.cfg.geometry.page_addr(ppn);
                    let t = self.alloc_trans(TransState {
                        req,
                        addr,
                        is_read: true,
                        halves_left: 0,
                        mesh_ctrl: 0,
                        failed: false,
                        degraded: self.ftl.is_degraded_page(ppn),
                    });
                    let ready = self.ftl_compute(self.now);
                    self.queue.schedule(ready, Event::StartTrans(t));
                }
                None => {
                    // Never-written page: served from the controller
                    // (all-zero data), host DMA only. An LPN that died with
                    // a chip is unmapped too — but its read is an I/O
                    // error, not zeroes, and is counted only as such.
                    let lost = self.lost_pages.binary_search(&lpn.raw()).is_ok();
                    if !lost {
                        self.unmapped_reads += 1;
                    }
                    let out = self.host.outbound(
                        self.now,
                        self.page_bytes() as u64,
                        Traffic::HostRead.tag(),
                    );
                    let t = self.alloc_trans(TransState {
                        req,
                        addr: PageAddr {
                            channel: 0,
                            way: 0,
                            die: 0,
                            plane: 0,
                            block: 0,
                            page: 0,
                        },
                        is_read: true,
                        halves_left: 0,
                        mesh_ctrl: 0,
                        failed: lost,
                        degraded: false,
                    });
                    self.queue.schedule(out.end, Event::PageDone(t));
                }
            }
        }
    }

    pub(crate) fn on_page_done(&mut self, t: usize) {
        let (req_id, t_failed, t_degraded) = {
            let tr = &self.trans[t];
            (tr.req, tr.failed, tr.degraded)
        };
        // `PageDone` is a transaction's final event; the slot is free for
        // the next page the moment it fires.
        self.trans_free.push(t);
        self.pages_done(req_id, 1, t_failed, t_degraded);
    }

    /// Counts `pages` more of request `req_id` as done and completes the
    /// request with its last page.
    pub(crate) fn pages_done(&mut self, req_id: usize, pages: u32, failed: bool, degraded: bool) {
        let req = &mut self.requests[req_id];
        req.failed |= failed;
        req.degraded |= degraded;
        req.pages_done += pages;
        if req.pages_done == req.pages_total {
            let lat = self.now - req.submitted;
            let op = req.op;
            let tenant = req.tenant;
            let (failed, degraded) = (req.failed, req.degraded);
            // A failed request completes with an error, not with data: its
            // time to fail is not a service latency, so only served
            // requests enter the histograms.
            let served = if failed {
                self.faults.note_host_io_error();
                None
            } else {
                if degraded {
                    self.degraded_lat.record(lat);
                }
                self.all_lat.record(lat);
                match op {
                    IoOp::Read => self.read_lat.record(lat),
                    IoOp::Write => self.write_lat.record(lat),
                }
                Some(lat)
            };
            self.completed += 1;
            self.last_completion = self.last_completion.max(self.now);
            self.inflight_io -= 1;
            // Every page transaction has completed (this was the last one),
            // so nothing references the request slot any more.
            self.req_free.push(req_id);
            self.drive_completed(tenant, op, served);
            // Preemptive GC and the rebuild wait for I/O quiescence.
            for m in Mover::ALL {
                self.pump_if_wanted(m);
            }
        }
    }
}
