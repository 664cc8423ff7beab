//! Omnibus (pnSSD) fabric: packetized h-channels plus controller- or
//! chip-driven vertical channels. Hosts the greedy adaptive h/v path
//! choice, the water-filling page split (§V-C), and direct flash-to-flash
//! GC copies over a shared v-channel (§VI-A) — for every Omnibus variant,
//! I/O and GC alike.

use nssd_flash::{FlashCommand, PageAddr};
use nssd_interconnect::{Omnibus, PacketBus};
use nssd_sim::SimTime;

use super::super::reserve_with_link_faults;
use super::{
    reconstruct_staged, staged_copy_packetized, CmdStart, FabricBackend, FabricCtx, GcEcc,
    SurvivorRead, XferPlan,
};
use crate::SsdConfig;

/// How host I/O data is routed across the two path classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HostRouting {
    /// The channel-sliced strawman (Fig 9b): v-channels are chip-to-chip
    /// only, so host data rides the h-channel exclusively.
    HorizontalOnly,
    /// pnSSD: greedy adaptive choice of whichever path can start earlier.
    Adaptive,
    /// pnSSD(+split): the page is split across both paths so the halves
    /// finish together.
    Split,
}

#[derive(Debug)]
pub(crate) struct OmnibusFabric {
    h: PacketBus,
    v: PacketBus,
    omni: Omnibus,
    routing: HostRouting,
    ctrl_msg_latency: SimTime,
    base_width_bits: u32,
}

/// Which Omnibus path a single-path transfer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PnPath {
    H,
    V,
}

impl OmnibusFabric {
    pub(crate) fn new(
        h: PacketBus,
        v: PacketBus,
        omni: Omnibus,
        routing: HostRouting,
        ctrl_msg_latency: SimTime,
        base_width_bits: u32,
    ) -> Self {
        OmnibusFabric {
            h,
            v,
            omni,
            routing,
            ctrl_msg_latency,
            base_width_bits,
        }
    }

    /// The v-channel index serving `way`.
    fn v_index(&self, way: u32) -> usize {
        self.omni.v_channel_of_way(way) as usize
    }

    /// When a v-channel transfer for this chip could begin: the channel's
    /// availability pushed by the control-plane handshake with the
    /// v-channel's owning controller.
    fn v_ready(&self, addr: PageAddr, at: SimTime) -> (usize, SimTime) {
        let v = self.omni.v_channel_of_way(addr.way);
        let msgs = self.omni.io_v_handshake_messages(addr.channel, v);
        let hs = self.omni.handshake_time(msgs, self.ctrl_msg_latency);
        (v as usize, at + hs)
    }

    /// Greedy adaptive path choice: whichever path can start earlier, ties
    /// favoring the horizontal channel (it needs no handshake).
    fn choose_pn_path(&self, ctx: &FabricCtx, addr: PageAddr, at: SimTime) -> PnPath {
        let h_start = ctx.h_channels[addr.channel as usize].earliest_start(at);
        let (v, v_at) = self.v_ready(addr, at);
        let v_start = ctx.v_channels[v].earliest_start(v_at);
        if v_start < h_start {
            PnPath::V
        } else {
            PnPath::H
        }
    }

    /// Water-filling split plan (§V-C): choose how many page bytes ride the
    /// h-channel vs the v-channel so both halves *finish* together, given
    /// when each channel can start. With both paths idle this is the paper's
    /// half/half split; with one path congested it degenerates to the
    /// single-path greedy choice. Returns `(bytes_h, bytes_v, v_idx, v_at)`.
    fn split_plan(
        &self,
        ctx: &FabricCtx,
        addr: PageAddr,
        at: SimTime,
        page: u32,
    ) -> (u32, u32, usize, SimTime) {
        const MIN_CHUNK: u32 = 1024;
        let h_start = ctx.h_channels[addr.channel as usize].earliest_start(at);
        let (v, v_at) = self.v_ready(addr, at);
        let v_start = ctx.v_channels[v].earliest_start(v_at);
        // Both channels move ~1 byte per ns (8-bit @ 1000 MT/s); equalize
        // finish times: h_start + bytes_h = v_start + (page - bytes_h).
        let ns_per_byte =
            1_000.0 / (SsdConfig::CHANNEL_MTS as f64 * self.base_width_bits as f64 / 8.0);
        let skew_bytes = (v_start.as_ns() as f64 - h_start.as_ns() as f64) / ns_per_byte;
        let bytes_h = ((page as f64 + skew_bytes) / 2.0)
            .round()
            .clamp(0.0, page as f64) as u32;
        let bytes_h = if bytes_h < MIN_CHUNK {
            0
        } else if page - bytes_h < MIN_CHUNK {
            page
        } else {
            bytes_h
        };
        (bytes_h, page - bytes_h, v, v_at)
    }

    /// Single-path data movement with the adaptive choice; `dur_of` maps a
    /// byte count onto the wire time of the chosen bus (the read-out and
    /// write-in framings differ).
    fn adaptive_xfer(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        at: SimTime,
        tag: usize,
        dur_of: impl Fn(&PacketBus, u32) -> SimTime,
    ) -> XferPlan {
        let dur_h = dur_of(&self.h, bytes);
        let dur_v = dur_of(&self.v, bytes);
        let (r, delivered) = match self.choose_pn_path(ctx, addr, at) {
            PnPath::H => reserve_with_link_faults(
                &mut ctx.h_channels[addr.channel as usize],
                ctx.faults,
                at,
                dur_h,
                bytes as u64,
                tag,
            ),
            PnPath::V => {
                let (v, v_at) = self.v_ready(addr, at);
                reserve_with_link_faults(
                    &mut ctx.v_channels[v],
                    ctx.faults,
                    v_at,
                    dur_v,
                    bytes as u64,
                    tag,
                )
            }
        };
        XferPlan::single_checked(r.end, delivered)
    }

    /// Split data movement: both halves reserved (h first), finishing
    /// together by construction of [`OmnibusFabric::split_plan`].
    fn split_xfer(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        at: SimTime,
        tag: usize,
        dur_of: impl Fn(&PacketBus, u32) -> SimTime,
    ) -> XferPlan {
        let (bytes_h, bytes_v, v, v_at) = self.split_plan(ctx, addr, at, bytes);
        let mut first = None;
        let mut second = None;
        let mut failed = false;
        if bytes_h > 0 {
            let dur = dur_of(&self.h, bytes_h);
            let (r, delivered) = reserve_with_link_faults(
                &mut ctx.h_channels[addr.channel as usize],
                ctx.faults,
                at,
                dur,
                bytes_h as u64,
                tag,
            );
            first = Some(r.end);
            failed |= !delivered;
        }
        if bytes_v > 0 {
            let dur = dur_of(&self.v, bytes_v);
            let (r, delivered) = reserve_with_link_faults(
                &mut ctx.v_channels[v],
                ctx.faults,
                v_at,
                dur,
                bytes_v as u64,
                tag,
            );
            failed |= !delivered;
            if first.is_none() {
                first = Some(r.end);
            } else {
                second = Some(r.end);
            }
        }
        XferPlan {
            first: first.expect("split plan moves at least one byte"),
            second,
            ctrl: 0,
            failed,
        }
    }

    fn host_xfer(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        at: SimTime,
        tag: usize,
        dur_of: impl Fn(&PacketBus, u32) -> SimTime,
    ) -> XferPlan {
        match self.routing {
            HostRouting::HorizontalOnly => {
                // Channel-sliced (Fig 9b): the controller only reaches the
                // chip over the 8-bit h-channel — the v-channels are
                // chip-to-chip only, so host I/O cannot use them.
                let dur = dur_of(&self.h, bytes);
                let (r, delivered) = reserve_with_link_faults(
                    &mut ctx.h_channels[addr.channel as usize],
                    ctx.faults,
                    at,
                    dur,
                    bytes as u64,
                    tag,
                );
                XferPlan::single_checked(r.end, delivered)
            }
            HostRouting::Adaptive => self.adaptive_xfer(ctx, addr, bytes, at, tag, dur_of),
            HostRouting::Split => self.split_xfer(ctx, addr, bytes, at, tag, dur_of),
        }
    }
}

impl FabricBackend for OmnibusFabric {
    fn v_channel_count(&self) -> usize {
        self.omni.v_channel_count() as usize
    }

    fn omnibus(&self) -> Option<Omnibus> {
        Some(self.omni)
    }

    fn control_handshake(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        cmd: FlashCommand,
        at: SimTime,
        tag: usize,
    ) -> CmdStart {
        // Commands ride the h-channel: they are a handful of flits and the
        // h-controller owns the chip's command path.
        let dur = self.h.control_packet_time(cmd);
        let end = ctx.h_channels[addr.channel as usize]
            .reserve_tagged(at, dur, tag)
            .end;
        CmdStart { end, ctrl: 0 }
    }

    fn reserve_write_in(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        at: SimTime,
        tag: usize,
    ) -> XferPlan {
        self.host_xfer(ctx, addr, bytes, at, tag, |pkt, b| pkt.write_in_time(b))
    }

    fn reserve_read_out(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        _ctrl: u32,
        at: SimTime,
        tag: usize,
    ) -> XferPlan {
        self.host_xfer(ctx, addr, bytes, at, tag, |pkt, b| pkt.read_out_time(b))
    }

    fn gc_read_command(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        use_v: bool,
        at: SimTime,
        tag: usize,
    ) -> SimTime {
        // Spatial pnSSD keeps even the command traffic on the v-channel to
        // leave h-channels to I/O.
        let dur = self.v.control_packet_time(FlashCommand::ReadPage);
        if use_v {
            let v = self.v_index(addr.way);
            ctx.v_channels[v].reserve_tagged(at, dur, tag).end
        } else {
            ctx.h_channels[addr.channel as usize]
                .reserve_tagged(at, dur, tag)
                .end
        }
    }

    fn reserve_f2f_copy(
        &self,
        ctx: &mut FabricCtx,
        src: PageAddr,
        dst: PageAddr,
        bytes: u32,
        ecc: GcEcc,
        at: SimTime,
        tag: usize,
    ) -> SimTime {
        // Controller-strict ECC forbids bypassing the controller's decoder,
        // disabling direct flash-to-flash movement (§VIII).
        let f2f = ecc
            .f2f
            .and_then(|e| self.omni.f2f_v_channel(src.way, dst.way).map(|v| (v, e)));
        match f2f {
            Some((v, on_die)) => {
                // Direct flash-to-flash over the shared v-channel: one
                // traversal instead of two (§V-C).
                let msgs = self
                    .omni
                    .f2f_handshake_messages(src.channel, dst.channel, v);
                let hs = self.omni.handshake_time(msgs, self.ctrl_msg_latency);
                let dur = self.v.xfer_time(bytes);
                reserve_with_link_faults(
                    &mut ctx.v_channels[v as usize],
                    ctx.faults,
                    at + hs,
                    dur,
                    bytes as u64,
                    tag,
                )
                .0
                .end + on_die
            }
            None => {
                // Different column groups (or strict ECC): staged through
                // the controller over both h-channels.
                staged_copy_packetized(ctx, &self.h, src, dst, bytes, ecc.staged, at, tag)
            }
        }
    }

    fn reserve_reconstruct(
        &self,
        ctx: &mut FabricCtx,
        survivors: &[SurvivorRead],
        dst: Option<PageAddr>,
        bytes: u32,
        ecc: GcEcc,
        tag: usize,
    ) -> SimTime {
        // A rebuild re-placement can move every survivor flash-to-flash
        // over the shared v-channel and XOR on-die at the destination —
        // the parity group lives within one way, so all survivors reach
        // the same v-channel (§VI-A applied to reconstruction). Degraded
        // host reads must end at the controller and use the adaptive
        // staged gather instead.
        if let (Some(d), Some(on_die)) = (dst, ecc.f2f) {
            let group_way = survivors.first().map(|s| s.addr.way);
            if let Some(v) = group_way.and_then(|w| self.omni.f2f_v_channel(w, d.way)) {
                let mut gathered = SimTime::ZERO;
                for s in survivors {
                    let msgs = self
                        .omni
                        .f2f_handshake_messages(s.addr.channel, d.channel, v);
                    let hs = self.omni.handshake_time(msgs, self.ctrl_msg_latency);
                    let dur = self.v.xfer_time(bytes);
                    let (r, _) = reserve_with_link_faults(
                        &mut ctx.v_channels[v as usize],
                        ctx.faults,
                        s.ready + hs,
                        dur,
                        bytes as u64,
                        tag,
                    );
                    gathered = gathered.max(r.end + on_die);
                }
                return gathered;
            }
        }
        reconstruct_staged(self, ctx, survivors, dst, bytes, ecc, tag)
    }

    fn source_idle(&self, ctx: &FabricCtx, addr: PageAddr, use_v: bool, at: SimTime) -> bool {
        if use_v {
            ctx.v_channels[self.v_index(addr.way)].is_idle_at(at)
        } else {
            ctx.h_channels[addr.channel as usize].is_idle_at(at)
        }
    }
}
