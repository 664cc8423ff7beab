//! NoSSD mesh fabric: every movement is a cut-through packet route over
//! the 2D mesh, and any controller can serve any chip — the greedy
//! controller choice is the path-diversity benefit the unconstrained NoSSD
//! configuration demonstrates.

use nssd_flash::{FlashCommand, PageAddr};
use nssd_interconnect::{ControlPacket, DataPacket, Mesh, MeshEndpoint, MeshParams};
use nssd_sim::SimTime;

use super::{
    reconstruct_staged, CmdStart, FabricBackend, FabricCtx, GcEcc, SurvivorRead, XferPlan,
};

#[derive(Debug)]
pub(crate) struct MeshFabric {
    mesh: Mesh,
    params: MeshParams,
}

impl MeshFabric {
    pub(crate) fn new(mesh: Mesh, params: MeshParams) -> Self {
        MeshFabric { mesh, params }
    }

    fn chip(addr: PageAddr) -> MeshEndpoint {
        MeshEndpoint::Chip {
            row: addr.way,
            col: addr.channel,
        }
    }

    /// Reserves the full mesh route for a packet of `flits`, cut-through
    /// style: each link is occupied for the serialization time, offset by
    /// the per-hop router latency. Returns the delivery time.
    fn reserve_path(
        &self,
        ctx: &mut FabricCtx,
        src: MeshEndpoint,
        dst: MeshEndpoint,
        flits: u64,
        at: SimTime,
        tag: usize,
    ) -> SimTime {
        let ser = self.params.link.flit_time(flits);
        let mut ready = at;
        let mut end = at;
        self.mesh.for_each_link(src, dst, |l| {
            let r = ctx.mesh_links[l.0].reserve_tagged(ready, ser, tag);
            ready = r.start + self.params.hop_latency;
            end = r.end;
        });
        end
    }

    /// Greedy controller choice: any controller can serve any chip (the
    /// mesh decouples front-end from back-end), so pick the one whose edge
    /// links free up earliest, preferring the chip's own column on ties.
    fn choose_controller(&self, ctx: &FabricCtx, addr: PageAddr) -> u32 {
        let cols = self.mesh.cols();
        let score = |c: u32| {
            let inject = &ctx.mesh_links[c as usize];
            let eject = &ctx.mesh_links[(cols + c) as usize];
            inject.next_free().max(eject.next_free())
        };
        let mut best = addr.channel;
        let mut best_t = score(best);
        for c in 0..cols {
            let t = score(c);
            if t < best_t {
                best_t = t;
                best = c;
            }
        }
        best
    }
}

impl FabricBackend for MeshFabric {
    fn mesh_link_count(&self) -> usize {
        self.mesh.link_count()
    }

    fn control_handshake(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        cmd: FlashCommand,
        at: SimTime,
        tag: usize,
    ) -> CmdStart {
        let ctrl = self.choose_controller(ctx, addr);
        let flits = ControlPacket::for_command(cmd).flits();
        let end = self.reserve_path(
            ctx,
            MeshEndpoint::Controller(ctrl),
            Self::chip(addr),
            flits,
            at,
            tag,
        );
        CmdStart { end, ctrl }
    }

    fn reserve_write_in(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        at: SimTime,
        tag: usize,
    ) -> XferPlan {
        let ctrl = self.choose_controller(ctx, addr);
        let flits = ControlPacket::for_command(FlashCommand::ProgramPage).flits()
            + DataPacket::new(bytes).flits();
        let end = self.reserve_path(
            ctx,
            MeshEndpoint::Controller(ctrl),
            Self::chip(addr),
            flits,
            at,
            tag,
        );
        XferPlan {
            first: end,
            second: None,
            ctrl,
            failed: false,
        }
    }

    fn reserve_read_out(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        ctrl: u32,
        at: SimTime,
        tag: usize,
    ) -> XferPlan {
        let flits = ControlPacket::for_command(FlashCommand::ReadDataTransfer).flits()
            + DataPacket::new(bytes).flits();
        let end = self.reserve_path(
            ctx,
            Self::chip(addr),
            MeshEndpoint::Controller(ctrl),
            flits,
            at,
            tag,
        );
        XferPlan {
            first: end,
            second: None,
            ctrl,
            failed: false,
        }
    }

    fn gc_read_command(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        _use_v: bool,
        at: SimTime,
        tag: usize,
    ) -> SimTime {
        // GC stays on the chip's own column controller: reclamation should
        // not compete for the greedy path diversity host I/O relies on.
        let flits = ControlPacket::for_command(FlashCommand::ReadPage).flits();
        self.reserve_path(
            ctx,
            MeshEndpoint::Controller(addr.channel),
            Self::chip(addr),
            flits,
            at,
            tag,
        )
    }

    fn reserve_f2f_copy(
        &self,
        ctx: &mut FabricCtx,
        src: PageAddr,
        dst: PageAddr,
        bytes: u32,
        _ecc: GcEcc,
        at: SimTime,
        tag: usize,
    ) -> SimTime {
        // The mesh supports direct chip-to-chip movement.
        let flits = ControlPacket::for_command(FlashCommand::XferOut).flits()
            + DataPacket::new(bytes).flits();
        self.reserve_path(ctx, Self::chip(src), Self::chip(dst), flits, at, tag)
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
        match dst {
            // Rebuild: every survivor routes directly chip-to-chip to the
            // destination — no controller bounce, the mesh's whole point.
            Some(d) => {
                let flits = ControlPacket::for_command(FlashCommand::XferOut).flits()
                    + DataPacket::new(bytes).flits();
                let mut gathered = SimTime::ZERO;
                for s in survivors {
                    let end = self.reserve_path(
                        ctx,
                        Self::chip(s.addr),
                        Self::chip(d),
                        flits,
                        s.ready,
                        tag,
                    );
                    gathered = gathered.max(end);
                }
                gathered
            }
            // Degraded host read: the data must end at a controller anyway;
            // gather the survivors over their greedily-chosen ejection
            // paths.
            None => reconstruct_staged(self, ctx, survivors, dst, bytes, ecc, tag),
        }
    }

    fn source_idle(&self, ctx: &FabricCtx, addr: PageAddr, _use_v: bool, at: SimTime) -> bool {
        // Gate on the chip's edge column links being quiet.
        let cols = self.mesh.cols() as usize;
        ctx.mesh_links[addr.channel as usize].is_idle_at(at)
            && ctx.mesh_links[cols + addr.channel as usize].is_idle_at(at)
    }
}
