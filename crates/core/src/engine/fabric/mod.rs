//! The fabric backend layer: one vocabulary of timed data-movement
//! operations per interconnect architecture.
//!
//! Every way the engine can move bytes — a command handshake toward a chip,
//! a host-write data-in, a read data-out, a GC flash-to-flash copy — is a
//! method on [`FabricBackend`]. The I/O path (`engine/iopath.rs`) and the GC
//! path (`engine/gcrun.rs`) call these methods and never dispatch on
//! [`crate::Architecture`] themselves; the one construction-time dispatch
//! lives in [`build`], called from `SsdSim::new`.
//!
//! Backends own the pure wire/topology models ([`DedicatedBus`],
//! [`PacketBus`], [`Omnibus`], [`Mesh`]); the contended [`Resource`]
//! timelines stay on the engine and are lent to each call through
//! [`FabricCtx`], so the borrow of the backend and the borrows of the
//! resources stay disjoint. New topologies (a torus, a fat tree, …)
//! implement this trait and nothing else.

mod dedicated;
mod mesh;
mod omnibus;
mod packetized;

use std::fmt;

use nssd_faults::FaultEngine;
use nssd_flash::{FlashCommand, PageAddr};
use nssd_host::HostPipes;
use nssd_interconnect::{DedicatedBus, Mesh, Omnibus, PacketBus};
use nssd_sim::{Resource, SimTime};

use crate::{Architecture, SsdConfig};

pub(crate) use dedicated::DedicatedFabric;
pub(crate) use mesh::MeshFabric;
pub(crate) use omnibus::{HostRouting, OmnibusFabric};
pub(crate) use packetized::PacketizedFabric;

use super::reserve_with_link_faults;

/// The engine-owned timed resources a backend reserves against. Built
/// fresh (as a bundle of disjoint `&mut` field borrows) at every call site.
pub(crate) struct FabricCtx<'a> {
    /// One horizontal (conventional) channel per geometry row.
    pub h_channels: &'a mut [Resource],
    /// Omnibus vertical channels (empty elsewhere).
    pub v_channels: &'a mut [Resource],
    /// NoSSD mesh links (empty elsewhere).
    pub mesh_links: &'a mut [Resource],
    /// Link-fault injection (CRC retransmissions, silent raw corruption).
    pub faults: &'a mut FaultEngine,
    /// Host pipes (the controller's DRAM staging path for staged GC copies).
    pub host: &'a mut HostPipes,
}

/// Outcome of a command/control handshake toward a chip.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CmdStart {
    /// When the command has fully reached the chip.
    pub end: SimTime,
    /// The controller chosen to own this transaction (mesh architectures
    /// pick greedily; bus architectures always use the chip's channel).
    pub ctrl: u32,
}

/// Outcome of a page data movement: one reservation end per path half
/// (the pnSSD *split* mode rides two channels at once).
#[derive(Debug, Clone, Copy)]
pub(crate) struct XferPlan {
    /// End of the first (or only) half.
    pub first: SimTime,
    /// End of the second half, when the page was split across two paths.
    pub second: Option<SimTime>,
    /// The controller chosen for this transaction (see [`CmdStart::ctrl`]).
    pub ctrl: u32,
    /// Whether a CRC-framed leg exhausted its retransmission budget: the
    /// payload never arrived intact and the request must surface a
    /// host-visible I/O error. Always `false` on unframed (dedicated) and
    /// mesh legs, which have no end-to-end check to fail.
    pub failed: bool,
}

impl XferPlan {
    /// A single-path transfer on the chip's own channel.
    pub(crate) fn single(end: SimTime) -> Self {
        XferPlan {
            first: end,
            second: None,
            ctrl: 0,
            failed: false,
        }
    }

    /// A single-path CRC-framed transfer whose delivery outcome is known.
    pub(crate) fn single_checked(end: SimTime, delivered: bool) -> Self {
        XferPlan {
            failed: !delivered,
            ..XferPlan::single(end)
        }
    }

    /// Number of in-flight halves.
    pub(crate) fn halves(&self) -> u8 {
        1 + self.second.is_some() as u8
    }

    /// The completion times, in reservation order.
    pub(crate) fn ends(&self) -> impl Iterator<Item = SimTime> {
        [Some(self.first), self.second].into_iter().flatten()
    }
}

/// ECC charges a GC copy must pay, resolved by the engine from
/// [`crate::EccMode`] before the call (the backend only routes them).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GcEcc {
    /// Decode + re-encode when the copy stages through the controller.
    pub staged: SimTime,
    /// On-die check for a direct flash-to-flash copy, or `None` when the
    /// ECC mode forbids bypassing the controller's decoder entirely.
    pub f2f: Option<SimTime>,
}

/// One surviving stripe member feeding a parity reconstruction: where it
/// sits, when its array read lands the data in the page register, and the
/// controller its command handshake chose (meaningful on the mesh only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SurvivorRead {
    pub addr: PageAddr,
    pub ready: SimTime,
    pub ctrl: u32,
}

/// One interconnect architecture's data-movement implementation.
///
/// Implementations must preserve the exact reservation and fault-draw
/// order of the operations they model: the golden-report matrix pins the
/// resulting timelines byte-for-byte.
pub(crate) trait FabricBackend: fmt::Debug + Send + Sync {
    /// Number of vertical channels the engine must allocate.
    fn v_channel_count(&self) -> usize {
        0
    }

    /// Number of mesh links the engine must allocate; nonzero only on a
    /// NoSSD mesh, whose utilization is reported by edge column instead of
    /// by h-channel.
    fn mesh_link_count(&self) -> usize {
        0
    }

    /// The Omnibus topology, where one exists (GC destination masking and
    /// the spatial-GC column groups consult it, and only there can GC
    /// traffic be steered onto vertical channels).
    fn omnibus(&self) -> Option<Omnibus> {
        None
    }

    /// Sends one command toward the chip at `addr` and returns when it has
    /// arrived, plus the controller chosen to own the transaction.
    fn control_handshake(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        cmd: FlashCommand,
        at: SimTime,
        tag: usize,
    ) -> CmdStart;

    /// Moves `bytes` of host-write data controller → chip, including any
    /// command framing the wire protocol bundles with the data phase.
    fn reserve_write_in(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        at: SimTime,
        tag: usize,
    ) -> XferPlan;

    /// Moves `bytes` of read data chip → controller. `ctrl` is the
    /// controller chosen at command time (meaningful on the mesh only).
    fn reserve_read_out(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        bytes: u32,
        ctrl: u32,
        at: SimTime,
        tag: usize,
    ) -> XferPlan;

    /// Sends a GC source-read command; `use_v` asks for the v-channel
    /// variant where the topology offers one (spatial GC).
    fn gc_read_command(
        &self,
        ctx: &mut FabricCtx,
        addr: PageAddr,
        use_v: bool,
        at: SimTime,
        tag: usize,
    ) -> SimTime;

    /// Moves one GC page `src` → `dst`: direct flash-to-flash where the
    /// topology (and `ecc.f2f`) allow it, staged through the controller and
    /// its DRAM otherwise. Returns when the data is at the destination.
    // A copy is irreducibly (where from, where to, how much, ECC charges,
    // when, accounted to whom); bundling would invent a one-off struct.
    #[allow(clippy::too_many_arguments)]
    fn reserve_f2f_copy(
        &self,
        ctx: &mut FabricCtx,
        src: PageAddr,
        dst: PageAddr,
        bytes: u32,
        ecc: GcEcc,
        at: SimTime,
        tag: usize,
    ) -> SimTime;

    /// Routes one parity reconstruction: every survivor's page moves off
    /// its chip and is XOR-combined, completing at the controller for a
    /// degraded host read (`dst: None`) or at the destination chip for a
    /// rebuild re-placement (`dst: Some`). Survivor array reads are already
    /// timed by the engine (`SurvivorRead::ready`); this method only moves
    /// the data. Networked topologies route rebuild traffic flash-to-flash;
    /// the dedicated baseline bounces every survivor through the
    /// controller (see [`reconstruct_staged`]).
    #[allow(clippy::too_many_arguments)] // mirrors reserve_f2f_copy's shape
    fn reserve_reconstruct(
        &self,
        ctx: &mut FabricCtx,
        survivors: &[SurvivorRead],
        dst: Option<PageAddr>,
        bytes: u32,
        ecc: GcEcc,
        tag: usize,
    ) -> SimTime;

    /// Whether the channel a GC source read at `addr` would use is idle at
    /// `at` (the semi-preemptive yield probe).
    fn source_idle(&self, ctx: &FabricCtx, addr: PageAddr, use_v: bool, at: SimTime) -> bool;
}

/// The controller-staged reconstruction every bus fabric can fall back to:
/// each survivor is read out to the controller over its own channel, the
/// XOR combine waits behind the slowest arrival (paying the staged ECC
/// charge), and a rebuild destination additionally costs the DRAM
/// round-trip plus the write-in — the controller-bounce the paper's
/// interconnection network exists to avoid.
pub(crate) fn reconstruct_staged(
    fabric: &dyn FabricBackend,
    ctx: &mut FabricCtx,
    survivors: &[SurvivorRead],
    dst: Option<PageAddr>,
    bytes: u32,
    ecc: GcEcc,
    tag: usize,
) -> SimTime {
    let mut gathered = SimTime::ZERO;
    for s in survivors {
        let plan = fabric.reserve_read_out(ctx, s.addr, bytes, s.ctrl, s.ready, tag);
        for end in plan.ends() {
            gathered = gathered.max(end);
        }
    }
    let combined = gathered + ecc.staged;
    match dst {
        None => combined,
        Some(d) => {
            let staged = ctx.host.dram_roundtrip(combined, bytes as u64, tag);
            let plan = fabric.reserve_write_in(ctx, d, bytes, staged.end, tag);
            plan.ends().fold(SimTime::ZERO, SimTime::max)
        }
    }
}

/// Construction-time dispatch: the only place an [`Architecture`] chooses
/// an implementation.
pub(crate) fn build(cfg: &SsdConfig) -> Box<dyn FabricBackend> {
    let g = cfg.geometry;
    match cfg.architecture {
        Architecture::BaseSsd => Box::new(DedicatedFabric::new(DedicatedBus::new(cfg.h_bus()))),
        Architecture::PSsd => Box::new(PacketizedFabric::new(PacketBus::new(cfg.h_bus()))),
        Architecture::PnSsd | Architecture::PnSsdSplit | Architecture::ChannelSliced => {
            let routing = match cfg.architecture {
                Architecture::PnSsd => HostRouting::Adaptive,
                Architecture::PnSsdSplit => HostRouting::Split,
                _ => HostRouting::HorizontalOnly,
            };
            Box::new(OmnibusFabric::new(
                PacketBus::new(cfg.h_bus()),
                PacketBus::new(cfg.v_bus()),
                Omnibus::new(g.channels, g.ways, g.channels),
                routing,
                cfg.ctrl_msg_latency,
                cfg.base_width_bits,
            ))
        }
        Architecture::NoSsdPinConstrained | Architecture::NoSsdUnconstrained => Box::new(
            MeshFabric::new(Mesh::new(g.ways, g.channels), cfg.mesh_params()),
        ),
    }
}

/// The staged GC copy shared by every packetized bus fabric: read the page
/// out over the source h-channel, pay the controller ECC decode/encode,
/// round-trip the controller DRAM, then write it in over the destination
/// h-channel — each framed leg drawing its CRC retransmission faults in
/// order.
#[allow(clippy::too_many_arguments)] // mirrors reserve_f2f_copy's signature
pub(crate) fn staged_copy_packetized(
    ctx: &mut FabricCtx,
    pkt: &PacketBus,
    src: PageAddr,
    dst: PageAddr,
    bytes: u32,
    staged_ecc: SimTime,
    at: SimTime,
    tag: usize,
) -> SimTime {
    let (out, _) = reserve_with_link_faults(
        &mut ctx.h_channels[src.channel as usize],
        ctx.faults,
        at,
        pkt.read_out_time(bytes),
        bytes as u64,
        tag,
    );
    let decoded = out.end + staged_ecc;
    let staged = ctx.host.dram_roundtrip(decoded, bytes as u64, tag);
    reserve_with_link_faults(
        &mut ctx.h_channels[dst.channel as usize],
        ctx.faults,
        staged.end,
        pkt.write_in_time(bytes),
        bytes as u64,
        tag,
    )
    .0
    .end
}
