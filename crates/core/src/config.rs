//! System configuration: the six evaluated architectures and every knob of
//! Table II.

use core::fmt;

use nssd_faults::FaultConfig;
use nssd_flash::{FlashTiming, Geometry};
use nssd_ftl::{AllocPolicy, GcConfig, RedundancyConfig};
use nssd_host::HostParams;
use nssd_interconnect::{BusParams, MeshParams};
use nssd_sim::SimTime;

/// The SSD architectures compared in the evaluation (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Conventional SSD: dedicated-signal 8-bit flash bus.
    BaseSsd,
    /// Network-on-SSD with pin-constrained 2-bit mesh links.
    NoSsdPinConstrained,
    /// Network-on-SSD with (unrealizable) full 8-bit mesh links.
    NoSsdUnconstrained,
    /// Channel-sliced strawman (Fig 9b): packetized 8-bit h-channels plus
    /// chip-to-chip v-channels, but *no* controller connectivity to the
    /// v-channels — controller bandwidth is halved relative to pSSD.
    ChannelSliced,
    /// Packetized SSD: 16-bit packetized flash bus (§IV).
    PSsd,
    /// Packetized network SSD: Omnibus topology, greedy adaptive h/v
    /// routing (§V).
    PnSsd,
    /// pnSSD with page *split* across both paths (§V-C).
    PnSsdSplit,
}

impl Architecture {
    /// The architectures of Table III, in the paper's presentation order.
    pub fn all() -> [Architecture; 6] {
        [
            Architecture::BaseSsd,
            Architecture::NoSsdPinConstrained,
            Architecture::NoSsdUnconstrained,
            Architecture::PSsd,
            Architecture::PnSsd,
            Architecture::PnSsdSplit,
        ]
    }

    /// Table III plus the Fig 9(b) channel-sliced strawman.
    pub fn with_strawmen() -> [Architecture; 7] {
        [
            Architecture::BaseSsd,
            Architecture::NoSsdPinConstrained,
            Architecture::NoSsdUnconstrained,
            Architecture::ChannelSliced,
            Architecture::PSsd,
            Architecture::PnSsd,
            Architecture::PnSsdSplit,
        ]
    }

    /// Table III acronym.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::BaseSsd => "baseSSD",
            Architecture::NoSsdPinConstrained => "NoSSD (pin-constraint)",
            Architecture::NoSsdUnconstrained => "NoSSD (no constraint)",
            Architecture::ChannelSliced => "channel-sliced (Fig 9b)",
            Architecture::PSsd => "pSSD",
            Architecture::PnSsd => "pnSSD",
            Architecture::PnSsdSplit => "pnSSD (+split)",
        }
    }

    /// Whether the Omnibus v-channels exist.
    pub fn has_v_channels(self) -> bool {
        matches!(
            self,
            Architecture::PnSsd | Architecture::PnSsdSplit | Architecture::ChannelSliced
        )
    }

    /// Whether the flash channel controllers drive the v-channels (true
    /// Omnibus; the channel-sliced strawman leaves them chip-only).
    pub fn controller_drives_v(self) -> bool {
        matches!(self, Architecture::PnSsd | Architecture::PnSsdSplit)
    }

    /// Whether the interconnect is the NoSSD mesh.
    pub fn is_mesh(self) -> bool {
        matches!(
            self,
            Architecture::NoSsdPinConstrained | Architecture::NoSsdUnconstrained
        )
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Traffic classes tagged onto channel utilization recorders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Traffic {
    /// Host read traffic.
    HostRead,
    /// Host write traffic.
    HostWrite,
    /// Garbage-collection traffic.
    Gc,
}

impl Traffic {
    /// Number of traffic classes.
    pub const COUNT: usize = 3;

    /// Dense tag index for recorders.
    pub fn tag(self) -> usize {
        match self {
            Traffic::HostRead => 0,
            Traffic::HostWrite => 1,
            Traffic::Gc => 2,
        }
    }

    /// The host traffic class of an I/O direction — the one place the
    /// read/write distinction maps onto a recorder class.
    pub fn io(is_read: bool) -> Traffic {
        if is_read {
            Traffic::HostRead
        } else {
            Traffic::HostWrite
        }
    }
}

/// How error correction is provisioned (§VIII "On-die ECC functions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccMode {
    /// No ECC latency modeled — the paper's main evaluation setting.
    Ideal,
    /// Hybrid ECC (Ho et al., TVLSI'16): strong LDPC decode at the
    /// controller on host reads, a weak on-die check on flash-to-flash
    /// copies — the §VIII proposal that makes direct copies safe.
    Hybrid,
    /// Controller-only ECC: every page must pass through the controller's
    /// decoder, so pnSSD's direct flash-to-flash copies are *disabled* and
    /// GC falls back to staging through the controller.
    ControllerStrict,
}

impl fmt::Display for EccMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EccMode::Ideal => "ideal",
            EccMode::Hybrid => "hybrid",
            EccMode::ControllerStrict => "controller-strict",
        })
    }
}

impl EccMode {
    /// Controller LDPC decode (or encode) latency per page, in every mode
    /// but [`EccMode::Ideal`].
    pub const CONTROLLER_DECODE: SimTime = SimTime::from_us(2);
    /// On-die weak-check latency per page (Hybrid flash-to-flash copies).
    pub const ON_DIE_CHECK: SimTime = SimTime::from_ns(500);
}

/// Full simulator configuration.
///
/// # Examples
///
/// ```
/// use nssd_core::{Architecture, SsdConfig};
///
/// let cfg = SsdConfig::new(Architecture::PnSsdSplit);
/// assert_eq!(cfg.geometry.channels, 8);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// Interconnect architecture.
    pub architecture: Architecture,
    /// Flash array geometry.
    pub geometry: Geometry,
    /// Flash array timing.
    pub timing: FlashTiming,
    /// User-write striping policy.
    pub alloc_policy: AllocPolicy,
    /// Overprovisioning ratio.
    pub op_ratio: f64,
    /// P/E endurance limit; `None` (default) disables wear-out.
    pub endurance_limit: Option<u32>,
    /// Garbage-collection configuration.
    pub gc: GcConfig,
    /// Intra-SSD parity redundancy (off by default). When enabled, parity
    /// groups of `stripe_width` chips absorb a chip fail-stop: the engine
    /// serves degraded reads by fabric-routed reconstruction and runs a
    /// paced background rebuild.
    pub redundancy: RedundancyConfig,
    /// Baseline channel width in bits; Table II: 8 (pSSD widens to 16,
    /// pnSSD splits into 8+8).
    pub base_width_bits: u32,
    /// One control-plane (SoC) message latency for Omnibus handshakes.
    pub ctrl_msg_latency: SimTime,
    /// Window width for per-channel utilization recording (Fig 3).
    pub util_window: SimTime,
    /// ECC provisioning (§VIII).
    pub ecc: EccMode,
    /// FTL compute time per page operation, on one of
    /// [`SsdConfig::FTL_CORES`] cores. Zero (the default) models the
    /// paper's provisioned-out FTL; raise it to study the intro's point
    /// that FTL compute scales with flash bandwidth.
    pub ftl_page_latency: SimTime,
    /// RNG seed (victim randomization, GC destination choice).
    pub seed: u64,
    /// Fault injection (off by default: a zero-rate configuration draws no
    /// randomness and leaves every report bit-identical).
    pub faults: FaultConfig,
    /// Run the functional shadow oracle lockstep with the simulation,
    /// cross-checking every host read and GC action and sweeping the
    /// conservation invariants. Off by default: the shadow map costs memory
    /// proportional to the logical capacity and the sweeps cost time per
    /// erase, which matters on the scaled geometries.
    pub oracle: bool,
}

impl SsdConfig {
    /// Flash channel transfer rate (MT/s); Table II: 1000.
    pub const CHANNEL_MTS: u64 = 1000;
    /// Number of FTL cores in the controller's multi-core subsystem
    /// (Fig 2); each page-level translation/allocation occupies one core
    /// for [`SsdConfig::ftl_page_latency`].
    pub const FTL_CORES: usize = 4;
    /// Interconnect energy per byte moved over one bus/channel traversal
    /// (illustrative constant; only the *ratios* between architectures are
    /// meaningful).
    pub const PJ_PER_BYTE_CHANNEL: f64 = 15.0;
    /// Interconnect energy per byte per mesh hop (link + router), which is
    /// why the paper rules out multi-hop NoSSD topologies.
    pub const PJ_PER_BYTE_HOP: f64 = 18.0;

    /// Default experiment configuration on the capacity-scaled geometry.
    pub fn new(architecture: Architecture) -> Self {
        SsdConfig {
            architecture,
            geometry: Geometry::scaled(),
            timing: FlashTiming::ull(),
            alloc_policy: AllocPolicy::Pcwd,
            op_ratio: 0.125,
            endurance_limit: None,
            gc: GcConfig::evaluation_defaults(),
            redundancy: RedundancyConfig::off(),
            base_width_bits: 8,
            ctrl_msg_latency: SimTime::from_ns(100),
            util_window: SimTime::from_us(100),
            ecc: EccMode::Ideal,
            ftl_page_latency: SimTime::ZERO,
            seed: 0x55D,
            faults: FaultConfig::off(),
            oracle: false,
        }
    }

    /// The unscaled Table II configuration: a 2 TB device of 134M pages,
    /// whose page maps take about 1 GiB of host memory. With the oracle
    /// off, building it took 0.8 s and aging it to 0.85 fill plus 0.3×
    /// overwrites (`Ftl::precondition(0.85, 0.3)`) 67 s, 9 s of it the
    /// fill, at 1002 MiB peak RSS on a 2-vCPU Xeon host.
    pub fn paper_table2(architecture: Architecture) -> Self {
        SsdConfig {
            geometry: Geometry::paper_table2(),
            ..SsdConfig::new(architecture)
        }
    }

    /// A further-shrunk geometry for GC experiments where the device must
    /// be preconditioned to high utilization.
    pub fn gc_scaled(architecture: Architecture) -> Self {
        SsdConfig {
            geometry: Geometry {
                blocks_per_plane: 16,
                pages_per_block: 64,
                ..Geometry::scaled()
            },
            ..SsdConfig::new(architecture)
        }
    }

    /// A tiny configuration for unit tests. GC is tuned for the tiny
    /// geometry (early trigger, small victim batches) so reclamation can
    /// always keep ahead of the 64-block device.
    pub fn tiny(architecture: Architecture) -> Self {
        let mut cfg = SsdConfig {
            geometry: Geometry::tiny(),
            ..SsdConfig::new(architecture)
        };
        cfg.gc.trigger_free_ratio = 0.15;
        cfg.gc.stop_free_ratio = 0.16;
        cfg.gc.victims_per_trigger = 2;
        cfg
    }

    /// Host-visible logical capacity in bytes. Mirrors the FTL's capacity
    /// computation, including the parity reservation when redundancy is on.
    pub fn logical_bytes(&self) -> u64 {
        let mut pages = (self.geometry.page_count() as f64 * (1.0 - self.op_ratio)).floor() as u64;
        if self.redundancy.enabled {
            let sw = self.redundancy.stripe_width as u64;
            pages = pages * (sw - 1) / sw;
        }
        pages * self.geometry.page_bytes as u64
    }

    /// The h-channel bus parameters for this architecture.
    pub fn h_bus(&self) -> BusParams {
        match self.architecture {
            // pSSD doubles the width with the repurposed control pins.
            Architecture::PSsd => BusParams::new(Self::CHANNEL_MTS, self.base_width_bits * 2),
            // pnSSD keeps the h-channel at base width and adds v-channels.
            _ => BusParams::new(Self::CHANNEL_MTS, self.base_width_bits),
        }
    }

    /// The v-channel bus parameters (pnSSD variants).
    pub fn v_bus(&self) -> BusParams {
        BusParams::new(Self::CHANNEL_MTS, self.base_width_bits)
    }

    /// The NoSSD mesh parameters for this architecture.
    pub fn mesh_params(&self) -> MeshParams {
        match self.architecture {
            Architecture::NoSsdPinConstrained => MeshParams::pin_constrained(),
            _ => MeshParams::unconstrained(),
        }
    }

    /// Aggregate flash-side bandwidth (drives the host-pipe provisioning,
    /// per the paper's methodology).
    pub fn total_flash_bps(&self) -> u64 {
        let h = self.h_bus().bytes_per_sec() * self.geometry.channels as u64;
        if self.architecture.controller_drives_v() {
            h + self.v_bus().bytes_per_sec() * self.geometry.channels.min(self.geometry.ways) as u64
        } else if self.architecture.is_mesh() {
            self.mesh_params().link.bytes_per_sec() * self.geometry.channels as u64
        } else {
            h
        }
    }

    /// Host-side pipe provisioning for this architecture.
    pub fn host_params(&self) -> HostParams {
        HostParams::scaled_to_flash(self.total_flash_bps())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate().map_err(|e| e.to_string())?;
        self.gc.validate()?;
        if !(0.0..0.9).contains(&self.op_ratio) {
            return Err("op_ratio must be in [0, 0.9)".into());
        }
        if self.base_width_bits == 0 {
            return Err("base_width_bits must be nonzero".into());
        }
        if self.architecture.has_v_channels() && self.geometry.ways < 2 {
            return Err("Omnibus needs at least two ways".into());
        }
        if self.util_window.is_zero() {
            return Err("util_window must be nonzero".into());
        }
        self.redundancy.validate(&self.geometry)?;
        self.faults.validate()?;
        if let Some(spec) = self.faults.chip_failure {
            if spec.channel >= self.geometry.channels || spec.way >= self.geometry.ways {
                return Err(format!(
                    "chip_failure at ({},{}) outside geometry {}x{}",
                    spec.channel, spec.way, self.geometry.channels, self.geometry.ways
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_predicates() {
        assert!(Architecture::PnSsd.has_v_channels());
        assert!(!Architecture::PSsd.has_v_channels());
        assert!(Architecture::NoSsdPinConstrained.is_mesh());
        assert_eq!(Architecture::all().len(), 6);
    }

    #[test]
    fn pssd_widens_h_bus() {
        let base = SsdConfig::new(Architecture::BaseSsd);
        let pssd = SsdConfig::new(Architecture::PSsd);
        assert_eq!(base.h_bus().width_bits, 8);
        assert_eq!(pssd.h_bus().width_bits, 16);
    }

    #[test]
    fn total_flash_bandwidth_per_arch() {
        // base: 8 × 1 GB/s.
        assert_eq!(
            SsdConfig::new(Architecture::BaseSsd).total_flash_bps(),
            8_000_000_000
        );
        // pSSD: 8 × 2 GB/s.
        assert_eq!(
            SsdConfig::new(Architecture::PSsd).total_flash_bps(),
            16_000_000_000
        );
        // pnSSD: 8 × 1 + 8 × 1 GB/s (same controller pin budget as pSSD).
        assert_eq!(
            SsdConfig::new(Architecture::PnSsd).total_flash_bps(),
            16_000_000_000
        );
        // NoSSD pin-constrained: 8 edge columns × 0.25 GB/s.
        assert_eq!(
            SsdConfig::new(Architecture::NoSsdPinConstrained).total_flash_bps(),
            2_000_000_000
        );
    }

    #[test]
    fn host_pipes_track_flash_bandwidth() {
        let pssd = SsdConfig::new(Architecture::PSsd);
        assert_eq!(pssd.host_params().pcie_bps, 16_000_000_000);
        let nossd = SsdConfig::new(Architecture::NoSsdPinConstrained);
        // Floored at Table II's 8 GB/s.
        assert_eq!(nossd.host_params().pcie_bps, 8_000_000_000);
    }

    #[test]
    fn presets_validate() {
        for arch in Architecture::all() {
            SsdConfig::new(arch).validate().unwrap();
            SsdConfig::gc_scaled(arch).validate().unwrap();
            SsdConfig::tiny(arch).validate().unwrap();
            SsdConfig::paper_table2(arch).validate().unwrap();
        }
    }

    /// Every settable value that has an invalid setting, with one such
    /// setting each: `validate` must refuse it with a message that starts
    /// with the field's name.
    #[test]
    fn each_invalid_setting_is_refused_naming_its_field() {
        type Set = fn(&mut SsdConfig);
        let cases: [(&str, Set); 16] = [
            ("op_ratio", |c| c.op_ratio = 0.95),
            ("op_ratio", |c| c.op_ratio = f64::NAN),
            ("base_width_bits", |c| c.base_width_bits = 0),
            ("util_window", |c| c.util_window = SimTime::ZERO),
            ("trigger_free_ratio", |c| c.gc.trigger_free_ratio = 1.5),
            ("trigger_free_ratio", |c| c.gc.trigger_free_ratio = 0.01),
            ("stop_free_ratio", |c| {
                c.gc.stop_free_ratio = c.gc.trigger_free_ratio
            }),
            ("gc_group_fraction", |c| c.gc.gc_group_fraction = 1.0),
            ("victims_per_trigger", |c| c.gc.victims_per_trigger = 0),
            ("rber", |c| c.faults.rber = 0.5),
            ("link.ber", |c| c.faults.link.ber = 0.5),
            ("link.max_retries", |c| c.faults.link.max_retries = 65),
            ("link.backoff_multiplier", |c| {
                c.faults.link.backoff_multiplier = Some(1.0)
            }),
            ("link.backoff_multiplier", |c| {
                c.faults.link.backoff_multiplier = Some(2.0);
                c.faults.link.max_retries = 64;
            }),
            ("bad_blocks.manufacture_rate", |c| {
                c.faults.bad_blocks.manufacture_rate = 0.5
            }),
            ("bad_blocks.grown_rate", |c| {
                c.faults.bad_blocks.grown_rate = 0.5
            }),
        ];
        for (field, set) in cases {
            let mut c = SsdConfig::tiny(Architecture::PnSsd);
            set(&mut c);
            let err = c.validate().expect_err(field);
            assert!(err.starts_with(&format!("{field} ")), "{field}: {err}");
        }
    }

    #[test]
    fn redundancy_config_validated_and_scales_capacity() {
        let mut c = SsdConfig::tiny(Architecture::BaseSsd);
        let plain = c.logical_bytes();
        c.redundancy = RedundancyConfig::with_stripe(2);
        assert!(c.validate().is_ok());
        // Half the logical space is reserved for parity at width 2, and the
        // preset must agree with the FTL's own computation.
        assert_eq!(c.logical_bytes(), plain / 2);
        // tiny() has 2 channels: a width-4 stripe cannot tile them.
        c.redundancy = RedundancyConfig::with_stripe(4);
        assert!(c.validate().unwrap_err().contains("channels"));
    }

    #[test]
    fn logical_capacity_respects_op() {
        let cfg = SsdConfig::new(Architecture::BaseSsd);
        let physical = cfg.geometry.capacity_bytes();
        let logical = cfg.logical_bytes();
        assert!(logical < physical);
        assert!(logical as f64 > physical as f64 * 0.85);
    }

    #[test]
    fn traffic_tags_dense() {
        assert_eq!(Traffic::HostRead.tag(), 0);
        assert_eq!(Traffic::HostWrite.tag(), 1);
        assert_eq!(Traffic::Gc.tag(), 2);
        assert_eq!(Traffic::COUNT, 3);
    }
}
