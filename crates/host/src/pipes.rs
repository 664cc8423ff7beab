//! Host-side bandwidth pipes: NVMe/PCIe link, SoC system bus, internal DRAM.
//!
//! Table II provisions these at 8 GB/s each — "equal to the total flash bus
//! channel bandwidth" — so they never mask interconnect effects. For the
//! wider pSSD/pnSSD configurations the provisioning scales with the total
//! flash-side bandwidth, as the paper's methodology states (§VII-A).

use nssd_sim::{BandwidthPipe, CkptError, CkptReader, CkptWriter, Reservation, SimTime};

/// Host-side bandwidth provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostParams {
    /// PCIe (NVMe) link bandwidth, bytes/s.
    pub pcie_bps: u64,
    /// SoC system-bus bandwidth, bytes/s.
    pub system_bus_bps: u64,
    /// Internal DRAM bandwidth, bytes/s.
    pub dram_bps: u64,
}

impl HostParams {
    /// Table II values: PCIe 4.0 ×4 ≈ 8 GB/s, system bus 8 GB/s, DRAM 8 GB/s.
    pub const fn table2() -> Self {
        HostParams {
            pcie_bps: 8_000_000_000,
            system_bus_bps: 8_000_000_000,
            dram_bps: 8_000_000_000,
        }
    }

    /// Provisioning matched to a given total flash-channel bandwidth,
    /// floored at the Table II values.
    pub fn scaled_to_flash(total_flash_bps: u64) -> Self {
        let bps = total_flash_bps.max(8_000_000_000);
        HostParams {
            pcie_bps: bps,
            system_bus_bps: bps,
            dram_bps: bps,
        }
    }
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams::table2()
    }
}

/// The three host-side pipes as timed resources.
#[derive(Debug)]
pub struct HostPipes {
    pcie: BandwidthPipe,
    system_bus: BandwidthPipe,
    dram: BandwidthPipe,
}

impl HostPipes {
    /// Creates idle pipes with the given provisioning.
    pub fn new(params: HostParams) -> Self {
        HostPipes {
            pcie: BandwidthPipe::new(params.pcie_bps),
            system_bus: BandwidthPipe::new(params.system_bus_bps),
            dram: BandwidthPipe::new(params.dram_bps),
        }
    }

    /// Moves `bytes` inbound (host → DRAM: PCIe, system bus, DRAM write),
    /// returning the reservation on the last pipe.
    pub fn inbound(&mut self, now: SimTime, bytes: u64, tag: usize) -> Reservation {
        let a = self.pcie.transfer(now, bytes, tag);
        let b = self.system_bus.transfer(a.end, bytes, tag);
        self.dram.transfer(b.end, bytes, tag)
    }

    /// Moves `bytes` outbound (DRAM → host), returning the reservation on
    /// the last pipe.
    pub fn outbound(&mut self, now: SimTime, bytes: u64, tag: usize) -> Reservation {
        let a = self.dram.transfer(now, bytes, tag);
        let b = self.system_bus.transfer(a.end, bytes, tag);
        self.pcie.transfer(b.end, bytes, tag)
    }

    /// Moves `bytes` between the flash controller and DRAM only (a GC copy
    /// staged through the controller in non-networked architectures).
    pub fn dram_roundtrip(&mut self, now: SimTime, bytes: u64, tag: usize) -> Reservation {
        let a = self.dram.transfer(now, bytes, tag);
        self.dram.transfer(a.end, bytes, tag)
    }

    /// Serializes the three pipe timelines.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        self.pcie.ckpt_save(w);
        self.system_bus.ckpt_save(w);
        self.dram.ckpt_save(w);
    }

    /// Restores state saved by [`HostPipes::ckpt_save`] into pipes of the
    /// same provisioning.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a recorder-shape mismatch.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.pcie.ckpt_load(r)?;
        self.system_bus.ckpt_load(r)?;
        self.dram.ckpt_load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_8gbps_everywhere() {
        let p = HostParams::table2();
        assert_eq!(p.pcie_bps, 8_000_000_000);
        assert_eq!(p.system_bus_bps, p.dram_bps);
    }

    #[test]
    fn scaling_floors_at_table2() {
        let p = HostParams::scaled_to_flash(1_000_000_000);
        assert_eq!(p.pcie_bps, 8_000_000_000);
        let p = HostParams::scaled_to_flash(16_000_000_000);
        assert_eq!(p.pcie_bps, 16_000_000_000);
    }

    #[test]
    fn inbound_chains_three_pipes() {
        let mut pipes = HostPipes::new(HostParams::table2());
        // 64 KiB at 8 GB/s = 8192 ns per pipe, chained ×3.
        let r = pipes.inbound(SimTime::ZERO, 65_536, 0);
        assert_eq!(r.end, SimTime::from_ns(3 * 8192));
    }

    #[test]
    fn concurrent_transfers_contend() {
        let mut pipes = HostPipes::new(HostParams::table2());
        let a = pipes.outbound(SimTime::ZERO, 65_536, 0);
        let b = pipes.outbound(SimTime::ZERO, 65_536, 0);
        assert!(b.end > a.end);
    }

    #[test]
    fn dram_roundtrip_uses_dram_twice() {
        let mut pipes = HostPipes::new(HostParams::table2());
        let before = pipes.dram.resource().busy_total();
        pipes.dram_roundtrip(SimTime::ZERO, 16 * 1024, 0);
        assert_eq!(
            pipes.dram.resource().busy_total() - before,
            SimTime::from_ns(2 * 2048)
        );
    }
}
