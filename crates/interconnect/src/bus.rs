//! Bus timing models: dedicated-signal (conventional) and packetized.
//!
//! Both models turn "move N bytes / issue command X" into wire time for a
//! channel of a given width and transfer rate. Table II's channels run at
//! 1000 MT/s: 8-bit wide for baseSSD and the pnSSD h/v channels, 16-bit wide
//! for pSSD's fattened channel.

use nssd_flash::FlashCommand;
use nssd_sim::SimTime;

use crate::{ControlPacket, DataPacket};

/// Physical parameters of one bus/channel.
///
/// # Examples
///
/// ```
/// use nssd_interconnect::BusParams;
/// use nssd_sim::SimTime;
///
/// let bus = BusParams::new(1000, 8);
/// // 16 KB at 1 GT/s × 8 bits = 16384 ns.
/// assert_eq!(bus.payload_time(16 * 1024), SimTime::from_ns(16_384));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusParams {
    /// Transfer rate in mega-transfers per second (beats/µs).
    pub mega_transfers: u64,
    /// Data width in bits per beat.
    pub width_bits: u32,
}

impl BusParams {
    /// Creates bus parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(mega_transfers: u64, width_bits: u32) -> Self {
        assert!(mega_transfers > 0, "transfer rate must be nonzero");
        assert!(width_bits > 0, "bus width must be nonzero");
        BusParams {
            mega_transfers,
            width_bits,
        }
    }

    /// Table II baseline: 1000 MT/s, 8-bit.
    pub const fn table2_baseline() -> Self {
        BusParams {
            mega_transfers: 1000,
            width_bits: 8,
        }
    }

    /// Table II pSSD: 1000 MT/s, 16-bit (control pins repurposed).
    pub const fn table2_pssd() -> Self {
        BusParams {
            mega_transfers: 1000,
            width_bits: 16,
        }
    }

    /// Bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.mega_transfers * 1_000_000 * self.width_bits as u64 / 8
    }

    /// Time to move `beats` transfer beats, rounded up to whole ns.
    fn beats_time(&self, beats: u64) -> SimTime {
        // beat time = 1000/MT ns; total = beats * 1000 / MT, rounded up, in
        // u64 unless the product overflows it.
        let ns = match beats.checked_mul(1000) {
            Some(n) => n.div_ceil(self.mega_transfers),
            None => (beats as u128 * 1000).div_ceil(self.mega_transfers as u128) as u64,
        };
        SimTime::from_ns(ns)
    }

    /// Wire time for `bytes` of raw payload on this bus.
    pub fn payload_time(&self, bytes: u64) -> SimTime {
        let beats = (bytes * 8).div_ceil(self.width_bits as u64);
        self.beats_time(beats)
    }

    /// Wire time for `flits` 8-bit flits (a 16-bit bus moves two per beat).
    pub fn flit_time(&self, flits: u64) -> SimTime {
        let beats = (flits * 8).div_ceil(self.width_bits as u64);
        self.beats_time(beats)
    }
}

/// Timing model for the conventional dedicated-signal interface (Fig 6a).
///
/// Command and address bytes are latched one per beat over `DQ` under
/// CLE/ALE; page data moves one byte per beat under `RE`/`DQS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedicatedBus {
    /// Physical bus parameters (8-bit `DQ` in any real ONFI part).
    pub params: BusParams,
}

impl DedicatedBus {
    /// Creates the conventional bus model.
    pub fn new(params: BusParams) -> Self {
        DedicatedBus { params }
    }

    /// Wire time for the command+address phase of `cmd`.
    pub fn command_phase(&self, cmd: FlashCommand) -> SimTime {
        self.params.payload_time(cmd.total_cycle_bytes() as u64)
    }

    /// Wire time for a `bytes`-long data phase (page in or out).
    pub fn data_phase(&self, bytes: u64) -> SimTime {
        self.params.payload_time(bytes)
    }

    /// Total channel occupancy of a full read transaction's bus phases
    /// (command+address, then data-out), excluding the array time between
    /// them during which the channel is free.
    pub fn read_occupancy(&self, page_bytes: u64) -> SimTime {
        self.command_phase(FlashCommand::ReadPage) + self.data_phase(page_bytes)
    }
}

/// Timing model for the packetized interface (Fig 6b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketBus {
    /// Physical bus parameters (16-bit for pSSD, 8-bit for pnSSD channels).
    pub params: BusParams,
}

impl PacketBus {
    /// Creates the packetized bus model.
    pub fn new(params: BusParams) -> Self {
        PacketBus { params }
    }

    /// Wire time of the control packet encoding `cmd`.
    pub fn control_packet_time(&self, cmd: FlashCommand) -> SimTime {
        self.params
            .flit_time(ControlPacket::for_command(cmd).flits())
    }

    /// Wire time of a data packet carrying `payload_bytes`.
    pub fn data_packet_time(&self, payload_bytes: u32) -> SimTime {
        self.params
            .flit_time(DataPacket::new(payload_bytes).flits())
    }

    /// Channel occupancy to read a page out of the page register: the
    /// *read data transfer* control packet followed by the data packet.
    pub fn read_out_time(&self, payload_bytes: u32) -> SimTime {
        self.control_packet_time(FlashCommand::ReadDataTransfer)
            + self.data_packet_time(payload_bytes)
    }

    /// Channel occupancy to deliver a page for programming: the program
    /// control packet followed by the data packet.
    pub fn write_in_time(&self, payload_bytes: u32) -> SimTime {
        self.control_packet_time(FlashCommand::ProgramPage) + self.data_packet_time(payload_bytes)
    }

    /// Channel occupancy of a chip-to-chip transfer on a v-channel: the
    /// xfer control packet plus the data packet (one traversal — the point
    /// of direct flash-to-flash movement).
    pub fn xfer_time(&self, payload_bytes: u32) -> SimTime {
        self.control_packet_time(FlashCommand::XferOut) + self.data_packet_time(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_beat_math_matches_u128_across_the_overflow_edge() {
        let edge = u64::MAX / 1000;
        let beats = (0..2000)
            .chain(edge - 3..=edge + 3)
            .chain(u64::MAX - 2..=u64::MAX)
            .chain((0..64).map(|k| 1u64 << k))
            .chain((1..64).map(|k| (1u64 << k) - 1));
        for beats in beats {
            for mega_transfers in [1, 3, 667, 800, 1000, 1200, 1600, 4800, u64::MAX] {
                let params = BusParams {
                    mega_transfers,
                    width_bits: 8,
                };
                let wide = (beats as u128 * 1000).div_ceil(mega_transfers as u128) as u64;
                assert_eq!(
                    params.beats_time(beats),
                    SimTime::from_ns(wide),
                    "{beats} beats at {mega_transfers} MT/s"
                );
            }
        }
    }

    #[test]
    fn bandwidths_match_table2() {
        assert_eq!(BusParams::table2_baseline().bytes_per_sec(), 1_000_000_000);
        assert_eq!(BusParams::table2_pssd().bytes_per_sec(), 2_000_000_000);
    }

    #[test]
    fn sixteen_bit_bus_halves_payload_time() {
        let b8 = BusParams::table2_baseline();
        let b16 = BusParams::table2_pssd();
        assert_eq!(b8.payload_time(16 * 1024), SimTime::from_ns(16_384));
        assert_eq!(b16.payload_time(16 * 1024), SimTime::from_ns(8_192));
    }

    #[test]
    fn flit_time_rounds_up_on_wide_bus() {
        let b16 = BusParams::table2_pssd();
        // 3 flits on a 16-bit bus = 2 beats.
        assert_eq!(b16.flit_time(3), SimTime::from_ns(2));
    }

    #[test]
    fn dedicated_read_phases() {
        let bus = DedicatedBus::new(BusParams::table2_baseline());
        assert_eq!(
            bus.command_phase(FlashCommand::ReadPage),
            SimTime::from_ns(7)
        );
        assert_eq!(bus.data_phase(16 * 1024), SimTime::from_ns(16_384));
        assert_eq!(bus.read_occupancy(16 * 1024), SimTime::from_ns(16_391));
    }

    #[test]
    fn packetized_read_is_about_half_the_baseline() {
        let base = DedicatedBus::new(BusParams::table2_baseline());
        let pssd = PacketBus::new(BusParams::table2_pssd());
        let base_t = base.read_occupancy(16 * 1024).as_ns() as f64;
        let pssd_t = (pssd.control_packet_time(FlashCommand::ReadPage)
            + pssd.read_out_time(16 * 1024))
        .as_ns() as f64;
        let ratio = base_t / pssd_t;
        assert!(
            (1.9..=2.05).contains(&ratio),
            "expected ~2x speedup, got {ratio}"
        );
    }

    #[test]
    fn packet_overhead_small_versus_raw() {
        let pssd = PacketBus::new(BusParams::table2_pssd());
        let raw = pssd.params.payload_time(16 * 1024);
        let pkt = pssd.data_packet_time(16 * 1024);
        let overhead = (pkt.as_ns() - raw.as_ns()) as f64 / raw.as_ns() as f64;
        assert!(overhead < 0.001, "data packet overhead {overhead}");
    }

    #[test]
    fn xfer_uses_one_traversal() {
        let v = PacketBus::new(BusParams::table2_baseline());
        let one = v.xfer_time(16 * 1024);
        let via_controller = v.read_out_time(16 * 1024) + v.write_in_time(16 * 1024);
        assert!(one < via_controller.scale(6, 10)); // comfortably under half
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = BusParams::new(1000, 0);
    }
}
