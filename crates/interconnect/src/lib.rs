//! Flash memory interconnect models for the Networked SSD reproduction.
//!
//! Everything between the flash channel controllers and the flash chips:
//!
//! * [`signals`] — the ONFI NV-DDR4 pin inventory (Table I) and the pin
//!   accounting behind packetization's ~2× effective bandwidth.
//! * [`ControlPacket`] / [`DataPacket`] — the packet formats of Fig 8 with a
//!   bit-level header codec and overhead accounting.
//! * [`BusParams`], [`DedicatedBus`], [`PacketBus`] — wire-timing models for
//!   the conventional dedicated-signal interface (Fig 6a) and the packetized
//!   interface (Fig 6b).
//! * [`Omnibus`] — the 2D bus topology of pnSSD (§V): h-channels,
//!   v-channels, controller ownership, path diversity, and the Fig 11
//!   control-plane handshake accounting.
//! * [`Mesh`] — the NoSSD 2D mesh comparison topology with XY routing.
//!
//! ```
//! use nssd_flash::FlashCommand;
//! use nssd_interconnect::{BusParams, DedicatedBus, PacketBus};
//!
//! let base = DedicatedBus::new(BusParams::table2_baseline());
//! let pssd = PacketBus::new(BusParams::table2_pssd());
//! // Packetization roughly halves the page read-out occupancy.
//! let conventional = base.read_occupancy(16 * 1024);
//! let packetized = pssd.control_packet_time(FlashCommand::ReadPage)
//!     + pssd.read_out_time(16 * 1024);
//! assert!(packetized < conventional.scale(11, 20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod mesh;
mod omnibus;
mod packet;
pub mod signals;
mod timing_diagram;

pub use bus::{BusParams, DedicatedBus, PacketBus};
pub use mesh::{LinkId, Mesh, MeshEndpoint, MeshParams};
pub use omnibus::Omnibus;
pub use packet::{
    crc8, ControlPacket, DataPacket, PacketError, PacketType, DATA_LEN_FLITS, FLIT_BYTES,
};
pub use timing_diagram::{Phase, PhaseDriver, TimingDiagram};

#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    8192
} else {
    256
};

#[cfg(test)]
mod proptests {
    use super::*;
    use nssd_sim::{DetRng, Rng};

    #[test]
    fn data_packet_prefix_roundtrip() {
        let mut rng = DetRng::seed_from_u64(0xDA7A);
        for _ in 0..CASES {
            let bytes = rng.gen_range(1..=64 * 1024u64) as u32;
            let p = DataPacket::new(bytes);
            let enc = p.encode_prefix();
            assert_eq!(DataPacket::decode_prefix(&enc).unwrap(), p);
        }
    }

    #[test]
    fn control_header_roundtrip() {
        let mut rng = DetRng::seed_from_u64(0xC7A1);
        for _ in 0..CASES {
            let p = ControlPacket {
                command_flits: rng.gen_range(0..4u64) as u8,
                column_flits: rng.gen_range(0..4u64) as u8,
                row_flits: rng.gen_range(0..4u64) as u8,
            };
            let enc = p.encode_header().unwrap();
            assert_eq!(ControlPacket::decode_header(enc).unwrap(), p);
        }
    }

    #[test]
    fn payload_time_monotone_in_bytes() {
        let mut rng = DetRng::seed_from_u64(0xBEAD);
        let widths = [2u32, 4, 8, 16];
        for _ in 0..CASES {
            let mt = rng.gen_range(1..4000u64);
            let width = widths[rng.gen_range(0..widths.len())];
            let a = rng.gen_range(0..100_000u64);
            let b = rng.gen_range(0..100_000u64);
            let bus = BusParams::new(mt, width);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(bus.payload_time(lo) <= bus.payload_time(hi));
        }
    }

    #[test]
    fn doubling_width_never_slower() {
        let mut rng = DetRng::seed_from_u64(0x21DE);
        for _ in 0..CASES {
            let bytes = rng.gen_range(1..1_000_000u64);
            let narrow = BusParams::new(1000, 8);
            let wide = BusParams::new(1000, 16);
            assert!(wide.payload_time(bytes) <= narrow.payload_time(bytes));
        }
    }

    #[test]
    fn mesh_routes_are_valid_walks() {
        let mut rng = DetRng::seed_from_u64(0x3E5E);
        for _ in 0..CASES {
            let rows = rng.gen_range(1..9u64) as u32;
            let cols = rng.gen_range(1..9u64) as u32;
            let m = Mesh::new(rows, cols);
            let chip = MeshEndpoint::Chip {
                row: rng.gen_range(0..9u64) as u32 % rows,
                col: rng.gen_range(0..9u64) as u32 % cols,
            };
            let ctrl_ep = MeshEndpoint::Controller(rng.gen_range(0..9u64) as u32 % cols);
            for (s, d) in [(ctrl_ep, chip), (chip, ctrl_ep)] {
                let path = m.route(s, d);
                assert!(path.len() <= (rows + cols) as usize + 1);
                for l in &path {
                    assert!(l.0 < m.link_count());
                }
                // No link repeats on a minimal XY route.
                let mut sorted: Vec<_> = path.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), path.len());
            }
        }
    }

    #[test]
    fn omnibus_every_way_has_a_v_channel() {
        let mut rng = DetRng::seed_from_u64(0x0B05);
        for _ in 0..CASES {
            let channels = rng.gen_range(1..16u64) as u32;
            let ways = rng.gen_range(1..16u64) as u32;
            let t = Omnibus::new(channels, ways, channels);
            for w in 0..ways {
                let v = t.v_channel_of_way(w);
                assert!(v < t.v_channel_count());
                let owner = t.controller_of_v_channel(v);
                assert!(owner < channels);
            }
        }
    }

    #[test]
    fn omnibus_handshake_bounded() {
        let mut rng = DetRng::seed_from_u64(0x4A4D);
        for _ in 0..CASES {
            let channels = rng.gen_range(1..16u64) as u32;
            let t = Omnibus::new(channels, channels, channels);
            let src = rng.gen_range(0..16u64) as u32 % channels;
            let dst = rng.gen_range(0..16u64) as u32 % channels;
            let v = rng.gen_range(0..16u64) as u32 % t.v_channel_count();
            let msgs = t.f2f_handshake_messages(src, dst, v);
            assert!(msgs <= 4);
            assert_eq!(msgs % 2, 0);
        }
    }
}
