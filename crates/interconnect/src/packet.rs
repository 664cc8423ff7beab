//! Packet formats of the packetized interface (Fig 8).
//!
//! A *flit* is 8 bits — one transfer beat on an 8-bit channel; a 16-bit
//! channel moves two flits per beat. Control packets carry a command and its
//! column/row addresses behind a one-flit header whose `T`/`C`/`R` fields
//! give the three variable lengths. Data packets carry a page (or part of
//! one) behind a one-flit header and a two-flit length field.
//!
//! The header layout implemented here packs `type:2 | T:2 | C:2 | R:2`; the
//! paper counts 6 of the 8 header bits as semantically used, yielding its
//! quoted 25% control-header / 50% data-header overhead. Either way the
//! header costs exactly one flit, which is what the timing model consumes.

use core::fmt;

use nssd_flash::FlashCommand;

/// Number of payload bytes carried per flit.
pub const FLIT_BYTES: u32 = 1;

/// Length field width of a data packet, in flits (16-bit length: pages up to
/// 64 KB per Fig 8).
pub const DATA_LEN_FLITS: u32 = 2;

/// Discriminates packet kinds in the header's `Type` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Command/address packet.
    Control = 0b00,
    /// Payload packet.
    Data = 0b01,
}

impl PacketType {
    /// Decodes the 2-bit type field.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::UnknownType`] for reserved encodings.
    pub fn from_bits(bits: u8) -> Result<Self, PacketError> {
        match bits & 0b11 {
            0b00 => Ok(PacketType::Control),
            0b01 => Ok(PacketType::Data),
            other => Err(PacketError::UnknownType(other)),
        }
    }
}

/// Errors from packet header decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Reserved `Type` encoding.
    UnknownType(u8),
    /// Header/length bytes missing.
    Truncated,
    /// A field exceeded its encodable range.
    FieldOverflow(&'static str),
    /// The trailing CRC flit does not match the frame contents — the
    /// receiver NAKs and the sender retransmits.
    CrcMismatch {
        /// CRC carried by the frame.
        got: u8,
        /// CRC recomputed over the received bytes.
        want: u8,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::UnknownType(b) => write!(f, "unknown packet type bits {b:#04b}"),
            PacketError::Truncated => write!(f, "packet bytes truncated"),
            PacketError::FieldOverflow(field) => write!(f, "packet field `{field}` overflows"),
            PacketError::CrcMismatch { got, want } => {
                write!(
                    f,
                    "crc mismatch: frame carries {got:#04x}, computed {want:#04x}"
                )
            }
        }
    }
}

/// CRC-8/ATM (polynomial `x^8 + x^2 + x + 1`, initial value 0) over a byte
/// slice — the single-flit frame check appended to CRC-protected packets.
pub fn crc8(bytes: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bytes {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

impl std::error::Error for PacketError {}

/// A control packet: one header flit plus command/column/row flits.
///
/// # Examples
///
/// ```
/// use nssd_flash::FlashCommand;
/// use nssd_interconnect::ControlPacket;
///
/// let p = ControlPacket::for_command(FlashCommand::ReadPage);
/// // header(1) + cmd(2) + col(2) + row(3)
/// assert_eq!(p.flits(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlPacket {
    /// Command flit count (`T` field), at most 3.
    pub command_flits: u8,
    /// Column-address flit count (`C` field), at most 3.
    pub column_flits: u8,
    /// Row-address flit count (`R` field), at most 3.
    pub row_flits: u8,
}

impl ControlPacket {
    /// Builds the control packet that encodes `cmd` with its standard
    /// address cycle counts.
    pub fn for_command(cmd: FlashCommand) -> Self {
        ControlPacket {
            command_flits: cmd.command_bytes() as u8,
            column_flits: cmd.column_address_bytes() as u8,
            row_flits: cmd.row_address_bytes() as u8,
        }
    }

    /// Total flits on the wire, including the header.
    pub fn flits(&self) -> u64 {
        1 + self.command_flits as u64 + self.column_flits as u64 + self.row_flits as u64
    }

    /// Encodes the header flit: `type:2 | T:2 | C:2 | R:2`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::FieldOverflow`] if any count exceeds 3.
    pub fn encode_header(&self) -> Result<u8, PacketError> {
        if self.command_flits > 3 {
            return Err(PacketError::FieldOverflow("T"));
        }
        if self.column_flits > 3 {
            return Err(PacketError::FieldOverflow("C"));
        }
        if self.row_flits > 3 {
            return Err(PacketError::FieldOverflow("R"));
        }
        Ok(((PacketType::Control as u8) << 6)
            | (self.command_flits << 4)
            | (self.column_flits << 2)
            | self.row_flits)
    }

    /// Decodes a header flit produced by [`ControlPacket::encode_header`].
    ///
    /// # Errors
    ///
    /// Returns an error if the type bits do not say *control*.
    pub fn decode_header(byte: u8) -> Result<Self, PacketError> {
        match PacketType::from_bits(byte >> 6)? {
            PacketType::Control => Ok(ControlPacket {
                command_flits: (byte >> 4) & 0b11,
                column_flits: (byte >> 2) & 0b11,
                row_flits: byte & 0b11,
            }),
            PacketType::Data => Err(PacketError::UnknownType(byte >> 6)),
        }
    }

    /// Encodes the header flit followed by its CRC-8 flit.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::FieldOverflow`] if any count exceeds 3.
    pub fn encode_header_crc(&self) -> Result<[u8; 2], PacketError> {
        let header = self.encode_header()?;
        Ok([header, crc8(&[header])])
    }

    /// Decodes a `[header, crc]` pair, verifying the frame check first.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::CrcMismatch`] on a failed check, otherwise
    /// any [`ControlPacket::decode_header`] error.
    pub fn decode_header_crc(bytes: [u8; 2]) -> Result<Self, PacketError> {
        let want = crc8(&bytes[..1]);
        if bytes[1] != want {
            return Err(PacketError::CrcMismatch {
                got: bytes[1],
                want,
            });
        }
        Self::decode_header(bytes[0])
    }
}

/// A data packet: one header flit, a two-flit length, then the payload.
///
/// # Examples
///
/// ```
/// use nssd_interconnect::DataPacket;
///
/// let p = DataPacket::new(16 * 1024);
/// assert_eq!(p.flits(), 1 + 2 + 16 * 1024);
/// assert!(p.overhead_fraction() < 0.001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataPacket {
    /// Payload size in bytes (≤ 64 KB, the maximum page size the length
    /// field encodes).
    pub payload_bytes: u32,
}

impl DataPacket {
    /// Creates a data packet for `payload_bytes` of page data.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the 64 KB the 16-bit length encodes,
    /// or is zero.
    pub fn new(payload_bytes: u32) -> Self {
        assert!(payload_bytes > 0, "data packet payload must be nonzero");
        assert!(
            payload_bytes <= 64 * 1024,
            "data packet payload exceeds 64 KB length field"
        );
        DataPacket { payload_bytes }
    }

    /// Total flits on the wire: header + length + payload.
    pub fn flits(&self) -> u64 {
        1 + DATA_LEN_FLITS as u64 + self.payload_bytes as u64 / FLIT_BYTES as u64
    }

    /// Encodes header + length flits.
    pub fn encode_prefix(&self) -> [u8; 3] {
        // Length field stores payload_bytes - 1 so 64 KB fits in 16 bits.
        let len = self.payload_bytes - 1;
        [
            (PacketType::Data as u8) << 6,
            (len >> 8) as u8,
            (len & 0xff) as u8,
        ]
    }

    /// Decodes the three prefix flits back into a packet.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a non-data type field.
    pub fn decode_prefix(bytes: &[u8]) -> Result<Self, PacketError> {
        if bytes.len() < 3 {
            return Err(PacketError::Truncated);
        }
        match PacketType::from_bits(bytes[0] >> 6)? {
            PacketType::Data => {
                let len = ((bytes[1] as u32) << 8) | bytes[2] as u32;
                Ok(DataPacket {
                    payload_bytes: len + 1,
                })
            }
            PacketType::Control => Err(PacketError::UnknownType(bytes[0] >> 6)),
        }
    }

    /// Fraction of the whole packet that is framing overhead.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.flits() as f64;
        (total - self.payload_bytes as f64) / total
    }

    /// Encodes header + length flits followed by a CRC-8 flit over them.
    /// (The payload CRC rides at the end of the payload burst; timing-wise
    /// both are single flits, which is what the bus model charges.)
    pub fn encode_prefix_crc(&self) -> [u8; 4] {
        let prefix = self.encode_prefix();
        [prefix[0], prefix[1], prefix[2], crc8(&prefix)]
    }

    /// Decodes a CRC-carrying prefix, verifying the frame check first.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] on fewer than 4 bytes,
    /// [`PacketError::CrcMismatch`] on a failed check, otherwise any
    /// [`DataPacket::decode_prefix`] error.
    pub fn decode_prefix_crc(bytes: &[u8]) -> Result<Self, PacketError> {
        if bytes.len() < 4 {
            return Err(PacketError::Truncated);
        }
        let want = crc8(&bytes[..3]);
        if bytes[3] != want {
            return Err(PacketError::CrcMismatch {
                got: bytes[3],
                want,
            });
        }
        Self::decode_prefix(&bytes[..3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_packet_sizes_per_command() {
        let read = ControlPacket::for_command(FlashCommand::ReadPage);
        assert_eq!(read.flits(), 8);
        let erase = ControlPacket::for_command(FlashCommand::EraseBlock);
        assert_eq!(erase.flits(), 6);
        let rdt = ControlPacket::for_command(FlashCommand::ReadDataTransfer);
        assert_eq!(rdt.flits(), 4);
    }

    #[test]
    fn control_header_roundtrip() {
        for cmd in [
            FlashCommand::ReadPage,
            FlashCommand::ProgramPage,
            FlashCommand::EraseBlock,
            FlashCommand::ReadDataTransfer,
            FlashCommand::XferOut,
            FlashCommand::XferIn,
            FlashCommand::ProgramFromVPage,
        ] {
            let p = ControlPacket::for_command(cmd);
            let enc = p.encode_header().unwrap();
            assert_eq!(ControlPacket::decode_header(enc).unwrap(), p);
        }
    }

    #[test]
    fn control_header_rejects_oversized_fields() {
        let p = ControlPacket {
            command_flits: 4,
            column_flits: 0,
            row_flits: 0,
        };
        assert_eq!(p.encode_header(), Err(PacketError::FieldOverflow("T")));
    }

    #[test]
    fn data_packet_16k_page() {
        let p = DataPacket::new(16 * 1024);
        assert_eq!(p.flits(), 16_387);
        // 3 framing flits over 16387 ≈ 0.018% — "relatively small" per §IV-B3.
        assert!(p.overhead_fraction() < 0.0002);
    }

    #[test]
    fn data_prefix_roundtrip_boundaries() {
        for &bytes in &[1u32, 2, 255, 256, 16 * 1024, 64 * 1024] {
            let p = DataPacket::new(bytes);
            let enc = p.encode_prefix();
            assert_eq!(DataPacket::decode_prefix(&enc).unwrap(), p);
        }
    }

    #[test]
    #[should_panic(expected = "64 KB")]
    fn data_packet_too_large_panics() {
        let _ = DataPacket::new(64 * 1024 + 1);
    }

    #[test]
    fn decode_rejects_wrong_type() {
        let ctrl = ControlPacket::for_command(FlashCommand::ReadPage)
            .encode_header()
            .unwrap();
        assert!(DataPacket::decode_prefix(&[ctrl, 0, 0]).is_err());
        let data = DataPacket::new(64).encode_prefix();
        assert!(ControlPacket::decode_header(data[0]).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(
            DataPacket::decode_prefix(&[0x40]),
            Err(PacketError::Truncated)
        );
    }

    #[test]
    fn crc8_known_properties() {
        // Empty input and all-zero input give CRC 0 for this polynomial.
        assert_eq!(crc8(&[]), 0);
        assert_eq!(crc8(&[0, 0, 0]), 0);
        // Any single-bit flip changes the CRC.
        let base = crc8(&[0x42, 0x17]);
        for bit in 0..16 {
            let mut corrupted = [0x42u8, 0x17];
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc8(&corrupted), base, "bit {bit} flip undetected");
        }
    }

    #[test]
    fn crc_header_roundtrip_and_detection() {
        let p = ControlPacket::for_command(FlashCommand::ReadPage);
        let enc = p.encode_header_crc().unwrap();
        assert_eq!(ControlPacket::decode_header_crc(enc).unwrap(), p);
        // Corrupt the header: the CRC catches it before type decoding.
        let bad = [enc[0] ^ 0x10, enc[1]];
        assert!(matches!(
            ControlPacket::decode_header_crc(bad),
            Err(PacketError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn crc_prefix_roundtrip_and_detection() {
        let p = DataPacket::new(16 * 1024);
        let enc = p.encode_prefix_crc();
        assert_eq!(DataPacket::decode_prefix_crc(&enc).unwrap(), p);
        let mut bad = enc;
        bad[1] ^= 0x01; // corrupt the length field
        assert!(matches!(
            DataPacket::decode_prefix_crc(&bad),
            Err(PacketError::CrcMismatch { .. })
        ));
        assert_eq!(
            DataPacket::decode_prefix_crc(&enc[..3]),
            Err(PacketError::Truncated)
        );
    }
}
