//! Versioned checkpoint envelope around the simulator's serialized state.
//!
//! Layout (all integers little-endian):
//!
//! | field        | bytes | contents                                        |
//! |--------------|-------|-------------------------------------------------|
//! | magic        | 8     | `b"NSSDCKPT"`                                   |
//! | version      | 4     | format version, currently 11                    |
//! | fingerprint  | 8     | checksum of the configuration's `Debug` text    |
//! | payload\_len | 8     | length of the payload that follows              |
//! | payload      | n     | [`SsdSim`] state (see `engine::ckpt`)           |
//! | checksum     | 8     | [`Checkpoint::checksum`] of everything before   |
//!
//! The fingerprint binds a checkpoint to the exact configuration that
//! produced it — resuming under a different geometry, policy, or seed is
//! rejected up front rather than producing a silently divergent run. The
//! trailing checksum catches torn writes and bit rot; every decode error is
//! a returned `Err`, never a panic.
//!
//! [`Checkpoint::save`] encodes in one pass into one buffer: the header with
//! a zero length, then the state, then the length is patched in and the
//! checksum appended. Version 4 stores only the open-loop and multi-tenant
//! arrivals not yet issued and hashes 8-byte words; version 5 adds the
//! writes parked for free space, in order, and the end-of-life time;
//! version 6 writes the FTL's and the oracle's page maps as 32-bit entries,
//! the valid-page bitmap as one device-wide array, and the events handled
//! per kind; version 7 writes every drive the same way — a drive tag, then
//! only the requests not yet issued, with no cursor — so a closed-loop
//! checkpoint no longer carries the requests it has already issued; version
//! 8 writes the shadow oracle as dense slices (the owner of every physical
//! page, no content tokens) and no utilization bins for v-channels or
//! reservation counters for any resource; version 9 writes every large
//! array — page maps, the valid bitmap, recorder bins, the oracle's slices
//! and the unissued requests, as columns — in `nssd-sim`'s delta codec
//! (zigzag deltas in LEB128, runs of equal entries as one length); version
//! 10 writes GC and the parity rebuild through one copy-backlog codec (GC's
//! packets no longer name their victim); version 11 drops the per-block
//! program timestamps, which only a retention term of the bit-error model
//! read. Older checkpoints are refused with a message naming their version.

use nssd_sim::{CkptReader, CkptWriter};

use crate::engine::SsdSim;
use crate::SsdConfig;

const MAGIC: &[u8; 8] = b"NSSDCKPT";
const VERSION: u32 = 11;
/// Offset of the payload-length field: magic + version + fingerprint.
const LEN_AT: usize = 8 + 4 + 8;
/// Envelope bytes before the payload.
const HEADER: usize = LEN_AT + 8;
/// Envelope bytes outside the payload: the header + trailing checksum.
const OVERHEAD: usize = HEADER + 8;

/// Fingerprint binding a checkpoint to its configuration. Derived from the
/// `Debug` rendering, so *any* field difference — geometry, policies,
/// timing, seed, fault plan — changes it.
pub fn config_fingerprint(cfg: &SsdConfig) -> u64 {
    Checkpoint::checksum(format!("{cfg:?}").as_bytes())
}

/// Simulation-state checkpointing: [`Checkpoint::save`] snapshots a live
/// simulator, [`Checkpoint::resume`] rebuilds one that continues the run
/// byte-identically.
///
/// # Examples
///
/// ```
/// use nssd_core::{Architecture, Checkpoint, Drive, SsdConfig, SsdSim};
/// use nssd_host::{IoOp, IoRequest};
/// use nssd_sim::SimTime;
///
/// let cfg = SsdConfig::tiny(Architecture::BaseSsd);
/// let mut sim = SsdSim::new(cfg.clone()).unwrap();
/// let reqs: Vec<_> = (0..8)
///     .map(|i| IoRequest::new(IoOp::Write, i * 16384, 16384, SimTime::ZERO))
///     .collect();
/// sim.start(Drive::ClosedLoop { requests: reqs, depth: 2 });
/// for _ in 0..40 {
///     sim.step();
/// }
/// let bytes = Checkpoint::save(&sim);
/// let mut resumed = Checkpoint::resume(cfg, &bytes).unwrap();
/// while sim.step() {}
/// while resumed.step() {}
/// assert_eq!(sim.now(), resumed.now());
/// ```
pub struct Checkpoint;

impl Checkpoint {
    /// The envelope's checksum: FNV-1a over 8-byte little-endian words, then
    /// byte-wise over the 0–7 trailing bytes. A change confined to one word
    /// (or one tail byte) is always detected: XOR with a fixed input and
    /// multiplication by the odd FNV prime are both bijections on `u64`, so
    /// the states after the changed step differ and stay different.
    pub fn checksum(bytes: &[u8]) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            h = h.wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Serializes the simulator's complete state into an enveloped buffer.
    pub fn save(sim: &SsdSim) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        w.put_u64(config_fingerprint(sim.config()));
        w.put_usize(0); // payload length, patched below
        sim.ckpt_save_state(&mut w);
        let mut out = w.into_bytes();
        let payload_len = (out.len() - HEADER) as u64;
        out[LEN_AT..HEADER].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = Self::checksum(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Rebuilds a simulator from `bytes`, ready to [`SsdSim::step`] onward
    /// exactly as the saved run would have.
    ///
    /// `cfg` must be the configuration the checkpoint was taken under; it
    /// is checked against the stored fingerprint.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure on a bad magic, an unsupported
    /// version, a configuration mismatch, a checksum mismatch, truncation,
    /// trailing bytes, or any invalid field in the state payload. Corrupt
    /// input never panics.
    pub fn resume(cfg: SsdConfig, bytes: &[u8]) -> Result<SsdSim, String> {
        if bytes.len() < OVERHEAD {
            return Err(format!(
                "checkpoint too short: {} bytes, envelope needs {OVERHEAD}",
                bytes.len()
            ));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("split_at(len - 8)"));
        let actual = Self::checksum(body);
        if stored != actual {
            return Err(format!(
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ));
        }
        let mut r = CkptReader::new(body);
        let magic = r.take_bytes(8).map_err(|e| e.to_string())?;
        if magic != MAGIC {
            return Err("not a checkpoint (bad magic)".into());
        }
        let version = r.take_u32().map_err(|e| e.to_string())?;
        if version != VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            ));
        }
        let fingerprint = r.take_u64().map_err(|e| e.to_string())?;
        let expected = config_fingerprint(&cfg);
        if fingerprint != expected {
            return Err(format!(
                "checkpoint was taken under a different configuration \
                 (fingerprint {fingerprint:#018x}, this configuration is {expected:#018x})"
            ));
        }
        let payload_len = r.take_usize().map_err(|e| e.to_string())?;
        if payload_len != r.remaining() {
            return Err(format!(
                "payload length {payload_len} disagrees with the {} bytes present",
                r.remaining()
            ));
        }
        let mut sim = SsdSim::new(cfg)?;
        sim.ckpt_load_state(&mut r).map_err(|e| e.to_string())?;
        match r.finish() {
            Ok(()) => Ok(sim),
            Err(e) => Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;

    #[test]
    fn fingerprint_changes_with_any_field() {
        let base = SsdConfig::tiny(Architecture::BaseSsd);
        let mut seeded = base;
        seeded.seed ^= 1;
        let mut arch = base;
        arch.architecture = Architecture::PnSsd;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&seeded));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&arch));
        let copy = base;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&copy));
    }

    #[test]
    fn resume_rejects_garbage_without_panicking() {
        let cfg = SsdConfig::tiny(Architecture::BaseSsd);
        assert!(Checkpoint::resume(cfg, b"").is_err());
        assert!(Checkpoint::resume(cfg, b"short").is_err());
        assert!(Checkpoint::resume(cfg, &[0u8; 64]).is_err());
    }
}
