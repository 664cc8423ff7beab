//! Checkpoint decode robustness: corrupted input must always come back as
//! `Err`, never a panic, and valid input must round-trip to the identical
//! byte string.
//!
//! Three corruption families are swept over a real mid-run checkpoint of a
//! GC-active, oracle-enabled case:
//!
//! - **truncation** at every envelope boundary and a dense sweep of payload
//!   lengths (the torn-write case);
//! - **single-bit flips** at deterministic positions throughout the buffer
//!   (bit rot; the trailing checksum catches these before decode begins);
//! - **checksum-fixed corruption**: a bit flip with the trailing checksum
//!   recomputed, so the payload validators themselves — not just the
//!   checksum — are what stand between corrupt bytes and a panic.

use networked_ssd::core::{Architecture, Checkpoint, Drive, SsdConfig, SsdSim};
use networked_ssd::host::{IoOp, IoRequest};
use networked_ssd::sim::SimTime;

/// A mid-run checkpoint with live GC, oracle, in-flight writes, and a
/// nonempty event queue — the densest state the codec serializes.
fn busy_checkpoint() -> (SsdConfig, Vec<u8>) {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.gc.victims_per_trigger = 2;
    cfg.oracle = true;
    let page = cfg.geometry.page_bytes as u64;
    let logical = cfg.logical_bytes() / page;
    let requests: Vec<_> = (0..600u64)
        .map(|i| {
            IoRequest::new(
                IoOp::Write,
                (i * 37 % (logical * 3 / 4)) * page,
                page as u32,
                SimTime::ZERO,
            )
        })
        .collect();
    let mut sim = SsdSim::new(cfg).unwrap();
    sim.start(Drive::ClosedLoop { requests, depth: 8 });
    for _ in 0..2500 {
        if !sim.step() {
            panic!("run drained before the snapshot point");
        }
    }
    assert!(!sim.is_idle());
    (cfg, Checkpoint::save(&sim))
}

/// Re-seals deliberately corrupted bytes with the envelope's own checksum.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let n = bytes.len();
    let sum = Checkpoint::checksum(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn round_trip_is_identity_on_bytes_and_behaviour() {
    let (cfg, bytes) = busy_checkpoint();
    let resumed = Checkpoint::resume(cfg, &bytes).expect("clean checkpoint resumes");
    assert_eq!(Checkpoint::save(&resumed), bytes, "save∘resume ≠ identity");
    // And a second generation: resume the re-serialization too.
    let again = Checkpoint::resume(cfg, &Checkpoint::save(&resumed)).unwrap();
    assert_eq!(Checkpoint::save(&again), bytes);
}

#[test]
fn every_truncation_errors_never_panics() {
    let (cfg, bytes) = busy_checkpoint();
    // Every envelope boundary exactly, then a dense sweep of the payload.
    let mut cuts: Vec<usize> = vec![0, 1, 7, 8, 11, 12, 19, 20, 27, 28];
    cuts.extend((28..bytes.len()).step_by(97));
    cuts.push(bytes.len() - 9);
    cuts.push(bytes.len() - 8);
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let truncated = &bytes[..cut.min(bytes.len())];
        assert!(
            Checkpoint::resume(cfg, truncated).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
}

#[test]
fn every_bit_flip_is_rejected_by_the_checksum() {
    let (cfg, bytes) = busy_checkpoint();
    // Deterministic positions spread across the whole buffer, plus the
    // first and last byte of every envelope field.
    let mut positions: Vec<usize> = vec![0, 7, 8, 11, 12, 19, 20, 27];
    positions.extend((28..bytes.len()).step_by(131));
    positions.push(bytes.len() - 8);
    positions.push(bytes.len() - 1);
    for pos in positions {
        for bit in [0u8, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                Checkpoint::resume(cfg, &corrupt).is_err(),
                "bit {bit} of byte {pos} flipped without detection"
            );
        }
    }
}

#[test]
fn checksum_fixed_corruption_still_errs_or_roundtrips() {
    // Recompute the trailing checksum after each flip, so the payload
    // decoders face the corruption directly. Decode must never panic; it
    // either rejects the bytes or — when the flip lands in a value no
    // validator constrains, like a latency histogram count — accepts state
    // that still re-serializes cleanly.
    let (cfg, bytes) = busy_checkpoint();
    let positions: Vec<usize> = (28..bytes.len().saturating_sub(8)).step_by(211).collect();
    let mut rejected = 0usize;
    for pos in &positions {
        for bit in [0u8, 5] {
            let mut corrupt = bytes.clone();
            corrupt[*pos] ^= 1 << bit;
            match Checkpoint::resume(cfg, &reseal(corrupt)) {
                Err(_) => rejected += 1,
                Ok(sim) => {
                    // Whatever was accepted is a coherent simulator state.
                    let _ = Checkpoint::save(&sim);
                }
            }
        }
    }
    assert!(
        rejected > 0,
        "none of {} checksum-fixed corruptions was rejected — the payload \
         validators are not running",
        2 * positions.len()
    );
}

/// A mid-run open-loop checkpoint: it stores the arrivals from the cursor
/// on, and resume validates their order against the restored clock.
fn open_loop_checkpoint() -> (SsdConfig, Vec<u8>) {
    let cfg = SsdConfig::tiny(Architecture::PSsd);
    let page = cfg.geometry.page_bytes;
    let requests: Vec<_> = (0..400u64)
        .map(|i| {
            let op = if i % 2 == 0 { IoOp::Write } else { IoOp::Read };
            IoRequest::new(op, (i % 64) * page as u64, page, SimTime::from_us(i * 3))
        })
        .collect();
    let mut sim = SsdSim::new(cfg).unwrap();
    sim.start(Drive::OpenLoop(requests));
    for _ in 0..600 {
        assert!(sim.step(), "run drained before the snapshot point");
    }
    (cfg, Checkpoint::save(&sim))
}

#[test]
fn open_loop_checkpoint_round_trips_and_survives_corruption() {
    let (cfg, bytes) = open_loop_checkpoint();
    let resumed = Checkpoint::resume(cfg, &bytes).expect("clean checkpoint resumes");
    assert_eq!(Checkpoint::save(&resumed), bytes, "save∘resume ≠ identity");
    let positions: Vec<usize> = (28..bytes.len() - 8).step_by(53).collect();
    let mut rejected = 0usize;
    for pos in &positions {
        let mut corrupt = bytes.clone();
        corrupt[*pos] ^= 1 << 6;
        match Checkpoint::resume(cfg, &reseal(corrupt)) {
            Err(_) => rejected += 1,
            Ok(sim) => {
                let _ = Checkpoint::save(&sim);
            }
        }
    }
    assert!(rejected > 0, "no checksum-fixed corruption was rejected");
}

#[test]
fn older_envelope_versions_are_refused_by_name() {
    let (cfg, bytes) = busy_checkpoint();
    for old in [4u32, 5] {
        let mut bytes = bytes.clone();
        // The version field follows the 8-byte magic.
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        let err = Checkpoint::resume(cfg, &reseal(bytes)).unwrap_err();
        assert!(
            err.contains(&format!("version {old}")) && err.contains("expected 6"),
            "message must name the found and the expected version, got: {err}"
        );
    }
}

#[test]
fn resume_rejects_the_wrong_configuration() {
    let (cfg, bytes) = busy_checkpoint();
    let mut other = cfg;
    other.seed ^= 0x5a5a;
    let err = Checkpoint::resume(other, &bytes).unwrap_err();
    assert!(err.contains("different configuration"), "got: {err}");
    let mut arch = cfg;
    arch.architecture = Architecture::BaseSsd;
    assert!(Checkpoint::resume(arch, &bytes).is_err());
}
