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
use networked_ssd::host::{IoOp, IoRequest, SchedulerKind, TenantConfig};
use networked_ssd::sim::{
    put_u32_slice, take_u32_slice, take_u64_slice, CkptReader, CkptWriter, SimTime,
};
use std::ops::Range;

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
    for old in 4u32..=10 {
        let mut bytes = bytes.clone();
        // The version field follows the 8-byte magic.
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        let err = Checkpoint::resume(cfg, &reseal(bytes)).unwrap_err();
        assert!(
            err.contains(&format!(
                "unsupported checkpoint version {old} (expected 11)"
            )),
            "message must name the found and the expected version, got: {err}"
        );
    }
}

/// The bytes of the oracle's per-page owner slice (its length prefix
/// included) in a checkpoint of `cfg`: the one place where an L2P slice of
/// the logical size decodes, followed by a write-count slice of the same
/// size and then a slice of one entry per physical page.
fn oracle_owners_at(cfg: &SsdConfig, bytes: &[u8]) -> Range<usize> {
    let logical = (cfg.logical_bytes() / cfg.geometry.page_bytes as u64) as usize;
    let pages = cfg.geometry.page_count() as usize;
    let hits: Vec<Range<usize>> = (0..bytes.len())
        .filter(|&at| bytes.get(at..at + 8) == Some(&(logical as u64).to_le_bytes()[..]))
        .filter_map(|at| {
            let mut r = CkptReader::new(&bytes[at..]);
            take_u32_slice(&mut r, &mut vec![0; logical], "l2p").ok()?;
            take_u64_slice(&mut r, &mut vec![0; logical], "writes").ok()?;
            let start = bytes.len() - r.remaining();
            take_u32_slice(&mut r, &mut vec![0; pages], "owners").ok()?;
            Some(start..bytes.len() - r.remaining())
        })
        .collect();
    assert_eq!(hits.len(), 1, "oracle owner slice found at {hits:?}");
    hits[0].clone()
}

/// Replaces `range` of a checkpoint with `with`, patching the envelope's
/// payload length (bytes 20..28, after the magic, version and fingerprint;
/// the 28-byte header and the 8-byte checksum surround the payload) and
/// its checksum.
fn splice(bytes: &[u8], range: Range<usize>, with: &[u8]) -> Vec<u8> {
    let mut out = [&bytes[..range.start], with, &bytes[range.end..]].concat();
    let payload = (out.len() - 36) as u64;
    out[20..28].copy_from_slice(&payload.to_le_bytes());
    reseal(out)
}

#[test]
fn an_oracle_owner_beyond_the_logical_space_is_refused() {
    let (cfg, bytes) = busy_checkpoint();
    let range = oracle_owners_at(&cfg, &bytes);
    let logical = (cfg.logical_bytes() / cfg.geometry.page_bytes as u64) as u32;
    let pages = cfg.geometry.page_count() as usize;
    let mut owners = vec![0; pages];
    take_u32_slice(
        &mut CkptReader::new(&bytes[range.clone()]),
        &mut owners,
        "owners",
    )
    .expect("the located slice decodes");
    let owned = owners
        .iter()
        .position(|&o| o != u32::MAX)
        .expect("the busy checkpoint maps some page");
    // The splice itself is sound: re-encoding the same slice resumes.
    Checkpoint::resume(cfg, &splice(&bytes, range.clone(), &bytes[range.clone()]))
        .expect("an unchanged splice resumes");
    for owner in [logical, logical + 1, u32::MAX - 1] {
        let mut corrupt = owners.clone();
        corrupt[owned] = owner;
        let mut w = CkptWriter::new();
        put_u32_slice(&mut w, &corrupt);
        let corrupt = splice(&bytes, range.clone(), &w.into_bytes());
        let err = Checkpoint::resume(cfg, &corrupt).unwrap_err();
        assert!(
            err.contains(&format!("owner lpn{owner}")) && err.contains("beyond logical space"),
            "got {err}"
        );
    }
}

#[test]
fn an_oracle_shadow_slice_of_the_wrong_length_is_refused() {
    let (cfg, bytes) = busy_checkpoint();
    let at = oracle_owners_at(&cfg, &bytes).start;
    let pages = cfg.geometry.page_count();
    for len in [pages - 1, pages + 1, 0] {
        let mut corrupt = bytes.clone();
        corrupt[at..at + 8].copy_from_slice(&len.to_le_bytes());
        let err = Checkpoint::resume(cfg, &reseal(corrupt)).unwrap_err();
        assert!(
            err.contains(&format!("expected {pages} entries, found {len}")),
            "got {err}"
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

/// `n` one-page writes over a small working set, starting at request
/// `from`.
fn writes(cfg: &SsdConfig, from: u64, n: u64) -> Vec<IoRequest> {
    let page = cfg.geometry.page_bytes;
    (from..from + n)
        .map(|i| IoRequest::new(IoOp::Write, (i % 64) * page as u64, page, SimTime::ZERO))
        .collect()
}

#[test]
fn closed_loop_checkpoint_keeps_only_the_unissued_requests() {
    // One closed-loop drive of k + rest requests at depth 1, stopped once
    // its first k requests have completed (the next token is queued, its
    // request not started) ...
    let mut cfg = SsdConfig::tiny(Architecture::BaseSsd);
    cfg.gc.plan = None;
    let (k, rest) = (40, 60);
    let mut whole = SsdSim::new(cfg).unwrap();
    whole.start(Drive::ClosedLoop {
        requests: writes(&cfg, 0, k + rest),
        depth: 1,
    });
    while whole.completed() < k {
        assert!(whole.step(), "drained before {k} completions");
    }
    // ... is the same device as one that ran the first k as a drive of
    // their own and has just started the rest.
    let mut split = SsdSim::new(cfg).unwrap();
    split.start(Drive::ClosedLoop {
        requests: writes(&cfg, 0, k),
        depth: 1,
    });
    split.run_to_idle();
    split.start(Drive::ClosedLoop {
        requests: writes(&cfg, k, rest),
        depth: 1,
    });
    let (whole, split) = (Checkpoint::save(&whole), Checkpoint::save(&split));
    // Storing the started requests too would cost k more entries in each
    // request column.
    assert_eq!(
        whole.len(),
        split.len(),
        "{} bytes more",
        whole.len() as i64 - split.len() as i64
    );
    assert_eq!(whole, split, "the two checkpoints differ");
}

/// A checkpoint of a fresh simulator that has just started `drive`.
fn at_start(cfg: SsdConfig, drive: Drive) -> Vec<u8> {
    let mut sim = SsdSim::new(cfg).unwrap();
    sim.start(drive);
    Checkpoint::save(&sim)
}

/// Where the drive tag sits: an open-loop and a closed-loop drive with no
/// requests, saved at start, differ in that one byte.
fn drive_tag_offset(cfg: SsdConfig) -> usize {
    let open = at_start(cfg, Drive::OpenLoop(Vec::new()));
    let closed = at_start(
        cfg,
        Drive::ClosedLoop {
            requests: Vec::new(),
            depth: 8,
        },
    );
    assert_eq!(open.len(), closed.len());
    let differ: Vec<usize> = (0..open.len() - 8)
        .filter(|&i| open[i] != closed[i])
        .collect();
    assert_eq!(differ.len(), 1, "drives differ at {differ:?}");
    differ[0]
}

/// Queues one `Arrive` event at time zero in a checkpoint whose event
/// queue has never been used. The queue is the last section of the state:
/// `next_seq`, `scheduled_total` and the pending count, then each event's
/// time and tag.
fn queue_arrive(bytes: &[u8]) -> Vec<u8> {
    let body = &bytes[..bytes.len() - 8];
    let (state, queue) = body.split_at(body.len() - 24);
    assert_eq!(queue, [0u8; 24], "the queue has been used");
    let mut out = state.to_vec();
    for word in [1u64, 1, 1, 0] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.push(0); // the `Arrive` tag
                 // The payload follows the 28-byte header, whose last field is its
                 // length.
    let payload = (out.len() - 28) as u64;
    out[20..28].copy_from_slice(&payload.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    reseal(out)
}

fn one_tenant() -> Drive {
    Drive::MultiTenant {
        tenants: vec![(
            TenantConfig {
                name: "solo".into(),
                weight: 1,
                slo_latency: SimTime::from_ms(1),
            },
            Vec::new(),
        )],
        scheduler: SchedulerKind::WeightedFair,
        depth: 4,
    }
}

#[test]
fn arrive_events_are_refused_outside_closed_loop() {
    let cfg = SsdConfig::tiny(Architecture::PnSsd);
    for (drive, name) in [
        (Drive::OpenLoop(Vec::new()), "open-loop"),
        (one_tenant(), "multi-tenant"),
    ] {
        let bytes = at_start(cfg, drive);
        assert!(Checkpoint::resume(cfg, &bytes).is_ok(), "{name} control");
        let err = Checkpoint::resume(cfg, &queue_arrive(&bytes)).unwrap_err();
        assert!(err.contains(name), "{name}: got {err}");
    }
}

#[test]
fn more_queued_arrivals_than_unissued_requests_are_refused() {
    let cfg = SsdConfig::tiny(Architecture::PnSsd);
    let empty = at_start(
        cfg,
        Drive::ClosedLoop {
            requests: Vec::new(),
            depth: 8,
        },
    );
    let err = Checkpoint::resume(cfg, &queue_arrive(&empty)).unwrap_err();
    assert!(
        err.contains("1 queued arrivals for 0 unissued requests"),
        "got {err}"
    );
    // One request with its one token is a drive that has not started it.
    let one = at_start(
        cfg,
        Drive::ClosedLoop {
            requests: writes(&cfg, 0, 1),
            depth: 8,
        },
    );
    assert!(Checkpoint::resume(cfg, &one).is_ok());
}

#[test]
fn unknown_drive_tag_is_refused() {
    let cfg = SsdConfig::tiny(Architecture::PnSsd);
    let at = drive_tag_offset(cfg);
    let mut bytes = at_start(cfg, Drive::OpenLoop(Vec::new()));
    bytes[at] = 3;
    let err = Checkpoint::resume(cfg, &reseal(bytes)).unwrap_err();
    assert!(err.contains("unknown drive tag 3"), "got {err}");
}
