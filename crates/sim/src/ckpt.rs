//! Checkpoint byte codec.
//!
//! A minimal little-endian binary writer/reader pair used to serialize
//! simulation state for checkpoint/restore. The design mirrors the golden
//! harness's canonical-JSON discipline — a fixed field order, a versioned
//! envelope (owned by `nssd-core`), and a strict `Err`-not-panic decoder —
//! but uses a binary encoding because checkpoints carry large numeric
//! arrays (mapping tables, valid bitmaps, histograms) where JSON would be
//! both slow and lossy for `u64`. Those arrays go through one exact
//! compact codec ([`CkptWriter::put_deltas`]): each entry is the zigzag
//! delta from the previous one in LEB128, and a run of equal entries is
//! one run length. A page map whose pages were written in order costs
//! about a byte per entry, and an unmapped stretch two varints.
//!
//! Rules every `ckpt_load` implementation follows:
//!
//! - Reads are bounds-checked; running off the end returns
//!   [`CkptError::Truncated`], never a panic.
//! - Collection lengths are validated against the number of bytes actually
//!   remaining *before* allocating ([`CkptReader::take_count`]), so a
//!   corrupted length field cannot trigger a huge allocation. A slice
//!   whose length the configuration fixes may hold runs; one whose length
//!   it does not fix holds none ([`put_u64_seq`]), so each entry costs at
//!   least a byte and `take_count(1)` bounds it.
//! - Decoded values are range-checked against the live configuration
//!   (lengths, enum tags, geometry bounds); mismatches return
//!   [`CkptError::Invalid`].
//! - After the last field, [`CkptReader::finish`] rejects trailing bytes.

use std::fmt;

use crate::SimTime;

/// Why a checkpoint failed to decode.
///
/// All variants are ordinary errors: decoding corrupt or truncated input
/// must never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The input ended before a field could be read.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A decoded value failed validation against the live configuration.
    Invalid(String),
    /// Bytes remained after the final field.
    TrailingBytes(usize),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated { needed, remaining } => write!(
                f,
                "checkpoint truncated: needed {needed} bytes, {remaining} remaining"
            ),
            CkptError::Invalid(msg) => write!(f, "invalid checkpoint field: {msg}"),
            CkptError::TrailingBytes(n) => {
                write!(f, "checkpoint has {n} trailing bytes after final field")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// Little-endian binary writer for checkpoint payloads.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        CkptWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (checkpoints are portable across
    /// pointer widths).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a [`SimTime`] as its nanosecond count.
    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.as_ns());
    }

    /// Appends an optional `u64`: a `bool` presence flag, then the value
    /// when present.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            self.put_u64(v);
        }
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends `vals` in the delta codec, with no length prefix: each entry
    /// is the zigzag-mapped wrapping difference from the previous one (the
    /// first from 0) as an LEB128 varint. With `runs`, a zero difference is
    /// instead followed by the length of the whole run of entries equal to
    /// the previous one, so a repeated value costs two varints however long
    /// it repeats. Read back with [`CkptReader::take_deltas`] and the same
    /// `runs`.
    pub fn put_deltas(&mut self, vals: impl IntoIterator<Item = u64>, runs: bool) {
        let mut prev = 0u64;
        let mut run = 0u64;
        for v in vals {
            if runs && v == prev {
                run += 1;
                continue;
            }
            if run > 0 {
                self.put_varint(0);
                self.put_varint(run);
                run = 0;
            }
            self.put_varint(zigzag(v.wrapping_sub(prev)));
            prev = v;
        }
        if run > 0 {
            self.put_varint(0);
            self.put_varint(run);
        }
    }
}

/// Maps a wrapping difference to a varint payload: small differences of
/// either sign become small numbers (0, −1, 1, −2 → 0, 1, 2, 3).
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Reads a canonical LEB128 varint of at most ten bytes at `buf[*pos..]`,
/// advancing `pos` past it.
#[inline(always)]
fn varint(buf: &[u8], pos: &mut usize) -> Result<u64, CkptError> {
    match buf.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(b as u64)
        }
        _ => long_varint(buf, pos),
    }
}

/// [`varint`] past its one-byte fast path.
fn long_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CkptError> {
    let rest = &buf[*pos..];
    let mut v = 0u64;
    for (i, &b) in rest.iter().take(10).enumerate() {
        if i == 9 && b > 1 {
            return Err(CkptError::Invalid("varint beyond u64".into()));
        }
        v |= ((b & 0x7f) as u64) << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err(CkptError::Invalid("overlong varint".into()));
            }
            *pos += i + 1;
            return Ok(v);
        }
    }
    // Fewer than ten bytes remained and each continued the varint.
    Err(CkptError::Truncated {
        needed: rest.len() + 1,
        remaining: rest.len(),
    })
}

/// Bounds-checked little-endian reader over a checkpoint payload.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        CkptReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, CkptError> {
        let b = self.take(16)?;
        Ok(u128::from_le_bytes(b.try_into().expect("16-byte slice")))
    }

    /// Reads a `usize` stored as a `u64`, rejecting values that do not fit
    /// the native pointer width.
    pub fn take_usize(&mut self) -> Result<usize, CkptError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| CkptError::Invalid(format!("usize field overflows: {v}")))
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn take_bool(&mut self) -> Result<bool, CkptError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Invalid(format!("bool byte is {other}"))),
        }
    }

    /// Reads a [`SimTime`] from its nanosecond count.
    pub fn take_time(&mut self) -> Result<SimTime, CkptError> {
        Ok(SimTime::from_ns(self.take_u64()?))
    }

    /// Reads an optional `u64` written by [`CkptWriter::put_opt_u64`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, CkptError> {
        self.take_bool()?.then(|| self.take_u64()).transpose()
    }

    /// Reads a collection count (stored as `u64`) and validates that at
    /// least `count * min_elem_bytes` bytes remain, so corrupt lengths are
    /// rejected before any allocation. `min_elem_bytes` must be ≥ 1.
    pub fn take_count(&mut self, min_elem_bytes: usize) -> Result<usize, CkptError> {
        debug_assert!(min_elem_bytes >= 1);
        let count = self.take_usize()?;
        let need = count
            .checked_mul(min_elem_bytes)
            .ok_or_else(|| CkptError::Invalid(format!("collection count overflows: {count}")))?;
        if need > self.remaining() {
            return Err(CkptError::Truncated {
                needed: need,
                remaining: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string written by
    /// [`CkptWriter::put_str`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or invalid UTF-8.
    pub fn take_string(&mut self) -> Result<String, CkptError> {
        let n = self.take_count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Invalid("string field is not UTF-8".into()))
    }

    /// Reads `n` entries written by [`CkptWriter::put_deltas`] with the same
    /// `runs`, handing each to `f` with its index; the first error `f`
    /// returns ends the read. The caller bounds `n`: by the configuration,
    /// or, without runs (at least one byte per entry), by
    /// [`CkptReader::take_count`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, an overlong varint or one beyond
    /// `u64`, a run of zero entries, a run past `n`, or a run following a
    /// run (the writer merges them).
    pub fn take_deltas(
        &mut self,
        n: usize,
        runs: bool,
        mut f: impl FnMut(usize, u64) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        // The cursor lives in a local for the loop; after an error the
        // reader is abandoned, so only success stores it.
        let buf = self.buf;
        let mut pos = self.pos;
        let mut prev = 0u64;
        let mut i = 0;
        let mut after_run = false;
        while i < n {
            let z = varint(buf, &mut pos)?;
            if runs && z == 0 {
                if after_run {
                    return Err(CkptError::Invalid("run follows a run".into()));
                }
                let len = varint(buf, &mut pos)?;
                if len == 0 || len > (n - i) as u64 {
                    return Err(CkptError::Invalid(format!(
                        "run of {len} entries at {i} of {n}"
                    )));
                }
                for _ in 0..len {
                    f(i, prev)?;
                    i += 1;
                }
                after_run = true;
                continue;
            }
            prev = prev.wrapping_add(unzigzag(z));
            f(i, prev)?;
            i += 1;
            after_run = false;
        }
        self.pos = pos;
        Ok(())
    }

    /// Asserts the payload is fully consumed.
    pub fn finish(&self) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Appends a length-prefixed `u64` slice whose length the configuration
/// fixes, in the delta codec with runs ([`CkptWriter::put_deltas`]).
pub fn put_u64_slice(w: &mut CkptWriter, vals: &[u64]) {
    w.put_usize(vals.len());
    w.put_deltas(vals.iter().copied(), true);
}

/// Appends a length-prefixed `u32` slice whose length the configuration
/// fixes — the 32-bit page maps — the same way as [`put_u64_slice`].
pub fn put_u32_slice(w: &mut CkptWriter, vals: &[u32]) {
    w.put_usize(vals.len());
    w.put_deltas(vals.iter().map(|&v| v as u64), true);
}

/// Decodes a slice written by [`put_u64_slice`] in place into `out`,
/// whose length the configuration fixes. On error `out` may be partly
/// overwritten.
///
/// # Errors
///
/// Returns an error if the input is truncated or misencoded, or the stored
/// length differs from `out`'s (`what` names the field in the message).
pub fn take_u64_slice(r: &mut CkptReader, out: &mut [u64], what: &str) -> Result<(), CkptError> {
    take_slice(r, out, what, Ok)
}

/// Decodes a slice written by [`put_u32_slice`] in place into `out`,
/// whose length the configuration fixes. On error `out` may be partly
/// overwritten.
///
/// # Errors
///
/// Returns an error if the input is truncated or misencoded, an entry does
/// not fit a `u32`, or the stored length differs from `out`'s (`what` names
/// the field in the message).
pub fn take_u32_slice(r: &mut CkptReader, out: &mut [u32], what: &str) -> Result<(), CkptError> {
    take_slice(r, out, what, |v| {
        u32::try_from(v).map_err(|_| CkptError::Invalid(format!("{what}: entry {v} beyond u32")))
    })
}

fn take_slice<T>(
    r: &mut CkptReader,
    out: &mut [T],
    what: &str,
    conv: impl Fn(u64) -> Result<T, CkptError>,
) -> Result<(), CkptError> {
    let n = r.take_usize()?;
    if n != out.len() {
        return Err(CkptError::Invalid(format!(
            "{what}: expected {} entries, found {n}",
            out.len()
        )));
    }
    r.take_deltas(n, true, |i, v| {
        out[i] = conv(v)?;
        Ok(())
    })
}

/// Appends a length-prefixed `u64` sequence whose length the configuration
/// does not fix (recorder bins), in the delta codec without runs, so every
/// entry costs at least one byte.
pub fn put_u64_seq(w: &mut CkptWriter, vals: &[u64]) {
    w.put_usize(vals.len());
    w.put_deltas(vals.iter().copied(), false);
}

/// Decodes a sequence written by [`put_u64_seq`]. The count is checked
/// against the remaining input before anything is allocated.
///
/// # Errors
///
/// Returns an error if the input is truncated or misencoded.
pub fn take_u64_seq(r: &mut CkptReader) -> Result<Vec<u64>, CkptError> {
    let n = r.take_count(1)?;
    let mut out = Vec::with_capacity(n);
    r.take_deltas(n, false, |_, v| {
        out.push(v);
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u64s(r: &mut CkptReader, n: usize) -> Result<Vec<u64>, CkptError> {
        let mut out = vec![0; n];
        take_u64_slice(r, &mut out, "vals")?;
        Ok(out)
    }

    fn u32s(r: &mut CkptReader, n: usize) -> Result<Vec<u32>, CkptError> {
        let mut out = vec![0; n];
        take_u32_slice(r, &mut out, "map")?;
        Ok(out)
    }

    #[test]
    fn round_trip_scalars() {
        let mut w = CkptWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_u128(1 << 100);
        w.put_usize(42);
        w.put_bool(true);
        w.put_bool(false);
        w.put_time(SimTime::from_ns(123_456));
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 4 + 8 + 16 + 8 + 2 + 8 + 9 + 1);
        let mut r = CkptReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_u128().unwrap(), 1 << 100);
        assert_eq!(r.take_usize().unwrap(), 42);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_time().unwrap(), SimTime::from_ns(123_456));
        assert_eq!(r.take_opt_u64().unwrap(), Some(9));
        assert_eq!(r.take_opt_u64().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_errors() {
        let bytes = [1u8, 2, 3];
        let mut r = CkptReader::new(&bytes);
        assert!(matches!(
            r.take_u64(),
            Err(CkptError::Truncated {
                needed: 8,
                remaining: 3
            })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let bytes = [0u8; 9];
        let mut r = CkptReader::new(&bytes);
        r.take_u64().unwrap();
        assert_eq!(r.finish(), Err(CkptError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_rejected() {
        let bytes = [2u8];
        let mut r = CkptReader::new(&bytes);
        assert!(matches!(r.take_bool(), Err(CkptError::Invalid(_))));
    }

    #[test]
    fn huge_count_rejected_before_allocation() {
        // A length field claiming u64::MAX entries must fail the
        // remaining-bytes check, not attempt the allocation.
        let mut w = CkptWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert!(take_u64_seq(&mut r).is_err());
    }

    #[test]
    fn u64_slice_round_trip() {
        let vals = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &vals);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert_eq!(u64s(&mut r, 8).unwrap(), vals);
        r.finish().unwrap();
    }

    #[test]
    fn u32_slice_round_trip_and_length_check() {
        let vals = [7u32, u32::MAX, 0, 42];
        let mut w = CkptWriter::new();
        put_u32_slice(&mut w, &vals);
        let bytes = w.into_bytes();
        // The count, then one varint per zigzag delta: +7 and +42 fit one
        // byte, the two swings across the u32 range five each.
        assert_eq!(bytes.len(), 8 + 1 + 5 + 5 + 1);
        let mut r = CkptReader::new(&bytes);
        assert_eq!(u32s(&mut r, 4).unwrap(), vals);
        r.finish().unwrap();
        let mut r = CkptReader::new(&bytes);
        assert!(matches!(u32s(&mut r, 5), Err(CkptError::Invalid(_))));
        for cut in 0..bytes.len() {
            let mut r = CkptReader::new(&bytes[..cut]);
            assert!(u32s(&mut r, 4).is_err());
        }
    }

    #[test]
    fn exact_vec_checks_length() {
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert!(matches!(u64s(&mut r, 4), Err(CkptError::Invalid(_))));
    }

    #[test]
    fn every_truncation_of_a_valid_payload_errors() {
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &[10, 20, 20, 20, 30]);
        put_u64_seq(&mut w, &[5, 5, 0]);
        w.put_bool(true);
        w.put_u32(99);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = CkptReader::new(&bytes[..cut]);
            let res = (|| -> Result<(), CkptError> {
                let _ = u64s(&mut r, 5)?;
                let _ = take_u64_seq(&mut r)?;
                let _ = r.take_bool()?;
                let _ = r.take_u32()?;
                r.finish()
            })();
            assert!(res.is_err(), "cut at {cut} decoded successfully");
        }
    }

    /// A count prefix, then `body` as the slice's codec bytes.
    fn raw_slice(n: u64, body: &[u8]) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.put_u64(n);
        w.put_bytes(body);
        w.into_bytes()
    }

    fn decode_exact(bytes: &[u8], n: usize) -> Result<Vec<u64>, CkptError> {
        let mut r = CkptReader::new(bytes);
        let v = u64s(&mut r, n)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn delta_codec_round_trips_extremes_runs_and_random_values() {
        use crate::Rng;
        let mut rng = crate::DetRng::seed_from_u64(7);
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![0; 1000],
            vec![u64::MAX, 0, u64::MAX, 1, i64::MAX as u64, i64::MIN as u64],
            (0..500).map(|i| i / 7).collect(),
            (0..500)
                .map(|i| if i % 3 == 0 { u64::MAX } else { i })
                .collect(),
        ];
        cases.push(
            (0..2000)
                .map(|_| rng.next_u64() >> (rng.next_u64() % 64))
                .collect(),
        );
        for vals in &cases {
            let mut w = CkptWriter::new();
            put_u64_slice(&mut w, vals);
            put_u64_seq(&mut w, vals);
            let bytes = w.into_bytes();
            let mut r = CkptReader::new(&bytes);
            assert_eq!(&u64s(&mut r, vals.len()).unwrap(), vals);
            assert_eq!(&take_u64_seq(&mut r).unwrap(), vals);
            r.finish().unwrap();
        }
        // A run of any length is two varints; without runs, a byte each.
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &[0; 1000]);
        assert_eq!(w.len(), 8 + 1 + 2);
        let mut w = CkptWriter::new();
        put_u64_seq(&mut w, &[0; 1000]);
        assert_eq!(w.len(), 8 + 1000);
    }

    #[test]
    fn worst_case_u32_slice_costs_at_most_five_bytes_an_entry() {
        let vals: Vec<u32> = (0..1000)
            .map(|i| if i % 2 == 0 { 0 } else { u32::MAX })
            .collect();
        let mut w = CkptWriter::new();
        put_u32_slice(&mut w, &vals);
        let bytes = w.into_bytes();
        assert!(bytes.len() <= 8 + 5 * vals.len(), "{} bytes", bytes.len());
        let mut r = CkptReader::new(&bytes);
        assert_eq!(u32s(&mut r, vals.len()).unwrap(), vals);
    }

    #[test]
    fn overlong_varint_is_refused() {
        // 1 padded with a zero continuation byte, and 0 padded twice.
        for body in [&[0x81u8, 0x00][..], &[0x80, 0x80, 0x00]] {
            assert_eq!(
                decode_exact(&raw_slice(1, body), 1),
                Err(CkptError::Invalid("overlong varint".into()))
            );
        }
    }

    #[test]
    fn varint_beyond_u64_and_entry_beyond_u32_are_refused() {
        let mut too_wide = vec![0xFFu8; 9];
        too_wide.push(0x02);
        let mut eleven = vec![0xFFu8; 10];
        eleven.push(0x01);
        for body in [too_wide, eleven] {
            assert_eq!(
                decode_exact(&raw_slice(1, &body), 1),
                Err(CkptError::Invalid("varint beyond u64".into()))
            );
        }
        // The widest varint is accepted: a delta of i64::MIN zigzags to
        // u64::MAX, ten bytes.
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &[i64::MIN as u64]);
        assert_eq!(w.len(), 8 + 10);
        for vals in [vec![u32::MAX as u64 + 1], vec![5, u64::MAX]] {
            let mut w = CkptWriter::new();
            put_u64_slice(&mut w, &vals);
            let bytes = w.into_bytes();
            let mut r = CkptReader::new(&bytes);
            assert!(matches!(
                u32s(&mut r, vals.len()),
                Err(CkptError::Invalid(m)) if m.contains("beyond u32")
            ));
        }
    }

    #[test]
    fn truncated_varint_is_refused() {
        assert!(matches!(
            decode_exact(&raw_slice(1, &[0x80]), 1),
            Err(CkptError::Truncated { .. })
        ));
        let mut r = CkptReader::new(&[0x85, 0xFF]);
        assert!(matches!(
            r.take_deltas(1, false, |_, _| Ok(())),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn zero_length_runs_runs_past_the_end_and_split_runs_are_refused() {
        // A zero delta opens a run; its length must be 1..=entries left.
        for (body, n) in [
            (&[0x00u8, 0x00][..], 3),
            (&[0x00, 0x04], 3),
            (&[0x02, 0x00, 0x03], 3),
            (&[0x00, 0x01, 0x00, 0x01], 2),
        ] {
            let res = decode_exact(&raw_slice(n as u64, body), n);
            assert!(
                matches!(res, Err(CkptError::Invalid(_))),
                "{body:?}: {res:?}"
            );
        }
        // The same bytes are well formed when the run fits.
        assert_eq!(
            decode_exact(&raw_slice(3, &[0x00, 0x03]), 3),
            Ok(vec![0; 3])
        );
        assert_eq!(
            decode_exact(&raw_slice(3, &[0x02, 0x00, 0x02]), 3),
            Ok(vec![1; 3])
        );
    }

    #[test]
    fn unbounded_sequence_claiming_a_huge_count_is_refused_before_allocating() {
        // Counts that the remaining bytes cannot hold at one byte an entry,
        // up to one that would overflow the allocation, all fail in
        // `take_count` before any vector is built.
        for n in [2u64, 1 << 40, u64::MAX / 2, u64::MAX] {
            let bytes = raw_slice(n, &[0x00]);
            let mut r = CkptReader::new(&bytes);
            assert!(take_u64_seq(&mut r).is_err(), "count {n}");
        }
        // Without runs a zero byte is one entry, never a run.
        let bytes = raw_slice(2, &[0x00, 0x02]);
        let mut r = CkptReader::new(&bytes);
        assert_eq!(take_u64_seq(&mut r).unwrap(), vec![0, 1]);
    }
}
