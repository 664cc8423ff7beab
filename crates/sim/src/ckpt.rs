//! Checkpoint byte codec.
//!
//! A minimal little-endian binary writer/reader pair used to serialize
//! simulation state for checkpoint/restore. The design mirrors the golden
//! harness's canonical-JSON discipline — a fixed field order, a versioned
//! envelope (owned by `nssd-core`), and a strict `Err`-not-panic decoder —
//! but uses a binary encoding because checkpoints carry large numeric
//! arrays (mapping tables, valid bitmaps, histograms) where JSON would be
//! both slow and lossy for `u64`.
//!
//! Rules every `ckpt_load` implementation follows:
//!
//! - Reads are bounds-checked; running off the end returns
//!   [`CkptError::Truncated`], never a panic.
//! - Collection lengths are validated against the number of bytes actually
//!   remaining *before* allocating ([`CkptReader::take_count`]), so a
//!   corrupted length field cannot trigger a huge allocation.
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

    /// Asserts the payload is fully consumed.
    pub fn finish(&self) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Convenience: encode a `u64` slice with a length prefix.
pub fn put_u64_slice(w: &mut CkptWriter, vals: &[u64]) {
    w.put_usize(vals.len());
    for &v in vals {
        w.put_u64(v);
    }
}

/// Convenience: decode a length-prefixed `u64` vector.
///
/// # Errors
///
/// Returns an error if the input is truncated.
pub fn take_u64_vec(r: &mut CkptReader) -> Result<Vec<u64>, CkptError> {
    let n = r.take_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.take_u64()?);
    }
    Ok(out)
}

/// Convenience: decode a length-prefixed `u64` vector and check its length
/// against an expected value.
///
/// # Errors
///
/// Returns an error if the input is truncated or the length differs from
/// `expect` (`what` names the field in the message).
pub fn take_u64_vec_exact(
    r: &mut CkptReader,
    expect: usize,
    what: &str,
) -> Result<Vec<u64>, CkptError> {
    let v = take_u64_vec(r)?;
    if v.len() != expect {
        return Err(CkptError::Invalid(format!(
            "{what}: expected {expect} entries, found {}",
            v.len()
        )));
    }
    Ok(v)
}

/// Convenience: encode a `u32` slice with a length prefix — the 32-bit
/// page maps, written straight from their tables without a widened copy.
pub fn put_u32_slice(w: &mut CkptWriter, vals: &[u32]) {
    w.put_usize(vals.len());
    w.buf.reserve(vals.len() * 4);
    for &v in vals {
        w.put_u32(v);
    }
}

/// Convenience: decode a length-prefixed `u32` vector written by
/// [`put_u32_slice`] and check its length against an expected value.
///
/// # Errors
///
/// Returns an error if the input is truncated or the length differs from
/// `expect` (`what` names the field in the message).
pub fn take_u32_vec_exact(
    r: &mut CkptReader,
    expect: usize,
    what: &str,
) -> Result<Vec<u32>, CkptError> {
    let n = r.take_count(4)?;
    if n != expect {
        return Err(CkptError::Invalid(format!(
            "{what}: expected {expect} entries, found {n}"
        )));
    }
    let bytes = r.take(n * 4)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(take_u64_vec(&mut r).is_err());
    }

    #[test]
    fn u64_slice_round_trip() {
        let vals = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &vals);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert_eq!(take_u64_vec(&mut r).unwrap(), vals);
        r.finish().unwrap();
    }

    #[test]
    fn u32_slice_round_trip_and_length_check() {
        let vals = [7u32, u32::MAX, 0, 42];
        let mut w = CkptWriter::new();
        put_u32_slice(&mut w, &vals);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 4 * vals.len());
        let mut r = CkptReader::new(&bytes);
        assert_eq!(take_u32_vec_exact(&mut r, 4, "map").unwrap(), vals);
        r.finish().unwrap();
        let mut r = CkptReader::new(&bytes);
        assert!(matches!(
            take_u32_vec_exact(&mut r, 5, "map"),
            Err(CkptError::Invalid(_))
        ));
        for cut in 0..bytes.len() {
            let mut r = CkptReader::new(&bytes[..cut]);
            assert!(take_u32_vec_exact(&mut r, 4, "map").is_err());
        }
    }

    #[test]
    fn exact_vec_checks_length() {
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert!(matches!(
            take_u64_vec_exact(&mut r, 4, "l2p"),
            Err(CkptError::Invalid(_))
        ));
    }

    #[test]
    fn every_truncation_of_a_valid_payload_errors() {
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &[10, 20, 30]);
        w.put_bool(true);
        w.put_u32(99);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = CkptReader::new(&bytes[..cut]);
            let res = (|| -> Result<(), CkptError> {
                let _ = take_u64_vec(&mut r)?;
                let _ = r.take_bool()?;
                let _ = r.take_u32()?;
                r.finish()
            })();
            assert!(res.is_err(), "cut at {cut} decoded successfully");
        }
    }
}
