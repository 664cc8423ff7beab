//! Dense tables that hold memory only for the stretches a run writes.
//!
//! The FTL's page maps and the oracle's shadow arrays keep one entry per
//! simulated page, yet a run writes only part of the device: the footprint
//! fill maps half of the logical space, and its pages land in a fraction of
//! the physical blocks. [`ChunkedTable`] reads like a dense `Vec` holding a
//! fill value everywhere, but splits the index space into fixed-size chunks
//! and allocates a chunk only when a value other than the fill is first
//! written into it.

use core::mem::size_of;

use crate::{CkptError, CkptReader, CkptWriter};

/// Entries per chunk: 1,024, one 4 KiB OS page of the `u32` page-map
/// entries.
///
/// One page per chunk keeps a lookup's memory traffic what a dense table's
/// is (one entry, in one page), costs the directory 16 B per 4 KiB (0.4%),
/// and costs a run one allocation per 1,024 freshly written pages. Smaller
/// chunks would multiply the directory and the allocations; larger ones
/// would hold more untouched entries around each written stretch, which the
/// physical maps pay for, since a fill spreads its blocks over every plane.
pub const CHUNK_LEN: usize = 1 << CHUNK_BITS;

const CHUNK_BITS: u32 = 10;

const CHUNK_MASK: usize = CHUNK_LEN - 1;

/// A fixed-length table of `T` whose entries start at a fill value and
/// whose memory grows only with the chunks holding some other value.
///
/// Equal, entry for entry, to a `vec![fill; len]` given the same calls;
/// its checkpoint bytes are those of [`crate::put_u32_slice`] or
/// [`crate::put_u64_slice`] on that `Vec`.
///
/// # Examples
///
/// ```
/// use nssd_sim::ChunkedTable;
///
/// let mut t = ChunkedTable::new(5_000, u32::MAX);
/// assert_eq!((t.get(4_999), t.chunks_allocated()), (u32::MAX, 0));
/// t.set(3, u32::MAX); // the fill value allocates nothing
/// assert_eq!(t.chunks_allocated(), 0);
/// t.set(3, 7);
/// assert_eq!((t.get(3), t.get(4), t.chunks_allocated()), (7, u32::MAX, 1));
/// ```
#[derive(Debug, Clone)]
pub struct ChunkedTable<T> {
    /// One slot per chunk; an empty slice is an absent chunk, every entry
    /// of which reads as `fill`. The last chunk is cut to `len`.
    dir: Vec<Box<[T]>>,
    len: usize,
    fill: T,
}

impl<T: Copy + PartialEq> ChunkedTable<T> {
    /// Creates a table of `len` entries, each reading as `fill`. Only the
    /// chunk directory is allocated.
    pub fn new(len: usize, fill: T) -> Self {
        let chunks = len.div_ceil(CHUNK_LEN);
        ChunkedTable {
            dir: std::iter::repeat_with(Box::default).take(chunks).collect(),
            len,
            fill,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks currently holding memory.
    pub fn chunks_allocated(&self) -> usize {
        self.dir.iter().filter(|c| !c.is_empty()).count()
    }

    /// The entry at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` lies beyond the last chunk. An index past `len` inside
    /// the last chunk is a caller bug that debug builds catch.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "index {i} out of range ({})", self.len);
        self.dir[i >> CHUNK_BITS]
            .get(i & CHUNK_MASK)
            .copied()
            .unwrap_or(self.fill)
    }

    /// Sets the entry at `i` to `v`, allocating its chunk if `v` is the
    /// first value other than the fill written into it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        match self.dir[i >> CHUNK_BITS].get_mut(i & CHUNK_MASK) {
            Some(e) => *e = v,
            None => self.set_in_absent_chunk(i, v),
        }
    }

    #[cold]
    fn set_in_absent_chunk(&mut self, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of range ({})", self.len);
        if v == self.fill {
            return;
        }
        let k = i >> CHUNK_BITS;
        let n = CHUNK_LEN.min(self.len - (k << CHUNK_BITS));
        let mut chunk = vec![self.fill; n].into_boxed_slice();
        chunk[i & CHUNK_MASK] = v;
        self.dir[k] = chunk;
    }

    /// Sets every entry back to the fill value, freeing every chunk.
    pub fn reset(&mut self) {
        self.dir.iter_mut().for_each(|c| *c = Box::default());
    }

    /// Every entry in index order, the fill value for an absent chunk.
    /// Folding adaptors (`all`, `any`, `find`, `fold`, `for_each`) run
    /// chunk by chunk, at slice speed.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let fill = self.fill;
        self.dir.iter().enumerate().flat_map(move |(k, c)| {
            let absent = if c.is_empty() {
                CHUNK_LEN.min(self.len - (k << CHUNK_BITS))
            } else {
                0
            };
            c.iter().copied().chain(std::iter::repeat_n(fill, absent))
        })
    }
}

impl<T: Copy + PartialEq + Into<u64> + TryFrom<u64>> ChunkedTable<T> {
    /// Appends the table as its length and its dense entry sequence in the
    /// delta codec with runs: the bytes [`crate::put_u32_slice`] or
    /// [`crate::put_u64_slice`] write for the equal `Vec`.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_usize(self.len);
        w.put_deltas(self.iter().map(Into::into), true);
    }

    /// Restores a table saved by [`ChunkedTable::ckpt_save`] (or a slice of
    /// this length saved by `put_u32_slice`/`put_u64_slice`) into this one.
    /// Entries equal to the fill value allocate nothing, and no dense copy
    /// is built. On error the table may be partly restored.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is truncated or misencoded, an entry
    /// does not fit `T`, or the stored length differs from this table's
    /// (`what` names the field in the message).
    pub fn ckpt_load(&mut self, r: &mut CkptReader, what: &str) -> Result<(), CkptError> {
        let n = r.take_usize()?;
        if n != self.len {
            return Err(CkptError::Invalid(format!(
                "{what}: expected {} entries, found {n}",
                self.len
            )));
        }
        self.reset();
        r.take_deltas(n, true, |i, v| {
            let v = T::try_from(v).map_err(|_| {
                CkptError::Invalid(format!("{what}: entry {v} beyond u{}", 8 * size_of::<T>()))
            })?;
            self.set(i, v);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{put_u32_slice, put_u64_slice, DetRng, Rng};

    /// Drives a table and a `Vec` with the same random calls and checks
    /// they agree on every read, on iteration and on checkpoint bytes.
    fn against_vec_model<T>(
        seed: u64,
        fill: T,
        draw: impl Fn(&mut DetRng) -> T,
        put: impl Fn(&mut CkptWriter, &[T]),
    ) where
        T: Copy + PartialEq + core::fmt::Debug + Into<u64> + TryFrom<u64>,
    {
        let mut rng = DetRng::seed_from_u64(seed);
        for _ in 0..crate::CASES / 8 {
            // Lengths on, just past and well inside chunk boundaries, so
            // the partial last chunk is exercised as often as full ones.
            let chunks = rng.gen_range(0..5usize);
            let len = match rng.gen_range(0..3u64) {
                0 => chunks * CHUNK_LEN,
                1 => chunks * CHUNK_LEN + 1,
                _ => rng.gen_range(0..5 * CHUNK_LEN),
            };
            let mut table = ChunkedTable::new(len, fill);
            let mut model = vec![fill; len];
            assert_eq!(table.chunks_allocated(), 0, "a fresh table has no chunk");
            for _ in 0..rng.gen_range(0..400usize) {
                if len == 0 {
                    break;
                }
                // Indices cluster on chunk edges half the time.
                let i = if rng.gen_bool(0.5) {
                    let edge = rng.gen_range(0..len / CHUNK_LEN + 1) * CHUNK_LEN;
                    (edge + rng.gen_range(0..3usize))
                        .saturating_sub(1)
                        .min(len - 1)
                } else {
                    rng.gen_range(0..len)
                };
                match rng.gen_range(0..10u64) {
                    0..=3 => assert_eq!(table.get(i), model[i], "get {i} of {len}"),
                    4 => {
                        // The fill value into an absent chunk allocates
                        // nothing.
                        let (k, before) = (i >> CHUNK_BITS, table.chunks_allocated());
                        let absent = table.dir[k].is_empty();
                        table.set(i, fill);
                        model[i] = fill;
                        if absent {
                            assert_eq!(table.chunks_allocated(), before, "fill into {i}");
                        }
                    }
                    5..=8 => {
                        let v = draw(&mut rng);
                        table.set(i, v);
                        model[i] = v;
                    }
                    _ if rng.gen_bool(0.2) => {
                        table.reset();
                        model.fill(fill);
                        assert_eq!(table.chunks_allocated(), 0);
                    }
                    _ => assert!(table.iter().eq(model.iter().copied()), "iterate"),
                }
            }
            assert!(table.iter().eq(model.iter().copied()));
            assert_eq!(table.iter().count(), len);
            let allocated = table.chunks_allocated();
            // Round trip through the checkpoint: the bytes are the dense
            // model's, and loading allocates only chunks holding other
            // values than the fill.
            let mut w = CkptWriter::new();
            table.ckpt_save(&mut w);
            let bytes = w.into_bytes();
            let mut dense = CkptWriter::new();
            put(&mut dense, &model);
            assert_eq!(bytes, dense.into_bytes(), "checkpoint bytes of {len}");
            let mut back = ChunkedTable::new(len, fill);
            let mut r = CkptReader::new(&bytes);
            back.ckpt_load(&mut r, "table").unwrap();
            r.finish().unwrap();
            assert!(back.iter().eq(model.iter().copied()));
            let needed = model
                .chunks(CHUNK_LEN)
                .filter(|c| c.iter().any(|&v| v != fill))
                .count();
            assert_eq!(back.chunks_allocated(), needed);
            assert!(needed <= allocated);
            // A wrong length is refused by name.
            let mut short = ChunkedTable::new(len + 1, fill);
            let err = short.ckpt_load(&mut CkptReader::new(&bytes), "table");
            let expected = format!("table: expected {} entries, found {len}", len + 1);
            assert!(err.unwrap_err().to_string().contains(&expected));
        }
    }

    #[test]
    fn u32_table_matches_a_vec_call_for_call() {
        // Fill is u32::MAX, as in the page maps; values near it and near
        // zero stress the delta codec's wrap-around.
        let draw = |rng: &mut DetRng| match rng.gen_range(0..3u64) {
            0 => rng.gen_range(0..16u64) as u32,
            1 => u32::MAX - rng.gen_range(1..16u64) as u32,
            _ => rng.next_u64() as u32,
        };
        against_vec_model(0xC4u64, u32::MAX, draw, put_u32_slice);
    }

    #[test]
    fn u64_table_matches_a_vec_call_for_call() {
        // Fill is 0, as in the oracle's write counters.
        let draw = |rng: &mut DetRng| match rng.gen_range(0..3u64) {
            0 => rng.gen_range(0..4u64),
            1 => u64::MAX - rng.gen_range(0..4u64),
            _ => rng.next_u64(),
        };
        against_vec_model(0xC8u64, 0u64, draw, put_u64_slice);
    }

    #[test]
    fn loading_an_entry_beyond_the_entry_type_is_refused() {
        let mut w = CkptWriter::new();
        put_u64_slice(&mut w, &[1, u32::MAX as u64 + 1]);
        let mut t = ChunkedTable::new(2, u32::MAX);
        let err = t.ckpt_load(&mut CkptReader::new(&w.into_bytes()), "map");
        let err = err.unwrap_err().to_string();
        assert!(err.contains("map: entry 4294967296 beyond u32"), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn setting_past_the_end_of_the_last_chunk_panics() {
        let mut t = ChunkedTable::new(CHUNK_LEN + 3, 0u32);
        t.set(CHUNK_LEN + 3, 1);
    }
}
