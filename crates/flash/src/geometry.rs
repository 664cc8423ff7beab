//! SSD geometry and physical flash addressing.
//!
//! The paper's organization (Table II) is 8 channels × 8 ways × 1 die ×
//! 4 planes × 1024 blocks × 512 pages × 16 KB pages. [`Geometry`] captures
//! that shape and provides the packed physical-page-number ([`Ppn`]) codec
//! that the FTL mapping tables use.

use core::fmt;

/// Packed physical page number — a dense index over every page in the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppn(u64);

impl Ppn {
    /// Creates a PPN from its raw packed value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Ppn(raw)
    }

    /// The raw packed value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn{}", self.0)
    }
}

/// Packed physical block number — a dense index over every block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pbn(u64);

impl Pbn {
    /// Creates a PBN from its raw packed value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Pbn(raw)
    }

    /// The raw packed value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Pbn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pbn{}", self.0)
    }
}

/// An unpacked physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageAddr {
    /// Flash channel (horizontal bus) index.
    pub channel: u32,
    /// Way (chip position on the channel; the *column* in Omnibus terms).
    pub way: u32,
    /// Die within the chip.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
    /// Block within the plane.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

impl PageAddr {
    /// The block portion of this address.
    pub fn block_addr(&self) -> BlockAddr {
        BlockAddr {
            channel: self.channel,
            way: self.way,
            die: self.die,
            plane: self.plane,
            block: self.block,
        }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}w{}d{}p{}b{}pg{}",
            self.channel, self.way, self.die, self.plane, self.block, self.page
        )
    }
}

/// An unpacked physical block address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockAddr {
    /// Flash channel index.
    pub channel: u32,
    /// Way (column) index.
    pub way: u32,
    /// Die within the chip.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
    /// Block within the plane.
    pub block: u32,
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}w{}d{}p{}b{}",
            self.channel, self.way, self.die, self.plane, self.block
        )
    }
}

/// The physical shape of the SSD's flash array.
///
/// # Examples
///
/// ```
/// use nssd_flash::Geometry;
///
/// let g = Geometry::paper_table2();
/// assert_eq!(g.channels, 8);
/// assert_eq!(g.ways, 8);
/// assert_eq!(g.planes, 4);
/// assert_eq!(g.page_bytes, 16 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of flash channels (horizontal buses).
    pub channels: u32,
    /// Chips (ways) per channel.
    pub ways: u32,
    /// Dies per chip.
    pub dies: u32,
    /// Planes per die.
    pub planes: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_bytes: u32,
}

impl Geometry {
    /// The page count a valid geometry stays below: page numbers must fit
    /// the FTL's 32-bit maps, where `u32::MAX` is the empty-entry sentinel.
    pub const MAX_PAGES: u64 = u32::MAX as u64;

    /// The exact organization of the paper's Table II:
    /// 8 channels, 8 ways, 1 die, 4 planes, 1024 blocks, 512 pages, 16 KB.
    ///
    /// Note this is a 2 TB device of 134M pages whose 32-bit mapping tables
    /// take ~1 GiB of host memory to simulate (8 bytes per page, forward
    /// and reverse); experiments default to [`Geometry::scaled`].
    pub const fn paper_table2() -> Self {
        Geometry {
            channels: 8,
            ways: 8,
            dies: 1,
            planes: 4,
            blocks_per_plane: 1024,
            pages_per_block: 512,
            page_bytes: 16 * 1024,
        }
    }

    /// The capacity-scaled experiment geometry: identical channel/way/die/
    /// plane topology to Table II (which is what every interconnect result
    /// depends on) with fewer blocks and pages per plane, so that a figure,
    /// which builds and ages a device for each of its many cells, runs in
    /// seconds. Aging the unscaled device once takes about 70 s and 1 GiB
    /// (`SsdConfig::paper_table2`).
    pub const fn scaled() -> Self {
        Geometry {
            channels: 8,
            ways: 8,
            dies: 1,
            planes: 4,
            blocks_per_plane: 64,
            pages_per_block: 128,
            page_bytes: 16 * 1024,
        }
    }

    /// A tiny geometry for unit tests.
    pub const fn tiny() -> Self {
        Geometry {
            channels: 2,
            ways: 2,
            dies: 1,
            planes: 2,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_bytes: 4 * 1024,
        }
    }

    /// Validates the geometry, returning a description of the first problem.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any dimension is zero or the device has
    /// [`Geometry::MAX_PAGES`] pages or more: the FTL's page maps hold
    /// 32-bit page numbers, with `u32::MAX` marking an empty entry.
    pub fn validate(&self) -> Result<(), GeometryError> {
        let dims = [
            ("channels", self.channels),
            ("ways", self.ways),
            ("dies", self.dies),
            ("planes", self.planes),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
            ("page_bytes", self.page_bytes),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(GeometryError::ZeroDimension(name));
            }
        }
        let total: u128 = self.channels as u128
            * self.ways as u128
            * self.dies as u128
            * self.planes as u128
            * self.blocks_per_plane as u128
            * self.pages_per_block as u128;
        if total >= Self::MAX_PAGES as u128 {
            return Err(GeometryError::TooManyPages(total));
        }
        Ok(())
    }

    /// Total number of flash chips.
    pub fn chip_count(&self) -> u64 {
        self.channels as u64 * self.ways as u64
    }

    /// Total number of planes across the device.
    pub fn plane_count(&self) -> u64 {
        self.chip_count() * self.dies as u64 * self.planes as u64
    }

    /// Total number of blocks across the device.
    pub fn block_count(&self) -> u64 {
        self.plane_count() * self.blocks_per_plane as u64
    }

    /// Total number of pages across the device.
    pub fn page_count(&self) -> u64 {
        self.block_count() * self.pages_per_block as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.page_count() * self.page_bytes as u64
    }

    /// Linear chip index for `(channel, way)`.
    pub fn chip_index(&self, channel: u32, way: u32) -> usize {
        debug_assert!(channel < self.channels && way < self.ways);
        (channel * self.ways + way) as usize
    }

    /// Packs an unpacked page address into a [`Ppn`].
    ///
    /// # Panics
    ///
    /// Debug-panics if any component is out of range.
    pub fn ppn(&self, a: PageAddr) -> Ppn {
        debug_assert!(a.channel < self.channels, "channel out of range: {a}");
        debug_assert!(a.way < self.ways, "way out of range: {a}");
        debug_assert!(a.die < self.dies, "die out of range: {a}");
        debug_assert!(a.plane < self.planes, "plane out of range: {a}");
        debug_assert!(a.block < self.blocks_per_plane, "block out of range: {a}");
        debug_assert!(a.page < self.pages_per_block, "page out of range: {a}");
        let mut v = a.channel as u64;
        v = v * self.ways as u64 + a.way as u64;
        v = v * self.dies as u64 + a.die as u64;
        v = v * self.planes as u64 + a.plane as u64;
        v = v * self.blocks_per_plane as u64 + a.block as u64;
        v = v * self.pages_per_block as u64 + a.page as u64;
        Ppn::new(v)
    }

    /// Unpacks a [`Ppn`] into its address components.
    pub fn page_addr(&self, ppn: Ppn) -> PageAddr {
        let mut v = ppn.raw();
        let page = (v % self.pages_per_block as u64) as u32;
        v /= self.pages_per_block as u64;
        let block = (v % self.blocks_per_plane as u64) as u32;
        v /= self.blocks_per_plane as u64;
        let plane = (v % self.planes as u64) as u32;
        v /= self.planes as u64;
        let die = (v % self.dies as u64) as u32;
        v /= self.dies as u64;
        let way = (v % self.ways as u64) as u32;
        v /= self.ways as u64;
        let channel = v as u32;
        PageAddr {
            channel,
            way,
            die,
            plane,
            block,
            page,
        }
    }

    /// Packs an unpacked block address into a [`Pbn`].
    pub fn pbn(&self, a: BlockAddr) -> Pbn {
        let mut v = a.channel as u64;
        v = v * self.ways as u64 + a.way as u64;
        v = v * self.dies as u64 + a.die as u64;
        v = v * self.planes as u64 + a.plane as u64;
        v = v * self.blocks_per_plane as u64 + a.block as u64;
        Pbn::new(v)
    }

    /// Unpacks a [`Pbn`] into its address components.
    pub fn block_addr(&self, pbn: Pbn) -> BlockAddr {
        let mut v = pbn.raw();
        let block = (v % self.blocks_per_plane as u64) as u32;
        v /= self.blocks_per_plane as u64;
        let plane = (v % self.planes as u64) as u32;
        v /= self.planes as u64;
        let die = (v % self.dies as u64) as u32;
        v /= self.dies as u64;
        let way = (v % self.ways as u64) as u32;
        v /= self.ways as u64;
        let channel = v as u32;
        BlockAddr {
            channel,
            way,
            die,
            plane,
            block,
        }
    }

    /// The [`Pbn`] containing a given [`Ppn`].
    pub fn pbn_of(&self, ppn: Ppn) -> Pbn {
        Pbn::new(ppn.raw() / self.pages_per_block as u64)
    }

    /// The [`Ppn`] of `page` within block `pbn`.
    pub fn ppn_in_block(&self, pbn: Pbn, page: u32) -> Ppn {
        debug_assert!(page < self.pages_per_block);
        Ppn::new(pbn.raw() * self.pages_per_block as u64 + page as u64)
    }

    /// Every [`Ppn`] of block `pbn`, in page order — the enumeration an
    /// erase touches (shadow-model and invariant checkers walk this).
    pub fn block_ppns(&self, pbn: Pbn) -> impl Iterator<Item = Ppn> {
        let base = pbn.raw() * self.pages_per_block as u64;
        (0..self.pages_per_block as u64).map(move |p| Ppn::new(base + p))
    }

    /// Dense plane-unit index of the plane containing `pbn`: the bucket a
    /// per-plane free list or page-conservation account lives in
    /// (channel-major, then way, die, plane).
    pub fn plane_unit_of(&self, pbn: Pbn) -> usize {
        (pbn.raw() / self.blocks_per_plane as u64) as usize
    }
}

impl Default for Geometry {
    /// The scaled experiment geometry ([`Geometry::scaled`]).
    fn default() -> Self {
        Geometry::scaled()
    }
}

/// Error returned by [`Geometry::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A dimension was zero.
    ZeroDimension(&'static str),
    /// The device has this many pages, at least [`Geometry::MAX_PAGES`].
    TooManyPages(u128),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::ZeroDimension(d) => write!(f, "geometry dimension `{d}` is zero"),
            GeometryError::TooManyPages(pages) => write!(
                f,
                "geometry has {pages} pages; 32-bit page maps hold fewer than {}",
                Geometry::MAX_PAGES
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_capacity() {
        let g = Geometry::paper_table2();
        g.validate().unwrap();
        assert_eq!(g.chip_count(), 64);
        assert_eq!(g.plane_count(), 256);
        // 8*8*1*4*1024*512 pages * 16KB = 2 TiB
        assert_eq!(g.capacity_bytes(), 2u64 << 40);
    }

    #[test]
    fn ppn_roundtrip_exhaustive_tiny() {
        let g = Geometry::tiny();
        for raw in 0..g.page_count() {
            let ppn = Ppn::new(raw);
            let addr = g.page_addr(ppn);
            assert_eq!(g.ppn(addr), ppn);
        }
    }

    #[test]
    fn ppn_ordering_is_page_major() {
        let g = Geometry::tiny();
        let a = g.ppn(PageAddr {
            channel: 0,
            way: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 0,
        });
        let b = g.ppn(PageAddr {
            channel: 0,
            way: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 1,
        });
        assert_eq!(b.raw(), a.raw() + 1);
    }

    #[test]
    fn pbn_of_strips_page() {
        let g = Geometry::tiny();
        let addr = PageAddr {
            channel: 1,
            way: 1,
            die: 0,
            plane: 1,
            block: 3,
            page: 7,
        };
        let ppn = g.ppn(addr);
        let pbn = g.pbn_of(ppn);
        assert_eq!(g.block_addr(pbn), addr.block_addr());
        assert_eq!(g.ppn_in_block(pbn, 7), ppn);
    }

    #[test]
    fn block_ppns_covers_exactly_the_block() {
        let g = Geometry::tiny();
        let pbn = Pbn::new(5);
        let ppns: Vec<Ppn> = g.block_ppns(pbn).collect();
        assert_eq!(ppns.len(), g.pages_per_block as usize);
        for (i, &ppn) in ppns.iter().enumerate() {
            assert_eq!(g.pbn_of(ppn), pbn);
            assert_eq!(g.page_addr(ppn).page, i as u32);
        }
    }

    #[test]
    fn plane_unit_of_is_dense_and_channel_major() {
        let g = Geometry::tiny();
        let mut last = 0usize;
        for raw in 0..g.block_count() {
            let unit = g.plane_unit_of(Pbn::new(raw));
            assert!(unit < g.plane_count() as usize);
            assert!(unit >= last || unit == last);
            last = unit;
        }
        assert_eq!(
            g.plane_unit_of(Pbn::new(g.block_count() - 1)),
            g.plane_count() as usize - 1
        );
    }

    #[test]
    fn validate_refuses_page_counts_past_the_32_bit_maps() {
        Geometry::paper_table2().validate().unwrap();
        let mut g = Geometry::paper_table2();
        // 2^32 pages: one past the largest the maps can number.
        g.blocks_per_plane = 1 << 15;
        assert_eq!(g.page_count(), 1 << 32);
        let err = g.validate().unwrap_err();
        assert_eq!(err, GeometryError::TooManyPages(1 << 32));
        let msg = err.to_string();
        assert!(
            msg.contains("4294967296 pages") && msg.contains("4294967295"),
            "message must name the page count and the limit, got: {msg}"
        );
        // A product beyond u64 is refused the same way, not wrapped.
        let mut huge = g;
        huge.pages_per_block = u32::MAX;
        huge.blocks_per_plane = u32::MAX;
        assert!(matches!(
            huge.validate(),
            Err(GeometryError::TooManyPages(p)) if p > u64::MAX as u128
        ));
        // The largest count below the limit still validates.
        let mut edge = Geometry::tiny();
        (edge.channels, edge.ways, edge.planes) = (1, 1, 1);
        edge.pages_per_block = 65_535;
        edge.blocks_per_plane = 65_537;
        assert_eq!(edge.page_count(), Geometry::MAX_PAGES);
        assert!(edge.validate().is_err());
        edge.blocks_per_plane = 65_536;
        edge.validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_dims() {
        let mut g = Geometry::tiny();
        g.planes = 0;
        assert_eq!(g.validate(), Err(GeometryError::ZeroDimension("planes")));
    }

    #[test]
    fn chip_index_is_row_major() {
        let g = Geometry::paper_table2();
        assert_eq!(g.chip_index(0, 0), 0);
        assert_eq!(g.chip_index(0, 7), 7);
        assert_eq!(g.chip_index(1, 0), 8);
        assert_eq!(g.chip_index(7, 7), 63);
    }

    #[test]
    fn displays_are_informative() {
        let g = Geometry::tiny();
        let a = g.page_addr(Ppn::new(5));
        assert!(a.to_string().starts_with('c'));
        assert_eq!(Ppn::new(5).to_string(), "ppn5");
        assert_eq!(Pbn::new(2).to_string(), "pbn2");
    }
}
