//! NoSSD comparison topology: a 2D mesh of flash chips (Tavakkol et al.,
//! CAL 2012 [38]), reproduced as the paper's comparison point.
//!
//! Chips form a `rows × cols` mesh (rows = ways, cols = channels). The flash
//! channel controllers sit on the top edge, controller `c` attaching to node
//! `(0, c)` through an injection/ejection link pair. Packets use XY
//! dimension-order routing (X across row, then Y down the column), which is
//! deadlock-free. Links are unidirectional; the engine gives each
//! [`LinkId`] its own [`nssd_sim::Resource`].

use nssd_sim::SimTime;

use crate::BusParams;

/// A mesh endpoint: either a controller on the top edge or a chip node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeshEndpoint {
    /// Controller `c`, attached above node `(0, c)`.
    Controller(u32),
    /// The chip at `(row, col)`.
    Chip {
        /// Row (way) index.
        row: u32,
        /// Column (channel) index.
        col: u32,
    },
}

/// A directed mesh link, identified by a dense index (see [`Mesh::link_count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Physical parameters of the NoSSD mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshParams {
    /// Per-link bus parameters.
    pub link: BusParams,
    /// Router traversal latency added per hop.
    pub hop_latency: SimTime,
}

impl MeshParams {
    /// Pin-constrained NoSSD: the chip's ~8 data pins split across 4
    /// bidirectional mesh ports → 2-bit links (§VII-A).
    pub const fn pin_constrained() -> Self {
        MeshParams {
            link: BusParams {
                mega_transfers: 1000,
                width_bits: 2,
            },
            hop_latency: SimTime::from_ns(5),
        }
    }

    /// Unconstrained NoSSD: every link kept at the full 8-bit width the
    /// baseline bus enjoys (physically unrealizable; upper bound).
    pub const fn unconstrained() -> Self {
        MeshParams {
            link: BusParams {
                mega_transfers: 1000,
                width_bits: 8,
            },
            hop_latency: SimTime::from_ns(5),
        }
    }
}

/// A `rows × cols` mesh with top-edge controllers and XY routing.
///
/// # Examples
///
/// ```
/// use nssd_interconnect::{Mesh, MeshEndpoint};
///
/// let m = Mesh::new(8, 8);
/// let path = m.route(
///     MeshEndpoint::Controller(2),
///     MeshEndpoint::Chip { row: 3, col: 2 },
/// );
/// // injection + 3 vertical hops, no horizontal detour
/// assert_eq!(path.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    rows: u32,
    cols: u32,
}

impl Mesh {
    /// Creates a mesh of `rows × cols` chips.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be nonzero");
        Mesh { rows, cols }
    }

    /// Rows (ways).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Columns (channels / controllers).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total number of directed links:
    /// `cols` injection + `cols` ejection + 2·vertical + 2·horizontal.
    pub fn link_count(&self) -> usize {
        let vertical = (self.rows - 1) * self.cols;
        let horizontal = self.rows * (self.cols - 1);
        (2 * self.cols + 2 * vertical + 2 * horizontal) as usize
    }

    fn inject(&self, c: u32) -> LinkId {
        LinkId(c as usize)
    }

    fn eject(&self, c: u32) -> LinkId {
        LinkId((self.cols + c) as usize)
    }

    /// Link from `(r, c)` to `(r+1, c)`.
    fn v_down(&self, r: u32, c: u32) -> LinkId {
        debug_assert!(r + 1 < self.rows);
        LinkId((2 * self.cols + r * self.cols + c) as usize)
    }

    /// Link from `(r+1, c)` to `(r, c)`.
    fn v_up(&self, r: u32, c: u32) -> LinkId {
        debug_assert!(r + 1 < self.rows);
        let base = 2 * self.cols + (self.rows - 1) * self.cols;
        LinkId((base + r * self.cols + c) as usize)
    }

    /// Link from `(r, c)` to `(r, c+1)`.
    fn h_right(&self, r: u32, c: u32) -> LinkId {
        debug_assert!(c + 1 < self.cols);
        let base = 2 * self.cols + 2 * (self.rows - 1) * self.cols;
        LinkId((base + r * (self.cols - 1) + c) as usize)
    }

    /// Link from `(r, c+1)` to `(r, c)`.
    fn h_left(&self, r: u32, c: u32) -> LinkId {
        debug_assert!(c + 1 < self.cols);
        let base = 2 * self.cols + 2 * (self.rows - 1) * self.cols + self.rows * (self.cols - 1);
        LinkId((base + r * (self.cols - 1) + c) as usize)
    }

    fn x_route(&self, row: u32, from: u32, to: u32, visit: &mut impl FnMut(LinkId)) {
        if from <= to {
            for c in from..to {
                visit(self.h_right(row, c));
            }
        } else {
            for c in (to..from).rev() {
                visit(self.h_left(row, c));
            }
        }
    }

    fn y_route(&self, col: u32, from: u32, to: u32, visit: &mut impl FnMut(LinkId)) {
        if from <= to {
            for r in from..to {
                visit(self.v_down(r, col));
            }
        } else {
            for r in (to..from).rev() {
                visit(self.v_up(r, col));
            }
        }
    }

    /// Walks the XY route between two endpoints, calling `visit` on each
    /// directed link in traversal order. Allocation-free, so the engine can
    /// route every packet on its hot path.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or both endpoints are
    /// controllers (controller-to-controller traffic rides the SoC, not the
    /// mesh).
    pub fn for_each_link(
        &self,
        src: MeshEndpoint,
        dst: MeshEndpoint,
        mut visit: impl FnMut(LinkId),
    ) {
        match (src, dst) {
            (MeshEndpoint::Controller(c), MeshEndpoint::Chip { row, col }) => {
                assert!(c < self.cols && row < self.rows && col < self.cols);
                visit(self.inject(c));
                self.x_route(0, c, col, &mut visit);
                self.y_route(col, 0, row, &mut visit);
            }
            (MeshEndpoint::Chip { row, col }, MeshEndpoint::Controller(c)) => {
                assert!(c < self.cols && row < self.rows && col < self.cols);
                // X along the chip's row toward the controller's column,
                // then Y up to the edge, then eject.
                self.x_route(row, col, c, &mut visit);
                self.y_route(c, row, 0, &mut visit);
                visit(self.eject(c));
            }
            (MeshEndpoint::Chip { row, col }, MeshEndpoint::Chip { row: r2, col: c2 }) => {
                assert!(row < self.rows && col < self.cols && r2 < self.rows && c2 < self.cols);
                self.x_route(row, col, c2, &mut visit);
                self.y_route(c2, row, r2, &mut visit);
            }
            (MeshEndpoint::Controller(_), MeshEndpoint::Controller(_)) => {
                panic!("controller-to-controller traffic does not use the mesh")
            }
        }
    }

    /// The XY route between two endpoints, as the ordered list of directed
    /// links traversed (see [`Mesh::for_each_link`]).
    ///
    /// # Panics
    ///
    /// As [`Mesh::for_each_link`].
    pub fn route(&self, src: MeshEndpoint, dst: MeshEndpoint) -> Vec<LinkId> {
        let mut path = Vec::new();
        self.for_each_link(src, dst, |l| path.push(l));
        path
    }

    /// Hop count of the XY route (number of links traversed).
    pub fn hops(&self, src: MeshEndpoint, dst: MeshEndpoint) -> usize {
        self.route(src, dst).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn link_count_for_8x8() {
        let m = Mesh::new(8, 8);
        // 8 inject + 8 eject + 2*56 vertical + 2*56 horizontal = 240.
        assert_eq!(m.link_count(), 240);
    }

    #[test]
    fn all_link_ids_dense_and_unique() {
        let m = Mesh::new(4, 3);
        let mut seen = HashSet::new();
        for c in 0..3 {
            seen.insert(m.inject(c));
            seen.insert(m.eject(c));
        }
        for r in 0..3 {
            for c in 0..3 {
                seen.insert(m.v_down(r, c));
                seen.insert(m.v_up(r, c));
            }
        }
        for r in 0..4 {
            for c in 0..2 {
                seen.insert(m.h_right(r, c));
                seen.insert(m.h_left(r, c));
            }
        }
        assert_eq!(seen.len(), m.link_count());
        assert!(seen.iter().all(|l| l.0 < m.link_count()));
    }

    #[test]
    fn vertical_only_route_for_own_column() {
        let m = Mesh::new(8, 8);
        let path = m.route(
            MeshEndpoint::Controller(3),
            MeshEndpoint::Chip { row: 5, col: 3 },
        );
        assert_eq!(path.len(), 1 + 5); // inject + 5 down hops
    }

    #[test]
    fn xy_route_with_detour() {
        let m = Mesh::new(8, 8);
        let path = m.route(
            MeshEndpoint::Controller(0),
            MeshEndpoint::Chip { row: 2, col: 4 },
        );
        // inject + 4 horizontal + 2 vertical
        assert_eq!(path.len(), 7);
    }

    #[test]
    fn return_route_ends_with_ejection() {
        let m = Mesh::new(8, 8);
        let path = m.route(
            MeshEndpoint::Chip { row: 2, col: 4 },
            MeshEndpoint::Controller(4),
        );
        assert_eq!(path.len(), 3); // 2 up + eject
        assert_eq!(*path.last().unwrap(), m.eject(4));
    }

    #[test]
    fn chip_to_chip_route() {
        let m = Mesh::new(8, 8);
        let path = m.route(
            MeshEndpoint::Chip { row: 1, col: 1 },
            MeshEndpoint::Chip { row: 3, col: 6 },
        );
        assert_eq!(path.len(), 5 + 2);
    }

    #[test]
    fn zero_hop_chip_to_itself() {
        let m = Mesh::new(4, 4);
        let p = m.route(
            MeshEndpoint::Chip { row: 1, col: 1 },
            MeshEndpoint::Chip { row: 1, col: 1 },
        );
        assert!(p.is_empty());
    }

    #[test]
    fn pin_constraint_quarters_link_width() {
        let pc = MeshParams::pin_constrained();
        let un = MeshParams::unconstrained();
        assert_eq!(pc.link.width_bits * 4, un.link.width_bits);
        // 16 KB on a 2-bit link takes 4x the 8-bit time.
        assert_eq!(
            pc.link.payload_time(16 * 1024),
            un.link.payload_time(16 * 1024) * 4
        );
    }

    #[test]
    #[should_panic(expected = "controller-to-controller")]
    fn controller_pair_rejected() {
        Mesh::new(2, 2).route(MeshEndpoint::Controller(0), MeshEndpoint::Controller(1));
    }
}
