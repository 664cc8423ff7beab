//! The Omnibus topology (§V): a 2D bus organization for pnSSD.
//!
//! Every chip sits on one *horizontal* channel (its row — the conventional
//! flash bus, always controller-attached) and one *vertical* channel (its
//! column). Each flash channel controller uses the pin bandwidth freed by
//! packetization to additionally drive exactly one v-channel, producing a
//! *split* architecture: controllers are the control plane, chips and
//! channels are the data plane.
//!
//! This module is pure topology math — which paths exist, who owns which
//! v-channel, and how many control-plane messages a transfer needs (Fig 11).
//! Actual channel contention is modeled by the engine with one
//! [`nssd_sim::Resource`] per channel.

use nssd_sim::SimTime;

/// The Omnibus 2D bus topology.
///
/// # Examples
///
/// ```
/// use nssd_interconnect::Omnibus;
///
/// let t = Omnibus::new(8, 8, 8);
/// // The chip in way 5 sits on v-channel 5, which controller 5 drives.
/// assert_eq!(t.v_channel_of_way(5), 5);
/// assert_eq!(t.controller_of_v_channel(5), 5);
/// // Ways 5 and 6 share no v-channel: no direct flash-to-flash copy.
/// assert_eq!(t.f2f_v_channel(5, 6), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Omnibus {
    channels: u32,
    ways: u32,
    controllers: u32,
}

impl Omnibus {
    /// Creates an Omnibus over `channels` rows × `ways` columns with
    /// `controllers` flash channel controllers (normally one per channel).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `controllers != channels` (the
    /// paper's organization pairs one controller with each h-channel).
    pub fn new(channels: u32, ways: u32, controllers: u32) -> Self {
        assert!(channels > 0 && ways > 0 && controllers > 0);
        assert!(
            controllers == channels,
            "each h-channel needs its controller (got {controllers} controllers, {channels} channels)"
        );
        Omnibus {
            channels,
            ways,
            controllers,
        }
    }

    /// Number of horizontal channels (rows).
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Number of ways (columns).
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of controllers.
    pub fn controllers(&self) -> u32 {
        self.controllers
    }

    /// Number of vertical channels. With fewer controllers than ways, each
    /// v-channel interconnects several adjacent columns (§V-E); with more
    /// controllers than ways, the surplus controllers drive no v-channel.
    pub fn v_channel_count(&self) -> u32 {
        self.controllers.min(self.ways)
    }

    /// The v-channel serving column `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn v_channel_of_way(&self, way: u32) -> u32 {
        assert!(way < self.ways, "way {way} out of range ({})", self.ways);
        (way as u64 * self.v_channel_count() as u64 / self.ways as u64) as u32
    }

    /// The controller that owns (drives) v-channel `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn controller_of_v_channel(&self, v: u32) -> u32 {
        assert!(v < self.v_channel_count(), "v-channel {v} out of range");
        v
    }

    /// The v-channel a direct flash-to-flash copy can use, if the two chips
    /// share one (the spatial-GC destination constraint, §VI-A).
    pub fn f2f_v_channel(&self, src_way: u32, dst_way: u32) -> Option<u32> {
        let a = self.v_channel_of_way(src_way);
        let b = self.v_channel_of_way(dst_way);
        (a == b).then_some(a)
    }

    /// Number of SoC control-plane messages (requests + grants) needed to
    /// arbitrate a flash-to-flash transfer from a chip on `src_channel` to a
    /// chip on `dst_channel` over v-channel `v` (Fig 11). Each distinct
    /// controller-to-controller edge on the request path costs one request
    /// and one grant.
    pub fn f2f_handshake_messages(&self, src_channel: u32, dst_channel: u32, v: u32) -> u32 {
        let owner = self.controller_of_v_channel(v);
        let mut edges = 0;
        if src_channel != owner {
            edges += 1;
        }
        if owner != dst_channel {
            edges += 1;
        }
        // Same-controller transfers still exchange one local req/grant pair
        // with the on-die data plane, which we fold into zero SoC messages.
        2 * edges
    }

    /// Number of SoC messages for an *I/O* transfer that rides the
    /// v-channel: the chip's h-channel controller must coordinate with the
    /// v-channel owner (zero if they are the same controller).
    pub fn io_v_handshake_messages(&self, chip_channel: u32, v: u32) -> u32 {
        if chip_channel == self.controller_of_v_channel(v) {
            0
        } else {
            2
        }
    }

    /// Latency of `messages` control-plane messages at `msg_latency` each.
    pub fn handshake_time(&self, messages: u32, msg_latency: SimTime) -> SimTime {
        msg_latency * messages as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_organization_owns_one_v_each() {
        let t = Omnibus::new(8, 8, 8);
        assert_eq!(t.v_channel_count(), 8);
        for w in 0..8 {
            assert_eq!(t.v_channel_of_way(w), w);
            assert_eq!(t.controller_of_v_channel(w), w);
        }
    }

    #[test]
    fn wide_organization_groups_columns() {
        // 4 channels/controllers, 8 ways: each v-channel spans 2 columns.
        let t = Omnibus::new(4, 8, 4);
        assert_eq!(t.v_channel_count(), 4);
        assert_eq!(t.v_channel_of_way(0), 0);
        assert_eq!(t.v_channel_of_way(1), 0);
        assert_eq!(t.v_channel_of_way(2), 1);
        assert_eq!(t.v_channel_of_way(7), 3);
    }

    #[test]
    fn tall_organization_leaves_idle_controllers() {
        // 8 channels, 4 ways: only 4 v-channels exist.
        let t = Omnibus::new(8, 4, 8);
        assert_eq!(t.v_channel_count(), 4);
        assert_eq!(t.v_channel_of_way(3), 3);
    }

    #[test]
    fn f2f_requires_shared_v_channel() {
        let t = Omnibus::new(8, 8, 8);
        assert_eq!(t.f2f_v_channel(3, 3), Some(3));
        assert_eq!(t.f2f_v_channel(3, 4), None);
        let grouped = Omnibus::new(4, 8, 4);
        // Ways 0 and 1 share v-channel 0 in the grouped organization.
        assert_eq!(grouped.f2f_v_channel(0, 1), Some(0));
    }

    #[test]
    fn handshake_message_counts_match_fig11() {
        let t = Omnibus::new(8, 8, 8);
        // (a) source owns the v-channel: one req/grant pair with the dest.
        assert_eq!(t.f2f_handshake_messages(0, 1, 0), 2);
        // (b) destination owns the v-channel: symmetric.
        assert_eq!(t.f2f_handshake_messages(2, 0, 0), 2);
        // (c) intermediate owner: request relayed C2→C0→C3, grants back.
        assert_eq!(t.f2f_handshake_messages(2, 3, 0), 4);
        // Entirely local.
        assert_eq!(t.f2f_handshake_messages(0, 0, 0), 0);
    }

    #[test]
    fn io_handshake_free_on_own_column() {
        let t = Omnibus::new(8, 8, 8);
        assert_eq!(t.io_v_handshake_messages(3, 3), 0);
        assert_eq!(t.io_v_handshake_messages(2, 3), 2);
        assert_eq!(
            t.handshake_time(2, SimTime::from_ns(100)),
            SimTime::from_ns(200)
        );
    }

    #[test]
    #[should_panic(expected = "controller")]
    fn controller_channel_mismatch_rejected() {
        let _ = Omnibus::new(8, 8, 4);
    }

    #[test]
    fn non_divisible_ways_spread_evenly_and_monotonically() {
        // 3 controllers over 8 ways: groups are contiguous, monotone, and
        // every v-channel serves at least one column.
        let t = Omnibus::new(3, 8, 3);
        assert_eq!(t.v_channel_count(), 3);
        let groups: Vec<u32> = (0..8).map(|w| t.v_channel_of_way(w)).collect();
        assert_eq!(groups, [0, 0, 0, 1, 1, 1, 2, 2]);
        for pair in groups.windows(2) {
            assert!(pair[0] <= pair[1], "grouping must be monotone: {groups:?}");
        }
        for v in 0..3 {
            assert!(groups.contains(&v), "v-channel {v} serves no column");
        }
    }

    #[test]
    fn f2f_on_non_divisible_grouping() {
        let t = Omnibus::new(3, 8, 3);
        // Within one column group: direct copy possible.
        assert_eq!(t.f2f_v_channel(0, 2), Some(0));
        assert_eq!(t.f2f_v_channel(6, 7), Some(2));
        // Across the uneven group boundary: staged through the controller.
        assert_eq!(t.f2f_v_channel(2, 3), None);
        assert_eq!(t.f2f_v_channel(5, 6), None);
    }

    #[test]
    fn single_controller_degenerate_case() {
        // One channel, one controller, several ways: every column shares
        // the single v-channel and every handshake is controller-local.
        let t = Omnibus::new(1, 4, 1);
        assert_eq!(t.v_channel_count(), 1);
        for w in 0..4 {
            assert_eq!(t.v_channel_of_way(w), 0);
        }
        for (a, b) in [(0, 1), (0, 3), (2, 2)] {
            assert_eq!(t.f2f_v_channel(a, b), Some(0));
        }
        // The lone controller is source, destination, and owner at once:
        // no SoC messages are exchanged.
        assert_eq!(t.f2f_handshake_messages(0, 0, 0), 0);
        assert_eq!(t.io_v_handshake_messages(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn way_out_of_range_rejected() {
        let t = Omnibus::new(3, 8, 3);
        let _ = t.v_channel_of_way(8);
    }
}
