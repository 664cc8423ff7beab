//! Host interface model for the Networked SSD reproduction.
//!
//! * [`IoRequest`]/[`IoOp`]/[`RequestId`] — the block-level request model
//!   every workload produces and the engine consumes.
//! * [`HostParams`]/[`HostPipes`] — the NVMe/PCIe link, SoC system bus and
//!   internal DRAM as bandwidth pipes, provisioned per Table II.
//! * [`HostFrontend`]/[`SchedulerKind`]/[`TenantConfig`] — the NVMe-style
//!   multi-tenant submission layer: weighted per-tenant queues, SLO
//!   classes, and one of three arbitration policies (round-robin, strict
//!   priority, weighted-fair).
//!
//! ```
//! use nssd_host::{HostParams, HostPipes, IoOp, IoRequest};
//! use nssd_sim::SimTime;
//!
//! let req = IoRequest::new(IoOp::Write, 0, 64 * 1024, SimTime::ZERO);
//! let mut pipes = HostPipes::new(HostParams::table2());
//! let landed = pipes.inbound(req.at, req.len as u64, 0);
//! assert!(landed.end > req.at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipes;
mod qos;
mod request;

pub use pipes::{HostParams, HostPipes};
pub use qos::{HostFrontend, SchedulerKind, SloClass, TenantConfig};
pub use request::{IoOp, IoRequest, RequestId};

#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    8192
} else {
    256
};

#[cfg(test)]
mod proptests {
    use super::*;
    use nssd_sim::{DetRng, Rng, SimTime};

    #[test]
    fn page_span_covers_request() {
        let mut rng = DetRng::seed_from_u64(0x5BA2);
        for _ in 0..CASES {
            let offset = rng.gen_range(0..1_000_000_000u64);
            let len = rng.gen_range(1..1_000_000u64) as u32;
            let r = IoRequest::new(IoOp::Read, offset, len, SimTime::ZERO);
            let page = 16 * 1024u32;
            let (first, count) = r.page_span(page);
            let span_start = first * page as u64;
            let span_end = (first + count as u64) * page as u64;
            assert!(span_start <= offset);
            assert!(span_end >= offset + len as u64);
            // Minimal cover: dropping the last page would expose bytes.
            assert!(span_end - (page as u64) < offset + len as u64);
            if count > 1 {
                assert!(span_start + page as u64 > offset);
            }
        }
    }
}
