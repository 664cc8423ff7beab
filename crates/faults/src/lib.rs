//! Deterministic fault injection for the Networked SSD reproduction.
//!
//! The paper evaluates an *ideal* device: error-free flash, error-free
//! wires. This crate adds the reliability dimension so the interconnect
//! comparison can also be read as a *fault-tolerance* comparison:
//!
//! * [`BitErrorConfig`] — raw bit errors in the flash array, scaling with
//!   P/E cycles and retention age, corrected by a tiered ECC model
//!   (fast hard-decision decode → soft decode → read retry → uncorrectable).
//! * [`LinkFaultConfig`] — bit errors on the wires. Packetized links
//!   (pSSD/Omnibus) carry a CRC, so corruption is *detected* and repaired by
//!   NAK + retransmission at a bandwidth cost; the dedicated-signal baseline
//!   has no frame check at all, so the same corruption passes silently.
//! * [`BadBlockConfig`] — manufacture-time and grown bad blocks, retired
//!   from the free pool with spare capacity absorbing the loss.
//! * [`ChipFailureSpec`] — a fail-stop whole-chip event; the chip's live
//!   data is served by parity reconstruction when parity is configured and
//!   lost otherwise, and the device continues degraded.
//!
//! Everything is driven by one seed ([`FaultConfig::seed`]) through a
//! dedicated [`DetRng`] stream, so a fault schedule is a pure function of
//! the configuration: the simulator's own RNG stream is never touched, and
//! an all-zero-rate configuration draws no randomness and costs no time.
//!
//! ```
//! use nssd_faults::{FaultConfig, FaultEngine};
//! use nssd_sim::SimTime;
//!
//! let mut cfg = FaultConfig::off();
//! cfg.bit_error.rber = 1e-4;
//! let mut eng = FaultEngine::new(cfg);
//! let fault = eng.page_read(16 * 1024 * 8, 0, SimTime::ZERO);
//! // 16 KiB at RBER 1e-4 averages ~13 raw bit errors: correctable, though
//! // possibly only after soft decode or a retry sense.
//! assert!(!fault.uncorrectable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use nssd_sim::{CkptError, CkptReader, CkptWriter, DetRng, Rng, SimTime};

/// Raw-bit-error and ECC-tier parameters for flash array reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitErrorConfig {
    /// Raw bit error rate of a fresh, freshly-programmed page.
    pub rber: f64,
    /// Additional RBER per P/E cycle of the page's block (wear-induced).
    pub pe_cycle_slope: f64,
    /// Additional RBER per second of retention (time since program).
    pub retention_slope: f64,
    /// Bit errors the fast hard-decision decoder corrects for free (its
    /// latency is part of the baseline read path).
    pub fast_correct_bits: u32,
    /// Bit errors the soft-decision decoder corrects, at the cost of
    /// [`BitErrorConfig::soft_decode`] extra latency.
    pub soft_correct_bits: u32,
    /// Extra decode latency when the soft tier is needed.
    pub soft_decode: SimTime,
    /// Maximum read-retry senses (each re-reads the array with shifted
    /// reference voltages, costing one full tR).
    pub max_read_retries: u32,
    /// Multiplier applied to the effective RBER per retry sense; must be in
    /// `(0, 1]`. Smaller means each retry is more effective.
    pub retry_attenuation: f64,
}

impl Default for BitErrorConfig {
    /// Zero error rates with realistic ECC-tier shape, so enabling faults
    /// only requires setting `rber` (and optionally the slopes).
    fn default() -> Self {
        BitErrorConfig {
            rber: 0.0,
            pe_cycle_slope: 0.0,
            retention_slope: 0.0,
            fast_correct_bits: 16,
            soft_correct_bits: 48,
            soft_decode: SimTime::from_us(10),
            max_read_retries: 8,
            retry_attenuation: 0.5,
        }
    }
}

impl BitErrorConfig {
    fn enabled(&self) -> bool {
        self.rber > 0.0 || self.pe_cycle_slope > 0.0 || self.retention_slope > 0.0
    }
}

/// Wire bit-error parameters for chip-to-controller and chip-to-chip links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultConfig {
    /// Bit error rate on the wire. A data transfer of `n` bits is corrupted
    /// with probability `1 - (1 - ber)^n`.
    pub ber: f64,
    /// Maximum retransmissions of one packet before giving up.
    pub max_retries: u32,
    /// Wire/controller time to signal a NAK after a failed CRC check.
    pub nak: SimTime,
    /// Back-off before the retransmission begins.
    pub backoff: SimTime,
    /// Optional exponential back-off: retransmission `n` waits
    /// `backoff × multiplier^(n-1)` instead of a constant `backoff`. Must
    /// be strictly greater than 1.0 when set.
    pub backoff_multiplier: Option<f64>,
}

impl Default for LinkFaultConfig {
    fn default() -> Self {
        LinkFaultConfig {
            ber: 0.0,
            max_retries: 8,
            nak: SimTime::from_ns(100),
            backoff: SimTime::from_ns(200),
            backoff_multiplier: None,
        }
    }
}

impl LinkFaultConfig {
    /// The dead time between a failed attempt and retransmission `attempt`
    /// (1-based): NAK signalling plus the (possibly exponentially growing)
    /// back-off.
    pub fn retry_gap(&self, attempt: u32) -> SimTime {
        match self.backoff_multiplier {
            Some(m) => {
                let scaled = self.backoff.as_ns() as f64 * m.powi(attempt.saturating_sub(1) as i32);
                self.nak + SimTime::from_ns(scaled.round() as u64)
            }
            None => self.nak + self.backoff,
        }
    }
}

/// Bad-block model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BadBlockConfig {
    /// Probability any given block is factory-bad (retired before first
    /// use); real NAND data sheets allow up to ~2%.
    pub manufacture_rate: f64,
    /// Probability an erase grows a new bad block (the erase fails and the
    /// block is retired instead of freed).
    pub grown_rate: f64,
}

/// A scheduled fail-stop failure of one flash chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipFailureSpec {
    /// Channel (column) of the failing chip.
    pub channel: u32,
    /// Way (row) of the failing chip.
    pub way: u32,
    /// Simulated time at which the chip fails.
    pub at: SimTime,
}

/// Complete fault-injection configuration.
///
/// The default ([`FaultConfig::off`]) has every rate at zero and injects
/// nothing; the simulator's behavior is then bit-identical to a build
/// without fault hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the dedicated fault RNG stream (independent of the
    /// simulator seed, so enabling faults never perturbs workload or GC
    /// randomness).
    pub seed: u64,
    /// Flash array bit-error model.
    pub bit_error: BitErrorConfig,
    /// Wire bit-error model.
    pub link: LinkFaultConfig,
    /// Bad-block model.
    pub bad_blocks: BadBlockConfig,
    /// Optional scheduled chip failure.
    pub chip_failure: Option<ChipFailureSpec>,
}

impl FaultConfig {
    /// No injected faults at all.
    pub fn off() -> Self {
        FaultConfig {
            seed: 0xFA17,
            bit_error: BitErrorConfig::default(),
            link: LinkFaultConfig::default(),
            bad_blocks: BadBlockConfig::default(),
            chip_failure: None,
        }
    }

    /// Whether any fault source is enabled.
    pub fn is_active(&self) -> bool {
        self.bit_error.enabled()
            || self.link.ber > 0.0
            || self.bad_blocks.manufacture_rate > 0.0
            || self.bad_blocks.grown_rate > 0.0
            || self.chip_failure.is_some()
    }

    /// Validates every field range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let be = &self.bit_error;
        if !(0.0..=1e-2).contains(&be.rber) {
            return Err("bit_error.rber must be in [0, 1e-2]".into());
        }
        // A NaN slope, or an infinite one times zero cycles or zero
        // retention, makes the effective RBER NaN, and sampling errors at a
        // NaN mean never terminates.
        for (name, slope) in [
            ("pe_cycle_slope", be.pe_cycle_slope),
            ("retention_slope", be.retention_slope),
        ] {
            if !(slope.is_finite() && slope >= 0.0) {
                return Err(format!(
                    "bit_error.{name} must be finite and non-negative, got {slope}"
                ));
            }
        }
        if be.fast_correct_bits > be.soft_correct_bits {
            return Err("fast_correct_bits must not exceed soft_correct_bits".into());
        }
        if !(0.0..=1.0).contains(&be.retry_attenuation) || be.retry_attenuation == 0.0 {
            return Err("retry_attenuation must be in (0, 1]".into());
        }
        if !(0.0..=1e-3).contains(&self.link.ber) {
            return Err("link.ber must be in [0, 1e-3]".into());
        }
        if self.link.max_retries > 64 {
            return Err("link.max_retries must be at most 64".into());
        }
        if let Some(m) = self.link.backoff_multiplier {
            if !m.is_finite() || m <= 1.0 {
                return Err("link.backoff_multiplier must be in (1.0, ..)".into());
            }
        }
        if !(0.0..=0.05).contains(&self.bad_blocks.manufacture_rate) {
            return Err("bad_blocks.manufacture_rate must be in [0, 0.05]".into());
        }
        if !(0.0..=0.01).contains(&self.bad_blocks.grown_rate) {
            return Err("bad_blocks.grown_rate must be in [0, 0.01]".into());
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// The fault outcome of one page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadFault {
    /// Extra array senses needed (each costs one tR on the plane).
    pub extra_senses: u32,
    /// Whether the soft-decode tier was needed on the final sense.
    pub soft_decode: bool,
    /// Whether the page stayed uncorrectable after every retry.
    pub uncorrectable: bool,
}

impl ReadFault {
    /// A clean read: no retries, no soft decode, correctable.
    pub const NONE: ReadFault = ReadFault {
        extra_senses: 0,
        soft_decode: false,
        uncorrectable: false,
    };
}

/// The fault outcome of one CRC-checked link transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutcome {
    /// Total transmissions (1 = no retransmission).
    pub attempts: u32,
    /// Whether the payload was eventually delivered intact.
    pub delivered: bool,
}

impl LinkOutcome {
    /// A clean first-attempt delivery.
    pub const CLEAN: LinkOutcome = LinkOutcome {
        attempts: 1,
        delivered: true,
    };
}

/// Cumulative reliability counters, reported in the simulation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReliabilityStats {
    /// Extra array senses forced by raw bit errors.
    pub read_retries: u64,
    /// Reads that needed the soft-decision ECC tier.
    pub soft_decodes: u64,
    /// Reads left uncorrectable after every retry.
    pub uncorrectable_reads: u64,
    /// Packet retransmissions on CRC-protected links.
    pub retransmissions: u64,
    /// Transfers abandoned after the retransmission budget.
    pub unrecovered_transfers: u64,
    /// Corrupted transfers on links *without* a frame check (the
    /// dedicated-signal baseline): delivered as if intact.
    pub silent_corruptions: u64,
    /// Blocks retired as factory-bad at build time.
    pub bad_blocks_manufacture: u64,
    /// Blocks retired by grown (erase-failure) defects.
    pub grown_bad_blocks: u64,
    /// Whole-chip failure events handled.
    pub chip_failures: u64,
    /// Live pages lost with a failed chip that had no parity protection.
    pub pages_lost: u64,
    /// Bytes physically moved over CRC-protected links, retransmissions
    /// included.
    pub raw_link_bytes: u64,
    /// Bytes of useful payload delivered over CRC-protected links.
    pub effective_link_bytes: u64,
    /// Live pages left mapped on a dead chip under parity redundancy,
    /// served by reconstruction until rebuild re-places them.
    pub pages_degraded: u64,
    /// Host reads served by parity reconstruction from surviving stripe
    /// members.
    pub reconstructed_reads: u64,
    /// Pages the background rebuild re-placed onto spare capacity.
    pub rebuild_pages: u64,
    /// Requests completed with a host-visible I/O error (link-retry
    /// exhaustion, or reads of pages lost with a failed chip).
    pub host_io_errors: u64,
}

impl ReliabilityStats {
    /// Whether any fault event was recorded.
    pub fn any_events(&self) -> bool {
        *self != ReliabilityStats::default()
    }

    /// Effective/raw link-byte ratio: 1.0 means no retransmission overhead.
    /// Returns 1.0 when no CRC-protected bytes moved.
    pub fn link_efficiency(&self) -> f64 {
        if self.raw_link_bytes == 0 {
            1.0
        } else {
            self.effective_link_bytes as f64 / self.raw_link_bytes as f64
        }
    }
}

impl fmt::Display for ReliabilityStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries={} soft={} uncorrectable={} retx={} unrecovered={} io_err={} silent={} \
             bad(mfg/grown)={}/{} chip_fail={} lost={} degraded={} \
             reconstructed={} rebuilt={} link_eff={:.4}",
            self.read_retries,
            self.soft_decodes,
            self.uncorrectable_reads,
            self.retransmissions,
            self.unrecovered_transfers,
            self.host_io_errors,
            self.silent_corruptions,
            self.bad_blocks_manufacture,
            self.grown_bad_blocks,
            self.chip_failures,
            self.pages_lost,
            self.pages_degraded,
            self.reconstructed_reads,
            self.rebuild_pages,
            self.link_efficiency(),
        )
    }
}

/// Above this Poisson mean the sampler short-circuits to the mean itself:
/// the error count is then far beyond any ECC tier, and Knuth's product
/// method would underflow.
const POISSON_EXACT_LIMIT: f64 = 200.0;

/// Knuth Poisson sampler (exact for small means, mean-valued beyond
/// [`POISSON_EXACT_LIMIT`]).
fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > POISSON_EXACT_LIMIT {
        return mean.round() as u64;
    }
    let threshold = (-mean).exp();
    let mut k = 0u64;
    let mut product = 1.0f64;
    loop {
        product *= rng.next_f64();
        if product <= threshold {
            return k;
        }
        k += 1;
    }
}

/// The stateful fault injector: owns the dedicated RNG stream and the
/// reliability counters.
///
/// When the configuration injects nothing ([`FaultConfig::is_active`] is
/// false) every hook returns its clean outcome immediately without drawing
/// randomness, so disabled fault support is exactly free.
#[derive(Debug, Clone)]
pub struct FaultEngine {
    cfg: FaultConfig,
    active: bool,
    rng: DetRng,
    stats: ReliabilityStats,
}

impl FaultEngine {
    /// Builds an engine for `cfg`; the RNG stream is seeded from
    /// [`FaultConfig::seed`] alone.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultEngine {
            active: cfg.is_active(),
            rng: DetRng::seed_from_u64(cfg.seed),
            stats: ReliabilityStats::default(),
            cfg,
        }
    }

    /// Whether any fault source is enabled.
    pub fn active(&self) -> bool {
        self.active
    }

    /// The configuration in use.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ReliabilityStats {
        self.stats
    }

    /// Mutable access to the dedicated fault RNG stream (for fault-driven
    /// decisions made outside the engine, e.g. factory bad-block marking).
    pub fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Effective RBER of a page given its block's wear and retention age.
    pub fn effective_rber(&self, pe_cycles: u32, retention: SimTime) -> f64 {
        let be = &self.cfg.bit_error;
        (be.rber
            + be.pe_cycle_slope * pe_cycles as f64
            + be.retention_slope * retention.as_secs_f64())
        .clamp(0.0, 0.5)
    }

    /// Samples the fault outcome of reading one page of `page_bits` bits
    /// from a block with `pe_cycles` erases, `retention` after its program.
    ///
    /// Models a sense ladder: the raw error count is drawn per sense; if it
    /// exceeds the soft-decode tier, the page is re-sensed with shifted
    /// reference voltages (attenuating the effective RBER) up to the retry
    /// budget, after which the read is uncorrectable.
    pub fn page_read(&mut self, page_bits: u64, pe_cycles: u32, retention: SimTime) -> ReadFault {
        if !self.active || !self.cfg.bit_error.enabled() {
            return ReadFault::NONE;
        }
        let be = self.cfg.bit_error;
        let mut mean = self.effective_rber(pe_cycles, retention) * page_bits as f64;
        let mut extra = 0u32;
        loop {
            let errors = poisson(&mut self.rng, mean);
            if errors <= be.fast_correct_bits as u64 {
                return ReadFault {
                    extra_senses: extra,
                    soft_decode: false,
                    uncorrectable: false,
                };
            }
            if errors <= be.soft_correct_bits as u64 {
                self.stats.soft_decodes += 1;
                return ReadFault {
                    extra_senses: extra,
                    soft_decode: true,
                    uncorrectable: false,
                };
            }
            if extra >= be.max_read_retries {
                self.stats.uncorrectable_reads += 1;
                return ReadFault {
                    extra_senses: extra,
                    soft_decode: false,
                    uncorrectable: true,
                };
            }
            extra += 1;
            self.stats.read_retries += 1;
            mean *= be.retry_attenuation;
        }
    }

    /// Corruption probability of one `bytes`-long transfer at the link BER.
    pub fn transfer_corruption_prob(&self, bytes: u64) -> f64 {
        let ber = self.cfg.link.ber;
        if ber <= 0.0 {
            return 0.0;
        }
        let bits = (bytes * 8).min(i32::MAX as u64) as i32;
        1.0 - (1.0 - ber).powi(bits)
    }

    /// Samples the outcome of a `bytes`-long transfer over a CRC-protected
    /// (packetized) link, retransmitting on corruption. Updates the
    /// raw/effective byte accounting.
    pub fn crc_transfer(&mut self, bytes: u64) -> LinkOutcome {
        if !self.active || self.cfg.link.ber <= 0.0 {
            return LinkOutcome::CLEAN;
        }
        let p = self.transfer_corruption_prob(bytes);
        let mut attempts = 0u32;
        let delivered = loop {
            attempts += 1;
            if !self.rng.gen_bool(p) {
                break true;
            }
            if attempts > self.cfg.link.max_retries {
                break false;
            }
            self.stats.retransmissions += 1;
        };
        self.stats.raw_link_bytes += bytes * attempts as u64;
        if delivered {
            self.stats.effective_link_bytes += bytes;
        } else {
            self.stats.unrecovered_transfers += 1;
        }
        LinkOutcome {
            attempts,
            delivered,
        }
    }

    /// Samples corruption of a `bytes`-long transfer over a link *without*
    /// any frame check (the dedicated-signal baseline). Returns whether the
    /// data was silently corrupted; either way it is "delivered" and costs
    /// no extra time — the interface cannot even tell.
    pub fn raw_transfer(&mut self, bytes: u64) -> bool {
        if !self.active || self.cfg.link.ber <= 0.0 {
            return false;
        }
        let corrupted = self.rng.gen_bool(self.transfer_corruption_prob(bytes));
        if corrupted {
            self.stats.silent_corruptions += 1;
        }
        corrupted
    }

    /// Whether an erase grows a new bad block (drawn per erase).
    pub fn grown_bad_on_erase(&mut self) -> bool {
        if !self.active || self.cfg.bad_blocks.grown_rate <= 0.0 {
            return false;
        }
        let grown = self.rng.gen_bool(self.cfg.bad_blocks.grown_rate);
        if grown {
            self.stats.grown_bad_blocks += 1;
        }
        grown
    }

    /// Records factory bad blocks marked at build time.
    pub fn note_manufacture_bad(&mut self, count: u64) {
        self.stats.bad_blocks_manufacture += count;
    }

    /// Records the outcome of one handled chip failure.
    pub fn note_chip_failure(&mut self, pages_lost: u64) {
        self.stats.chip_failures += 1;
        self.stats.pages_lost += pages_lost;
    }

    /// Records live pages a redundant chip failure left degraded (mapped on
    /// the dead chip, pending reconstruction).
    pub fn note_pages_degraded(&mut self, count: u64) {
        self.stats.pages_degraded += count;
    }

    /// Records one host read served by parity reconstruction.
    pub fn note_reconstructed_read(&mut self) {
        self.stats.reconstructed_reads += 1;
    }

    /// Records one page the background rebuild re-placed.
    pub fn note_rebuild_page(&mut self) {
        self.stats.rebuild_pages += 1;
    }

    /// Records one request completed with a host-visible I/O error.
    pub fn note_host_io_error(&mut self) {
        self.stats.host_io_errors += 1;
    }

    /// Serializes the mutable injector state: the RNG stream position and
    /// every reliability counter. The configuration (and the `active` flag
    /// derived from it) is not written — restore targets an engine built
    /// from the same [`FaultConfig`].
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        for word in self.rng.state() {
            w.put_u64(word);
        }
        let s = &self.stats;
        for v in [
            s.read_retries,
            s.soft_decodes,
            s.uncorrectable_reads,
            s.retransmissions,
            s.unrecovered_transfers,
            s.silent_corruptions,
            s.bad_blocks_manufacture,
            s.grown_bad_blocks,
            s.chip_failures,
            s.pages_lost,
            s.raw_link_bytes,
            s.effective_link_bytes,
            s.pages_degraded,
            s.reconstructed_reads,
            s.rebuild_pages,
            s.host_io_errors,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores state saved by [`FaultEngine::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.take_u64()?;
        }
        self.rng = DetRng::from_state(state);
        let s = &mut self.stats;
        for field in [
            &mut s.read_retries,
            &mut s.soft_decodes,
            &mut s.uncorrectable_reads,
            &mut s.retransmissions,
            &mut s.unrecovered_transfers,
            &mut s.silent_corruptions,
            &mut s.bad_blocks_manufacture,
            &mut s.grown_bad_blocks,
            &mut s.chip_failures,
            &mut s.pages_lost,
            &mut s.raw_link_bytes,
            &mut s.effective_link_bytes,
            &mut s.pages_degraded,
            &mut s.reconstructed_reads,
            &mut s.rebuild_pages,
            &mut s.host_io_errors,
        ] {
            *field = r.take_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    8192
} else {
    512
};

#[cfg(test)]
mod tests {
    use super::*;

    fn rber_cfg(rber: f64) -> FaultConfig {
        let mut cfg = FaultConfig::off();
        cfg.bit_error.rber = rber;
        cfg
    }

    #[test]
    fn off_config_is_inactive_and_free() {
        let mut eng = FaultEngine::new(FaultConfig::off());
        assert!(!eng.active());
        let before = eng.rng_mut().clone();
        assert_eq!(
            eng.page_read(131_072, 100, SimTime::from_ms(500)),
            ReadFault::NONE
        );
        assert_eq!(eng.crc_transfer(16 * 1024), LinkOutcome::CLEAN);
        assert!(!eng.raw_transfer(16 * 1024));
        assert!(!eng.grown_bad_on_erase());
        // No randomness was drawn and no counter moved.
        assert_eq!(*eng.rng_mut(), before);
        assert!(!eng.stats().any_events());
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let mut cfg = rber_cfg(2e-4);
        cfg.link.ber = 1e-6;
        cfg.bad_blocks.grown_rate = 1e-3;
        let mut a = FaultEngine::new(cfg);
        let mut b = FaultEngine::new(cfg);
        for i in 0..CASES as u64 {
            assert_eq!(
                a.page_read(131_072, (i % 32) as u32, SimTime::from_us(i)),
                b.page_read(131_072, (i % 32) as u32, SimTime::from_us(i)),
            );
            assert_eq!(a.crc_transfer(16 * 1024), b.crc_transfer(16 * 1024));
            assert_eq!(a.grown_bad_on_erase(), b.grown_bad_on_erase());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = DetRng::seed_from_u64(0x9013);
        for &mean in &[0.5f64, 3.0, 20.0, 80.0] {
            let n = CASES as u64 * 4;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let sample_mean = total as f64 / n as f64;
            assert!(
                (sample_mean - mean).abs() < mean.max(1.0) * 0.25,
                "lambda {mean}: sample mean {sample_mean}"
            );
        }
        // The short-circuit regime returns the mean directly.
        assert_eq!(poisson(&mut rng, 1e6), 1_000_000);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn clean_flash_reads_cleanly() {
        let mut eng = FaultEngine::new(rber_cfg(1e-7));
        for _ in 0..CASES {
            // 16 KiB at 1e-7 averages ~0.01 errors: virtually always within
            // the fast tier.
            let f = eng.page_read(131_072, 0, SimTime::ZERO);
            assert!(!f.uncorrectable);
        }
        assert_eq!(eng.stats().uncorrectable_reads, 0);
    }

    #[test]
    fn wear_and_retention_raise_effective_rber() {
        let mut cfg = rber_cfg(1e-5);
        cfg.bit_error.pe_cycle_slope = 1e-6;
        cfg.bit_error.retention_slope = 1e-5;
        let eng = FaultEngine::new(cfg);
        let fresh = eng.effective_rber(0, SimTime::ZERO);
        let worn = eng.effective_rber(1000, SimTime::ZERO);
        let aged = eng.effective_rber(0, SimTime::from_ms(2000));
        assert!(worn > fresh);
        assert!(aged > fresh);
    }

    #[test]
    fn higher_rber_forces_more_retries() {
        let mut low = FaultEngine::new(rber_cfg(5e-5));
        let mut high = FaultEngine::new(rber_cfg(2e-3));
        for _ in 0..CASES {
            low.page_read(131_072, 0, SimTime::ZERO);
            high.page_read(131_072, 0, SimTime::ZERO);
        }
        assert!(
            high.stats().read_retries > low.stats().read_retries,
            "high {} vs low {}",
            high.stats().read_retries,
            low.stats().read_retries
        );
    }

    #[test]
    fn retry_ladder_mostly_recovers() {
        // 16 KiB at 2e-3 averages ~260 raw errors — far beyond the soft
        // tier — but halving per retry brings it under within ~4 senses.
        let mut eng = FaultEngine::new(rber_cfg(2e-3));
        let mut uncorrectable = 0u64;
        for _ in 0..CASES {
            let f = eng.page_read(131_072, 0, SimTime::ZERO);
            if f.uncorrectable {
                uncorrectable += 1;
            } else {
                assert!(f.extra_senses >= 1, "must have retried at this RBER");
            }
        }
        assert!(uncorrectable < CASES as u64 / 10);
    }

    #[test]
    fn zero_retry_budget_goes_straight_to_uncorrectable() {
        let mut cfg = rber_cfg(2e-3);
        cfg.bit_error.max_read_retries = 0;
        let mut eng = FaultEngine::new(cfg);
        let f = eng.page_read(131_072, 0, SimTime::ZERO);
        assert!(f.uncorrectable);
        assert_eq!(f.extra_senses, 0);
    }

    #[test]
    fn crc_transfer_retransmits_and_accounts_bytes() {
        let mut cfg = FaultConfig::off();
        cfg.link.ber = 1e-6; // 16 KiB packet: ~12% corruption probability.
        let mut eng = FaultEngine::new(cfg);
        let mut total_attempts = 0u64;
        for _ in 0..CASES {
            let out = eng.crc_transfer(16 * 1024);
            assert!(out.delivered, "8 retries at 12% loss virtually always land");
            total_attempts += out.attempts as u64;
        }
        assert!(eng.stats().retransmissions > 0);
        assert_eq!(total_attempts, CASES as u64 + eng.stats().retransmissions);
        assert_eq!(eng.stats().effective_link_bytes, CASES as u64 * 16 * 1024);
        assert_eq!(
            eng.stats().raw_link_bytes,
            (CASES as u64 + eng.stats().retransmissions) * 16 * 1024
        );
        assert!(eng.stats().link_efficiency() < 1.0);
    }

    #[test]
    fn exhausted_retries_are_unrecovered() {
        let mut cfg = FaultConfig::off();
        cfg.link.ber = 1e-3; // 16 KiB packet: corruption probability ~1.
        cfg.link.max_retries = 0;
        let mut eng = FaultEngine::new(cfg);
        let mut unrecovered = 0;
        for _ in 0..CASES {
            if !eng.crc_transfer(16 * 1024).delivered {
                unrecovered += 1;
            }
        }
        assert_eq!(eng.stats().unrecovered_transfers, unrecovered);
        assert!(unrecovered > CASES as u64 * 9 / 10);
    }

    #[test]
    fn raw_links_corrupt_silently() {
        let mut cfg = FaultConfig::off();
        cfg.link.ber = 1e-5;
        let mut eng = FaultEngine::new(cfg);
        let mut corrupted = 0u64;
        for _ in 0..CASES {
            if eng.raw_transfer(16 * 1024) {
                corrupted += 1;
            }
        }
        assert_eq!(eng.stats().silent_corruptions, corrupted);
        // ~73% corruption probability per 16 KiB transfer.
        assert!(corrupted > CASES as u64 / 2);
        // Silent corruption costs nothing: no retransmissions recorded.
        assert_eq!(eng.stats().retransmissions, 0);
    }

    #[test]
    fn grown_bad_blocks_follow_rate() {
        let mut cfg = FaultConfig::off();
        cfg.bad_blocks.grown_rate = 0.01;
        let mut eng = FaultEngine::new(cfg);
        let n = CASES as u64 * 16;
        let grown: u64 = (0..n).map(|_| eng.grown_bad_on_erase() as u64).sum();
        assert_eq!(eng.stats().grown_bad_blocks, grown);
        let expect = n as f64 * 0.01;
        assert!(
            (grown as f64 - expect).abs() < expect * 0.6 + 10.0,
            "grown {grown} vs expected {expect}"
        );
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let mut cfg = FaultConfig::off();
        assert!(cfg.validate().is_ok());
        cfg.bit_error.rber = 0.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off();
        cfg.bit_error.fast_correct_bits = 100;
        cfg.bit_error.soft_correct_bits = 50;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off();
        cfg.bit_error.retry_attenuation = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off();
        cfg.link.ber = 0.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off();
        cfg.bad_blocks.manufacture_rate = 0.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off();
        cfg.bad_blocks.grown_rate = 0.5;
        assert!(cfg.validate().is_err());
        for bad in [-1e-6, f64::NAN, f64::INFINITY] {
            let mut cfg = FaultConfig::off();
            cfg.bit_error.pe_cycle_slope = bad;
            let err = cfg.validate().unwrap_err();
            assert!(
                err.contains("bit_error.pe_cycle_slope must be finite"),
                "{err}"
            );
            let mut cfg = FaultConfig::off();
            cfg.bit_error.retention_slope = bad;
            let err = cfg.validate().unwrap_err();
            assert!(
                err.contains("bit_error.retention_slope must be finite"),
                "{err}"
            );
        }
    }

    #[test]
    fn activity_predicate() {
        assert!(!FaultConfig::off().is_active());
        assert!(rber_cfg(1e-5).is_active());
        let mut cfg = FaultConfig::off();
        cfg.link.ber = 1e-7;
        assert!(cfg.is_active());
        let mut cfg = FaultConfig::off();
        cfg.chip_failure = Some(ChipFailureSpec {
            channel: 0,
            way: 1,
            at: SimTime::from_ms(1),
        });
        assert!(cfg.is_active());
    }

    #[test]
    fn backoff_multiplier_validated_and_grows_gap() {
        let mut cfg = FaultConfig::off();
        cfg.link.backoff_multiplier = Some(2.0);
        assert!(cfg.validate().is_ok());
        for bad in [1.0, 0.5, -3.0, f64::NAN, f64::INFINITY] {
            cfg.link.backoff_multiplier = Some(bad);
            let err = cfg.validate().unwrap_err();
            assert!(
                err.contains("backoff_multiplier must be in (1.0, ..)"),
                "{err}"
            );
        }
        // Constant back-off without the multiplier...
        let link = LinkFaultConfig::default();
        assert_eq!(link.retry_gap(1), link.retry_gap(5));
        assert_eq!(link.retry_gap(1), link.nak + link.backoff);
        // ...exponential with it: 200ns, 400ns, 800ns after the NAK.
        let link = LinkFaultConfig {
            backoff_multiplier: Some(2.0),
            ..Default::default()
        };
        assert_eq!(link.retry_gap(1), link.nak + SimTime::from_ns(200));
        assert_eq!(link.retry_gap(2), link.nak + SimTime::from_ns(400));
        assert_eq!(link.retry_gap(3), link.nak + SimTime::from_ns(800));
    }

    #[test]
    fn redundancy_counters_roundtrip_checkpoint() {
        let mut eng = FaultEngine::new(FaultConfig::off());
        eng.note_pages_degraded(7);
        eng.note_reconstructed_read();
        eng.note_rebuild_page();
        eng.note_rebuild_page();
        eng.note_host_io_error();
        let mut w = CkptWriter::new();
        eng.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FaultEngine::new(FaultConfig::off());
        let mut r = CkptReader::new(&bytes);
        restored.ckpt_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.stats(), eng.stats());
        assert_eq!(restored.stats().pages_degraded, 7);
        assert_eq!(restored.stats().rebuild_pages, 2);
        let line = restored.stats().to_string();
        assert!(line.contains("reconstructed=1"), "{line}");
        assert!(line.contains("io_err=1"), "{line}");
    }

    #[test]
    fn stats_display_mentions_key_counters() {
        let mut eng = FaultEngine::new(rber_cfg(2e-3));
        for _ in 0..64 {
            eng.page_read(131_072, 0, SimTime::ZERO);
        }
        let s = eng.stats().to_string();
        assert!(s.contains("retries="));
        assert!(s.contains("link_eff="));
    }
}
