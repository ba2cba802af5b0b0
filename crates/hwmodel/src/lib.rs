//! # sofia-hwmodel — the FPGA area and timing cost model
//!
//! Reproduces Table I of the paper (README, *Reproducing the paper*).
//! The real artifact is a Xilinx Virtex-6 synthesis run we cannot
//! perform; instead this is a component-level model whose two free
//! parameters — slices per unrolled RECTANGLE round and fixed SOFIA
//! overhead — are calibrated so the paper's design point (13× unrolling)
//! lands on the published pair (7,551 slices, 50.1 MHz), after which the
//! model is used *predictively* for the unrolling ablation.
//!
//! ## Structure of the model
//!
//! * vanilla LEON3 (minimal config): 5,889 slices, 10.834 ns critical
//!   path (92.3 MHz) — the paper's baseline row;
//! * SOFIA adds a fixed part (key storage for 3×80-bit keys, the MAC
//!   comparator, counter formation, block-sequencer/next-PC logic, reset
//!   line) and `u` unrolled cipher rounds placed **in the critical
//!   path** ("the block cipher increases the critical path", §III);
//! * the clock is the slower of the LEON3 path and the cipher path
//!   `t_fix + u · t_round`;
//! * a `u`-round-per-cycle cipher needs `⌈25/u⌉ + 1` cycles per
//!   operation; the paper's 13× unrolling gives the published 2 cycles
//!   and is pipelinable at one operation per cycle.
//!
//! # Examples
//!
//! ```
//! use sofia_hwmodel::{sofia, vanilla, PAPER_UNROLL};
//!
//! let v = vanilla();
//! let s = sofia(PAPER_UNROLL);
//! // Table I: +28.2 % area, clock 84.6 % slower (period 1.846×).
//! assert!((s.area_overhead_vs(&v) - 28.2).abs() < 1.0);
//! assert!((s.clock_slowdown_vs(&v) - 84.6).abs() < 2.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use sofia_crypto::ROUNDS;

/// The paper's unrolling factor (rounds per cycle).
pub const PAPER_UNROLL: u32 = 13;

/// Vanilla LEON3 slices (Table I).
pub const LEON3_SLICES: f64 = 5889.0;

/// Vanilla LEON3 critical path in ns (92.3 MHz, Table I).
pub const LEON3_PERIOD_NS: f64 = 1000.0 / 92.3;

/// SOFIA slices at the paper's design point (Table I).
pub const SOFIA_SLICES: f64 = 7551.0;

/// SOFIA critical path in ns at the paper's design point (50.1 MHz).
pub const SOFIA_PERIOD_NS: f64 = 1000.0 / 50.1;

/// Fixed SOFIA overhead in slices: 3×80-bit key storage (~30), 64-bit
/// MAC comparator and state (~50), counter formation and `prevPC`
/// tracking (~60), block sequencer / next-PC logic (~200), cipher state
/// registers and control (~110). The split is an engineering estimate;
/// its *total* is what calibration constrains.
pub const FIXED_OVERHEAD_SLICES: f64 = 450.0;

/// Slices per unrolled RECTANGLE round, from calibration:
/// `(7551 − 5889 − 450) / 13`.
pub const ROUND_SLICES: f64 = (SOFIA_SLICES - LEON3_SLICES - FIXED_OVERHEAD_SLICES) / 13.0;

/// Fixed delay around the cipher path (registers, muxing, routing), ns.
pub const CIPHER_FIXED_NS: f64 = 2.0;

/// Combinational delay of one RECTANGLE round, from calibration:
/// `(19.96 − 2.0) / 13`.
pub const ROUND_DELAY_NS: f64 = (SOFIA_PERIOD_NS - CIPHER_FIXED_NS) / 13.0;

/// An area/clock estimate for one hardware configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HwEstimate {
    /// Configuration label.
    pub name: &'static str,
    /// Unrolling factor (0 for the vanilla core).
    pub unroll: u32,
    /// Occupied slices.
    pub slices: f64,
    /// Critical path in ns.
    pub period_ns: f64,
    /// Cipher cycles per 64-bit operation (0 for vanilla).
    pub cycles_per_op: u32,
    /// Whether the cipher can issue one operation per cycle (2-stage
    /// pipeline, the paper's 13× design) or must iterate.
    pub pipelined: bool,
}

impl HwEstimate {
    /// Maximum clock in MHz.
    pub fn clock_mhz(&self) -> f64 {
        1000.0 / self.period_ns
    }

    /// Area overhead relative to `base`, in percent (Table I: 28.2 %).
    pub fn area_overhead_vs(&self, base: &HwEstimate) -> f64 {
        (self.slices / base.slices - 1.0) * 100.0
    }

    /// Clock slowdown relative to `base`, in percent of *period increase*
    /// (the paper's "clock is 84.6 % slower" convention: the period grows
    /// by 84.6 %).
    pub fn clock_slowdown_vs(&self, base: &HwEstimate) -> f64 {
        (self.period_ns / base.period_ns - 1.0) * 100.0
    }
}

/// The unmodified LEON3 (Table I, row "Vanilla").
pub fn vanilla() -> HwEstimate {
    HwEstimate {
        name: "vanilla",
        unroll: 0,
        slices: LEON3_SLICES,
        period_ns: LEON3_PERIOD_NS,
        cycles_per_op: 0,
        pipelined: false,
    }
}

/// A SOFIA core with `unroll` cipher rounds per cycle (1 ≤ unroll ≤ 26).
///
/// # Panics
///
/// Panics if `unroll` is 0 or exceeds 26 (25 rounds + final key add).
pub fn sofia(unroll: u32) -> HwEstimate {
    assert!((1..=ROUNDS as u32 + 1).contains(&unroll), "unroll 1..=26");
    let cipher_path = CIPHER_FIXED_NS + unroll as f64 * ROUND_DELAY_NS;
    let period_ns = cipher_path.max(LEON3_PERIOD_NS);
    // 25 S-box/shift rounds + the final key addition = 26 round-slots;
    // u of them fit per cycle (u=1 → the paper's 26 cycles, u=13 → 2).
    let cycles_per_op = (ROUNDS as u32 + 1).div_ceil(unroll);
    // ≥13 rounds/cycle leaves ≤2 stages: a classic 2-stage pipeline that
    // accepts one op per cycle (the implementation the paper cites [36]).
    let pipelined = unroll >= PAPER_UNROLL;
    HwEstimate {
        name: "sofia",
        unroll,
        slices: LEON3_SLICES + FIXED_OVERHEAD_SLICES + unroll as f64 * ROUND_SLICES,
        period_ns,
        cycles_per_op,
        pipelined,
    }
}

/// Fixed area of the verified-block cache's control (LRU state, hit/miss
/// steering into the decrypt bypass, the flush line), in slices.
pub const VCACHE_FIXED_SLICES: f64 = 80.0;

/// Slices per cached edge: a ~64-bit tag (`{prevPC ‖ PC}`) plus eight
/// 32-bit plaintext words in LUT RAM (~320 bits ≈ 1.5 slices of
/// distributed RAM on Virtex-6) and its share of the tag comparators.
pub const VCACHE_ENTRY_SLICES: f64 = 2.0;

/// A SOFIA core extended with an `entries`-edge verified-block cache.
///
/// The cache adds area but not delay: the tag compare reads registered
/// edge state in IF, in parallel with the ciphertext I-cache tag path,
/// and the cipher path — the critical one — is untouched (a hit simply
/// gates the cipher's enable). So the clock column equals the uncached
/// SOFIA core's and only the slice column grows.
///
/// # Panics
///
/// Panics if `unroll` is out of range (see [`sofia`]) or `entries` is 0.
pub fn sofia_with_vcache(unroll: u32, entries: u32) -> HwEstimate {
    assert!(entries > 0, "entries 1..");
    let base = sofia(unroll);
    HwEstimate {
        name: "sofia+vcache",
        slices: base.slices + VCACHE_FIXED_SLICES + entries as f64 * VCACHE_ENTRY_SLICES,
        ..base
    }
}

/// Fixed area of the sponge-CFP fetch path beyond the permutation
/// rounds: the state register, the XOR whitening into decode and the
/// patch-application mux (no MAC unit, no mux-block steering).
pub const SPONGE_FIXED_SLICES: f64 = 250.0;

/// Fixed area of the FIPAC check unit: the running-state register, the
/// signature comparator and the trap line (the update logic itself is
/// the round slices).
pub const FIPAC_FIXED_SLICES: f64 = 200.0;

/// Rounds per cycle the FIPAC state-update pipeline is provisioned with.
/// The update has a whole basic block to settle before the next check
/// can consult it, so a narrow iterative datapath suffices.
pub const FIPAC_UNROLL: u32 = 5;

/// A sponge-CFP core (Werner et al., SCFP): the permutation sits on the
/// fetch critical path exactly like SOFIA's decrypt — same unrolled
/// datapath, same period — but the scheme needs no CBC-MAC unit and no
/// multiplexor-block steering, so the fixed overhead is smaller. The
/// chain is serial per word, so the datapath cannot be operated as an
/// issue-per-cycle pipeline: `pipelined` is false at every unroll.
pub fn sponge_cfp() -> HwEstimate {
    let unroll = PAPER_UNROLL;
    let cipher_path = CIPHER_FIXED_NS + unroll as f64 * ROUND_DELAY_NS;
    HwEstimate {
        name: "sponge-cfp",
        unroll,
        slices: LEON3_SLICES + SPONGE_FIXED_SLICES + unroll as f64 * ROUND_SLICES,
        period_ns: cipher_path.max(LEON3_PERIOD_NS),
        cycles_per_op: (ROUNDS as u32 + 1).div_ceil(unroll),
        pipelined: false,
    }
}

/// A FIPAC-style core (Nasahl et al.): plaintext fetch, so the cipher is
/// *off* the critical path and the core keeps the vanilla clock; the
/// keyed state update runs on a narrow iterative datapath
/// ([`FIPAC_UNROLL`] rounds/cycle) beside the pipeline.
pub fn fipac() -> HwEstimate {
    HwEstimate {
        name: "fipac",
        unroll: FIPAC_UNROLL,
        slices: LEON3_SLICES + FIPAC_FIXED_SLICES + FIPAC_UNROLL as f64 * ROUND_SLICES,
        period_ns: LEON3_PERIOD_NS,
        cycles_per_op: (ROUNDS as u32 + 1).div_ceil(FIPAC_UNROLL),
        pipelined: false,
    }
}

/// Table I, regenerated: the vanilla row and the SOFIA row at the paper's
/// 13× design point.
pub fn table1() -> (HwEstimate, HwEstimate) {
    (vanilla(), sofia(PAPER_UNROLL))
}

/// The unrolling ablation: every power-of-two-ish design point plus the
/// paper's, for the area/clock/throughput trade-off study.
pub fn unroll_sweep() -> Vec<HwEstimate> {
    [1, 2, 5, 9, 13, 26].iter().map(|&u| sofia(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let (v, s) = table1();
        assert!((v.slices - 5889.0).abs() < 0.5);
        assert!((v.clock_mhz() - 92.3).abs() < 0.1);
        assert!((s.slices - 7551.0).abs() < 0.5);
        assert!((s.clock_mhz() - 50.1).abs() < 0.1);
    }

    #[test]
    fn table1_overhead_percentages() {
        let (v, s) = table1();
        // Paper: "hardware area increased by 28.2%, clock 84.6% slower".
        assert!((s.area_overhead_vs(&v) - 28.2).abs() < 0.5);
        assert!((s.clock_slowdown_vs(&v) - 84.6).abs() < 1.0);
    }

    #[test]
    fn paper_design_point_is_two_cycles() {
        let s = sofia(PAPER_UNROLL);
        assert_eq!(s.cycles_per_op, 2);
        assert!(s.pipelined);
    }

    #[test]
    fn iterated_design_keeps_full_clock() {
        // 1 round/cycle: the cipher path is short, LEON3 dominates.
        let s = sofia(1);
        assert!((s.clock_mhz() - 92.3).abs() < 0.1);
        assert_eq!(s.cycles_per_op, 26);
        assert!(!s.pipelined);
    }

    #[test]
    fn single_cycle_design_is_big_and_slow() {
        let s = sofia(26);
        assert_eq!(s.cycles_per_op, 1);
        assert!(s.slices > sofia(13).slices);
        assert!(s.clock_mhz() < 30.0);
    }

    #[test]
    fn area_grows_monotonically_with_unroll() {
        let sweep = unroll_sweep();
        for pair in sweep.windows(2) {
            assert!(pair[0].slices < pair[1].slices);
            assert!(pair[0].period_ns <= pair[1].period_ns);
        }
    }

    #[test]
    #[should_panic(expected = "unroll")]
    fn zero_unroll_rejected() {
        let _ = sofia(0);
    }

    #[test]
    fn vcache_adds_area_but_not_delay() {
        let base = sofia(PAPER_UNROLL);
        let small = sofia_with_vcache(PAPER_UNROLL, 64);
        let big = sofia_with_vcache(PAPER_UNROLL, 256);
        // Clock, cycles/op and pipelining are untouched.
        assert_eq!(small.period_ns, base.period_ns);
        assert_eq!(small.cycles_per_op, base.cycles_per_op);
        assert_eq!(small.pipelined, base.pipelined);
        // Area grows linearly in entries.
        assert!(small.slices > base.slices);
        assert!(
            (big.slices - small.slices - 192.0 * VCACHE_ENTRY_SLICES).abs() < 1e-9,
            "entry slices must scale linearly"
        );
        // A 256-edge cache stays a modest fraction of the SOFIA core.
        assert!((big.slices / base.slices - 1.0) * 100.0 < 10.0);
    }

    #[test]
    #[should_panic(expected = "entries")]
    fn zero_entry_vcache_rejected() {
        let _ = sofia_with_vcache(PAPER_UNROLL, 0);
    }

    #[test]
    fn backend_area_ordering() {
        // vanilla < fipac < sponge < sofia: each scheme adds hardware in
        // proportion to what it enforces.
        let v = vanilla();
        let f = fipac();
        let sp = sponge_cfp();
        let so = sofia(PAPER_UNROLL);
        assert!(v.slices < f.slices);
        assert!(f.slices < sp.slices);
        assert!(sp.slices < so.slices);
    }

    #[test]
    fn fipac_keeps_the_vanilla_clock() {
        // The keyed update is off the critical path.
        let v = vanilla();
        let f = fipac();
        assert_eq!(f.period_ns, v.period_ns);
        assert!(f.clock_slowdown_vs(&v).abs() < 1e-9);
    }

    #[test]
    fn sponge_pays_the_cipher_critical_path() {
        // Same unrolled permutation on the fetch path as SOFIA's decrypt
        // → same period, but the serial chain can never pipeline.
        let sp = sponge_cfp();
        let so = sofia(PAPER_UNROLL);
        assert_eq!(sp.period_ns, so.period_ns);
        assert!(!sp.pipelined);
        assert!(so.pipelined);
    }
}
