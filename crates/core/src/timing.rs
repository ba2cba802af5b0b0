//! The SOFIA timing model: cipher scheduling, fetch-slot accounting and
//! the store gate.
//!
//! # Derivation (matching the paper's Figs. 5/6)
//!
//! One shared RECTANGLE instance, unrolled 13× (2-cycle latency), issues
//! one operation per cycle, alternating CTR (decrypt pads) and CBC-MAC
//! absorbs (§III). Word `p` (0-based) of a block is fetched in cycle
//! `p + 1`; with the 7-stage pipeline it enters the Memory Access stage in
//! cycle `p + 5` (IF at `p + 1`, then ID, OF, EX, MA). The final CBC
//! absorb issues as the last word streams in and completes one cycle
//! later, so verification is known at
//! `verify_done = block_words + verify_latency` (default latency 1 =
//! cipher latency − 1, the compare being combinational).
//!
//! * Default 8-word block: `verify_done = 9`; word 2 (inst1) reaches MA in
//!   cycle 7 and word 3 (inst2) in cycle 8 — **before** verification, so
//!   stores are banned there (Fig. 6); word 4 (inst3) reaches MA in cycle
//!   9 and needs no stall.
//! * `exec4` 6-word block: `verify_done = 7`; the earliest instruction
//!   (word 2) reaches MA in cycle 7 — verification always wins, so no
//!   restriction is needed (Fig. 5).
//!
//! The same numbers drive the store gate at run time: a store at word `p`
//! stalls `max(0, verify_done − (p + 5))` cycles.

use sofia_transform::{BlockFormat, BlockKind};

/// How many 32-bit words one CTR operation can cover (paper §III: "a
/// single operation can process two 32-bit words").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CipherSchedule {
    /// The paper's datapath: one 64-bit CTR op covers two words.
    #[default]
    Paper,
    /// Conservative reading of Algorithm 1: one op per 32-bit word.
    PerWord,
}

/// Timing parameters of the SOFIA fetch path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SofiaTiming {
    /// CTR-op granularity.
    pub schedule: CipherSchedule,
    /// Cipher latency in cycles (2 = unrolled 13×, the paper's choice).
    pub cipher_latency: u32,
    /// Cycles between cipher-op issues: 1 for the paper's pipelined
    /// 2-stage design; `cycles_per_op` for iterated designs (the
    /// unrolling ablation uses this).
    pub cipher_issue_interval: u32,
    /// Cycles between the last fetched word and a known verdict.
    pub verify_latency: u32,
    /// Extra cycles on a control-flow redirect before the decrypt
    /// refill can begin: the `{ω ‖ prevPC ‖ PC}` counter must be formed
    /// from the freshly-updated edge registers and steered into the CTR
    /// datapath across the registered cache/decrypt boundary. Sequential
    /// streaming hides this (the fall-through counter is precomputed);
    /// only redirects pay it.
    pub redirect_setup: u32,
    /// Cycles to reboot after a reset (paper: "reboot reliably fast").
    pub reboot_cycles: u64,
}

impl Default for SofiaTiming {
    fn default() -> Self {
        SofiaTiming {
            schedule: CipherSchedule::Paper,
            cipher_latency: sofia_crypto::CYCLES_UNROLLED_13,
            cipher_issue_interval: 1,
            verify_latency: sofia_crypto::CYCLES_UNROLLED_13 - 1,
            redirect_setup: 1,
            reboot_cycles: 200,
        }
    }
}

/// Per-block cycle accounting produced by [`SofiaTiming::block_cycles`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockTiming {
    /// Pipeline issue slots consumed (every fetched word, MAC words
    /// included — they travel as `nop`s, paper §II-B).
    pub issue_cycles: u32,
    /// Extra stall when cipher ops outnumber fetch slots.
    pub cipher_stall: u64,
    /// Decrypt-pipeline refill after a control-flow redirect.
    pub redirect_fill: u64,
    /// CTR operations issued.
    pub ctr_ops: u32,
    /// CBC-MAC operations issued.
    pub cbc_ops: u32,
}

impl BlockTiming {
    /// Total cycles charged for the block's fetch/decrypt/verify work
    /// (instruction-level hazards are charged separately, as on the
    /// vanilla machine).
    pub fn total(&self) -> u64 {
        u64::from(self.issue_cycles) + self.cipher_stall + self.redirect_fill
    }
}

impl SofiaTiming {
    /// Accounting for one block fetched along `kind`/`words_fetched`,
    /// entered by redirect (`redirected`) or sequential fall-through.
    /// Cycle counts are `u64`, so no latency field can overflow them.
    pub fn block_cycles(
        &self,
        format: &BlockFormat,
        kind: BlockKind,
        words_fetched: u32,
        redirected: bool,
    ) -> BlockTiming {
        let ctr_ops = match self.schedule {
            CipherSchedule::Paper => words_fetched.div_ceil(2),
            CipherSchedule::PerWord => words_fetched,
        };
        let cbc_ops = (format.mac_padded_words(kind) as u32) / 2;
        let cipher_cycles =
            u64::from(ctr_ops + cbc_ops) * u64::from(self.cipher_issue_interval.max(1));
        BlockTiming {
            issue_cycles: words_fetched,
            cipher_stall: cipher_cycles.saturating_sub(words_fetched.into()),
            redirect_fill: if redirected {
                u64::from(self.redirect_setup) + u64::from(self.cipher_latency)
            } else {
                0
            },
            ctr_ops,
            cbc_ops,
        }
    }

    /// Cycle (1-based, from block fetch start) when the verification
    /// verdict is available.
    pub fn verify_done(&self, format: &BlockFormat) -> u64 {
        format.block_words() as u64 + u64::from(self.verify_latency)
    }

    /// Stall cycles the store gate inserts for a store at block word
    /// position `word_pos` — the quantitative content of Figs. 5/6.
    ///
    /// # Examples
    ///
    /// ```
    /// use sofia_core::timing::SofiaTiming;
    /// use sofia_transform::BlockFormat;
    ///
    /// let t = SofiaTiming::default();
    /// // Default 8-word block: inst1 (word 2) would need 2 stall cycles —
    /// // which is why the format bans stores there; inst3 (word 4) is free.
    /// assert_eq!(t.store_gate_stall(&BlockFormat::default(), 2), 2);
    /// assert_eq!(t.store_gate_stall(&BlockFormat::default(), 4), 0);
    /// // exec4: verification always beats the earliest possible store.
    /// assert_eq!(t.store_gate_stall(&BlockFormat::exec4(), 2), 0);
    /// ```
    pub fn store_gate_stall(&self, format: &BlockFormat, word_pos: usize) -> u64 {
        let ma_cycle = word_pos as u64 + 5;
        self.verify_done(format).saturating_sub(ma_cycle)
    }
}

/// One row of the Fig. 5/6 reproduction: for each instruction slot of a
/// block format, whether a store is allowed there and how many cycles the
/// gate would stall it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreGateRow {
    /// Instruction slot index (0-based).
    pub slot: usize,
    /// Word position within the block.
    pub word_pos: usize,
    /// Whether the format permits a store here.
    pub allowed: bool,
    /// Gate stall if a store executed here.
    pub stall: u64,
}

/// Tabulates the store gate across all instruction slots of a format —
/// the data behind Figs. 5 and 6.
pub fn store_gate_table(format: &BlockFormat, timing: &SofiaTiming) -> Vec<StoreGateRow> {
    let kind = BlockKind::Exec;
    (0..format.insts(kind))
        .map(|slot| {
            let word_pos = format.word_pos(kind, slot);
            StoreGateRow {
                slot,
                word_pos,
                allowed: format.store_allowed(kind, slot),
                stall: timing.store_gate_stall(format, word_pos),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_restricted_slots_are_exactly_the_stalling_ones() {
        // In the default format, the slots where a store would stall are
        // exactly the slots the format bans: the restriction makes the
        // gate free (Fig. 6's design argument).
        let format = BlockFormat::default();
        let t = SofiaTiming::default();
        for row in store_gate_table(&format, &t) {
            assert_eq!(
                row.allowed,
                row.stall == 0,
                "slot {} (word {}): allowed={} stall={}",
                row.slot,
                row.word_pos,
                row.allowed,
                row.stall
            );
        }
    }

    #[test]
    fn fig5_exec4_needs_no_restriction() {
        // The 6-word block of Fig. 5 fits before MA: no slot ever stalls.
        let format = BlockFormat::exec4();
        let t = SofiaTiming::default();
        for row in store_gate_table(&format, &t) {
            assert!(row.allowed);
            assert_eq!(row.stall, 0);
        }
    }

    #[test]
    fn paper_schedule_never_stalls_default_blocks() {
        // 8 words: 4 CTR + 3 CBC = 7 ops ≤ 8 slots → cipher keeps up.
        let t = SofiaTiming::default();
        let bt = t.block_cycles(&BlockFormat::default(), BlockKind::Exec, 8, true);
        assert_eq!(bt.cipher_stall, 0);
        assert_eq!(bt.ctr_ops, 4);
        assert_eq!(bt.cbc_ops, 3);
        // 8 issue slots + 1 counter-formation cycle + 2 cipher latency.
        assert_eq!(bt.total(), 8 + 1 + 2);
    }

    #[test]
    fn redirect_setup_is_configurable_and_skippable() {
        let t = SofiaTiming {
            redirect_setup: 0,
            ..Default::default()
        };
        let bt = t.block_cycles(&BlockFormat::default(), BlockKind::Exec, 8, true);
        assert_eq!(bt.redirect_fill, u64::from(t.cipher_latency));
    }

    #[test]
    fn per_word_schedule_backpressures() {
        // 8 CTR + 3 CBC = 11 ops > 8 slots → 3 stall cycles.
        let t = SofiaTiming {
            schedule: CipherSchedule::PerWord,
            ..Default::default()
        };
        let bt = t.block_cycles(&BlockFormat::default(), BlockKind::Exec, 8, false);
        assert_eq!(bt.cipher_stall, 3);
        assert_eq!(bt.total(), 11);
    }

    #[test]
    fn mux_path_fetches_fewer_words() {
        let t = SofiaTiming::default();
        let bt = t.block_cycles(&BlockFormat::default(), BlockKind::Mux, 7, true);
        assert_eq!(bt.issue_cycles, 7);
        assert_eq!(bt.ctr_ops, 4); // ceil(7/2)
    }

    #[test]
    fn sequential_blocks_skip_the_refill() {
        let t = SofiaTiming::default();
        let bt = t.block_cycles(&BlockFormat::default(), BlockKind::Exec, 8, false);
        assert_eq!(bt.redirect_fill, 0);
    }
}
