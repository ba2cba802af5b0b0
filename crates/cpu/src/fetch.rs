//! The fetch-unit seam: what varies between the vanilla baseline and a
//! protected machine is *only* how instructions get from memory into the
//! pipeline (paper Fig. 1). Everything downstream — execute, memory
//! access, hazard accounting, the run loop — is identical, so it lives
//! once in [`crate::engine::Pipeline`] and machines differ by the
//! [`FetchUnit`] they plug in front of it.
//!
//! * [`PlainFetch`] — word-at-a-time plaintext fetch (the baseline);
//! * `sofia_core::fetch::SofiaFetchUnit` — block fetch through the CFI
//!   decrypt and SI verify units;
//! * future backends (CFI-only ablations, other ciphers, reboot studies)
//!   implement this trait instead of duplicating a machine.

use sofia_isa::Instruction;

use crate::icache::ICache;
use crate::mem::Memory;
use crate::pipeline::{BlockCost, TimingClass};
use crate::stats::ExecStats;
use crate::Trap;

/// The machine state a fetch unit may consult or charge while fetching:
/// read-only memory access plus the shared I-cache and cycle counters
/// (ciphertext is cached in front of any decrypt unit, paper Fig. 1, so
/// the cache model is common property).
pub struct FetchCtx<'a> {
    /// The physical memory (fetches read ROM).
    pub mem: &'a Memory,
    /// The instruction cache; fetch units account hit/miss stalls here.
    pub icache: &'a mut ICache,
    /// Baseline counters; fetch-path cycles are charged into
    /// [`ExecStats::cycles`] (and stall breakdowns where applicable).
    pub stats: &'a mut ExecStats,
}

/// One decoded instruction slot delivered by a fetch unit: the
/// instruction, where it was fetched from, and its [`TimingClass`],
/// computed once here at decode so that replaying the slot — every
/// execution of a verified-block-cache line — classifies nothing again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    pc: u32,
    inst: Instruction,
    class: TimingClass,
}

// Verified-block-cache and refill-memo lines keep their slots per
// machine: the class must not grow them past 16 bytes each.
const _: () = assert!(std::mem::size_of::<Slot>() <= 16);

impl Slot {
    /// Classifies `inst`, fetched from `pc`, into a slot.
    pub fn new(pc: u32, inst: Instruction) -> Slot {
        Slot {
            pc,
            inst,
            class: TimingClass::of(&inst),
        }
    }

    /// The address the instruction was fetched from.
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The decoded instruction.
    #[inline]
    pub fn inst(&self) -> &Instruction {
        &self.inst
    }

    /// The instruction's timing class.
    #[inline]
    pub fn class(&self) -> TimingClass {
        self.class
    }
}

/// What [`FetchUnit::fetch_batch`] lends the engine: the batch's slots
/// and their [`BlockCost`].
pub type LentBatch<'a> = (&'a [Slot], BlockCost);

/// How an executed batch exited, reported back to the fetch unit so it
/// can sequence the next batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOutcome {
    /// The last slot fell through to the next instruction.
    Sequential,
    /// A slot transferred control (branch taken, jump, call, return).
    Transfer {
        /// The transfer target.
        target: u32,
    },
}

/// The violation type of a machine that cannot raise one: the baseline
/// fetches anything executable without checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NoViolation {}

impl std::fmt::Display for NoViolation {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

/// A pluggable instruction-delivery unit in front of the shared pipeline.
///
/// The unit owns all sequencing state (program counter or block cursor)
/// and all security state; the engine owns the architectural state. Per
/// step the engine asks for a batch, executes its slots straight from the
/// slice the unit lends it, charges the batch's pipeline cost once, and
/// reports how the batch exited once, via [`FetchUnit::retire`].
pub trait FetchUnit {
    /// The security-violation type this unit can detect.
    /// [`NoViolation`] (uninhabited) for unchecked fetch.
    type Violation: Copy + std::fmt::Debug;

    /// Whether the unit already charges one issue cycle per delivered
    /// slot while fetching (block-structured units charge per fetched
    /// word, MAC/pad words included). When `true` the engine charges only
    /// a batch's hazard penalties instead of its full base-plus-hazard
    /// cost.
    const ISSUE_CHARGED_IN_FETCH: bool = false;

    /// Fetches and decodes the next batch, charging fetch-path cycles
    /// through `ctx`, and lends the engine its slots until the unit is
    /// next used, together with their [`BlockCost`] — summed when the
    /// slots were decoded, and kept beside them wherever the unit caches
    /// them, so a replayed batch sums nothing again. The slice may point
    /// into the unit's own buffer or straight at a cached line: the
    /// engine only reads it. A batch holds at most
    /// [`crate::pipeline::MAX_BATCH_SLOTS`] slots, and its cost must be
    /// `BlockCost::of` its slots: the engine charges it whole when the
    /// batch retires its last slot.
    ///
    /// Returns `Ok(Err(violation))` when the unit refuses to deliver the
    /// batch (tampered code, forged edge, …) — the engine executes
    /// nothing and lets the machine's reset policy decide what happens.
    ///
    /// # Errors
    ///
    /// Architectural traps (fetch faults, undecodable words on the
    /// unchecked baseline) propagate as `Err`.
    fn fetch_batch(
        &mut self,
        ctx: &mut FetchCtx<'_>,
    ) -> Result<Result<LentBatch<'_>, Self::Violation>, Trap>;

    /// Reports how the batch exited, once per batch: slot `slot` (of
    /// `batch_len`) at address `pc` either fell through as the last slot
    /// ([`SlotOutcome::Sequential`]) or transferred control, which ends
    /// the batch wherever it sits. The engine makes no call for a batch
    /// that halts, traps, or delivers no slots.
    ///
    /// # Errors
    ///
    /// Returns the violation the exit constitutes under the unit's
    /// policy (e.g. SOFIA's "control can only exit at the final slot").
    fn retire(
        &mut self,
        pc: u32,
        slot: usize,
        batch_len: usize,
        outcome: SlotOutcome,
    ) -> Result<(), Self::Violation>;

    /// Hardware reset: restart sequencing from the entry point. Returns
    /// the cycles the reset costs (reboot time; 0 for the baseline).
    fn on_reset(&mut self) -> u64;
}

/// The baseline's fetch unit: one plaintext word per batch, no checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlainFetch {
    pc: u32,
    entry: u32,
    slot: Slot,
}

impl PlainFetch {
    /// A unit starting (and restarting on reset) at `entry`.
    pub fn new(entry: u32) -> PlainFetch {
        PlainFetch {
            pc: entry,
            entry,
            slot: Slot::new(entry, Instruction::nop()),
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Redirects the next fetch — the attack harness's hijack channel.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }
}

impl FetchUnit for PlainFetch {
    type Violation = NoViolation;

    fn fetch_batch(
        &mut self,
        ctx: &mut FetchCtx<'_>,
    ) -> Result<Result<LentBatch<'_>, NoViolation>, Trap> {
        let pc = self.pc;
        let stall = ctx.icache.access_cycles(pc) as u64;
        ctx.stats.icache_stall_cycles += stall;
        ctx.stats.cycles += stall;
        let word = ctx.mem.fetch(pc)?;
        let inst = Instruction::decode(word)
            .map_err(|e| Trap::IllegalInstruction { word: e.word(), pc })?;
        self.slot = Slot::new(pc, inst);
        let slots = std::slice::from_ref(&self.slot);
        Ok(Ok((slots, BlockCost::of(slots))))
    }

    fn retire(
        &mut self,
        pc: u32,
        _slot: usize,
        _batch_len: usize,
        outcome: SlotOutcome,
    ) -> Result<(), NoViolation> {
        self.pc = match outcome {
            SlotOutcome::Sequential => pc.wrapping_add(4),
            SlotOutcome::Transfer { target } => target,
        };
        Ok(())
    }

    fn on_reset(&mut self) -> u64 {
        self.pc = self.entry;
        0
    }
}
