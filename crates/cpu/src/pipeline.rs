//! Cycle accounting for the LEON3-like 7-stage in-order pipeline.
//!
//! The model charges one base cycle per retired instruction plus explicit
//! penalties for the classic in-order hazards. It is equivalent to a
//! single-issue IF–ID–OF–EX–MA–XC–WB pipeline with full forwarding:
//!
//! * taken conditional branches and indirect jumps resolve in EX —
//!   3 flushed slots;
//! * direct jumps (`j`/`jal`) redirect in ID — 1 flushed slot;
//! * a load's value is available after MA — 1 bubble for an immediately
//!   dependent consumer;
//! * iterative multiply/divide hold EX for several cycles;
//! * instruction-cache misses stall IF for the refill penalty.
//!
//! Everything but two of those terms is static per instruction, so a
//! batch's cost is summed once, when it is decoded ([`BlockCost`]), and
//! charged once, when it exits ([`PipelineModel::batch_cycles`]). Only
//! the first slot's load-use bubble and the last slot's taken branch
//! depend on the run.

use sofia_isa::{Instruction, Reg};

use crate::fetch::Slot;

/// The seven pipeline stages, in order.
pub const STAGES: [&str; 7] = ["IF", "ID", "OF", "EX", "MA", "XC", "WB"];

/// Index of the Memory Access stage within [`STAGES`] — the stage SOFIA's
/// store gate must protect (paper §II-B.2).
pub const MA_STAGE: usize = 4;

/// Tunable penalties of the pipeline model (defaults follow a minimal
/// LEON3 configuration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineModel {
    /// Flushed slots for a taken conditional branch (resolve in EX).
    pub taken_branch_penalty: u32,
    /// Flushed slots for `j`/`jal` (target known in ID).
    pub direct_jump_penalty: u32,
    /// Flushed slots for `jr`/`jalr` (register target, resolve in EX).
    pub indirect_jump_penalty: u32,
    /// Bubble cycles when an instruction consumes the value of the
    /// immediately preceding load.
    pub load_use_penalty: u32,
    /// Total EX-stage occupancy of `mul` (LEON3: 4-cycle multiplier).
    pub mul_cycles: u32,
    /// Total EX-stage occupancy of `div`/`rem` (LEON3: 35-cycle divider).
    pub div_cycles: u32,
    /// Cycles to drain the pipeline at `halt`.
    pub drain_cycles: u32,
    /// Extra wait states per data-memory access (0 = tightly-coupled RAM;
    /// the paper's FPGA board ran from waited external memory — see
    /// [`PipelineModel::paper_memory`]).
    pub data_penalty: u32,
}

impl Default for PipelineModel {
    fn default() -> Self {
        PipelineModel {
            taken_branch_penalty: 3,
            direct_jump_penalty: 1,
            indirect_jump_penalty: 3,
            load_use_penalty: 1,
            mul_cycles: 4,
            div_cycles: 35,
            drain_cycles: 6,
            data_penalty: 0,
        }
    }
}

impl PipelineModel {
    /// A memory-bound configuration approximating the paper's testbed:
    /// the published baseline (114 M cycles for ADPCM) implies a CPI an
    /// order of magnitude above 1, i.e. external memory with substantial
    /// wait states. Both machines pay these identically, which is what
    /// shrinks SOFIA's *relative* cycle overhead toward the published
    /// 13.7 % (see README, *Reproducing the paper*).
    pub fn paper_memory() -> PipelineModel {
        PipelineModel {
            data_penalty: 25,
            ..Default::default()
        }
    }
}

/// Sentinel for "no register" in a [`TimingClass`] byte.
const NO_REG: u8 = u8::MAX;

/// What the cycle model and the engine's counters need to know about one
/// instruction, computed once when the instruction is decoded (see
/// [`crate::fetch::Slot::new`]) so no executed slot classifies its
/// instruction again: the registers it reads, the register it loads
/// into, and one flag bit per class. Four bytes.
///
/// The cost rule tells a conditional branch, a direct jump and an
/// indirect jump apart in that order, and a multiply before a divide, so
/// an instruction carries at most one flag of each group.
///
/// # Examples
///
/// ```
/// use sofia_cpu::pipeline::TimingClass;
/// use sofia_isa::{Instruction, Reg};
///
/// let lw = TimingClass::of(&Instruction::Lw { rt: Reg::T0, base: Reg::SP, offset: 0 });
/// assert!(lw.is_load() && !lw.is_store());
/// assert_eq!(lw.load_dest(), Some(Reg::T0));
/// assert!(lw.reads(Reg::SP) && !lw.reads(Reg::T0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimingClass {
    reads: [u8; 2],
    load_dest: u8,
    flags: u8,
}

const BRANCH: u8 = 1 << 0;
const DIRECT_JUMP: u8 = 1 << 1;
const INDIRECT_JUMP: u8 = 1 << 2;
const LOAD: u8 = 1 << 3;
const STORE: u8 = 1 << 4;
const CALL: u8 = 1 << 5;
const MUL: u8 = 1 << 6;
const DIV: u8 = 1 << 7;

const _: () = assert!(std::mem::size_of::<TimingClass>() == 4);

impl TimingClass {
    /// Classifies `inst`.
    pub fn of(inst: &Instruction) -> TimingClass {
        let reg = |r: Option<Reg>| match r {
            Some(r) => r.index(),
            None => NO_REG,
        };
        let [a, b] = inst.use_regs();
        let flag = |set: bool, bit: u8| if set { bit } else { 0 };
        let load_dest = if inst.is_load() {
            reg(inst.def_reg())
        } else {
            NO_REG
        };
        TimingClass {
            reads: [reg(a), reg(b)],
            load_dest,
            flags: flag(inst.is_branch(), BRANCH)
                | flag(!inst.is_branch() && inst.is_direct_jump(), DIRECT_JUMP)
                | flag(
                    !inst.is_branch() && !inst.is_direct_jump() && inst.is_indirect_jump(),
                    INDIRECT_JUMP,
                )
                | flag(inst.is_load(), LOAD)
                | flag(inst.is_store(), STORE)
                | flag(inst.is_call(), CALL)
                | flag(matches!(inst, Instruction::Mul { .. }), MUL)
                | flag(
                    matches!(
                        inst,
                        Instruction::Div { .. }
                            | Instruction::Divu { .. }
                            | Instruction::Rem { .. }
                            | Instruction::Remu { .. }
                    ),
                    DIV,
                ),
        }
    }

    /// Whether the instruction reads `reg`.
    #[inline]
    pub fn reads(self, reg: Reg) -> bool {
        self.reads[0] == reg.index() || self.reads[1] == reg.index()
    }

    /// The register a load writes (`None` for anything else, and for a
    /// load into `zero`).
    #[inline]
    pub fn load_dest(self) -> Option<Reg> {
        Reg::new(self.load_dest)
    }

    /// A conditional branch.
    #[inline]
    pub fn is_branch(self) -> bool {
        self.flags & BRANCH != 0
    }

    /// A direct jump (`j`/`jal`).
    #[inline]
    pub fn is_direct_jump(self) -> bool {
        self.flags & DIRECT_JUMP != 0
    }

    /// An indirect jump (`jr`/`jalr`).
    #[inline]
    pub fn is_indirect_jump(self) -> bool {
        self.flags & INDIRECT_JUMP != 0
    }

    /// A load.
    #[inline]
    pub fn is_load(self) -> bool {
        self.flags & LOAD != 0
    }

    /// A store.
    #[inline]
    pub fn is_store(self) -> bool {
        self.flags & STORE != 0
    }

    /// A call (`jal`/`jalr`).
    #[inline]
    pub fn is_call(self) -> bool {
        self.flags & CALL != 0
    }

    /// A multiply (the iterative multiplier holds EX).
    #[inline]
    pub fn is_mul(self) -> bool {
        self.flags & MUL != 0
    }

    /// A divide or remainder (the iterative divider holds EX).
    #[inline]
    pub fn is_div(self) -> bool {
        self.flags & DIV != 0
    }
}

/// Most slots one [`BlockCost`] can summarise — more than any fetch unit
/// delivers in one batch (SOFIA blocks hold at most
/// `sofia_transform::MAX_BLOCK_WORDS` words).
pub const MAX_BATCH_SLOTS: usize = u8::MAX as usize;

/// The static pipeline cost of one batch of slots: how many of its slots
/// carry each [`TimingClass`] flag, and how many read the register the
/// slot before them loaded. It is independent of the [`PipelineModel`],
/// so it is built once, when the batch is decoded ([`BlockCost::of`]),
/// and a verified-block-cache or refill-memo line keeps it beside its
/// slots. Ten bytes.
///
/// # Examples
///
/// ```
/// use sofia_cpu::fetch::Slot;
/// use sofia_cpu::pipeline::{BlockCost, PipelineModel};
/// use sofia_isa::{Instruction, Reg};
///
/// let lw = Instruction::Lw { rt: Reg::T0, base: Reg::SP, offset: 0 };
/// let add = Instruction::Add { rd: Reg::T1, rs: Reg::T0, rt: Reg::T0 };
/// let cost = BlockCost::of(&[Slot::new(0x100, lw), Slot::new(0x104, add)]);
/// assert_eq!((cost.slots(), cost.loads(), cost.load_use_pairs()), (2, 1, 1));
/// // Two issue cycles plus the load-use bubble inside the batch.
/// assert_eq!(PipelineModel::default().batch_cycles(&cost, false, false), 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct BlockCost {
    /// Byte `i` counts the slots carrying flag bit `i`, so a slot adds
    /// its flags to all eight counts in one `u64` add ([`spread`]); no
    /// count exceeds [`MAX_BATCH_SLOTS`], so no add carries into the next
    /// byte.
    classes: [u8; 8],
    slots: u8,
    load_use_pairs: u8,
}

// Verified-block-cache and refill-memo lines keep one per line.
const _: () = assert!(std::mem::size_of::<BlockCost>() <= 16);

/// The byte lanes of [`BlockCost::classes`] whose class has a penalty of
/// its own in the cost rule: jumps, loads, stores, multiplies, divides.
const PENALISED: u64 = u64::from_le_bytes([0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0xFF, 0xFF]);

/// `flags` with bit `i` moved to the low bit of byte `i`: replicate the
/// byte into every lane, keep bit `i` in lane `i`, and carry each kept
/// bit to its lane's top bit, which the shift then brings down.
#[inline]
fn spread(flags: u8) -> u64 {
    let kept = (u64::from(flags) * 0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    ((kept + 0x7F7F_7F7F_7F7F_7F7F) >> 7) & 0x0101_0101_0101_0101
}

impl BlockCost {
    /// Sums the static cost of `slots`, in issue order.
    ///
    /// # Panics
    ///
    /// Panics if `slots` holds more than [`MAX_BATCH_SLOTS`] slots.
    #[inline]
    pub fn of(slots: &[Slot]) -> BlockCost {
        assert!(
            slots.len() <= MAX_BATCH_SLOTS,
            "a batch holds at most {MAX_BATCH_SLOTS} slots, not {}",
            slots.len()
        );
        let mut classes = 0u64;
        let mut load_use_pairs = 0;
        let mut prev_load_dest = None;
        for slot in slots {
            let class = slot.class();
            classes += spread(class.flags);
            load_use_pairs += u8::from(prev_load_dest.is_some_and(|d| class.reads(d)));
            prev_load_dest = class.load_dest();
        }
        BlockCost {
            classes: classes.to_le_bytes(),
            slots: slots.len() as u8,
            load_use_pairs,
        }
    }

    /// The slots carrying `flag`.
    #[inline]
    fn count(&self, flag: u8) -> u64 {
        self.classes[flag.trailing_zeros() as usize].into()
    }

    /// Slots in the batch.
    #[inline]
    pub fn slots(&self) -> u64 {
        self.slots.into()
    }

    /// Conditional branches.
    #[inline]
    pub fn branches(&self) -> u64 {
        self.count(BRANCH)
    }

    /// Loads.
    #[inline]
    pub fn loads(&self) -> u64 {
        self.count(LOAD)
    }

    /// Stores.
    #[inline]
    pub fn stores(&self) -> u64 {
        self.count(STORE)
    }

    /// Calls (`jal`/`jalr`).
    #[inline]
    pub fn calls(&self) -> u64 {
        self.count(CALL)
    }

    /// Slots that read the register the slot before them loaded: the
    /// load-use bubbles inside the batch. Whether the first slot reads
    /// what the previous batch loaded is a fact of the run, not of the
    /// batch.
    #[inline]
    pub fn load_use_pairs(&self) -> u64 {
        self.load_use_pairs.into()
    }
}

impl PipelineModel {
    /// Cycles charged for a batch that retired every slot `cost`
    /// summarises — the model's one cost rule (excluding I-cache effects,
    /// which the machine adds separately): 1 base cycle per slot plus
    /// hazard penalties.
    ///
    /// `taken_last` reports whether the batch's last slot is a conditional
    /// branch that was taken (a taken branch ends a batch, so no other
    /// slot can be one); `entry_load_use` whether its first slot reads the
    /// destination of the load retired just before the batch. The sum is
    /// `u64`, so no penalty field can overflow it; a zero
    /// `mul_cycles`/`div_cycles` costs one cycle.
    #[inline]
    pub fn batch_cycles(&self, cost: &BlockCost, taken_last: bool, entry_load_use: bool) -> u64 {
        let times = |count: u64, cycles: u32| count * u64::from(cycles);
        let mut cycles = cost.slots()
            + times(
                cost.load_use_pairs() + u64::from(entry_load_use),
                self.load_use_penalty,
            )
            + times(taken_last.into(), self.taken_branch_penalty);
        // Batches of ALU ops and branches alone skip the other terms.
        if u64::from_le_bytes(cost.classes) & PENALISED != 0 {
            cycles += times(cost.count(DIRECT_JUMP), self.direct_jump_penalty)
                + times(cost.count(INDIRECT_JUMP), self.indirect_jump_penalty)
                + times(cost.count(MUL), self.mul_cycles.saturating_sub(1))
                + times(cost.count(DIV), self.div_cycles.saturating_sub(1))
                + times(cost.loads() + cost.stores(), self.data_penalty);
        }
        cycles
    }

    /// [`PipelineModel::batch_cycles`] for one slot of class `class`:
    /// `taken` reports whether a conditional branch was taken, `load_use`
    /// whether the slot reads the destination of the immediately
    /// preceding load.
    #[inline]
    pub fn slot_cycles(&self, class: TimingClass, taken: bool, load_use: bool) -> u64 {
        let cost = BlockCost {
            classes: spread(class.flags).to_le_bytes(),
            slots: 1,
            load_use_pairs: 0,
        };
        self.batch_cycles(&cost, taken && class.is_branch(), load_use)
    }

    /// [`PipelineModel::slot_cycles`] for an instruction not yet
    /// classified: `prev_load_dest` is the destination of the immediately
    /// preceding instruction *if it was a load*.
    pub fn instruction_cycles(
        &self,
        inst: &Instruction,
        taken: bool,
        prev_load_dest: Option<Reg>,
    ) -> u64 {
        let class = TimingClass::of(inst);
        self.slot_cycles(class, taken, prev_load_dest.is_some_and(|d| class.reads(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_isa::{Instruction, Reg};

    fn model() -> PipelineModel {
        PipelineModel::default()
    }

    #[test]
    fn plain_alu_is_one_cycle() {
        let add = Instruction::Add {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(model().instruction_cycles(&add, false, None), 1);
    }

    #[test]
    fn taken_branch_pays_flush() {
        let b = Instruction::Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            offset: 1,
        };
        assert_eq!(model().instruction_cycles(&b, true, None), 4);
        assert_eq!(model().instruction_cycles(&b, false, None), 1);
    }

    #[test]
    fn jump_penalties_differ_by_resolution_stage() {
        let j = Instruction::J { index: 4 };
        let jr = Instruction::Jr { rs: Reg::RA };
        assert_eq!(model().instruction_cycles(&j, false, None), 2);
        assert_eq!(model().instruction_cycles(&jr, false, None), 4);
    }

    #[test]
    fn load_use_bubble_only_when_dependent() {
        let dep = Instruction::Add {
            rd: Reg::T2,
            rs: Reg::T0,
            rt: Reg::T1,
        };
        assert_eq!(model().instruction_cycles(&dep, false, Some(Reg::T0)), 2);
        assert_eq!(model().instruction_cycles(&dep, false, Some(Reg::T5)), 1);
        assert_eq!(model().instruction_cycles(&dep, false, None), 1);
    }

    #[test]
    fn long_latency_units() {
        let mul = Instruction::Mul {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        let div = Instruction::Div {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(model().instruction_cycles(&mul, false, None), 4);
        assert_eq!(model().instruction_cycles(&div, false, None), 35);
    }

    #[test]
    fn ma_stage_position_matches_paper() {
        // Fig. 5/6 place MA fifth: IF ID OF EXE MA XCP WB.
        assert_eq!(STAGES[MA_STAGE], "MA");
        assert_eq!(MA_STAGE, 4);
    }
}
