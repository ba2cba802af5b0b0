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

use sofia_isa::{Instruction, Reg};

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
                | flag(inst.is_direct_jump(), DIRECT_JUMP)
                | flag(inst.is_indirect_jump(), INDIRECT_JUMP)
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

impl PipelineModel {
    /// Cycles charged for one retired instruction of class `class` — the
    /// model's one cost rule (excluding I-cache effects, which the
    /// machine adds separately): 1 base cycle plus hazard penalties.
    ///
    /// `taken` reports whether a conditional branch was taken;
    /// `load_use` whether the instruction reads the destination of the
    /// immediately preceding load. The sum is `u64`, so no penalty field
    /// can overflow it; a zero `mul_cycles`/`div_cycles` costs one cycle.
    #[inline]
    pub fn slot_cycles(&self, class: TimingClass, taken: bool, load_use: bool) -> u64 {
        let mut cycles = 1;
        if load_use {
            cycles += u64::from(self.load_use_penalty);
        }
        if class.is_branch() {
            if taken {
                cycles += u64::from(self.taken_branch_penalty);
            }
        } else if class.is_direct_jump() {
            cycles += u64::from(self.direct_jump_penalty);
        } else if class.is_indirect_jump() {
            cycles += u64::from(self.indirect_jump_penalty);
        }
        if class.is_mul() {
            cycles += u64::from(self.mul_cycles.saturating_sub(1));
        } else if class.is_div() {
            cycles += u64::from(self.div_cycles.saturating_sub(1));
        }
        if class.is_load() || class.is_store() {
            cycles += u64::from(self.data_penalty);
        }
        cycles
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
