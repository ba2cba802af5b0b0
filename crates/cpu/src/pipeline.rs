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

impl PipelineModel {
    /// Cycles charged for one retired instruction (excluding I-cache
    /// effects, which the machine adds separately): 1 base cycle plus
    /// hazard penalties.
    ///
    /// `taken` reports whether a conditional branch was taken;
    /// `prev_load_dest` is the destination of the immediately preceding
    /// instruction *if it was a load*.
    pub fn instruction_cycles(
        &self,
        inst: &Instruction,
        taken: bool,
        prev_load_dest: Option<Reg>,
    ) -> u32 {
        let mut cycles = 1;
        if let Some(dest) = prev_load_dest {
            if inst.use_regs().contains(&dest) {
                cycles += self.load_use_penalty;
            }
        }
        if inst.is_branch() {
            if taken {
                cycles += self.taken_branch_penalty;
            }
        } else if inst.is_direct_jump() {
            cycles += self.direct_jump_penalty;
        } else if inst.is_indirect_jump() {
            cycles += self.indirect_jump_penalty;
        }
        match inst {
            Instruction::Mul { .. } => cycles += self.mul_cycles - 1,
            Instruction::Div { .. }
            | Instruction::Divu { .. }
            | Instruction::Rem { .. }
            | Instruction::Remu { .. } => cycles += self.div_cycles - 1,
            _ => {}
        }
        if inst.is_load() || inst.is_store() {
            cycles += self.data_penalty;
        }
        cycles
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
