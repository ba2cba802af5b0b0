//! The SL32 instruction model.

use std::fmt;

use crate::Reg;

/// A decoded SL32 instruction.
///
/// SL32 is a fixed-width 32-bit load/store ISA with three encoding formats
/// (R, I, J) in the style of classic MIPS-32, simplified for the SOFIA
/// reproduction: **no branch delay slots** and no register windows (see
/// README, *Reproducing the paper*). The all-zero word is the canonical
/// [`Instruction::nop`].
///
/// Branch offsets are signed word counts relative to the *next* instruction
/// (`target = pc + 4 + offset * 4`); jump indices address words within the
/// 256 MiB region of the jump itself (`target = (pc & 0xF000_0000) |
/// (index << 2)`).
///
/// # Examples
///
/// ```
/// use sofia_isa::{Instruction, Reg};
///
/// let add = Instruction::Add { rd: Reg::V0, rs: Reg::A0, rt: Reg::A1 };
/// let word = add.encode();
/// assert_eq!(Instruction::decode(word)?, add);
/// assert!(!add.is_store());
/// # Ok::<(), sofia_isa::error::DecodeError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // operand fields follow one fixed naming scheme
pub enum Instruction {
    // ---- R-type ALU, three registers: rd <- rs OP rt ----
    Add {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sub {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    And {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Or {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Xor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Nor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Set `rd` to 1 if `rs < rt` (signed), else 0.
    Slt {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Set `rd` to 1 if `rs < rt` (unsigned), else 0.
    Sltu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `rd <- low 32 bits of rs * rt`.
    Mul {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Signed division; division by zero traps.
    Div {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Divu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Signed remainder; division by zero traps.
    Rem {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Remu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `rd <- rt << (rs & 31)`.
    Sllv {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Srlv {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Srav {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },

    // ---- R-type shifts by immediate: rd <- rt SHIFT shamt ----
    Sll {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    Srl {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    Sra {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },

    // ---- R-type control ----
    /// Indirect jump to the address in `rs`.
    Jr {
        rs: Reg,
    },
    /// Indirect call: `rd <- pc + 4`, jump to `rs`.
    Jalr {
        rd: Reg,
        rs: Reg,
    },
    /// Stop the simulation; the program's exit point.
    Halt,

    // ---- I-type ALU ----
    /// `rt <- rs + sign_extend(imm)`.
    Addi {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Slti {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Sltiu {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    /// `rt <- rs & zero_extend(imm)`.
    Andi {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Ori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Xori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    /// `rt <- imm << 16`.
    Lui {
        rt: Reg,
        imm: u16,
    },

    // ---- I-type memory: address = base + sign_extend(offset) ----
    Lb {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lbu {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lh {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lhu {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lw {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Sb {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Sh {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Sw {
        rt: Reg,
        base: Reg,
        offset: i16,
    },

    // ---- I-type compare-and-branch; offset in words from pc + 4 ----
    Beq {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    Bne {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    /// Branch if `rs < rt` (signed).
    Blt {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    /// Branch if `rs >= rt` (signed).
    Bge {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    Bltu {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    Bgeu {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },

    // ---- J-type; index is a 26-bit word index ----
    J {
        index: u32,
    },
    /// Call: `ra <- pc + 4`, jump to index.
    Jal {
        index: u32,
    },
}

impl Instruction {
    /// The canonical no-operation instruction, `sll zero, zero, 0`,
    /// which encodes to the all-zero word.
    ///
    /// # Examples
    ///
    /// ```
    /// use sofia_isa::Instruction;
    /// assert_eq!(Instruction::nop().encode(), 0);
    /// ```
    pub const fn nop() -> Instruction {
        Instruction::Sll {
            rd: Reg::ZERO,
            rt: Reg::ZERO,
            shamt: 0,
        }
    }

    /// Whether this instruction is a no-op in effect (writes nothing).
    pub fn is_nop(&self) -> bool {
        *self == Instruction::nop()
    }

    /// Whether this instruction writes to data memory.
    pub const fn is_store(&self) -> bool {
        matches!(
            self,
            Instruction::Sb { .. } | Instruction::Sh { .. } | Instruction::Sw { .. }
        )
    }

    /// Whether this instruction reads from data memory.
    pub const fn is_load(&self) -> bool {
        matches!(
            self,
            Instruction::Lb { .. }
                | Instruction::Lbu { .. }
                | Instruction::Lh { .. }
                | Instruction::Lhu { .. }
                | Instruction::Lw { .. }
        )
    }

    /// Whether this is a conditional branch.
    pub const fn is_branch(&self) -> bool {
        matches!(
            self,
            Instruction::Beq { .. }
                | Instruction::Bne { .. }
                | Instruction::Blt { .. }
                | Instruction::Bge { .. }
                | Instruction::Bltu { .. }
                | Instruction::Bgeu { .. }
        )
    }

    /// Whether this is a direct jump (`j`/`jal`).
    pub const fn is_direct_jump(&self) -> bool {
        matches!(self, Instruction::J { .. } | Instruction::Jal { .. })
    }

    /// Whether this is an indirect jump (`jr`/`jalr`).
    pub const fn is_indirect_jump(&self) -> bool {
        matches!(self, Instruction::Jr { .. } | Instruction::Jalr { .. })
    }

    /// Whether this is a call (`jal`/`jalr`), i.e. it links a return address.
    pub const fn is_call(&self) -> bool {
        matches!(self, Instruction::Jal { .. } | Instruction::Jalr { .. })
    }

    /// Whether this instruction can change the program counter: any
    /// branch or jump, or `halt` (which terminates the stream).
    ///
    /// SOFIA's transformer only places such instructions in the **last**
    /// slot of an execution block ("control can only exit at `inst_n`").
    pub const fn is_control_transfer(&self) -> bool {
        self.is_branch()
            || self.is_direct_jump()
            || self.is_indirect_jump()
            || matches!(self, Instruction::Halt)
    }

    /// The register written by this instruction, if any.
    ///
    /// Writes to `zero` are reported as `None` since they have no effect.
    pub fn def_reg(&self) -> Option<Reg> {
        use Instruction::*;
        let rd = match *self {
            Add { rd, .. }
            | Sub { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Nor { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Mul { rd, .. }
            | Div { rd, .. }
            | Divu { rd, .. }
            | Rem { rd, .. }
            | Remu { rd, .. }
            | Sllv { rd, .. }
            | Srlv { rd, .. }
            | Srav { rd, .. }
            | Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Jalr { rd, .. } => rd,
            Addi { rt, .. }
            | Slti { rt, .. }
            | Sltiu { rt, .. }
            | Andi { rt, .. }
            | Ori { rt, .. }
            | Xori { rt, .. }
            | Lui { rt, .. }
            | Lb { rt, .. }
            | Lbu { rt, .. }
            | Lh { rt, .. }
            | Lhu { rt, .. }
            | Lw { rt, .. } => rt,
            Jal { .. } => Reg::RA,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// The registers read by this instruction: at most two, in operand
    /// order, with `None` in the unused entries. Allocation-free, so the
    /// pipeline can ask it per executed instruction.
    ///
    /// # Examples
    ///
    /// ```
    /// use sofia_isa::{Instruction, Reg};
    ///
    /// let sw = Instruction::Sw { rt: Reg::T0, base: Reg::SP, offset: 4 };
    /// assert_eq!(sw.use_regs(), [Some(Reg::T0), Some(Reg::SP)]);
    /// assert_eq!(Instruction::Halt.use_regs(), [None, None]);
    /// ```
    pub const fn use_regs(&self) -> [Option<Reg>; 2] {
        use Instruction::*;
        match *self {
            Add { rs, rt, .. }
            | Sub { rs, rt, .. }
            | And { rs, rt, .. }
            | Or { rs, rt, .. }
            | Xor { rs, rt, .. }
            | Nor { rs, rt, .. }
            | Slt { rs, rt, .. }
            | Sltu { rs, rt, .. }
            | Mul { rs, rt, .. }
            | Div { rs, rt, .. }
            | Divu { rs, rt, .. }
            | Rem { rs, rt, .. }
            | Remu { rs, rt, .. }
            | Sllv { rs, rt, .. }
            | Srlv { rs, rt, .. }
            | Srav { rs, rt, .. }
            | Beq { rs, rt, .. }
            | Bne { rs, rt, .. }
            | Blt { rs, rt, .. }
            | Bge { rs, rt, .. }
            | Bltu { rs, rt, .. }
            | Bgeu { rs, rt, .. } => [Some(rs), Some(rt)],
            Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => [Some(rt), None],
            Addi { rs, .. }
            | Slti { rs, .. }
            | Sltiu { rs, .. }
            | Andi { rs, .. }
            | Ori { rs, .. }
            | Xori { rs, .. } => [Some(rs), None],
            Lb { base, .. }
            | Lbu { base, .. }
            | Lh { base, .. }
            | Lhu { base, .. }
            | Lw { base, .. } => [Some(base), None],
            Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => {
                [Some(rt), Some(base)]
            }
            Jr { rs } | Jalr { rs, .. } => [Some(rs), None],
            Lui { .. } | J { .. } | Jal { .. } | Halt => [None, None],
        }
    }

    /// The conditional-branch or direct-jump target for an instruction at
    /// address `pc`, if this instruction has a static target.
    ///
    /// # Examples
    ///
    /// ```
    /// use sofia_isa::{Instruction, Reg};
    ///
    /// let b = Instruction::Beq { rs: Reg::ZERO, rt: Reg::ZERO, offset: -2 };
    /// assert_eq!(b.static_target(0x100), Some(0x100 + 4 - 8));
    /// ```
    pub fn static_target(&self, pc: u32) -> Option<u32> {
        use Instruction::*;
        match *self {
            Beq { offset, .. }
            | Bne { offset, .. }
            | Blt { offset, .. }
            | Bge { offset, .. }
            | Bltu { offset, .. }
            | Bgeu { offset, .. } => {
                Some(pc.wrapping_add(4).wrapping_add((offset as i32 as u32) << 2))
            }
            J { index } | Jal { index } => Some((pc & 0xF000_0000) | (index << 2)),
            _ => None,
        }
    }

    /// Whether execution can fall through to the following instruction.
    ///
    /// False for unconditional jumps (`j`, `jr`, `jalr` — the return
    /// arrives via the link register, not fall-through) and `halt`; `jal`
    /// is treated as *not* falling through directly (the successor is
    /// reached as a return point).
    pub const fn falls_through(&self) -> bool {
        !matches!(
            self,
            Instruction::J { .. }
                | Instruction::Jr { .. }
                | Instruction::Jal { .. }
                | Instruction::Jalr { .. }
                | Instruction::Halt
        )
    }

    /// The instruction's mnemonic, e.g. `"addi"`.
    pub const fn mnemonic(&self) -> &'static str {
        use Instruction::*;
        match self {
            Add { .. } => "add",
            Sub { .. } => "sub",
            And { .. } => "and",
            Or { .. } => "or",
            Xor { .. } => "xor",
            Nor { .. } => "nor",
            Slt { .. } => "slt",
            Sltu { .. } => "sltu",
            Mul { .. } => "mul",
            Div { .. } => "div",
            Divu { .. } => "divu",
            Rem { .. } => "rem",
            Remu { .. } => "remu",
            Sllv { .. } => "sllv",
            Srlv { .. } => "srlv",
            Srav { .. } => "srav",
            Sll { .. } => "sll",
            Srl { .. } => "srl",
            Sra { .. } => "sra",
            Jr { .. } => "jr",
            Jalr { .. } => "jalr",
            Halt => "halt",
            Addi { .. } => "addi",
            Slti { .. } => "slti",
            Sltiu { .. } => "sltiu",
            Andi { .. } => "andi",
            Ori { .. } => "ori",
            Xori { .. } => "xori",
            Lui { .. } => "lui",
            Lb { .. } => "lb",
            Lbu { .. } => "lbu",
            Lh { .. } => "lh",
            Lhu { .. } => "lhu",
            Lw { .. } => "lw",
            Sb { .. } => "sb",
            Sh { .. } => "sh",
            Sw { .. } => "sw",
            Beq { .. } => "beq",
            Bne { .. } => "bne",
            Blt { .. } => "blt",
            Bge { .. } => "bge",
            Bltu { .. } => "bltu",
            Bgeu { .. } => "bgeu",
            J { .. } => "j",
            Jal { .. } => "jal",
        }
    }
}

impl Default for Instruction {
    /// The default instruction is [`Instruction::nop`].
    fn default() -> Self {
        Instruction::nop()
    }
}

impl fmt::Display for Instruction {
    /// Formats the instruction in assembler syntax (branch/jump targets are
    /// shown numerically; use the disassembler for address annotation).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        if self.is_nop() {
            return f.write_str("nop");
        }
        let m = self.mnemonic();
        match *self {
            Add { rd, rs, rt }
            | Sub { rd, rs, rt }
            | And { rd, rs, rt }
            | Or { rd, rs, rt }
            | Xor { rd, rs, rt }
            | Nor { rd, rs, rt }
            | Slt { rd, rs, rt }
            | Sltu { rd, rs, rt }
            | Mul { rd, rs, rt }
            | Div { rd, rs, rt }
            | Divu { rd, rs, rt }
            | Rem { rd, rs, rt }
            | Remu { rd, rs, rt } => {
                write!(f, "{m} {rd}, {rs}, {rt}")
            }
            Sllv { rd, rt, rs } | Srlv { rd, rt, rs } | Srav { rd, rt, rs } => {
                write!(f, "{m} {rd}, {rt}, {rs}")
            }
            Sll { rd, rt, shamt } | Srl { rd, rt, shamt } | Sra { rd, rt, shamt } => {
                write!(f, "{m} {rd}, {rt}, {shamt}")
            }
            Jr { rs } => write!(f, "jr {rs}"),
            Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Halt => f.write_str("halt"),
            Addi { rt, rs, imm } | Slti { rt, rs, imm } | Sltiu { rt, rs, imm } => {
                write!(f, "{m} {rt}, {rs}, {imm}")
            }
            Andi { rt, rs, imm } | Ori { rt, rs, imm } | Xori { rt, rs, imm } => {
                write!(f, "{m} {rt}, {rs}, {imm:#x}")
            }
            Lui { rt, imm } => write!(f, "lui {rt}, {imm:#x}"),
            Lb { rt, base, offset }
            | Lbu { rt, base, offset }
            | Lh { rt, base, offset }
            | Lhu { rt, base, offset }
            | Lw { rt, base, offset }
            | Sb { rt, base, offset }
            | Sh { rt, base, offset }
            | Sw { rt, base, offset } => {
                write!(f, "{m} {rt}, {offset}({base})")
            }
            Beq { rs, rt, offset }
            | Bne { rs, rt, offset }
            | Blt { rs, rt, offset }
            | Bge { rs, rt, offset }
            | Bltu { rs, rt, offset }
            | Bgeu { rs, rt, offset } => {
                write!(f, "{m} {rs}, {rt}, {offset}")
            }
            J { index } => write!(f, "j {:#x}", index << 2),
            Jal { index } => write!(f, "jal {:#x}", index << 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_all_zero_and_harmless() {
        let n = Instruction::nop();
        assert!(n.is_nop());
        assert_eq!(n.encode(), 0);
        assert_eq!(n.def_reg(), None);
        assert!(!n.is_control_transfer());
    }

    #[test]
    fn classification_is_consistent() {
        let sw = Instruction::Sw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: -4,
        };
        assert!(sw.is_store() && !sw.is_load() && !sw.is_control_transfer());

        let jal = Instruction::Jal { index: 0x40 };
        assert!(jal.is_call() && jal.is_direct_jump() && jal.is_control_transfer());
        assert!(!jal.falls_through());
        assert_eq!(jal.def_reg(), Some(Reg::RA));

        let beq = Instruction::Beq {
            rs: Reg::A0,
            rt: Reg::A1,
            offset: 3,
        };
        assert!(beq.is_branch() && beq.falls_through());
    }

    #[test]
    fn static_targets() {
        let b = Instruction::Bne {
            rs: Reg::T0,
            rt: Reg::ZERO,
            offset: -1,
        };
        assert_eq!(b.static_target(0x200), Some(0x200));
        let j = Instruction::J { index: 0x123 };
        assert_eq!(
            j.static_target(0x1000_0000),
            Some(0x1000_0000 & 0xF000_0000 | 0x48C)
        );
        let add = Instruction::Add {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(add.static_target(0), None);
    }

    #[test]
    fn def_to_zero_is_hidden() {
        let i = Instruction::Addi {
            rt: Reg::ZERO,
            rs: Reg::T0,
            imm: 5,
        };
        assert_eq!(i.def_reg(), None);
    }

    #[test]
    fn display_smoke() {
        let i = Instruction::Lw {
            rt: Reg::T1,
            base: Reg::A0,
            offset: 8,
        };
        assert_eq!(i.to_string(), "lw t1, 8(a0)");
        assert_eq!(Instruction::Halt.to_string(), "halt");
    }
}
