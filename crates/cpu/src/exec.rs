//! The functional executor: architectural semantics of every SL32
//! instruction, shared by the vanilla machine and the SOFIA machine.

use sofia_isa::{Instruction, Reg};

use crate::mem::{Memory, Width};
use crate::Trap;

/// The architectural register file (`r0` reads as zero, writes ignored).
///
/// # Examples
///
/// ```
/// use sofia_cpu::exec::RegFile;
/// use sofia_isa::Reg;
///
/// let mut regs = RegFile::new();
/// regs.set(Reg::T0, 7);
/// regs.set(Reg::ZERO, 99);
/// assert_eq!(regs.get(Reg::T0), 7);
/// assert_eq!(regs.get(Reg::ZERO), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// A zeroed register file.
    pub const fn new() -> RegFile {
        RegFile { regs: [0; 32] }
    }

    /// Reads a register (`zero` is always 0).
    pub fn get(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a register (writes to `zero` are discarded).
    pub fn set(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Clears every register (SOFIA reset).
    pub fn clear(&mut self) {
        self.regs = [0; 32];
    }

    /// The whole file as an array, in index order — the snapshot export.
    pub fn words(&self) -> [u32; 32] {
        self.regs
    }

    /// Replaces the whole file (snapshot restore). `r0` is forced back
    /// to zero so the hardwired-zero invariant survives any input.
    pub fn set_words(&mut self, mut words: [u32; 32]) {
        words[0] = 0;
        self.regs = words;
    }
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile::new()
    }
}

/// Control-flow effect of one executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Fall through to `pc + 4`.
    Next,
    /// Transfer control to the given address: a taken branch, jump, call
    /// or return (a not-taken branch is [`Effect::Next`]; the engine
    /// tells the two apart for timing by checking
    /// [`crate::pipeline::TimingClass::is_branch`] on the retiring slot).
    Jump {
        /// The transfer target.
        target: u32,
    },
    /// The program executed `halt`.
    Halt,
}

/// Executes one instruction architecturally: updates `regs` and `mem`,
/// returns the control-flow effect.
///
/// Purely functional with respect to timing — cycle accounting lives in
/// [`crate::pipeline`] — so SOFIA can reuse the exact same semantics
/// behind its verified-block fetch unit.
///
/// # Errors
///
/// Propagates memory traps and raises [`Trap::DivideByZero`].
///
/// # Examples
///
/// ```
/// use sofia_cpu::exec::{execute, Effect, RegFile};
/// use sofia_cpu::mem::Memory;
/// use sofia_isa::{Instruction, Reg};
///
/// let mut regs = RegFile::new();
/// let mut mem = Memory::new(0x100, vec![0], 0x1000_0000, 64);
/// let add = Instruction::Addi { rt: Reg::T0, rs: Reg::ZERO, imm: 5 };
/// assert_eq!(execute(&add, 0x100, &mut regs, &mut mem)?, Effect::Next);
/// assert_eq!(regs.get(Reg::T0), 5);
/// # Ok::<(), sofia_cpu::Trap>(())
/// ```
#[inline]
pub fn execute(
    inst: &Instruction,
    pc: u32,
    regs: &mut RegFile,
    mem: &mut Memory,
) -> Result<Effect, Trap> {
    use Instruction::*;
    let effect = match *inst {
        Add { rd, rs, rt } => {
            regs.set(rd, regs.get(rs).wrapping_add(regs.get(rt)));
            Effect::Next
        }
        Sub { rd, rs, rt } => {
            regs.set(rd, regs.get(rs).wrapping_sub(regs.get(rt)));
            Effect::Next
        }
        And { rd, rs, rt } => {
            regs.set(rd, regs.get(rs) & regs.get(rt));
            Effect::Next
        }
        Or { rd, rs, rt } => {
            regs.set(rd, regs.get(rs) | regs.get(rt));
            Effect::Next
        }
        Xor { rd, rs, rt } => {
            regs.set(rd, regs.get(rs) ^ regs.get(rt));
            Effect::Next
        }
        Nor { rd, rs, rt } => {
            regs.set(rd, !(regs.get(rs) | regs.get(rt)));
            Effect::Next
        }
        Slt { rd, rs, rt } => {
            regs.set(rd, ((regs.get(rs) as i32) < (regs.get(rt) as i32)) as u32);
            Effect::Next
        }
        Sltu { rd, rs, rt } => {
            regs.set(rd, (regs.get(rs) < regs.get(rt)) as u32);
            Effect::Next
        }
        Mul { rd, rs, rt } => {
            regs.set(rd, regs.get(rs).wrapping_mul(regs.get(rt)));
            Effect::Next
        }
        Div { rd, rs, rt } => {
            let (a, b) = (regs.get(rs) as i32, regs.get(rt) as i32);
            if b == 0 {
                return Err(Trap::DivideByZero { pc });
            }
            regs.set(rd, a.wrapping_div(b) as u32);
            Effect::Next
        }
        Divu { rd, rs, rt } => {
            let (a, b) = (regs.get(rs), regs.get(rt));
            if b == 0 {
                return Err(Trap::DivideByZero { pc });
            }
            regs.set(rd, a / b);
            Effect::Next
        }
        Rem { rd, rs, rt } => {
            let (a, b) = (regs.get(rs) as i32, regs.get(rt) as i32);
            if b == 0 {
                return Err(Trap::DivideByZero { pc });
            }
            regs.set(rd, a.wrapping_rem(b) as u32);
            Effect::Next
        }
        Remu { rd, rs, rt } => {
            let (a, b) = (regs.get(rs), regs.get(rt));
            if b == 0 {
                return Err(Trap::DivideByZero { pc });
            }
            regs.set(rd, a % b);
            Effect::Next
        }
        Sllv { rd, rt, rs } => {
            regs.set(rd, regs.get(rt) << (regs.get(rs) & 31));
            Effect::Next
        }
        Srlv { rd, rt, rs } => {
            regs.set(rd, regs.get(rt) >> (regs.get(rs) & 31));
            Effect::Next
        }
        Srav { rd, rt, rs } => {
            regs.set(rd, ((regs.get(rt) as i32) >> (regs.get(rs) & 31)) as u32);
            Effect::Next
        }
        Sll { rd, rt, shamt } => {
            regs.set(rd, regs.get(rt) << shamt);
            Effect::Next
        }
        Srl { rd, rt, shamt } => {
            regs.set(rd, regs.get(rt) >> shamt);
            Effect::Next
        }
        Sra { rd, rt, shamt } => {
            regs.set(rd, ((regs.get(rt) as i32) >> shamt) as u32);
            Effect::Next
        }
        Jr { rs } => Effect::Jump {
            target: regs.get(rs),
        },
        Jalr { rd, rs } => {
            let target = regs.get(rs);
            regs.set(rd, pc.wrapping_add(4));
            Effect::Jump { target }
        }
        Halt => Effect::Halt,
        Addi { rt, rs, imm } => {
            regs.set(rt, regs.get(rs).wrapping_add(imm as i32 as u32));
            Effect::Next
        }
        Slti { rt, rs, imm } => {
            regs.set(rt, ((regs.get(rs) as i32) < imm as i32) as u32);
            Effect::Next
        }
        Sltiu { rt, rs, imm } => {
            regs.set(rt, (regs.get(rs) < imm as i32 as u32) as u32);
            Effect::Next
        }
        Andi { rt, rs, imm } => {
            regs.set(rt, regs.get(rs) & imm as u32);
            Effect::Next
        }
        Ori { rt, rs, imm } => {
            regs.set(rt, regs.get(rs) | imm as u32);
            Effect::Next
        }
        Xori { rt, rs, imm } => {
            regs.set(rt, regs.get(rs) ^ imm as u32);
            Effect::Next
        }
        Lui { rt, imm } => {
            regs.set(rt, (imm as u32) << 16);
            Effect::Next
        }
        Lb { rt, base, offset } => {
            let v = mem.load(addr(regs, base, offset), Width::Byte)?;
            regs.set(rt, v as u8 as i8 as i32 as u32);
            Effect::Next
        }
        Lbu { rt, base, offset } => {
            let v = mem.load(addr(regs, base, offset), Width::Byte)?;
            regs.set(rt, v);
            Effect::Next
        }
        Lh { rt, base, offset } => {
            let v = mem.load(addr(regs, base, offset), Width::Half)?;
            regs.set(rt, v as u16 as i16 as i32 as u32);
            Effect::Next
        }
        Lhu { rt, base, offset } => {
            let v = mem.load(addr(regs, base, offset), Width::Half)?;
            regs.set(rt, v);
            Effect::Next
        }
        Lw { rt, base, offset } => {
            let v = mem.load(addr(regs, base, offset), Width::Word)?;
            regs.set(rt, v);
            Effect::Next
        }
        Sb { rt, base, offset } => {
            mem.store(addr(regs, base, offset), Width::Byte, regs.get(rt))?;
            Effect::Next
        }
        Sh { rt, base, offset } => {
            mem.store(addr(regs, base, offset), Width::Half, regs.get(rt))?;
            Effect::Next
        }
        Sw { rt, base, offset } => {
            mem.store(addr(regs, base, offset), Width::Word, regs.get(rt))?;
            Effect::Next
        }
        Beq { rs, rt, .. } => branch(inst, pc, regs.get(rs) == regs.get(rt)),
        Bne { rs, rt, .. } => branch(inst, pc, regs.get(rs) != regs.get(rt)),
        Blt { rs, rt, .. } => branch(inst, pc, (regs.get(rs) as i32) < (regs.get(rt) as i32)),
        Bge { rs, rt, .. } => branch(inst, pc, (regs.get(rs) as i32) >= (regs.get(rt) as i32)),
        Bltu { rs, rt, .. } => branch(inst, pc, regs.get(rs) < regs.get(rt)),
        Bgeu { rs, rt, .. } => branch(inst, pc, regs.get(rs) >= regs.get(rt)),
        J { .. } => Effect::Jump {
            target: inst.static_target(pc).expect("j has target"),
        },
        Jal { .. } => {
            regs.set(Reg::RA, pc.wrapping_add(4));
            Effect::Jump {
                target: inst.static_target(pc).expect("jal has target"),
            }
        }
    };
    Ok(effect)
}

fn addr(regs: &RegFile, base: Reg, offset: i16) -> u32 {
    regs.get(base).wrapping_add(offset as i32 as u32)
}

fn branch(inst: &Instruction, pc: u32, cond: bool) -> Effect {
    if cond {
        Effect::Jump {
            target: inst.static_target(pc).expect("branch has target"),
        }
    } else {
        Effect::Next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RegFile, Memory) {
        (
            RegFile::new(),
            Memory::new(0x100, vec![0; 4], 0x1000_0000, 256),
        )
    }

    fn run1(inst: Instruction, regs: &mut RegFile, mem: &mut Memory) -> Effect {
        execute(&inst, 0x100, regs, mem).unwrap()
    }

    #[test]
    fn arithmetic_semantics() {
        let (mut r, mut m) = setup();
        r.set(Reg::T0, 7);
        r.set(Reg::T1, 0xFFFF_FFFF); // -1
        run1(
            Instruction::Add {
                rd: Reg::T2,
                rs: Reg::T0,
                rt: Reg::T1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T2), 6);
        run1(
            Instruction::Sub {
                rd: Reg::T3,
                rs: Reg::T0,
                rt: Reg::T1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T3), 8);
        run1(
            Instruction::Mul {
                rd: Reg::T4,
                rs: Reg::T0,
                rt: Reg::T1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T4) as i32, -7);
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let (mut r, mut m) = setup();
        r.set(Reg::T0, 0xFFFF_FFFF); // -1 signed, max unsigned
        r.set(Reg::T1, 1);
        run1(
            Instruction::Slt {
                rd: Reg::T2,
                rs: Reg::T0,
                rt: Reg::T1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T2), 1); // -1 < 1
        run1(
            Instruction::Sltu {
                rd: Reg::T3,
                rs: Reg::T0,
                rt: Reg::T1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T3), 0); // max > 1
    }

    #[test]
    fn division_behaviour() {
        let (mut r, mut m) = setup();
        r.set(Reg::T0, 0x8000_0000); // i32::MIN
        r.set(Reg::T1, 0xFFFF_FFFF); // -1
        run1(
            Instruction::Div {
                rd: Reg::T2,
                rs: Reg::T0,
                rt: Reg::T1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T2), 0x8000_0000); // wrapping overflow
        r.set(Reg::T3, 7);
        r.set(Reg::T4, 2);
        run1(
            Instruction::Rem {
                rd: Reg::T5,
                rs: Reg::T3,
                rt: Reg::T4,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T5), 1);
        let err = execute(
            &Instruction::Div {
                rd: Reg::T2,
                rs: Reg::T0,
                rt: Reg::ZERO,
            },
            0x100,
            &mut r,
            &mut m,
        );
        assert_eq!(err, Err(Trap::DivideByZero { pc: 0x100 }));
    }

    #[test]
    fn shifts() {
        let (mut r, mut m) = setup();
        r.set(Reg::T0, 0x8000_0001);
        run1(
            Instruction::Srl {
                rd: Reg::T1,
                rt: Reg::T0,
                shamt: 1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T1), 0x4000_0000);
        run1(
            Instruction::Sra {
                rd: Reg::T2,
                rt: Reg::T0,
                shamt: 1,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T2), 0xC000_0000);
        r.set(Reg::T3, 33); // shift amounts are mod 32
        run1(
            Instruction::Sllv {
                rd: Reg::T4,
                rt: Reg::T0,
                rs: Reg::T3,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T4), 2);
    }

    #[test]
    fn sign_extension_on_loads() {
        let (mut r, mut m) = setup();
        m.store(0x1000_0000, Width::Word, 0x0000_80FF).unwrap();
        r.set(Reg::A0, 0x1000_0000);
        run1(
            Instruction::Lb {
                rt: Reg::T0,
                base: Reg::A0,
                offset: 0,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T0), 0xFFFF_FFFF); // 0xFF sign-extends
        run1(
            Instruction::Lbu {
                rt: Reg::T1,
                base: Reg::A0,
                offset: 0,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T1), 0xFF);
        run1(
            Instruction::Lh {
                rt: Reg::T2,
                base: Reg::A0,
                offset: 0,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T2), 0xFFFF_80FF);
        run1(
            Instruction::Lhu {
                rt: Reg::T3,
                base: Reg::A0,
                offset: 0,
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::T3), 0x80FF);
    }

    #[test]
    fn control_flow_effects() {
        let (mut r, mut m) = setup();
        r.set(Reg::T0, 1);
        let taken = execute(
            &Instruction::Bne {
                rs: Reg::T0,
                rt: Reg::ZERO,
                offset: 3,
            },
            0x100,
            &mut r,
            &mut m,
        )
        .unwrap();
        assert_eq!(taken, Effect::Jump { target: 0x110 });
        let not_taken = execute(
            &Instruction::Beq {
                rs: Reg::T0,
                rt: Reg::ZERO,
                offset: 3,
            },
            0x100,
            &mut r,
            &mut m,
        )
        .unwrap();
        assert_eq!(not_taken, Effect::Next);

        let jal = execute(
            &Instruction::Jal { index: 0x200 >> 2 },
            0x100,
            &mut r,
            &mut m,
        )
        .unwrap();
        assert_eq!(jal, Effect::Jump { target: 0x200 });
        assert_eq!(r.get(Reg::RA), 0x104);

        r.set(Reg::T5, 0x300);
        let jalr = execute(
            &Instruction::Jalr {
                rd: Reg::S0,
                rs: Reg::T5,
            },
            0x104,
            &mut r,
            &mut m,
        )
        .unwrap();
        assert_eq!(jalr, Effect::Jump { target: 0x300 });
        assert_eq!(r.get(Reg::S0), 0x108);
    }

    #[test]
    fn jalr_reads_rs_before_writing_rd() {
        // jalr t0, t0 must jump to the *old* t0.
        let (mut r, mut m) = setup();
        r.set(Reg::T0, 0x280);
        let e = execute(
            &Instruction::Jalr {
                rd: Reg::T0,
                rs: Reg::T0,
            },
            0x100,
            &mut r,
            &mut m,
        )
        .unwrap();
        assert_eq!(e, Effect::Jump { target: 0x280 });
        assert_eq!(r.get(Reg::T0), 0x104);
    }

    #[test]
    fn halt_effect() {
        let (mut r, mut m) = setup();
        assert_eq!(run1(Instruction::Halt, &mut r, &mut m), Effect::Halt);
    }
}
