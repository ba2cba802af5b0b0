//! The class is the instruction: a [`TimingClass`] computed once at
//! decode charges exactly what classifying the instruction on every
//! execution charged. The reference model here is the cost rule and the
//! read-register list as they were before the class existed, kept
//! verbatim; random decodable words and random small pipeline models
//! must agree with it for every branch outcome and every preceding load.

use proptest::prelude::*;
use sofia_cpu::fetch::Slot;
use sofia_cpu::pipeline::{PipelineModel, TimingClass};
use sofia_isa::{Instruction, Reg};

/// The registers an instruction reads, as the pre-class `use_regs`
/// listed them.
fn reference_use_regs(inst: &Instruction) -> Vec<Reg> {
    use Instruction::*;
    match *inst {
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
        | Bgeu { rs, rt, .. } => vec![rs, rt],
        Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => vec![rt],
        Addi { rs, .. }
        | Slti { rs, .. }
        | Sltiu { rs, .. }
        | Andi { rs, .. }
        | Ori { rs, .. }
        | Xori { rs, .. } => vec![rs],
        Lb { base, .. }
        | Lbu { base, .. }
        | Lh { base, .. }
        | Lhu { base, .. }
        | Lw { base, .. } => {
            vec![base]
        }
        Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => vec![rt, base],
        Jr { rs } | Jalr { rs, .. } => vec![rs],
        Lui { .. } | J { .. } | Jal { .. } | Halt => vec![],
    }
}

/// The pre-class cost rule: re-classifies the instruction on every call.
fn reference_cycles(
    model: &PipelineModel,
    inst: &Instruction,
    taken: bool,
    prev_load_dest: Option<Reg>,
) -> u32 {
    let mut cycles = 1;
    if let Some(dest) = prev_load_dest {
        if reference_use_regs(inst).contains(&dest) {
            cycles += model.load_use_penalty;
        }
    }
    if inst.is_branch() {
        if taken {
            cycles += model.taken_branch_penalty;
        }
    } else if inst.is_direct_jump() {
        cycles += model.direct_jump_penalty;
    } else if inst.is_indirect_jump() {
        cycles += model.indirect_jump_penalty;
    }
    match inst {
        Instruction::Mul { .. } => cycles += model.mul_cycles - 1,
        Instruction::Div { .. }
        | Instruction::Divu { .. }
        | Instruction::Rem { .. }
        | Instruction::Remu { .. } => cycles += model.div_cycles - 1,
        _ => {}
    }
    if inst.is_load() || inst.is_store() {
        cycles += model.data_penalty;
    }
    cycles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_class_charges_and_counts_what_the_instruction_did(
        word in any::<u32>(),
        pc in any::<u32>(),
        penalties in (0u32..8, 0u32..8, 0u32..8, 0u32..4),
        units in (1u32..12, 1u32..48, 0u32..8, 0u32..30),
    ) {
        let Ok(inst) = Instruction::decode(word) else {
            prop_assume!(false);
            unreachable!()
        };
        let model = PipelineModel {
            taken_branch_penalty: penalties.0,
            direct_jump_penalty: penalties.1,
            indirect_jump_penalty: penalties.2,
            load_use_penalty: penalties.3,
            mul_cycles: units.0,
            div_cycles: units.1,
            drain_cycles: units.2,
            data_penalty: units.3,
        };
        let slot = Slot::new(pc, inst);
        prop_assert_eq!(slot.pc(), pc);
        prop_assert_eq!(slot.inst(), &inst);
        let class = slot.class();
        prop_assert_eq!(class, TimingClass::of(&inst));

        // One cost rule: every branch outcome, every preceding load.
        for taken in [false, true] {
            for prev_load_dest in std::iter::once(None).chain(Reg::all().map(Some)) {
                let expected = u64::from(reference_cycles(&model, &inst, taken, prev_load_dest));
                let load_use = prev_load_dest.is_some_and(|d| class.reads(d));
                prop_assert_eq!(model.slot_cycles(class, taken, load_use), expected);
                prop_assert_eq!(model.instruction_cycles(&inst, taken, prev_load_dest), expected);
            }
        }

        // The flags are the predicates.
        prop_assert_eq!(class.is_branch(), inst.is_branch());
        prop_assert_eq!(class.is_direct_jump(), inst.is_direct_jump());
        prop_assert_eq!(class.is_indirect_jump(), inst.is_indirect_jump());
        prop_assert_eq!(class.is_load(), inst.is_load());
        prop_assert_eq!(class.is_store(), inst.is_store());
        prop_assert_eq!(class.is_call(), inst.is_call());
        prop_assert_eq!(class.is_mul(), matches!(inst, Instruction::Mul { .. }));
        prop_assert_eq!(
            class.is_div(),
            matches!(
                inst,
                Instruction::Div { .. }
                    | Instruction::Divu { .. }
                    | Instruction::Rem { .. }
                    | Instruction::Remu { .. }
            )
        );
        let load_dest = if inst.is_load() { inst.def_reg() } else { None };
        prop_assert_eq!(class.load_dest(), load_dest);

        // The read registers are the old list: in order from `use_regs`,
        // as a set from the class.
        let reads = reference_use_regs(&inst);
        prop_assert_eq!(inst.use_regs().into_iter().flatten().collect::<Vec<_>>(), reads.clone());
        for r in Reg::all() {
            prop_assert_eq!(class.reads(r), reads.contains(&r));
        }
    }
}
