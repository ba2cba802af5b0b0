//! Charging a batch once equals charging it slot by slot.
//!
//! The engine charges each batch once, at its exit, from the
//! [`BlockCost`] its fetch unit lends. The reference model here is the
//! engine's batch loop as it was when every executed slot was charged on
//! its own — the loop, its per-slot `account` and the one-slot cost rule,
//! kept verbatim. Random decodable batches (1–16 slots of ALU ops, loads,
//! stores, multiplies, divides and not-taken branches) end in every exit
//! shape: falling through, a transfer at the last slot, and a transfer,
//! halt or trap at a random slot. They run under random pipeline models,
//! extreme fields included, from a random preceding load. Every counter,
//! the load-use tracker, the architectural state, the trap and the exit
//! reported to the fetch unit must equal the reference's.

use proptest::prelude::*;
use sofia_cpu::engine::{MachineConfig, Pipeline};
use sofia_cpu::exec::{execute, Effect, RegFile};
use sofia_cpu::fetch::{FetchCtx, FetchUnit, LentBatch, NoViolation, Slot, SlotOutcome};
use sofia_cpu::mem::Memory;
use sofia_cpu::pipeline::{BlockCost, PipelineModel, TimingClass};
use sofia_cpu::{ExecStats, Trap};
use sofia_isa::{Instruction, Reg};

const TEXT_BASE: u32 = 0x100;
const DATA_BASE: u32 = 0x1000_0000;
const RAM_SIZE: u32 = 4096;

/// The registers a batch writes and reads.
const WORK: [Reg; 6] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::S0, Reg::S1];

/// Never written: holds a nonzero divisor.
const DIVISOR: Reg = Reg::S7;

/// An instruction that falls through and cannot trap, picked by `word`.
/// Memory goes through `sp`, which points one past the top of RAM, at
/// negative offsets.
fn body(word: u32) -> Instruction {
    let r = |shift: u32| WORK[(word >> shift) as usize % WORK.len()];
    let (rd, rs, rt) = (r(4), r(8), r(12));
    let imm = (word >> 16) as i16;
    let offset = -4 * (1 + ((word >> 16) % 16) as i16);
    match word % 13 {
        0 => Instruction::Add { rd, rs, rt },
        1 => Instruction::Addi { rt: rd, rs, imm },
        2 => Instruction::Lui {
            rt: rd,
            imm: imm as u16,
        },
        3 => Instruction::Sll {
            rd,
            rt,
            shamt: (word >> 16) as u8 % 32,
        },
        4 => Instruction::Lw {
            rt: rd,
            base: Reg::SP,
            offset,
        },
        5 => Instruction::Lb {
            rt: rd,
            base: Reg::SP,
            offset: offset + 3,
        },
        6 => Instruction::Sw {
            rt,
            base: Reg::SP,
            offset,
        },
        7 => Instruction::Sb {
            rt,
            base: Reg::SP,
            offset: offset + 1,
        },
        8 => Instruction::Mul { rd, rs, rt },
        9 => Instruction::Div {
            rd,
            rs,
            rt: DIVISOR,
        },
        10 => Instruction::Remu {
            rd,
            rs,
            rt: DIVISOR,
        },
        // `rs == rt`: never taken.
        11 => Instruction::Bne { rs, rt: rs, offset },
        _ => Instruction::Bltu { rs, rt: rs, offset },
    }
}

/// How the batch ends, picked by `shape`; `word` picks the instruction.
fn exit(shape: u32, word: u32) -> Option<Instruction> {
    let rs = WORK[(word >> 4) as usize % WORK.len()];
    let index = word >> 8 & 0x3F_FFFF;
    match shape % 4 {
        // Falls through: the batch is all body.
        0 => None,
        1 => Some(match word % 6 {
            0 => Instruction::J { index },
            1 => Instruction::Jal { index },
            2 => Instruction::Jr { rs },
            3 => Instruction::Jalr { rd: Reg::RA, rs },
            // `rs == rt`: always taken.
            4 => Instruction::Beq {
                rs,
                rt: rs,
                offset: 8,
            },
            _ => Instruction::Bgeu {
                rs,
                rt: rs,
                offset: -8,
            },
        }),
        2 => Some(Instruction::Halt),
        _ => Some(match word % 3 {
            0 => Instruction::Div {
                rd: rs,
                rs,
                rt: Reg::ZERO,
            },
            // One past the top of RAM.
            1 => Instruction::Lw {
                rt: rs,
                base: Reg::SP,
                offset: 0,
            },
            _ => Instruction::Sw {
                rt: rs,
                base: Reg::SP,
                offset: -2,
            },
        }),
    }
}

/// A model field: small, zero or the largest a field holds.
fn field((kind, value): (u32, u32)) -> u32 {
    match kind % 4 {
        0 | 1 => value % 40,
        2 => 0,
        _ => u32::MAX,
    }
}

/// A unit lending one fixed batch and recording every retire.
struct Scripted<const ISSUE_CHARGED: bool> {
    slots: Vec<Slot>,
    retires: Vec<(u32, usize, usize, SlotOutcome)>,
}

impl<const ISSUE_CHARGED: bool> FetchUnit for Scripted<ISSUE_CHARGED> {
    type Violation = NoViolation;

    const ISSUE_CHARGED_IN_FETCH: bool = ISSUE_CHARGED;

    fn fetch_batch(
        &mut self,
        _ctx: &mut FetchCtx<'_>,
    ) -> Result<Result<LentBatch<'_>, NoViolation>, Trap> {
        Ok(Ok((&self.slots, BlockCost::of(&self.slots))))
    }

    fn retire(
        &mut self,
        pc: u32,
        slot: usize,
        batch_len: usize,
        outcome: SlotOutcome,
    ) -> Result<(), NoViolation> {
        self.retires.push((pc, slot, batch_len, outcome));
        Ok(())
    }

    fn on_reset(&mut self) -> u64 {
        0
    }
}

/// The one-slot cost rule before batches were charged once, verbatim.
fn reference_slot_cycles(
    model: &PipelineModel,
    class: TimingClass,
    taken: bool,
    load_use: bool,
) -> u64 {
    let mut cycles = 1;
    if load_use {
        cycles += u64::from(model.load_use_penalty);
    }
    if class.is_branch() {
        if taken {
            cycles += u64::from(model.taken_branch_penalty);
        }
    } else if class.is_direct_jump() {
        cycles += u64::from(model.direct_jump_penalty);
    } else if class.is_indirect_jump() {
        cycles += u64::from(model.indirect_jump_penalty);
    }
    if class.is_mul() {
        cycles += u64::from(model.mul_cycles.saturating_sub(1));
    } else if class.is_div() {
        cycles += u64::from(model.div_cycles.saturating_sub(1));
    }
    if class.is_load() || class.is_store() {
        cycles += u64::from(model.data_penalty);
    }
    cycles
}

/// The per-slot charge before batches were charged once, verbatim.
fn account(
    stats: &mut ExecStats,
    model: &PipelineModel,
    issue_charged_in_fetch: bool,
    class: TimingClass,
    taken: bool,
    load_use: bool,
) {
    stats.instret += 1;
    let cycles = reference_slot_cycles(model, class, taken, load_use);
    stats.cycles += if issue_charged_in_fetch {
        cycles - 1
    } else {
        cycles
    };
    stats.branches += class.is_branch() as u64;
    stats.taken_branches += taken as u64;
    stats.loads += class.is_load() as u64;
    stats.stores += class.is_store() as u64;
    stats.calls += class.is_call() as u64;
    stats.load_use_stalls += load_use as u64;
}

/// Everything the reference loop touches.
struct Reference {
    regs: RegFile,
    mem: Memory,
    stats: ExecStats,
    prev_load_dest: Option<Reg>,
    halted: bool,
    retires: Vec<(u32, usize, usize, SlotOutcome)>,
}

impl Reference {
    /// The batch loop before batches were charged once, verbatim but for
    /// the fetch unit, whose retire it records.
    fn step(
        &mut self,
        slots: &[Slot],
        model: &PipelineModel,
        issue_charged_in_fetch: bool,
    ) -> Result<u64, Trap> {
        let len = slots.len();
        let mut executed = 0u64;
        let mut exit = None;
        for (i, slot) in slots.iter().enumerate() {
            let effect = execute(slot.inst(), slot.pc(), &mut self.regs, &mut self.mem)?;
            executed += 1;
            let class = slot.class();
            let taken = class.is_branch() && matches!(effect, Effect::Jump { .. });
            let load_use = self.prev_load_dest.is_some_and(|dest| class.reads(dest));
            account(
                &mut self.stats,
                model,
                issue_charged_in_fetch,
                class,
                taken,
                load_use,
            );
            self.prev_load_dest = class.load_dest();
            match effect {
                Effect::Next if i + 1 == len => {
                    exit = Some((slot.pc(), i, SlotOutcome::Sequential));
                }
                Effect::Next => {}
                Effect::Jump { target } => {
                    exit = Some((slot.pc(), i, SlotOutcome::Transfer { target }));
                    break;
                }
                Effect::Halt => {
                    self.halted = true;
                    self.stats.cycles += model.drain_cycles as u64;
                    break;
                }
            }
        }
        if let Some((pc, i, outcome)) = exit {
            self.retires.push((pc, i, len, outcome));
        }
        Ok(executed)
    }
}

/// Runs `slots` as one batch on the engine and on the reference from the
/// same state, and checks that they agree on everything.
fn check<const ISSUE_CHARGED: bool>(
    slots: &[Slot],
    model: PipelineModel,
    regs: &RegFile,
    prev_load_dest: Option<Reg>,
) -> Result<(), TestCaseError> {
    let config = MachineConfig {
        ram_size: RAM_SIZE,
        pipeline: model,
        ..MachineConfig::default()
    };
    let fetch = Scripted::<ISSUE_CHARGED> {
        slots: slots.to_vec(),
        retires: Vec::new(),
    };
    let mut engine = Pipeline::new(fetch, TEXT_BASE, vec![0; 64], DATA_BASE, &[], &config);
    let mut state = engine.export_core_state();
    state.regs = regs.clone();
    state.prev_load_dest = prev_load_dest;
    engine.restore_core_state(state).unwrap();

    let mut reference = Reference {
        regs: regs.clone(),
        mem: engine.mem().clone(),
        stats: engine.stats(),
        prev_load_dest,
        halted: false,
        retires: Vec::new(),
    };
    let expected = reference.step(slots, &model, ISSUE_CHARGED);
    let actual = engine.step_batch().map(|step| {
        assert!(step.violation.is_none());
        step.executed_slots
    });

    prop_assert_eq!(actual, expected);
    prop_assert_eq!(engine.stats(), reference.stats);
    prop_assert_eq!(
        engine.export_core_state().prev_load_dest,
        reference.prev_load_dest
    );
    prop_assert_eq!(engine.is_halted(), reference.halted);
    prop_assert_eq!(&engine.fetch().retires, &reference.retires);
    prop_assert_eq!(engine.regs(), &reference.regs);
    let ram = |mem: &Memory| {
        mem.ram_pages()
            .map(|(i, page)| (i, page.to_vec()))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(ram(engine.mem()), ram(&reference.mem));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn charging_a_batch_once_equals_charging_each_slot(
        words in proptest::collection::vec(any::<u32>(), 1..17),
        shape in (any::<u32>(), any::<u32>(), any::<u32>()),
        fields in proptest::collection::vec((any::<u32>(), any::<u32>()), 8),
        values in proptest::collection::vec(any::<u32>(), WORK.len()),
        entry in 0u32..40,
        issue_charged in any::<bool>(),
    ) {
        let (kind, at, word) = shape;
        let mut insts: Vec<Instruction> = words.iter().map(|&w| body(w)).collect();
        if let Some(last) = exit(kind, word) {
            let len = insts.len();
            // A transfer lands on the last slot half the time.
            let at = if kind % 4 == 1 && at % 2 == 0 { len - 1 } else { at as usize % len };
            insts[at] = last;
        }
        for inst in &insts {
            prop_assert_eq!(Instruction::decode(inst.encode()), Ok(*inst));
        }
        let slots: Vec<Slot> = insts
            .iter()
            .enumerate()
            .map(|(i, &inst)| Slot::new(TEXT_BASE + 4 * i as u32, inst))
            .collect();

        let f: Vec<u32> = fields.into_iter().map(field).collect();
        let model = PipelineModel {
            taken_branch_penalty: f[0],
            direct_jump_penalty: f[1],
            indirect_jump_penalty: f[2],
            load_use_penalty: f[3],
            mul_cycles: f[4],
            div_cycles: f[5],
            drain_cycles: f[6],
            data_penalty: f[7],
        };
        let mut regs = RegFile::new();
        regs.set(Reg::SP, DATA_BASE + RAM_SIZE);
        regs.set(DIVISOR, 7);
        for (&r, &v) in WORK.iter().zip(&values) {
            regs.set(r, v);
        }
        // Mostly a register the batch reads, sometimes none at all.
        let prev_load_dest = match entry {
            0..=5 => None,
            e if e < 30 => Some(WORK[e as usize % WORK.len()]),
            e => Reg::new(e as u8),
        };

        if issue_charged {
            check::<true>(&slots, model, &regs, prev_load_dest)?;
        } else {
            check::<false>(&slots, model, &regs, prev_load_dest)?;
        }
    }
}
