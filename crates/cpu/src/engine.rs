//! The generic step/run engine shared by every machine.
//!
//! [`Pipeline`] owns the architectural state — registers, memory,
//! I-cache, hazard model, statistics — and runs the fetch → execute →
//! retire loop against a pluggable [`FetchUnit`]. The vanilla baseline
//! and the SOFIA machine are thin wrappers around it, so overhead
//! comparisons between them isolate exactly the fetch path by
//! construction: same engine, different fetch unit.

use sofia_isa::Reg;

use crate::exec::{execute, Effect, RegFile};
use crate::fetch::{FetchCtx, FetchUnit, SlotOutcome};
use crate::icache::{ICache, ICacheConfig, ICacheStats};
use crate::mem::{Memory, Mmio};
use crate::pipeline::{BlockCost, PipelineModel};
use crate::stats::ExecStats;
use crate::Trap;

/// Construction parameters shared by all machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Data RAM size in bytes.
    pub ram_size: u32,
    /// Instruction-cache geometry and miss penalty.
    pub icache: ICacheConfig,
    /// Pipeline hazard penalties.
    pub pipeline: PipelineModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            ram_size: 1 << 20,
            icache: ICacheConfig::default(),
            pipeline: PipelineModel::default(),
        }
    }
}

/// Everything the engine owns that a suspended machine must carry to
/// another host: the architectural state (registers, RAM, MMIO logs),
/// the micro-architectural timing state (I-cache tags, hazard tracker)
/// and the accumulated counters. Deliberately **excludes** ROM — code
/// travels as the sealed image, whose MACs cover it in transit — and the
/// fetch unit, which serialises its own sequencing state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreState {
    /// The architectural register file.
    pub regs: RegFile,
    /// Data RAM size in bytes.
    pub ram_size: u32,
    /// The resident RAM pages `(page index, bytes)`, strictly ascending;
    /// absent pages are zero. Each page is [`RAM_PAGE`](crate::mem::RAM_PAGE)
    /// bytes, except a short last page when the RAM size is not a
    /// multiple of it.
    pub ram_pages: Vec<(u32, Vec<u8>)>,
    /// MMIO output logs (what the program already emitted).
    pub mmio: Mmio,
    /// Baseline execution counters.
    pub stats: ExecStats,
    /// I-cache line tags, in set order.
    pub icache_tags: Vec<Option<u32>>,
    /// I-cache hit/miss counters.
    pub icache_stats: ICacheStats,
    /// Destination of the immediately preceding load, if any (the
    /// load-use hazard tracker — without it the first resumed
    /// instruction could miss a bubble the uninterrupted run charges).
    pub prev_load_dest: Option<Reg>,
    /// Whether the machine has halted.
    pub halted: bool,
    /// Resets performed so far.
    pub resets: u64,
}

/// Why [`Pipeline::restore_core_state`] refused a [`CoreState`]: the
/// state was captured under a different machine geometry, or its RAM
/// pages are malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreStateError {
    /// RAM length differs from this machine's configured size.
    RamSize {
        /// Bytes this machine's RAM holds.
        expected: usize,
        /// Bytes the state carried.
        found: usize,
    },
    /// A RAM page is past the end of RAM, not strictly above the page
    /// before it, or of the wrong length.
    RamPage {
        /// The offending page index.
        index: u32,
    },
    /// I-cache tag count differs from this machine's line count.
    IcacheLines {
        /// Lines this machine's I-cache has.
        expected: usize,
        /// Tags the state carried.
        found: usize,
    },
}

impl std::fmt::Display for CoreStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreStateError::RamSize { expected, found } => {
                write!(
                    f,
                    "core state has {found} RAM bytes, machine has {expected}"
                )
            }
            CoreStateError::RamPage { index } => write!(
                f,
                "core state RAM page {index} is out of range, out of order or mis-sized"
            ),
            CoreStateError::IcacheLines { expected, found } => {
                write!(
                    f,
                    "core state has {found} icache tags, machine has {expected} lines"
                )
            }
        }
    }
}

impl std::error::Error for CoreStateError {}

/// Result of one [`Pipeline::step_batch`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStep<V> {
    /// Instruction slots executed before the batch ended.
    pub executed_slots: u64,
    /// The violation the fetch unit raised, if any. The engine applies no
    /// policy to it — the wrapping machine decides (halt, reset, …).
    pub violation: Option<V>,
}

/// What a machine's reset policy tells the run loop to do about a
/// violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Halt and surface the violation ([`EngineOutcome::Stopped`]).
    Stop,
    /// Pull the reset line and keep running.
    Reset,
    /// Give up ([`EngineOutcome::ResetLoop`]) — the persistent-tamper
    /// escape once a policy's reset budget is spent.
    Abandon,
}

/// Why a [`Pipeline::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineOutcome<V> {
    /// The program executed `halt`.
    Halted,
    /// The slot budget was exhausted first.
    OutOfFuel,
    /// A violation stopped the run ([`Disposition::Stop`]).
    Stopped(V),
    /// Persistent violations kept resetting the core until the policy
    /// abandoned the run ([`Disposition::Reset`] with `abandon_after`).
    ResetLoop {
        /// Total resets performed, including the final one.
        resets: u32,
    },
}

/// The generic execution engine: architectural state plus the shared
/// fetch → execute → retire loop, parameterised by the fetch unit `F`.
#[derive(Clone, Debug)]
pub struct Pipeline<F: FetchUnit> {
    fetch: F,
    regs: RegFile,
    mem: Memory,
    icache: ICache,
    model: PipelineModel,
    stats: ExecStats,
    prev_load_dest: Option<Reg>,
    halted: bool,
    resets: u64,
}

// Compile-time guarantee: the engine is `Send` whenever its fetch unit is,
// so machines can move onto fleet worker threads. A future `Rc`/`RefCell`
// in the architectural state breaks this build, not a scheduler at runtime.
const _: () = {
    const fn assert_send<T: Send>() {}
    #[allow(dead_code)] // compile-time bound check only — never called
    fn pipeline_is_send_when_fetch_is<F: FetchUnit + Send>() {
        assert_send::<Pipeline<F>>();
    }
    assert_send::<Pipeline<crate::fetch::PlainFetch>>();
};

impl<F: FetchUnit> Pipeline<F> {
    /// Builds an engine: loads `text` into ROM and `data` into a zeroed
    /// RAM at `data_base`, points `sp` at the top of RAM, and hands
    /// sequencing to `fetch`.
    ///
    /// # Panics
    ///
    /// Panics if the data section does not fit in RAM.
    pub fn new(
        fetch: F,
        text_base: u32,
        text: Vec<u32>,
        data_base: u32,
        data: &[u8],
        config: &MachineConfig,
    ) -> Pipeline<F> {
        assert!(
            data.len() as u32 <= config.ram_size,
            "data section larger than RAM"
        );
        let mut mem = Memory::new(text_base, text, data_base, config.ram_size);
        mem.load_ram(data_base, data);
        let mut regs = RegFile::new();
        regs.set(Reg::SP, data_base + config.ram_size);
        Pipeline {
            fetch,
            regs,
            mem,
            icache: ICache::new(config.icache),
            model: config.pipeline,
            stats: ExecStats::default(),
            prev_load_dest: None,
            halted: false,
            resets: 0,
        }
    }

    /// Fetches one batch from the fetch unit and executes its slots
    /// straight from the slice the unit lends, then charges the batch's
    /// pipeline cost and reports its exit to the unit, once each
    /// ([`FetchUnit::retire`]).
    ///
    /// A batch that retires its last slot is charged the [`BlockCost`]
    /// the unit lent with it. One that ends early — a trap, or a halt or
    /// transfer before its last slot — is charged by the same rule for
    /// the prefix that ran.
    ///
    /// Violations are returned, not acted upon: the caller applies its
    /// reset policy (and [`Pipeline::force_halt`] / [`Pipeline::reset`]).
    ///
    /// # Errors
    ///
    /// Propagates architectural traps, leaving state at the faulting
    /// instruction for post-mortem inspection.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine halted.
    pub fn step_batch(&mut self) -> Result<BatchStep<F::Violation>, Trap> {
        assert!(!self.halted, "step after halt");
        let mut ctx = FetchCtx {
            mem: &self.mem,
            icache: &mut self.icache,
            stats: &mut self.stats,
        };
        let (slots, cost) = match self.fetch.fetch_batch(&mut ctx)? {
            Ok(batch) => batch,
            Err(v) => {
                return Ok(BatchStep {
                    executed_slots: 0,
                    violation: Some(v),
                })
            }
        };
        // The slots stay borrowed from the fetch unit for the whole loop,
        // which touches only the architectural state; the counters are
        // charged once, after it.
        let len = slots.len();
        let entry_load_use = match (slots.first(), self.prev_load_dest) {
            (Some(first), Some(dest)) => first.class().reads(dest),
            _ => false,
        };
        let mut ran = len;
        let mut exit = None;
        let mut taken_last = false;
        let mut trap = None;
        for (i, slot) in slots.iter().enumerate() {
            match execute(slot.inst(), slot.pc(), &mut self.regs, &mut self.mem) {
                Ok(Effect::Next) => continue,
                Ok(Effect::Jump { target }) => {
                    ran = i + 1;
                    taken_last = slot.class().is_branch();
                    exit = Some((slot.pc(), i, SlotOutcome::Transfer { target }));
                }
                Ok(Effect::Halt) => {
                    ran = i + 1;
                    self.halted = true;
                    self.stats.cycles += u64::from(self.model.drain_cycles);
                }
                Err(t) => {
                    ran = i;
                    trap = Some(t);
                }
            }
            break;
        }
        if let Some(last) = slots[..ran].last() {
            let cost = if ran == len {
                cost
            } else {
                BlockCost::of(&slots[..ran])
            };
            charge::<F>(
                &mut self.stats,
                &self.model,
                &cost,
                taken_last,
                entry_load_use,
            );
            self.prev_load_dest = last.class().load_dest();
            if ran == len && exit.is_none() && !self.halted {
                exit = Some((last.pc(), len - 1, SlotOutcome::Sequential));
            }
        }
        if let Some(t) = trap {
            return Err(t);
        }
        let violation = match exit {
            Some((pc, i, outcome)) => self.fetch.retire(pc, i, len, outcome).err(),
            None => None,
        };
        Ok(BatchStep {
            executed_slots: ran as u64,
            violation,
        })
    }

    /// Runs until `halt`, a trap, an exhausted slot budget, or whatever
    /// `on_violation` decides about a detected violation. The closure
    /// receives each violation and the resets performed so far; the
    /// engine applies the returned [`Disposition`].
    ///
    /// # Errors
    ///
    /// Propagates architectural traps.
    pub fn run(
        &mut self,
        max_slots: u64,
        on_violation: impl FnMut(F::Violation, u64) -> Disposition,
    ) -> Result<EngineOutcome<F::Violation>, Trap> {
        self.run_metered(max_slots, on_violation).map(|(o, _)| o)
    }

    /// [`Pipeline::run`], additionally reporting the fuel actually
    /// consumed (each batch charges `executed_slots.max(1)`, so even a
    /// violation that executes nothing makes progress against the budget).
    ///
    /// The meter is what makes preemptive schedulers exact: a batch never
    /// starts unless consumed fuel is still below the budget, so feeding
    /// slices `s₁, s₂, …` and deducting the *reported* consumption (not
    /// the slice size — batches are atomic and may overshoot) replays the
    /// same batch sequence as one `run(s₁ + s₂ + …)` call, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates architectural traps.
    pub fn run_metered(
        &mut self,
        max_slots: u64,
        mut on_violation: impl FnMut(F::Violation, u64) -> Disposition,
    ) -> Result<(EngineOutcome<F::Violation>, u64), Trap> {
        let mut consumed = 0u64;
        loop {
            if self.halted {
                return Ok((EngineOutcome::Halted, consumed));
            }
            if consumed >= max_slots {
                return Ok((EngineOutcome::OutOfFuel, consumed));
            }
            let step = self.step_batch()?;
            consumed += step.executed_slots.max(1);
            if let Some(v) = step.violation {
                match on_violation(v, self.resets) {
                    Disposition::Stop => {
                        self.halted = true;
                        return Ok((EngineOutcome::Stopped(v), consumed));
                    }
                    Disposition::Reset => self.reset(),
                    Disposition::Abandon => {
                        return Ok((
                            EngineOutcome::ResetLoop {
                                resets: self.resets as u32,
                            },
                            consumed,
                        ))
                    }
                }
            }
        }
    }

    /// Hardware reset: clear registers, re-point `sp` at the top of RAM,
    /// flush the I-cache, and restart the fetch unit from the entry
    /// point, charging its reboot time. RAM and MMIO logs persist (a
    /// reboot restores a safe *control* state; memory is reinitialised by
    /// startup code, which reloaded images re-run).
    pub fn reset(&mut self) {
        self.regs.clear();
        self.regs
            .set(Reg::SP, self.mem.ram_base() + self.mem.ram_size());
        self.icache.flush();
        self.prev_load_dest = None;
        self.resets += 1;
        self.stats.cycles += self.fetch.on_reset();
    }

    /// Marks the machine halted (a machine's `Stop` policy outside
    /// [`Pipeline::run`], e.g. in single-step harnesses).
    pub fn force_halt(&mut self) {
        self.halted = true;
    }

    /// Whether the machine has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Resets performed so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// The architectural registers.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// The memory (ROM + RAM + MMIO logs).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access — for loaders and the attack harness.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Accumulated execution statistics (cycles include I-cache stalls
    /// and fetch-path costs).
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> ICacheStats {
        self.icache.stats()
    }

    /// The pipeline hazard model this engine charges.
    pub fn model(&self) -> PipelineModel {
        self.model
    }

    /// The instruction cache geometry.
    pub fn icache_config(&self) -> ICacheConfig {
        self.icache.config()
    }

    /// Exports the engine-owned half of a machine snapshot (see
    /// [`CoreState`] for what is and is not included). Meaningful
    /// between batches — i.e. whenever the caller holds the machine at
    /// all, since batches are atomic.
    pub fn export_core_state(&self) -> CoreState {
        CoreState {
            regs: self.regs.clone(),
            ram_size: self.mem.ram_size(),
            ram_pages: self
                .mem
                .ram_pages()
                .map(|(idx, bytes)| (idx, bytes.to_vec()))
                .collect(),
            mmio: self.mem.mmio.clone(),
            stats: self.stats,
            icache_tags: self.icache.tags().to_vec(),
            icache_stats: self.icache.stats(),
            prev_load_dest: self.prev_load_dest,
            halted: self.halted,
            resets: self.resets,
        }
    }

    /// Replaces the engine-owned state wholesale with a previously
    /// exported [`CoreState`] — the restore half of suspend/resume. ROM
    /// is untouched (it was loaded from the sealed image at
    /// construction).
    ///
    /// # Errors
    ///
    /// [`CoreStateError`] if the state was captured under a different
    /// RAM size or I-cache geometry, or carries a malformed RAM page; the
    /// engine is left unmodified.
    pub fn restore_core_state(&mut self, state: CoreState) -> Result<(), CoreStateError> {
        if state.ram_size != self.mem.ram_size() {
            return Err(CoreStateError::RamSize {
                expected: self.mem.ram_size() as usize,
                found: state.ram_size as usize,
            });
        }
        if state.icache_tags.len() != self.icache.tags().len() {
            return Err(CoreStateError::IcacheLines {
                expected: self.icache.tags().len(),
                found: state.icache_tags.len(),
            });
        }
        self.mem
            .set_ram_pages(&state.ram_pages)
            .map_err(|index| CoreStateError::RamPage { index })?;
        self.regs = state.regs;
        self.mem.mmio = state.mmio;
        self.stats = state.stats;
        self.icache.set_state(state.icache_tags, state.icache_stats);
        self.prev_load_dest = state.prev_load_dest;
        self.halted = state.halted;
        self.resets = state.resets;
        Ok(())
    }

    /// The fetch unit.
    pub fn fetch(&self) -> &F {
        &self.fetch
    }

    /// Mutable fetch-unit access — the attack harness's hijack channel.
    pub fn fetch_mut(&mut self) -> &mut F {
        &mut self.fetch
    }
}

/// Charges the retired slots `cost` summarises to `stats`, in one step:
/// `taken_last` and `entry_load_use` as in
/// [`PipelineModel::batch_cycles`].
#[inline]
fn charge<F: FetchUnit>(
    stats: &mut ExecStats,
    model: &PipelineModel,
    cost: &BlockCost,
    taken_last: bool,
    entry_load_use: bool,
) {
    let cycles = model.batch_cycles(cost, taken_last, entry_load_use);
    stats.instret += cost.slots();
    // Block-structured fetch units already charge one issue slot per
    // fetched word; only the hazard penalties remain.
    stats.cycles += if F::ISSUE_CHARGED_IN_FETCH {
        cycles - cost.slots()
    } else {
        cycles
    };
    stats.branches += cost.branches();
    stats.taken_branches += u64::from(taken_last);
    stats.loads += cost.loads();
    stats.stores += cost.stores();
    stats.calls += cost.calls();
    stats.load_use_stalls += cost.load_use_pairs() + u64::from(entry_load_use);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{LentBatch, NoViolation, PlainFetch, Slot};
    use crate::mem::{Width, RAM_PAGE};
    use sofia_isa::Instruction;

    fn engine() -> Pipeline<PlainFetch> {
        let config = MachineConfig {
            ram_size: 5000,
            ..MachineConfig::default()
        };
        Pipeline::new(
            PlainFetch::new(0x100),
            0x100,
            vec![0],
            0x1000_0000,
            &[1, 2, 3],
            &config,
        )
    }

    #[test]
    fn core_state_carries_only_resident_pages() {
        let mut e = engine();
        e.mem_mut().store(0x1000_1384, Width::Word, 9).unwrap();
        let state = e.export_core_state();
        assert_eq!(state.ram_size, 5000);
        let shape: Vec<(u32, usize)> = state.ram_pages.iter().map(|(i, b)| (*i, b.len())).collect();
        assert_eq!(shape, vec![(0, RAM_PAGE), (4, 904)]);
        let mut fresh = engine();
        fresh.restore_core_state(state.clone()).unwrap();
        assert_eq!(fresh.export_core_state(), state);
    }

    #[test]
    fn malformed_pages_are_typed_errors_not_panics() {
        let mut e = engine();
        let good = e.export_core_state();
        let cases = [
            (vec![(5, vec![0; RAM_PAGE])], 5),    // past the end
            (vec![(u32::MAX, vec![])], u32::MAX), // far past the end
            (vec![(0, vec![0; 7])], 0),           // wrong length
            (vec![(4, vec![0; RAM_PAGE])], 4),    // short page made long
            (vec![(1, vec![0; RAM_PAGE]), (0, vec![0; RAM_PAGE])], 0), // descending
            (vec![(1, vec![0; RAM_PAGE]), (1, vec![0; RAM_PAGE])], 1), // repeated
        ];
        for (ram_pages, index) in cases {
            let state = CoreState {
                ram_pages,
                ..good.clone()
            };
            assert_eq!(
                e.restore_core_state(state),
                Err(CoreStateError::RamPage { index })
            );
            assert_eq!(e.export_core_state(), good, "engine left unmodified");
        }
        let state = CoreState {
            ram_size: 4096,
            ..good.clone()
        };
        assert_eq!(
            e.restore_core_state(state),
            Err(CoreStateError::RamSize {
                expected: 5000,
                found: 4096
            })
        );
    }

    /// A unit that delivers one fixed batch and records every retire.
    struct Scripted {
        slots: Vec<Slot>,
        retires: Vec<(u32, usize, usize, SlotOutcome)>,
    }

    impl FetchUnit for Scripted {
        type Violation = NoViolation;

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

    fn scripted(insts: &[Instruction]) -> Pipeline<Scripted> {
        let slots = insts
            .iter()
            .enumerate()
            .map(|(i, &inst)| Slot::new(0x100 + 4 * i as u32, inst))
            .collect();
        let fetch = Scripted {
            slots,
            retires: Vec::new(),
        };
        Pipeline::new(
            fetch,
            0x100,
            vec![0; 4],
            0x1000_0000,
            &[],
            &MachineConfig::default(),
        )
    }

    #[test]
    fn a_batch_retires_once_at_its_exit() {
        let addi = Instruction::Addi {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: 1,
        };
        // Falling off the last slot is the one sequential exit.
        let mut e = scripted(&[addi, addi, addi]);
        let step = e.step_batch().unwrap();
        assert_eq!(step.executed_slots, 3);
        assert_eq!(e.fetch().retires, [(0x108, 2, 3, SlotOutcome::Sequential)]);
        assert_eq!(e.regs().get(Reg::T0), 3);

        // A transfer ends the batch wherever it sits: the slots after it
        // never execute, and the unit hears of the transfer alone.
        let mut e = scripted(&[addi, Instruction::J { index: 0x80 }, addi]);
        let step = e.step_batch().unwrap();
        assert_eq!(step.executed_slots, 2);
        assert_eq!(
            e.fetch().retires,
            [(0x104, 1, 3, SlotOutcome::Transfer { target: 0x200 })]
        );
        assert_eq!(e.regs().get(Reg::T0), 1);

        // A halting batch retires nothing.
        let mut e = scripted(&[addi, Instruction::Halt]);
        assert_eq!(e.step_batch().unwrap().executed_slots, 2);
        assert!(e.is_halted());
        assert!(e.fetch().retires.is_empty());
    }

    #[test]
    fn extreme_pipeline_fields_never_overflow() {
        let max = u32::MAX;
        let config = MachineConfig {
            pipeline: PipelineModel {
                taken_branch_penalty: max,
                direct_jump_penalty: max,
                indirect_jump_penalty: max,
                load_use_penalty: max,
                mul_cycles: max,
                div_cycles: max,
                drain_cycles: max,
                data_penalty: max,
            },
            ..MachineConfig::default()
        };
        let program = sofia_isa::asm::assemble(
            "main: li t0, 3
                   li a0, 0x10000000
             loop: lw t1, 0(a0)
                   mul t2, t1, t0
                   div t2, t2, t0
                   sw t2, 4(a0)
                   subi t0, t0, 1
                   bnez t0, loop
                   halt",
        )
        .unwrap();
        let mut e = Pipeline::new(
            PlainFetch::new(program.entry),
            program.text_base,
            program.words,
            program.data_base,
            &program.data,
            &config,
        );
        let outcome = e.run(1000, |v, _| match v {}).unwrap();
        assert_eq!(outcome, EngineOutcome::Halted);
        // Per iteration: a load, a store, a mul and a div at u32::MAX
        // each, plus the taken branch on all but the last.
        let s = e.stats();
        assert_eq!(s.taken_branches, 2);
        assert!(s.cycles >= (4 * 3 + 2) * u64::from(max));
    }
}
