//! The vanilla (unprotected) machine — the paper's baseline LEON3.

use sofia_isa::asm::Assembly;

use crate::engine::{Pipeline, RunOutcome};
use crate::exec::RegFile;
use crate::fetch::{NoViolation, PlainFetch};
use crate::mem::Memory;
use crate::stats::ExecStats;
use crate::Trap;

pub use crate::engine::MachineConfig;

/// A cycle-level simulator of the unmodified baseline processor.
///
/// Executes plaintext binaries produced by [`sofia_isa::asm::assemble`]:
/// the generic [`Pipeline`] engine behind a [`PlainFetch`] unit. SOFIA's
/// protected machine (`sofia-core`) wraps the *same* engine behind its
/// decrypt/verify fetch unit — so overhead comparisons between the two
/// machines isolate exactly the cost of the security architecture.
///
/// # Examples
///
/// ```
/// use sofia_cpu::machine::VanillaMachine;
/// use sofia_isa::asm;
///
/// let program = asm::assemble(
///     "main: li t0, 5
///            li t1, 0
///     loop:  add t1, t1, t0
///            subi t0, t0, 1
///            bnez t0, loop
///            li a0, 0xFFFF0000     # MMIO word-output port
///            sw t1, 0(a0)
///            halt",
/// )?;
/// let mut m = VanillaMachine::new(&program);
/// assert!(m.run(10_000)?.is_halted());
/// assert_eq!(m.mem().mmio.out_words, vec![15]); // 5+4+3+2+1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct VanillaMachine {
    engine: Pipeline<PlainFetch>,
}

// Compile-time guarantee: baseline machines move onto worker threads (the
// fleet's pool, parallel property tests). An `Rc`/`RefCell` regression
// breaks the build here, not the fleet at runtime.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<VanillaMachine>();
};

impl VanillaMachine {
    /// Builds a machine with [`MachineConfig::default`].
    pub fn new(program: &Assembly) -> VanillaMachine {
        Self::with_config(program, &MachineConfig::default())
    }

    /// Builds a machine, loading the program's text into ROM and data into
    /// RAM, pointing `sp` at the top of RAM and `pc` at the entry point.
    ///
    /// # Panics
    ///
    /// Panics if the data section does not fit in RAM.
    pub fn with_config(program: &Assembly, config: &MachineConfig) -> VanillaMachine {
        VanillaMachine {
            engine: Pipeline::new(
                PlainFetch::new(program.entry),
                program.text_base,
                program.words.clone(),
                program.data_base,
                &program.data,
                config,
            ),
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the trap that stopped the machine, leaving state at the
    /// faulting instruction for post-mortem inspection.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine halted.
    pub fn step(&mut self) -> Result<(), Trap> {
        match self.engine.step_batch()?.violation {
            // PlainFetch's violation type is uninhabited.
            Some(v) => match v {},
            None => Ok(()),
        }
    }

    /// Runs until `halt`, a trap, or `max_steps` instructions. The
    /// baseline raises no violation, so the outcome is always
    /// [`RunOutcome::Halted`] or [`RunOutcome::OutOfFuel`].
    ///
    /// # Errors
    ///
    /// Propagates the first trap.
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome<NoViolation>, Trap> {
        self.engine.run(max_steps, |v, _| match v {})
    }

    /// Whether the program has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.engine.is_halted()
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.engine.fetch().pc()
    }

    /// The architectural registers.
    pub fn regs(&self) -> &RegFile {
        self.engine.regs()
    }

    /// The memory (ROM + RAM + MMIO logs).
    pub fn mem(&self) -> &Memory {
        self.engine.mem()
    }

    /// Mutable memory access — for loaders and the attack harness.
    pub fn mem_mut(&mut self) -> &mut Memory {
        self.engine.mem_mut()
    }

    /// **Attack-harness channel**: redirects execution to `target`,
    /// modelling a successful control-flow hijack (corrupted return
    /// address, glitched branch). The unprotected machine simply follows
    /// it — the behaviour SOFIA exists to prevent.
    pub fn hijack_pc(&mut self, target: u32) {
        self.engine.fetch_mut().set_pc(target);
    }

    /// Accumulated execution statistics (cycles include I-cache stalls).
    pub fn stats(&self) -> ExecStats {
        self.engine.stats()
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> crate::icache::ICacheStats {
        self.engine.icache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineModel;
    use sofia_isa::{asm, Reg};

    fn run_src(src: &str) -> VanillaMachine {
        let program = asm::assemble(src).expect("assembles");
        let mut m = VanillaMachine::new(&program);
        let r = m.run(1_000_000).expect("no trap");
        assert!(r.is_halted(), "program did not halt");
        m
    }

    #[test]
    fn loop_sum() {
        let m = run_src(
            "main: li t0, 10
                   li t1, 0
             loop: add t1, t1, t0
                   subi t0, t0, 1
                   bnez t0, loop
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt",
        );
        assert_eq!(m.mem().mmio.out_words, vec![55]);
    }

    #[test]
    fn call_and_return() {
        let m = run_src(
            "main: li a0, 6
                   jal square
                   li t0, 0xFFFF0000
                   sw v0, 0(t0)
                   halt
             square: mul v0, a0, a0
                   ret",
        );
        assert_eq!(m.mem().mmio.out_words, vec![36]);
    }

    #[test]
    fn stack_discipline() {
        let m = run_src(
            "main: subi sp, sp, 8
                   li t0, 0x1234
                   sw t0, 0(sp)
                   sw ra, 4(sp)
                   lw t1, 0(sp)
                   addi sp, sp, 8
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt",
        );
        assert_eq!(m.mem().mmio.out_words, vec![0x1234]);
    }

    #[test]
    fn data_section_loaded() {
        let m = run_src(
            ".data
             tbl: .word 11, 22, 33
             .text
             main: la a0, tbl
                   lw t0, 8(a0)
                   li a1, 0xFFFF0000
                   sw t0, 0(a1)
                   halt",
        );
        assert_eq!(m.mem().mmio.out_words, vec![33]);
    }

    #[test]
    fn function_pointer_dispatch() {
        let m = run_src(
            ".data
             handlers: .word inc, dec
             .text
             main: la t0, handlers
                   lw t1, 4(t0)        # handlers[1] = dec
                   li a0, 10
                   .indirect inc, dec
                   jalr t1
                   li t2, 0xFFFF0000
                   sw v0, 0(t2)
                   halt
             inc:  addi v0, a0, 1
                   ret
             dec:  subi v0, a0, 1
                   ret",
        );
        assert_eq!(m.mem().mmio.out_words, vec![9]);
    }

    #[test]
    fn cycle_accounting_straight_line() {
        let program = asm::assemble("main: nop\nnop\nnop\nhalt").unwrap();
        let mut m = VanillaMachine::new(&program);
        m.run(100).unwrap();
        let s = m.stats();
        assert_eq!(s.instret, 4);
        // 4 base cycles + one cold I-cache miss (all four words share one
        // 32-byte line) + drain.
        let expected = 4 + 10 + PipelineModel::default().drain_cycles as u64;
        assert_eq!(s.cycles, expected);
    }

    #[test]
    fn taken_branches_cost_more() {
        // Loop version: branch taken 9 times.
        let looped = run_src(
            "main: li t0, 10
             loop: subi t0, t0, 1
                   bnez t0, loop
                   halt",
        );
        let s = looped.stats();
        assert_eq!(s.branches, 10);
        assert_eq!(s.taken_branches, 9);
        assert!(s.cpi() > 1.0);
    }

    #[test]
    fn load_use_stall_counted() {
        let m = run_src(
            ".data
             x: .word 5
             .text
             main: la a0, x
                   lw t0, 0(a0)
                   addi t1, t0, 1   # immediately uses loaded t0
                   halt",
        );
        assert_eq!(m.stats().load_use_stalls, 1);
    }

    #[test]
    fn out_of_fuel() {
        let program = asm::assemble("main: b main").unwrap();
        let mut m = VanillaMachine::new(&program);
        assert_eq!(m.run(1000).unwrap(), RunOutcome::OutOfFuel);
        assert!(!m.is_halted());
    }

    #[test]
    fn illegal_instruction_traps() {
        let program = asm::assemble("main: halt").unwrap();
        let mut m = VanillaMachine::new(&program);
        // Tamper with ROM out-of-band (the attacker's channel).
        m.mem_mut().rom_mut()[0] = 0xFC00_0000;
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, Trap::IllegalInstruction { .. }));
    }

    #[test]
    fn icache_warms_up() {
        let m = run_src(
            "main: li t0, 100
             loop: subi t0, t0, 1
                   bnez t0, loop
                   halt",
        );
        let ic = m.icache_stats();
        assert!(ic.hit_rate() > 0.95, "hit rate {}", ic.hit_rate());
    }

    #[test]
    fn sp_initialised_to_ram_top() {
        let program = asm::assemble("main: halt").unwrap();
        let m = VanillaMachine::new(&program);
        assert_eq!(
            m.regs().get(Reg::SP),
            program.data_base + MachineConfig::default().ram_size
        );
    }

    #[test]
    fn hijack_pc_is_followed_blindly() {
        // The baseline follows a forged transfer without complaint — the
        // behaviour the SOFIA fetch unit exists to stop.
        let m = {
            let program = asm::assemble(
                "main: b main
                 out:  li t0, 0xFFFF0000
                       sw zero, 0(t0)
                       halt",
            )
            .unwrap();
            let mut m = VanillaMachine::new(&program);
            m.run(3).unwrap();
            m.hijack_pc(program.text_base + 4);
            m.run(100).unwrap();
            m
        };
        assert!(m.is_halted());
        assert_eq!(m.mem().mmio.out_words, vec![0]);
    }
}
