//! # sofia-cpu — the vanilla baseline processor
//!
//! A cycle-level simulator of the unmodified microprocessor SOFIA extends
//! (README, *Reproducing the paper*): a LEON3-like single-issue, in-order,
//! 7-stage pipeline (IF ID OF EX MA XC WB) with a direct-mapped I-cache,
//! single-cycle data RAM and a small MMIO page.
//!
//! The crate separates concerns so the SOFIA machine (`sofia-core`) can
//! reuse every piece behind its decrypt/verify fetch unit:
//!
//! * [`mem`] — the physical memory map and MMIO ports;
//! * [`icache`] — hit/miss timing (ciphertext is cached *before* the
//!   decrypt unit, paper Fig. 1, so the model is shared verbatim);
//! * [`exec`] — pure architectural semantics of every instruction;
//! * [`pipeline`] — hazard-based cycle accounting;
//! * [`fetch`] — the [`fetch::FetchUnit`] seam: how instructions reach
//!   the pipeline (plaintext words vs. decrypted/verified blocks);
//! * [`engine`] — [`engine::Pipeline`], the generic step/run engine every
//!   machine wraps;
//! * [`machine`] — [`machine::VanillaMachine`], the assembled baseline.
//!
//! # Examples
//!
//! ```
//! use sofia_cpu::machine::VanillaMachine;
//! use sofia_isa::asm;
//!
//! let program = asm::assemble("main: li v0, 41\n addi v0, v0, 1\n halt")?;
//! let mut machine = VanillaMachine::new(&program);
//! machine.run(100)?;
//! assert_eq!(machine.regs().get(sofia_isa::Reg::V0), 42);
//! println!("took {} cycles", machine.stats().cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod exec;
pub mod fetch;
pub mod icache;
pub mod machine;
pub mod mem;
pub mod pipeline;
pub mod stats;
mod trap;

pub use engine::{
    BatchStep, CoreState, CoreStateError, Disposition, MachineConfig, Pipeline, RunOutcome,
};
pub use fetch::{FetchCtx, FetchUnit, LentBatch, NoViolation, PlainFetch, Slot, SlotOutcome};
pub use stats::ExecStats;
pub use trap::Trap;
