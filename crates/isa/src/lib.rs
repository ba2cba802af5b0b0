//! # sofia-isa — the SL32 instruction set
//!
//! The instruction-set substrate of the SOFIA reproduction (README,
//! *Reproducing the paper*): a 32-bit fixed-width load/store ISA in the
//! spirit of the SPARCv8 LEON3 the paper modified, simplified to the
//! features SOFIA actually interacts with — 32-bit instruction words,
//! word-addressed control flow, explicit stores, and compare-and-branch
//! control transfers.
//! There are **no branch delay slots** and no register windows.
//!
//! The crate provides:
//!
//! * [`Instruction`] — the decoded instruction model with classification
//!   helpers (`is_store`, `is_control_transfer`, …) used throughout the
//!   transformer and the pipeline;
//! * [`Instruction::encode`] / [`Instruction::decode`] — the binary format;
//! * [`asm`] — a two-pass assembler whose symbolic output ([`asm::Module`])
//!   is shared by the plain assembler and SOFIA's secure installer;
//! * [`disasm`] — a disassembler used for debugging and for the
//!   code-confidentiality experiment.
//!
//! # Examples
//!
//! ```
//! use sofia_isa::{asm, disasm};
//!
//! let assembly = asm::assemble(
//!     "main: addi t0, zero, 3\n
//!      loop: subi t0, t0, 1\n
//!      bnez t0, loop\n
//!      halt",
//! )?;
//! assert_eq!(assembly.words.len(), 4);
//! println!("{}", disasm::region(&assembly.words, assembly.text_base));
//! # Ok::<(), sofia_isa::error::AsmError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod disasm;
mod encode;
pub mod error;
mod inst;
mod reg;

pub use error::{AsmError, DecodeError};
pub use inst::Instruction;
pub use reg::Reg;

/// The size of one instruction word in bytes.
pub const WORD_BYTES: u32 = 4;
