//! The SL32 two-pass assembler.
//!
//! [`parse`] turns source text into a symbolic [`Module`] — instructions
//! whose branch/jump/address operands may still reference labels via
//! [`Reloc`] entries. [`Module::layout`] (or the [`assemble`] convenience
//! wrapper) assigns addresses and patches every relocation, producing a
//! flat [`Assembly`].
//!
//! Keeping the symbolic form public is deliberate: SOFIA's secure
//! installer (`sofia-transform`) re-packs instructions into execution and
//! multiplexor blocks, which moves every address; it therefore consumes the
//! [`Module`] and performs its own layout before resolving relocations.
//!
//! # Syntax overview
//!
//! ```text
//! # comment       (also `//`)
//!     .text
//!     .global main            # entry point
//! main:
//!     li   t0, 1000           # pseudo: expands to addi / lui+ori
//!     la   a0, table          # pseudo: lui+ori with hi/lo relocations
//! loop:
//!     lw   t1, 0(a0)
//!     addi a0, a0, 4
//!     subi t0, t0, 1
//!     bnez t0, loop
//!     jal  helper
//!     halt
//!
//!     .data
//! table:
//!     .word 1, 2, 3, 0x10
//!     .half 7
//!     .byte 'x'
//!     .space 64
//!     .align 4
//!     .strz "hello"
//! ```
//!
//! Supported directives: `.text .data .global .equ .word .half .byte
//! .space .align .str .strz .indirect`. `.indirect t1, t2` declares the
//! possible targets of the *next* `jalr`/`jr`, giving the transformer the
//! function-pointer edges of the CFG (paper §II-D).

mod layout;
mod parser;

use std::collections::BTreeMap;

use crate::error::AsmError;
use crate::Instruction;

pub use layout::{apply_reloc, place_data, Assembly, DataPlacement, LayoutOptions};

/// Default base address of the text section.
///
/// The sub-page below `0x100` is reserved so that the `prevPC` reset
/// sentinel used by SOFIA can never alias a real instruction address.
pub const DEFAULT_TEXT_BASE: u32 = 0x100;

/// Default base address of the data section.
pub const DEFAULT_DATA_BASE: u32 = 0x1000_0000;

/// Default size of the data RAM at [`DEFAULT_DATA_BASE`], in bytes: the
/// machines' default, and the bound a sealer refuses data sections
/// beyond unless told the target's RAM size.
pub const DEFAULT_RAM_SIZE: u32 = 1 << 20;

/// How a symbolic operand of an instruction must be patched at layout time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reloc {
    /// Signed 16-bit word offset to a label, relative to `pc + 4`
    /// (conditional branches).
    Branch(String),
    /// 26-bit word index of a label within the same 256 MiB region
    /// (`j`/`jal`).
    Jump(String),
    /// Upper 16 bits of a label's address (`lui` half of `la`).
    Hi(String),
    /// Lower 16 bits of a label's address (`ori` half of `la`).
    Lo(String),
}

impl Reloc {
    /// The label this relocation refers to.
    pub fn label(&self) -> &str {
        match self {
            Reloc::Branch(l) | Reloc::Jump(l) | Reloc::Hi(l) | Reloc::Lo(l) => l,
        }
    }
}

/// One instruction slot in the text section of a [`Module`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextItem {
    /// Labels defined at this instruction's address.
    pub labels: Vec<String>,
    /// The instruction, with a zero placeholder in any relocated field.
    pub inst: Instruction,
    /// How to patch the instruction once addresses are known.
    pub reloc: Option<Reloc>,
    /// Possible targets declared with `.indirect` (only on `jalr`/`jr`).
    pub indirect_targets: Vec<String>,
    /// 1-based source line, for diagnostics.
    pub line: usize,
}

/// A raw value in the data section: a constant or a label's address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymValue {
    /// A literal value.
    Const(u32),
    /// The address of a label (text or data), patched at layout time.
    /// This is how function-pointer tables are built.
    Label(String),
}

/// One datum in the data section of a [`Module`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// A 32-bit word (auto-aligned to 4 bytes).
    Word(SymValue),
    /// A 16-bit half-word (auto-aligned to 2 bytes).
    Half(u16),
    /// A single byte.
    Byte(u8),
    /// `n` zero bytes.
    Space(u32),
    /// Pad with zero bytes to an `n`-byte boundary (`n` a power of two).
    Align(u32),
    /// Raw bytes from a string literal.
    Bytes(Vec<u8>),
}

/// A labelled datum in the data section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataItem {
    /// Labels defined at this datum's address.
    pub labels: Vec<String>,
    /// The datum itself.
    pub kind: DataKind,
    /// 1-based source line.
    pub line: usize,
}

/// A parsed, symbolic SL32 program: the unit consumed both by the plain
/// assembler ([`Module::layout`]) and by SOFIA's secure installer.
///
/// # Examples
///
/// ```
/// use sofia_isa::asm;
///
/// let module = asm::parse(".text\nmain: halt\n")?;
/// assert_eq!(module.text.len(), 1);
/// let assembly = module.layout(&asm::LayoutOptions::default())?;
/// assert_eq!(assembly.words.len(), 1);
/// # Ok::<(), sofia_isa::error::AsmError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Module {
    /// Instructions in program order.
    pub text: Vec<TextItem>,
    /// Data items in layout order.
    pub data: Vec<DataItem>,
    /// The entry label from `.global`, if any (defaults to `main`, then to
    /// the first instruction).
    pub entry: Option<String>,
    /// Compile-time constants from `.equ` (kept for tooling/debugging).
    pub constants: BTreeMap<String, i64>,
}

impl Module {
    /// All labels defined in the module, in definition order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.text
            .iter()
            .flat_map(|t| t.labels.iter())
            .chain(self.data.iter().flat_map(|d| d.labels.iter()))
            .map(String::as_str)
    }

    /// Number of instructions in the text section.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }
}

/// Parses SL32 assembly source into a symbolic [`Module`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending source line for unknown
/// mnemonics, malformed operands, out-of-range immediates, duplicate
/// labels, misplaced items, and malformed directives.
///
/// # Examples
///
/// ```
/// use sofia_isa::asm;
/// let module = asm::parse("main: addi v0, zero, 7\n halt")?;
/// assert_eq!(module.text_len(), 2);
/// # Ok::<(), sofia_isa::error::AsmError>(())
/// ```
pub fn parse(src: &str) -> Result<Module, AsmError> {
    parser::parse(src)
}

/// Parses and lays out a program in one step with default bases.
///
/// # Errors
///
/// Propagates parse errors and layout errors (undefined labels,
/// out-of-range branches).
///
/// # Examples
///
/// ```
/// use sofia_isa::asm;
/// let asmb = asm::assemble("main: halt")?;
/// assert_eq!(asmb.entry, asm::DEFAULT_TEXT_BASE);
/// # Ok::<(), sofia_isa::error::AsmError>(())
/// ```
pub fn assemble(src: &str) -> Result<Assembly, AsmError> {
    parse(src)?.layout(&LayoutOptions::default())
}
