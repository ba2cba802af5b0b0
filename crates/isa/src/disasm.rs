//! Disassembly of machine words back into readable assembly.

use std::collections::BTreeSet;
use std::fmt::Write;

use crate::asm::Assembly;
use crate::Instruction;

/// Disassembles a single word at address `pc`, annotating branch and jump
/// targets with their absolute addresses.
///
/// Words that do not decode are rendered as `.word 0x…  ; illegal` so a
/// dump of a *ciphertext* region stays readable (this is how the
/// confidentiality experiment shows an encrypted image is opaque).
///
/// # Examples
///
/// ```
/// use sofia_isa::{disasm, Instruction, Reg};
///
/// let w = Instruction::Beq { rs: Reg::T0, rt: Reg::ZERO, offset: 2 }.encode();
/// assert_eq!(disasm::word(w, 0x100), "beq t0, zero, 0x10c");
/// assert!(disasm::word(0xFFFF_FFFF, 0).starts_with(".word"));
/// ```
pub fn word(w: u32, pc: u32) -> String {
    match Instruction::decode(w) {
        Ok(inst) => inst_at(&inst, pc),
        Err(_) => format!(".word {w:#010x}  ; illegal"),
    }
}

/// Formats a decoded instruction at address `pc` with resolved targets.
pub fn inst_at(inst: &Instruction, pc: u32) -> String {
    format_at(inst, pc, |target| format!("{target:#x}"))
}

/// Formats `inst` at `pc`, spelling a branch or jump target with
/// `target`; every other instruction prints as itself.
fn format_at(inst: &Instruction, pc: u32, target: impl Fn(u32) -> String) -> String {
    use Instruction::*;
    let to = || target(inst.static_target(pc).expect("transfers have targets"));
    match *inst {
        Beq { rs, rt, .. }
        | Bne { rs, rt, .. }
        | Blt { rs, rt, .. }
        | Bge { rs, rt, .. }
        | Bltu { rs, rt, .. }
        | Bgeu { rs, rt, .. } => format!("{} {rs}, {rt}, {}", inst.mnemonic(), to()),
        J { .. } | Jal { .. } => format!("{} {}", inst.mnemonic(), to()),
        _ => inst.to_string(),
    }
}

/// Disassembles a contiguous region of words starting at `base`, one line
/// per word: `address:  word  mnemonic…`.
///
/// # Examples
///
/// ```
/// use sofia_isa::disasm;
/// let listing = disasm::region(&[0, 0x0000_000D], 0x100);
/// assert!(listing.contains("nop"));
/// assert!(listing.contains("halt"));
/// ```
pub fn region(words: &[u32], base: u32) -> String {
    let mut out = String::new();
    for (i, &w) in words.iter().enumerate() {
        let pc = base + (i as u32) * 4;
        out.push_str(&format!("{pc:#010x}:  {w:08x}  {}\n", word(w, pc)));
    }
    out
}

/// Reassembles a laid-out [`Assembly`] into source the parser accepts,
/// closing the asm → encode → disasm → asm loop.
///
/// [`inst_at`] renders branch and jump targets as absolute hex addresses,
/// which the parser (label targets only) rejects; this function instead
/// labels every transfer target `L_<addr>` and emits label operands, plus
/// a `.global` for the entry point and the data section as verbatim
/// `.byte` runs. Reassembling the result with the same bases reproduces
/// `words`, `data` and `entry` bit-for-bit.
///
/// Returns `None` if a word does not decode or a transfer targets an
/// address outside the text section — neither occurs for assembler
/// output, but both do for tampered or ciphertext images.
///
/// # Examples
///
/// ```
/// use sofia_isa::{asm, disasm};
///
/// let a = asm::assemble("main: addi t0, zero, 1\nbeq t0, zero, main\nhalt")?;
/// let src = disasm::reassemble(&a).expect("assembler output reassembles");
/// assert_eq!(asm::assemble(&src)?.words, a.words);
/// # Ok::<(), sofia_isa::error::AsmError>(())
/// ```
pub fn reassemble(assembly: &Assembly) -> Option<String> {
    let base = assembly.text_base;
    let end = base + (assembly.words.len() as u32) * 4;
    let insts: Vec<Instruction> = assembly
        .words
        .iter()
        .map(|&w| Instruction::decode(w).ok())
        .collect::<Option<_>>()?;

    let in_text = |addr: u32| addr >= base && addr < end && addr % 4 == 0;
    if !in_text(assembly.entry) {
        return None;
    }

    // Every address that needs a label: the entry plus each static target.
    let mut targets = BTreeSet::new();
    targets.insert(assembly.entry);
    for (i, inst) in insts.iter().enumerate() {
        if inst.is_branch() || inst.is_direct_jump() {
            let target = inst.static_target(base + (i as u32) * 4)?;
            if !in_text(target) {
                return None;
            }
            targets.insert(target);
        }
    }

    let label = |addr: u32| format!("L_{addr:08x}");
    let mut out = String::new();
    out.push_str(".text\n");
    let _ = writeln!(out, ".global {}", label(assembly.entry));
    for (i, inst) in insts.iter().enumerate() {
        let pc = base + (i as u32) * 4;
        if targets.contains(&pc) {
            let _ = writeln!(out, "{}:", label(pc));
        }
        let _ = writeln!(out, "    {}", format_at(inst, pc, label));
    }

    // Data re-emitted as verbatim bytes: `.word label` references and
    // alignment padding are already resolved into the byte image, so a
    // flat `.byte` run reproduces it exactly at the same base.
    if !assembly.data.is_empty() {
        out.push_str(".data\n");
        for chunk in assembly.data.chunks(16) {
            let bytes: Vec<String> = chunk.iter().map(|b| b.to_string()).collect();
            let _ = writeln!(out, "    .byte {}", bytes.join(", "));
        }
    }
    Some(out)
}

/// The fraction of `words` that decode to legal instructions.
///
/// Near 1.0 for real code, and near the density of the opcode space
/// (well below 1.0) for ciphertext or random words — used by the
/// confidentiality experiment.
pub fn legal_fraction(words: &[u32]) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let legal = words
        .iter()
        .filter(|&&w| Instruction::decode(w).is_ok())
        .count();
    legal as f64 / words.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn jump_targets_are_absolute() {
        let jal = Instruction::Jal { index: 0x80 >> 2 }.encode();
        assert_eq!(word(jal, 0x100), "jal 0x80");
    }

    #[test]
    fn region_lists_every_word() {
        let words = [Instruction::Halt.encode(), 0xFFFF_FFFF];
        let listing = region(&words, 0);
        assert_eq!(listing.lines().count(), 2);
        assert!(listing.lines().nth(1).unwrap().contains("illegal"));
    }

    #[test]
    fn legal_fraction_extremes() {
        let legal = [Instruction::nop().encode(); 8];
        assert_eq!(legal_fraction(&legal), 1.0);
        assert_eq!(legal_fraction(&[]), 0.0);
        let mixed = [Instruction::nop().encode(), 0xFC00_0000];
        assert!((legal_fraction(&mixed) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn branch_annotation_is_pc_relative() {
        let b = Instruction::Bne {
            rs: Reg::T0,
            rt: Reg::T1,
            offset: -4,
        }
        .encode();
        assert_eq!(word(b, 0x20), "bne t0, t1, 0x14");
    }
}
