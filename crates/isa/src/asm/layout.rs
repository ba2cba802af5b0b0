//! Address assignment and relocation patching.

use std::collections::BTreeMap;

use crate::error::{AsmError, AsmErrorKind};
use crate::Instruction;

use super::{DataKind, Module, Reloc, SymValue};

/// Base addresses used when laying out a [`Module`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutOptions {
    /// Base address of the text section (word-aligned).
    pub text_base: u32,
    /// Base address of the data section (word-aligned).
    pub data_base: u32,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            text_base: super::DEFAULT_TEXT_BASE,
            data_base: super::DEFAULT_DATA_BASE,
        }
    }
}

/// A fully laid-out program: flat text words, flat data bytes, resolved
/// symbols, and the entry address.
///
/// # Examples
///
/// ```
/// use sofia_isa::asm;
///
/// let a = asm::assemble("main: addi v0, zero, 3\n halt")?;
/// assert_eq!(a.words.len(), 2);
/// assert_eq!(a.symbols["main"], a.text_base);
/// # Ok::<(), sofia_isa::error::AsmError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assembly {
    /// Address of `words[0]`.
    pub text_base: u32,
    /// Encoded text section.
    pub words: Vec<u32>,
    /// Address of `data[0]`.
    pub data_base: u32,
    /// Raw little-endian data section.
    pub data: Vec<u8>,
    /// Every label's resolved address.
    pub symbols: BTreeMap<String, u32>,
    /// The entry point address.
    pub entry: u32,
}

impl Assembly {
    /// Size of the text section in bytes (the paper's "text section" metric
    /// for the code-size-overhead evaluation).
    pub fn text_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Decodes the text section back into instructions.
    ///
    /// # Panics
    ///
    /// Panics if a word does not decode; an [`Assembly`] produced by this
    /// assembler always decodes.
    pub fn decode_text(&self) -> Vec<Instruction> {
        self.words
            .iter()
            .map(|&w| Instruction::decode(w).expect("assembled word must decode"))
            .collect()
    }
}

/// Patches a relocated operand once the target address is known.
///
/// `pc` is the address of the instruction being patched. This is exposed
/// so the SOFIA transformer can resolve relocations after its own layout.
///
/// # Errors
///
/// Returns an error if the branch distance exceeds ±32 Ki-words or the
/// jump target leaves the 256 MiB region of `pc`.
pub fn apply_reloc(
    inst: Instruction,
    reloc: &Reloc,
    pc: u32,
    target: u32,
) -> Result<Instruction, AsmError> {
    use Instruction::*;
    let patched = match reloc {
        Reloc::Branch(label) => {
            let diff = (target as i64) - (pc as i64 + 4);
            debug_assert_eq!(diff % 4, 0, "unaligned branch target");
            let words = diff / 4;
            if !(-32768..=32767).contains(&words) {
                return Err(AsmError {
                    line: 0,
                    kind: AsmErrorKind::BranchOutOfRange {
                        label: label.clone(),
                        distance: words,
                    },
                });
            }
            let offset = words as i16;
            match inst {
                Beq { rs, rt, .. } => Beq { rs, rt, offset },
                Bne { rs, rt, .. } => Bne { rs, rt, offset },
                Blt { rs, rt, .. } => Blt { rs, rt, offset },
                Bge { rs, rt, .. } => Bge { rs, rt, offset },
                Bltu { rs, rt, .. } => Bltu { rs, rt, offset },
                Bgeu { rs, rt, .. } => Bgeu { rs, rt, offset },
                other => unreachable!("branch reloc on {other}"),
            }
        }
        Reloc::Jump(label) => {
            if target & 0xF000_0000 != pc & 0xF000_0000 {
                return Err(AsmError {
                    line: 0,
                    kind: AsmErrorKind::JumpOutOfRegion {
                        label: label.clone(),
                    },
                });
            }
            let index = (target >> 2) & 0x03FF_FFFF;
            match inst {
                J { .. } => J { index },
                Jal { .. } => Jal { index },
                other => unreachable!("jump reloc on {other}"),
            }
        }
        Reloc::Hi(_) => match inst {
            Lui { rt, .. } => Lui {
                rt,
                imm: (target >> 16) as u16,
            },
            other => unreachable!("hi reloc on {other}"),
        },
        Reloc::Lo(_) => match inst {
            Ori { rt, rs, .. } => Ori {
                rt,
                rs,
                imm: (target & 0xFFFF) as u16,
            },
            other => unreachable!("lo reloc on {other}"),
        },
    };
    Ok(patched)
}

/// Lays out a data section at `data_base`, resolving `.word label`
/// references through the data symbols themselves and then through
/// `text_symbol` (which supplies text-label addresses).
///
/// Exposed so SOFIA's transformer — which assigns its own, block-aligned
/// text addresses — can share the exact data-layout rules of the plain
/// assembler.
///
/// # Errors
///
/// Returns [`AsmErrorKind::UndefinedLabel`] for unresolvable `.word`
/// references, and [`AsmErrorKind::BadDirective`] when `.space`/`.align`
/// push the section past the end of the 32-bit address space.
pub fn layout_data(
    items: &[super::DataItem],
    data_base: u32,
    text_symbol: impl Fn(&str) -> Option<u32>,
) -> Result<(Vec<u8>, BTreeMap<String, u32>), AsmError> {
    let mut symbols = BTreeMap::new();
    // Pass 1: offsets (sizes don't depend on symbol values).
    let mut offset: u32 = 0;
    let mut placements = Vec::with_capacity(items.len());
    for item in items {
        let end = align_up(offset, natural_align(&item.kind)).and_then(|at| {
            let end = at.checked_add(data_size(&item.kind))?;
            data_base.checked_add(end).map(|_| (at, end))
        });
        let Some((at, end)) = end else {
            return Err(AsmError {
                line: item.line,
                kind: AsmErrorKind::BadDirective("data section overflows the address space".into()),
            });
        };
        for label in &item.labels {
            symbols.insert(label.clone(), data_base + at);
        }
        placements.push(at);
        offset = end;
    }
    // Pass 2: values, now that data symbols are complete.
    let mut data = vec![0u8; offset as usize];
    for (item, &at) in items.iter().zip(&placements) {
        let at = at as usize;
        match &item.kind {
            DataKind::Word(v) => {
                let value = match v {
                    SymValue::Const(c) => *c,
                    SymValue::Label(l) => symbols
                        .get(l)
                        .copied()
                        .or_else(|| text_symbol(l))
                        .ok_or_else(|| AsmError {
                            line: item.line,
                            kind: AsmErrorKind::UndefinedLabel(l.clone()),
                        })?,
                };
                data[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            DataKind::Half(h) => data[at..at + 2].copy_from_slice(&h.to_le_bytes()),
            DataKind::Byte(b) => data[at] = *b,
            DataKind::Bytes(bs) => data[at..at + bs.len()].copy_from_slice(bs),
            DataKind::Space(_) | DataKind::Align(_) => {}
        }
    }
    Ok((data, symbols))
}

impl Module {
    /// Assigns addresses and resolves every relocation.
    ///
    /// # Errors
    ///
    /// Returns an error for undefined labels, branch targets out of range,
    /// and jumps that leave their 256 MiB region.
    pub fn layout(&self, opts: &LayoutOptions) -> Result<Assembly, AsmError> {
        let mut symbols = BTreeMap::new();

        // Text addresses.
        for (i, item) in self.text.iter().enumerate() {
            let addr = opts.text_base + (i as u32) * 4;
            for label in &item.labels {
                symbols.insert(label.clone(), addr);
            }
        }

        let text_syms = symbols.clone();
        let (data, data_symbols) =
            layout_data(&self.data, opts.data_base, |l| text_syms.get(l).copied())?;
        symbols.extend(data_symbols);

        // Patch text relocations.
        let mut words = Vec::with_capacity(self.text.len());
        for (i, item) in self.text.iter().enumerate() {
            let pc = opts.text_base + (i as u32) * 4;
            let inst = match &item.reloc {
                None => item.inst,
                Some(reloc) => {
                    let target = *symbols.get(reloc.label()).ok_or_else(|| AsmError {
                        line: item.line,
                        kind: AsmErrorKind::UndefinedLabel(reloc.label().to_string()),
                    })?;
                    apply_reloc(item.inst, reloc, pc, target).map_err(|mut e| {
                        e.line = item.line;
                        e
                    })?
                }
            };
            words.push(inst.encode());
        }

        // Entry point.
        let entry = match &self.entry {
            Some(label) => *symbols.get(label).ok_or_else(|| AsmError {
                line: 0,
                kind: AsmErrorKind::UndefinedLabel(label.clone()),
            })?,
            None => symbols.get("main").copied().unwrap_or(opts.text_base),
        };

        Ok(Assembly {
            text_base: opts.text_base,
            words,
            data_base: opts.data_base,
            data,
            symbols,
            entry,
        })
    }
}

fn natural_align(kind: &DataKind) -> u32 {
    match kind {
        DataKind::Word(_) => 4,
        DataKind::Half(_) => 2,
        DataKind::Align(n) => *n,
        _ => 1,
    }
}

fn data_size(kind: &DataKind) -> u32 {
    match kind {
        DataKind::Word(_) => 4,
        DataKind::Half(_) => 2,
        DataKind::Byte(_) => 1,
        DataKind::Space(n) => *n,
        DataKind::Align(_) => 0,
        DataKind::Bytes(b) => b.len() as u32,
    }
}

/// `v` rounded up to a multiple of `align`, or `None` past `u32::MAX`.
fn align_up(v: u32, align: u32) -> Option<u32> {
    debug_assert!(align.is_power_of_two());
    Some(v.checked_add(align - 1)? & !(align - 1))
}

#[cfg(test)]
mod tests {
    use super::super::{assemble, parse, LayoutOptions};
    use crate::{disasm, Instruction, Reg};

    #[test]
    fn branch_offsets_resolve_backwards_and_forwards() {
        let a =
            assemble("main: beq zero, zero, fwd\nnop\nfwd: bne zero, zero, main\nhalt").unwrap();
        let insts = a.decode_text();
        assert_eq!(
            insts[0],
            Instruction::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                offset: 1
            }
        );
        assert_eq!(
            insts[2],
            Instruction::Bne {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                offset: -3
            }
        );
    }

    #[test]
    fn jal_resolves_to_word_index() {
        let a = assemble("main: jal f\nhalt\nf: ret").unwrap();
        let insts = a.decode_text();
        let f_addr = a.symbols["f"];
        assert_eq!(insts[0], Instruction::Jal { index: f_addr >> 2 });
    }

    #[test]
    fn la_resolves_data_address() {
        let a = assemble(".text\nmain: la a0, buf\nhalt\n.data\nbuf: .word 42").unwrap();
        let insts = a.decode_text();
        let buf = a.symbols["buf"];
        assert_eq!(
            insts[0],
            Instruction::Lui {
                rt: Reg::A0,
                imm: (buf >> 16) as u16
            }
        );
        assert_eq!(
            insts[1],
            Instruction::Ori {
                rt: Reg::A0,
                rs: Reg::A0,
                imm: (buf & 0xFFFF) as u16
            }
        );
        assert_eq!(&a.data[0..4], &42u32.to_le_bytes());
    }

    #[test]
    fn data_alignment_and_sizes() {
        let a = assemble(
            ".data\nb: .byte 1\nw: .word 2\nh: .half 3\ns: .space 5\n.align 8\ne: .byte 4\n.text\nmain: halt",
        )
        .unwrap();
        assert_eq!(a.symbols["b"], a.data_base);
        assert_eq!(a.symbols["w"], a.data_base + 4); // aligned up from 1
        assert_eq!(a.symbols["h"], a.data_base + 8);
        assert_eq!(a.symbols["s"], a.data_base + 10);
        assert_eq!(a.symbols["e"], a.data_base + 16); // aligned to 8
        assert_eq!(&a.data[4..8], &2u32.to_le_bytes());
    }

    #[test]
    fn word_label_builds_function_pointer_table() {
        let a = assemble(".text\nmain: halt\nf: ret\ng: ret\n.data\ntbl: .word f, g").unwrap();
        let f = a.symbols["f"];
        let g = a.symbols["g"];
        assert_eq!(&a.data[0..4], &f.to_le_bytes());
        assert_eq!(&a.data[4..8], &g.to_le_bytes());
    }

    #[test]
    fn undefined_label_reported() {
        let err = assemble("main: j nowhere").unwrap_err();
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn entry_defaults() {
        let a = assemble("start: nop\nmain: halt").unwrap();
        assert_eq!(a.entry, a.symbols["main"]);
        let a2 = assemble("start: halt").unwrap();
        assert_eq!(a2.entry, a2.text_base);
        let a3 = assemble(".global start\nstart: halt\nmain: halt").unwrap();
        assert_eq!(a3.entry, a3.symbols["start"]);
    }

    #[test]
    fn custom_bases() {
        let m = parse("main: halt").unwrap();
        let a = m
            .layout(&LayoutOptions {
                text_base: 0x4000,
                data_base: 0x2000_0000,
            })
            .unwrap();
        assert_eq!(a.text_base, 0x4000);
        assert_eq!(a.entry, 0x4000);
    }

    #[test]
    fn disassembly_of_assembled_text_is_legal() {
        let a = assemble("main: addi t0, zero, 1\nbeq t0, zero, main\nhalt").unwrap();
        assert_eq!(disasm::legal_fraction(&a.words), 1.0);
    }

    #[test]
    fn branch_out_of_range_detected() {
        // Construct a module whose branch target is ~40 000 words away.
        let mut src = String::from("main: beq zero, zero, far\n");
        for _ in 0..40_000 {
            src.push_str("nop\n");
        }
        src.push_str("far: halt\n");
        let err = assemble(&src).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
