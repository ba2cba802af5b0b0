//! Line-oriented parser for SL32 assembly source.

use std::collections::BTreeMap;
use std::collections::HashSet;

use crate::error::{AsmError, AsmErrorKind};
use crate::{Instruction, Reg};

use super::{DataItem, DataKind, Module, Reloc, SymValue, TextItem};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

struct Parser {
    module: Module,
    section: Section,
    pending_labels: Vec<String>,
    pending_indirect: Vec<String>,
    defined: HashSet<String>,
    constants: BTreeMap<String, i64>,
    line: usize,
}

pub(super) fn parse(src: &str) -> Result<Module, AsmError> {
    let mut p = Parser {
        module: Module::default(),
        section: Section::Text,
        pending_labels: Vec::new(),
        pending_indirect: Vec::new(),
        defined: HashSet::new(),
        constants: BTreeMap::new(),
        line: 0,
    };
    for (idx, raw) in src.lines().enumerate() {
        p.line = idx + 1;
        p.parse_line(raw)?;
    }
    if !p.pending_labels.is_empty() {
        // A trailing label must land on something; attach it to a nop so
        // `end:`-style labels keep working.
        if p.section == Section::Text {
            p.emit_inst(Instruction::nop(), None)?;
        } else {
            let labels = std::mem::take(&mut p.pending_labels);
            p.module.data.push(DataItem {
                labels,
                kind: DataKind::Space(0),
                line: p.line,
            });
        }
    }
    if !p.pending_indirect.is_empty() {
        return Err(p.err(AsmErrorKind::DanglingIndirect));
    }
    p.module.constants = p.constants;
    Ok(p.module)
}

impl Parser {
    fn err(&self, kind: AsmErrorKind) -> AsmError {
        AsmError {
            line: self.line,
            kind,
        }
    }

    fn parse_line(&mut self, raw: &str) -> Result<(), AsmError> {
        let mut line = strip_comment(raw).trim();
        // Consume any number of leading `label:` definitions.
        while let Some((label, rest)) = split_label(line) {
            let label = label.to_string();
            if !is_valid_ident(&label) {
                return Err(self.err(AsmErrorKind::BadDirective(format!(
                    "invalid label name `{label}`"
                ))));
            }
            if !self.defined.insert(label.clone()) {
                return Err(self.err(AsmErrorKind::DuplicateLabel(label)));
            }
            self.pending_labels.push(label);
            line = rest.trim();
        }
        if line.is_empty() {
            return Ok(());
        }
        let (mnemonic, rest) = match line.find(char::is_whitespace) {
            Some(pos) => (&line[..pos], line[pos..].trim()),
            None => (line, ""),
        };
        if let Some(directive) = mnemonic.strip_prefix('.') {
            self.parse_directive(directive, rest)
        } else if mnemonic.bytes().any(|b| b.is_ascii_uppercase()) {
            self.parse_instruction(&mnemonic.to_ascii_lowercase(), rest)
        } else {
            // Mnemonics are written in lower case: match the slice itself.
            self.parse_instruction(mnemonic, rest)
        }
    }

    // ---------------------------------------------------------- directives

    fn parse_directive(&mut self, directive: &str, rest: &str) -> Result<(), AsmError> {
        match directive {
            "text" => {
                self.section = Section::Text;
                Ok(())
            }
            "data" => {
                self.section = Section::Data;
                Ok(())
            }
            "global" | "globl" => {
                if self.module.entry.is_none() {
                    self.module.entry = Some(rest.trim().to_string());
                }
                Ok(())
            }
            "equ" => {
                let (name, value) = rest.split_once(',').ok_or_else(|| {
                    self.err(AsmErrorKind::BadDirective(
                        ".equ needs `name, value`".into(),
                    ))
                })?;
                let name = name.trim().to_string();
                let value = self.parse_int(value.trim())?;
                self.constants.insert(name, value);
                Ok(())
            }
            "indirect" => {
                if self.section != Section::Text {
                    return Err(self.err(AsmErrorKind::MisplacedItem(
                        ".indirect outside .text".into(),
                    )));
                }
                for t in rest.split(',') {
                    self.pending_indirect.push(t.trim().to_string());
                }
                Ok(())
            }
            "word" => self.emit_data_list(rest, |p, v| {
                if let Ok(n) = p.parse_int(v) {
                    if (-(1i64 << 31)..1i64 << 32).contains(&n) {
                        Ok(DataKind::Word(SymValue::Const(n as u32)))
                    } else {
                        Err(p.err(AsmErrorKind::BadImmediate(v.to_string())))
                    }
                } else if is_valid_ident(v) {
                    Ok(DataKind::Word(SymValue::Label(v.to_string())))
                } else {
                    Err(p.err(AsmErrorKind::BadImmediate(v.to_string())))
                }
            }),
            "half" => self.emit_data_list(rest, |p, v| {
                let n = p.parse_int(v)?;
                if (-(1 << 15)..1 << 16).contains(&n) {
                    Ok(DataKind::Half(n as u16))
                } else {
                    Err(p.err(AsmErrorKind::BadImmediate(v.to_string())))
                }
            }),
            "byte" => self.emit_data_list(rest, |p, v| {
                let n = p.parse_int(v)?;
                if (-128..256).contains(&n) {
                    Ok(DataKind::Byte(n as u8))
                } else {
                    Err(p.err(AsmErrorKind::BadImmediate(v.to_string())))
                }
            }),
            "space" => {
                let n = self.parse_int(rest)?;
                let n = self.check_u32(n)?;
                self.emit_data(DataKind::Space(n))
            }
            "align" => {
                let n = self.parse_int(rest)?;
                let n = self.check_u32(n)?;
                if !n.is_power_of_two() {
                    return Err(self.err(AsmErrorKind::BadDirective(format!(
                        ".align {n}: not a power of two"
                    ))));
                }
                self.emit_data(DataKind::Align(n))
            }
            "str" | "strz" => {
                let mut bytes = parse_string_literal(rest)
                    .ok_or_else(|| self.err(AsmErrorKind::BadDirective("bad string".into())))?;
                if directive == "strz" {
                    bytes.push(0);
                }
                self.emit_data(DataKind::Bytes(bytes))
            }
            other => Err(self.err(AsmErrorKind::UnknownMnemonic(format!(".{other}")))),
        }
    }

    fn emit_data_list(
        &mut self,
        rest: &str,
        mut f: impl FnMut(&mut Self, &str) -> Result<DataKind, AsmError>,
    ) -> Result<(), AsmError> {
        if rest.trim().is_empty() {
            return Err(self.err(AsmErrorKind::BadDirective("missing values".into())));
        }
        for v in rest.split(',') {
            let kind = f(self, v.trim())?;
            self.emit_data(kind)?;
        }
        Ok(())
    }

    fn emit_data(&mut self, kind: DataKind) -> Result<(), AsmError> {
        if self.section != Section::Data {
            return Err(self.err(AsmErrorKind::MisplacedItem(
                "data directive in .text (SOFIA text must be pure instructions)".into(),
            )));
        }
        let labels = std::mem::take(&mut self.pending_labels);
        self.module.data.push(DataItem {
            labels,
            kind,
            line: self.line,
        });
        Ok(())
    }

    // -------------------------------------------------------- instructions

    fn emit_inst(&mut self, inst: Instruction, reloc: Option<Reloc>) -> Result<(), AsmError> {
        if self.section != Section::Text {
            return Err(self.err(AsmErrorKind::MisplacedItem("instruction in .data".into())));
        }
        let indirect_targets = if inst.is_indirect_jump() {
            std::mem::take(&mut self.pending_indirect)
        } else if !self.pending_indirect.is_empty() {
            return Err(self.err(AsmErrorKind::DanglingIndirect));
        } else {
            Vec::new()
        };
        let labels = std::mem::take(&mut self.pending_labels);
        self.module.text.push(TextItem {
            labels,
            inst,
            reloc,
            indirect_targets,
            line: self.line,
        });
        Ok(())
    }

    fn parse_instruction(&mut self, m: &str, rest: &str) -> Result<(), AsmError> {
        use Instruction::*;
        let ops = split_operands(rest);
        let n = ops.len();
        let bad = |p: &Self| {
            p.err(AsmErrorKind::BadOperands(format!(
                "`{m}` with {n} operand(s)"
            )))
        };

        macro_rules! need {
            ($count:expr) => {
                if n != $count {
                    return Err(bad(self));
                }
            };
        }

        match m {
            // --- three-register ALU ---
            "add" | "sub" | "and" | "or" | "xor" | "nor" | "slt" | "sltu" | "mul" | "div"
            | "divu" | "rem" | "remu" => {
                need!(3);
                let rd = self.reg(ops[0])?;
                let rs = self.reg(ops[1])?;
                let rt = self.reg(ops[2])?;
                let inst = match m {
                    "add" => Add { rd, rs, rt },
                    "sub" => Sub { rd, rs, rt },
                    "and" => And { rd, rs, rt },
                    "or" => Or { rd, rs, rt },
                    "xor" => Xor { rd, rs, rt },
                    "nor" => Nor { rd, rs, rt },
                    "slt" => Slt { rd, rs, rt },
                    "sltu" => Sltu { rd, rs, rt },
                    "mul" => Mul { rd, rs, rt },
                    "div" => Div { rd, rs, rt },
                    "divu" => Divu { rd, rs, rt },
                    "rem" => Rem { rd, rs, rt },
                    _ => Remu { rd, rs, rt },
                };
                self.emit_inst(inst, None)
            }
            // --- variable shifts: sllv rd, rt, rs ---
            "sllv" | "srlv" | "srav" => {
                need!(3);
                let rd = self.reg(ops[0])?;
                let rt = self.reg(ops[1])?;
                let rs = self.reg(ops[2])?;
                let inst = match m {
                    "sllv" => Sllv { rd, rt, rs },
                    "srlv" => Srlv { rd, rt, rs },
                    _ => Srav { rd, rt, rs },
                };
                self.emit_inst(inst, None)
            }
            // --- immediate shifts: sll rd, rt, shamt ---
            "sll" | "srl" | "sra" => {
                need!(3);
                let rd = self.reg(ops[0])?;
                let rt = self.reg(ops[1])?;
                let sh = self.parse_int(ops[2])?;
                if !(0..32).contains(&sh) {
                    return Err(self.err(AsmErrorKind::BadImmediate(ops[2].to_string())));
                }
                let shamt = sh as u8;
                let inst = match m {
                    "sll" => Sll { rd, rt, shamt },
                    "srl" => Srl { rd, rt, shamt },
                    _ => Sra { rd, rt, shamt },
                };
                self.emit_inst(inst, None)
            }
            // --- I-type ALU ---
            "addi" | "slti" | "sltiu" => {
                need!(3);
                let rt = self.reg(ops[0])?;
                let rs = self.reg(ops[1])?;
                let imm = self.imm16_signed(ops[2])?;
                let inst = match m {
                    "addi" => Addi { rt, rs, imm },
                    "slti" => Slti { rt, rs, imm },
                    _ => Sltiu { rt, rs, imm },
                };
                self.emit_inst(inst, None)
            }
            "subi" => {
                need!(3);
                let rt = self.reg(ops[0])?;
                let rs = self.reg(ops[1])?;
                let v = self.parse_int(ops[2])?;
                let neg = -v;
                if !(-32768..=32767).contains(&neg) {
                    return Err(self.err(AsmErrorKind::BadImmediate(ops[2].to_string())));
                }
                self.emit_inst(
                    Addi {
                        rt,
                        rs,
                        imm: neg as i16,
                    },
                    None,
                )
            }
            "andi" | "ori" | "xori" => {
                need!(3);
                let rt = self.reg(ops[0])?;
                let rs = self.reg(ops[1])?;
                let imm = self.imm16_unsigned(ops[2])?;
                let inst = match m {
                    "andi" => Andi { rt, rs, imm },
                    "ori" => Ori { rt, rs, imm },
                    _ => Xori { rt, rs, imm },
                };
                self.emit_inst(inst, None)
            }
            "lui" => {
                need!(2);
                let rt = self.reg(ops[0])?;
                let imm = self.imm16_unsigned(ops[1])?;
                self.emit_inst(Lui { rt, imm }, None)
            }
            // --- memory ---
            "lb" | "lbu" | "lh" | "lhu" | "lw" | "sb" | "sh" | "sw" => {
                need!(2);
                let rt = self.reg(ops[0])?;
                let (offset, base) = self.mem_operand(ops[1])?;
                let inst = match m {
                    "lb" => Lb { rt, base, offset },
                    "lbu" => Lbu { rt, base, offset },
                    "lh" => Lh { rt, base, offset },
                    "lhu" => Lhu { rt, base, offset },
                    "lw" => Lw { rt, base, offset },
                    "sb" => Sb { rt, base, offset },
                    "sh" => Sh { rt, base, offset },
                    _ => Sw { rt, base, offset },
                };
                self.emit_inst(inst, None)
            }
            // --- branches (label targets only) ---
            // The pseudo branches are base branches: `bgt a, b` is
            // `blt b, a`, `bltz a` is `blt a, zero`, `b` is `beq zero, zero`.
            "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" | "bgt" | "ble" | "bgtu" | "bleu"
            | "beqz" | "bnez" | "bltz" | "bgez" | "b" => {
                let (base, regs, swap) = match m {
                    "bgt" => ("blt", 2, true),
                    "ble" => ("bge", 2, true),
                    "bgtu" => ("bltu", 2, true),
                    "bleu" => ("bgeu", 2, true),
                    "beqz" | "bnez" | "bltz" | "bgez" => (&m[..m.len() - 1], 1, false),
                    "b" => ("beq", 0, false),
                    base => (base, 2, false),
                };
                need!(regs + 1);
                let mut r = [Reg::ZERO; 2];
                for (slot, op) in r.iter_mut().zip(&ops[..regs]) {
                    *slot = self.reg(op)?;
                }
                if swap {
                    r.swap(0, 1);
                }
                let [rs, rt] = r;
                let label = self.label(ops[regs])?;
                let inst = match base {
                    "beq" => Beq { rs, rt, offset: 0 },
                    "bne" => Bne { rs, rt, offset: 0 },
                    "blt" => Blt { rs, rt, offset: 0 },
                    "bge" => Bge { rs, rt, offset: 0 },
                    "bltu" => Bltu { rs, rt, offset: 0 },
                    _ => Bgeu { rs, rt, offset: 0 },
                };
                self.emit_inst(inst, Some(Reloc::Branch(label)))
            }
            // --- jumps ---
            "j" => {
                need!(1);
                self.emit_inst(J { index: 0 }, Some(Reloc::Jump(self.label(ops[0])?)))
            }
            "jal" | "call" => {
                need!(1);
                self.emit_inst(Jal { index: 0 }, Some(Reloc::Jump(self.label(ops[0])?)))
            }
            "jr" => {
                need!(1);
                let rs = self.reg(ops[0])?;
                self.emit_inst(Jr { rs }, None)
            }
            "ret" => {
                need!(0);
                self.emit_inst(Jr { rs: Reg::RA }, None)
            }
            "jalr" => match n {
                1 => {
                    let rs = self.reg(ops[0])?;
                    self.emit_inst(Jalr { rd: Reg::RA, rs }, None)
                }
                2 => {
                    let rd = self.reg(ops[0])?;
                    let rs = self.reg(ops[1])?;
                    self.emit_inst(Jalr { rd, rs }, None)
                }
                _ => Err(bad(self)),
            },
            // --- misc / pseudo ---
            "halt" => {
                need!(0);
                self.emit_inst(Halt, None)
            }
            "nop" => {
                need!(0);
                self.emit_inst(Instruction::nop(), None)
            }
            "mv" | "move" => {
                need!(2);
                let rt = self.reg(ops[0])?;
                let rs = self.reg(ops[1])?;
                self.emit_inst(Addi { rt, rs, imm: 0 }, None)
            }
            "not" => {
                need!(2);
                let rd = self.reg(ops[0])?;
                let rs = self.reg(ops[1])?;
                self.emit_inst(
                    Nor {
                        rd,
                        rs,
                        rt: Reg::ZERO,
                    },
                    None,
                )
            }
            "neg" => {
                need!(2);
                let rd = self.reg(ops[0])?;
                let rt = self.reg(ops[1])?;
                self.emit_inst(
                    Sub {
                        rd,
                        rs: Reg::ZERO,
                        rt,
                    },
                    None,
                )
            }
            "li" => {
                need!(2);
                let rt = self.reg(ops[0])?;
                let v = self.parse_int(ops[1])?;
                if !(-(1i64 << 31)..1i64 << 32).contains(&v) {
                    return Err(self.err(AsmErrorKind::BadImmediate(ops[1].to_string())));
                }
                let v = v as u32;
                self.expand_li(rt, v)
            }
            "la" => {
                need!(2);
                let rt = self.reg(ops[0])?;
                let label = self.label(ops[1])?;
                self.emit_inst(Lui { rt, imm: 0 }, Some(Reloc::Hi(label.clone())))?;
                self.emit_inst(Ori { rt, rs: rt, imm: 0 }, Some(Reloc::Lo(label)))
            }
            other => Err(self.err(AsmErrorKind::UnknownMnemonic(other.to_string()))),
        }
    }

    /// `li` expansion: 1 instruction when the value fits, else `lui(+ori)`.
    fn expand_li(&mut self, rt: Reg, v: u32) -> Result<(), AsmError> {
        use Instruction::*;
        let signed = v as i32;
        if (-32768..=32767).contains(&signed) {
            self.emit_inst(
                Addi {
                    rt,
                    rs: Reg::ZERO,
                    imm: signed as i16,
                },
                None,
            )
        } else if v & 0xFFFF == 0 {
            self.emit_inst(
                Lui {
                    rt,
                    imm: (v >> 16) as u16,
                },
                None,
            )
        } else {
            self.emit_inst(
                Lui {
                    rt,
                    imm: (v >> 16) as u16,
                },
                None,
            )?;
            self.emit_inst(
                Ori {
                    rt,
                    rs: rt,
                    imm: (v & 0xFFFF) as u16,
                },
                None,
            )
        }
    }

    // ------------------------------------------------------------ operands

    /// A label operand: only an identifier can be defined as a label.
    fn label(&self, s: &str) -> Result<String, AsmError> {
        let bad = || self.err(AsmErrorKind::BadOperands(format!("`{s}` is not a label")));
        is_valid_ident(s).then(|| s.to_string()).ok_or_else(bad)
    }

    fn reg(&self, s: &str) -> Result<Reg, AsmError> {
        s.parse()
            .map_err(|_| self.err(AsmErrorKind::BadRegister(s.to_string())))
    }

    fn imm16_signed(&self, s: &str) -> Result<i16, AsmError> {
        let v = self.parse_int(s)?;
        if (-32768..=32767).contains(&v) {
            Ok(v as i16)
        } else {
            Err(self.err(AsmErrorKind::BadImmediate(s.to_string())))
        }
    }

    fn imm16_unsigned(&self, s: &str) -> Result<u16, AsmError> {
        let v = self.parse_int(s)?;
        if (0..=0xFFFF).contains(&v) {
            Ok(v as u16)
        } else {
            Err(self.err(AsmErrorKind::BadImmediate(s.to_string())))
        }
    }

    /// Parses `offset(base)`, `(base)`, or `offset` (base = zero).
    fn mem_operand(&self, s: &str) -> Result<(i16, Reg), AsmError> {
        if let Some(open) = s.find('(') {
            let close = s
                .rfind(')')
                .ok_or_else(|| self.err(AsmErrorKind::BadOperands(s.to_string())))?;
            let off = s[..open].trim();
            let base = self.reg(s[open + 1..close].trim())?;
            let offset = if off.is_empty() {
                0
            } else {
                self.imm16_signed(off)?
            };
            Ok((offset, base))
        } else {
            Ok((self.imm16_signed(s)?, Reg::ZERO))
        }
    }

    /// Parses an integer literal: decimal, `0x…`, `0b…`, `'c'`, a `.equ`
    /// constant, optionally negated.
    fn parse_int(&self, s: &str) -> Result<i64, AsmError> {
        let s = s.trim();
        let bad = || self.err(AsmErrorKind::BadImmediate(s.to_string()));
        if s.is_empty() {
            return Err(bad());
        }
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest.trim()),
            None => (false, s),
        };
        let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            parse_digits(hex, 16).ok_or_else(bad)?
        } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
            parse_digits(bin, 2).ok_or_else(bad)?
        } else if let Some(quoted) = body.strip_prefix('\'') {
            let mut chars = quoted.strip_suffix('\'').ok_or_else(bad)?.chars();
            let value = match (chars.next(), chars.next()) {
                (Some(c), None) => c as i64,
                (Some('\\'), Some(escape)) => match escape {
                    'n' => 10,
                    't' => 9,
                    'r' => 13,
                    '0' => 0,
                    '\\' => 92,
                    '\'' => 39,
                    _ => return Err(bad()),
                },
                _ => return Err(bad()),
            };
            if chars.next().is_some() {
                return Err(bad());
            }
            value
        } else if body.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            parse_digits(body, 10).ok_or_else(bad)?
        } else if let Some(&v) = self.constants.get(body) {
            v
        } else {
            return Err(bad());
        };
        Ok(if neg { -value } else { value })
    }

    fn check_u32(&self, v: i64) -> Result<u32, AsmError> {
        if (0..=u32::MAX as i64).contains(&v) {
            Ok(v as u32)
        } else {
            Err(self.err(AsmErrorKind::BadImmediate(v.to_string())))
        }
    }
}

// ------------------------------------------------------------------ lexing

fn strip_comment(line: &str) -> &str {
    // Comments start with `#` or `//`; string literals may contain both, so
    // scan outside quotes.
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if c == b'\\' {
                i += 1;
            } else if c == b'"' {
                in_str = false;
            }
        } else if c == b'"' {
            in_str = true;
        } else if c == b'#' || (c == b'/' && bytes.get(i + 1) == Some(&b'/')) {
            return &line[..i];
        }
        i += 1;
    }
    line
}

/// Splits a leading `label:` off a line, if present (not inside a string).
fn split_label(line: &str) -> Option<(&str, &str)> {
    let colon = line.find(':')?;
    let head = &line[..colon];
    if head.contains('"') || head.contains(char::is_whitespace) {
        return None;
    }
    if head.is_empty() {
        return None;
    }
    Some((head, &line[colon + 1..]))
}

fn is_valid_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// Splits operands on top-level commas (commas inside quotes are kept),
/// each a trimmed slice of `rest`.
fn split_operands(rest: &str) -> Vec<&str> {
    if rest.trim().is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut in_str = false;
    let mut start = 0;
    for (i, c) in rest.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(rest[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(rest[start..].trim());
    out
}

/// Parses `digits` in `radix` as [`i64::from_str_radix`] does, after
/// dropping `_` separators: in place, unless there are separators to
/// drop.
fn parse_digits(digits: &str, radix: u32) -> Option<i64> {
    if digits.contains('_') {
        i64::from_str_radix(&digits.replace('_', ""), radix).ok()
    } else {
        i64::from_str_radix(digits, radix).ok()
    }
}

/// Parses a double-quoted string literal with `\n \t \r \0 \\ \"` escapes.
fn parse_string_literal(s: &str) -> Option<Vec<u8>> {
    let s = s.trim();
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push(b'\n'),
                't' => out.push(b'\t'),
                'r' => out.push(b'\r'),
                '0' => out.push(0),
                '\\' => out.push(b'\\'),
                '"' => out.push(b'"'),
                _ => return None,
            }
        } else {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use crate::error::AsmErrorKind;
    use crate::{Instruction, Reg};

    #[test]
    fn basic_program_parses() {
        let m = parse(
            r#"
            .text
            .global main
        main:
            addi t0, zero, 5
        loop:
            subi t0, t0, 1
            bnez t0, loop
            halt
        "#,
        )
        .unwrap();
        assert_eq!(m.entry.as_deref(), Some("main"));
        assert_eq!(m.text_len(), 4);
        assert_eq!(m.text[0].labels, vec!["main".to_string()]);
        assert_eq!(m.text[1].labels, vec!["loop".to_string()]);
    }

    #[test]
    fn li_expansion_sizes() {
        let m = parse("main: li t0, 5\nli t1, 0x12340000\nli t2, 0x12345678\nhalt").unwrap();
        // 1 + 1 + 2 + 1 instructions
        assert_eq!(m.text_len(), 5);
        assert_eq!(
            m.text[0].inst,
            Instruction::Addi {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 5
            }
        );
        assert_eq!(
            m.text[1].inst,
            Instruction::Lui {
                rt: Reg::T1,
                imm: 0x1234
            }
        );
        assert_eq!(
            m.text[2].inst,
            Instruction::Lui {
                rt: Reg::T2,
                imm: 0x1234
            }
        );
        assert_eq!(
            m.text[3].inst,
            Instruction::Ori {
                rt: Reg::T2,
                rs: Reg::T2,
                imm: 0x5678
            }
        );
    }

    #[test]
    fn la_emits_hi_lo_relocs() {
        let m = parse(".text\nmain: la a0, buf\nhalt\n.data\nbuf: .word 1").unwrap();
        assert!(matches!(m.text[0].reloc, Some(super::super::Reloc::Hi(_))));
        assert!(matches!(m.text[1].reloc, Some(super::super::Reloc::Lo(_))));
    }

    #[test]
    fn negative_and_hex_immediates() {
        let m = parse("main: addi t0, zero, -32768\nandi t1, t0, 0xFFFF\nhalt").unwrap();
        assert_eq!(
            m.text[0].inst,
            Instruction::Addi {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: -32768
            }
        );
        assert_eq!(
            m.text[1].inst,
            Instruction::Andi {
                rt: Reg::T1,
                rs: Reg::T0,
                imm: 0xFFFF
            }
        );
    }

    #[test]
    fn equ_constants_resolve() {
        let m = parse(".equ MMIO, 0x1000\n.text\nmain: li t0, MMIO\nhalt").unwrap();
        assert_eq!(
            m.text[0].inst,
            Instruction::Addi {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 0x1000
            }
        );
    }

    #[test]
    fn mem_operands() {
        let m = parse("main: lw t0, 8(sp)\nsw t0, (a0)\nlb t1, -4(fp)\nhalt").unwrap();
        assert_eq!(
            m.text[0].inst,
            Instruction::Lw {
                rt: Reg::T0,
                base: Reg::SP,
                offset: 8
            }
        );
        assert_eq!(
            m.text[1].inst,
            Instruction::Sw {
                rt: Reg::T0,
                base: Reg::A0,
                offset: 0
            }
        );
        assert_eq!(
            m.text[2].inst,
            Instruction::Lb {
                rt: Reg::T1,
                base: Reg::FP,
                offset: -4
            }
        );
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = parse("a: nop\na: halt").unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::DuplicateLabel(_)));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn pseudo_branches_are_their_base_branches() {
        for (pseudo, base) in [
            ("bgt t0, t1, L", "blt t1, t0, L"),
            ("ble t0, t1, L", "bge t1, t0, L"),
            ("bgtu t0, t1, L", "bltu t1, t0, L"),
            ("bleu t0, t1, L", "bgeu t1, t0, L"),
            ("beqz t0, L", "beq t0, zero, L"),
            ("bnez t0, L", "bne t0, zero, L"),
            ("bltz t0, L", "blt t0, zero, L"),
            ("bgez t0, L", "bge t0, zero, L"),
            ("b L", "beq zero, zero, L"),
        ] {
            let module = |line: &str| parse(&format!("L: {line}")).unwrap().text;
            assert_eq!(module(pseudo), module(base), "{pseudo}");
        }
    }

    #[test]
    fn label_operands_must_be_identifiers() {
        for line in [
            "beq t0, t1,",
            "bnez t0, 4",
            "b 12",
            "j 0x100",
            "jal a b",
            "la t0, 1x",
        ] {
            let e = parse(&format!("main: nop\n{line}\nhalt")).unwrap_err();
            assert!(
                matches!(e.kind, AsmErrorKind::BadOperands(_)),
                "{line}: {e}"
            );
            assert_eq!(e.line, 2, "{line}");
        }
        assert!(parse("main: j .L_1\n.L_1: halt").is_ok());
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        let e = parse("main: frobnicate t0").unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::UnknownMnemonic(_)));
    }

    #[test]
    fn instruction_in_data_rejected() {
        let e = parse(".data\nadd t0, t1, t2").unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::MisplacedItem(_)));
    }

    #[test]
    fn data_directive_in_text_rejected() {
        let e = parse(".text\nmain: .word 5").unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::MisplacedItem(_)));
    }

    #[test]
    fn out_of_range_immediate_rejected() {
        assert!(parse("main: addi t0, zero, 40000").is_err());
        assert!(parse("main: sll t0, t0, 32").is_err());
    }

    #[test]
    fn indirect_attaches_to_jalr() {
        let m =
            parse(".text\nmain: la t0, f\n.indirect f, g\njalr t0\nhalt\nf: ret\ng: ret").unwrap();
        let jalr = m
            .text
            .iter()
            .find(|t| t.inst.is_indirect_jump() && t.inst.is_call())
            .unwrap();
        assert_eq!(
            jalr.indirect_targets,
            vec!["f".to_string(), "g".to_string()]
        );
    }

    #[test]
    fn dangling_indirect_rejected() {
        let e = parse(".text\nmain: .indirect f\nadd t0, t1, t2\nhalt").unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::DanglingIndirect));
    }

    #[test]
    fn comments_and_strings() {
        let m = parse(".data\nmsg: .strz \"hi # not a comment\" # real comment\n.text\nmain: halt")
            .unwrap();
        match &m.data[0].kind {
            super::super::DataKind::Bytes(b) => {
                assert_eq!(b, b"hi # not a comment\0")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_label_gets_nop() {
        let m = parse("main: halt\nend:").unwrap();
        assert_eq!(m.text_len(), 2);
        assert_eq!(m.text[1].labels, vec!["end".to_string()]);
        assert!(m.text[1].inst.is_nop());
    }

    #[test]
    fn char_literals() {
        let m = parse(".data\nc: .byte 'a', '\\n'\n.text\nmain: halt").unwrap();
        assert_eq!(m.data.len(), 2);
    }
}
