//! Sealing in two halves: the paper's provider/device split (§II-C/§III).
//!
//! [`SealPlan::new`] is the provider's half and touches no key: lower,
//! CFG, pack and mux trees, then address assignment and operand
//! resolution, leaving every block's plaintext instruction words and the
//! `prevPC` of the edge that legitimately reaches each of its words.
//! [`SealPlan::seal`] is the device's half: for each block, a CBC-MAC is
//! computed over the *plaintext* instruction words (`k2` for execution
//! blocks, `k3` for multiplexor blocks), the MAC words are interleaved
//! with the instructions, and every word is then CTR-encrypted under `k1`
//! with the counter `{ω ‖ prevPC ‖ PC}` of its edge.

use std::collections::BTreeMap;

use sofia_cfg::Cfg;
use sofia_crypto::{ctr, mac, CounterBlock, KeySet, Nonce};
use sofia_isa::asm::{apply_reloc, place_data, Module, Reloc, DEFAULT_DATA_BASE};

use crate::error::TransformError;
use crate::format::{BlockFormat, BlockKind, RESET_PREV_PC, UNREACHABLE_PREV_PC};
use crate::image::{SecureImage, TransformReport};
use crate::lower;
use crate::mux::{self, Trees};
use crate::pack::{self, Packed, Src, Target};

/// A program laid out for sealing, before any key or nonce touches it:
/// the install work a software provider does once per program, after
/// which each device's image costs one MAC batch per block kind and one
/// CTR sweep ([`SealPlan::seal`]).
///
/// # Examples
///
/// ```
/// use sofia_crypto::{KeySet, Nonce};
/// use sofia_isa::asm;
/// use sofia_transform::{BlockFormat, SealPlan, Transformer};
///
/// let module = asm::parse("main: li t0, 3\n halt")?;
/// let plan = SealPlan::new(&module, BlockFormat::default(), 1 << 20)?;
/// let keys = KeySet::from_seed(7);
/// // Planning then sealing is exactly what the installer does.
/// assert_eq!(
///     plan.seal(&keys, Nonce::new(1)),
///     Transformer::new(keys).transform(&module)?,
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealPlan {
    format: BlockFormat,
    text_base: u32,
    /// Each block's kind, in address order.
    kinds: Vec<BlockKind>,
    /// Every text word in address order: each block's MAC words (zero
    /// until sealed), then its resolved instruction words.
    words: Vec<u32>,
    /// Each block's entry edges: the `prevPC` its first word is reached
    /// from, and for a mux block that of its second entry path (Fig. 8).
    /// Every other word is reached from the word before it.
    entries: Vec<[u32; 2]>,
    data: Vec<u8>,
    entry: u32,
    symbols: BTreeMap<String, u32>,
    report: TransformReport,
}

impl SealPlan {
    /// The key-free half of secure installation: lower → analyse → pack →
    /// trees → resolve, for a target whose data RAM holds `ram_size`
    /// bytes.
    ///
    /// # Errors
    ///
    /// Rejects programs whose control flow cannot be modelled precisely
    /// (undeclared indirect transfers, transfers into data, fall-off-end),
    /// programs whose layout violates encoding ranges, and data sections
    /// larger than `ram_size` (refused before the section is allocated);
    /// see [`TransformError`].
    pub fn new(
        module: &Module,
        format: BlockFormat,
        ram_size: u32,
    ) -> Result<SealPlan, TransformError> {
        format.validate().map_err(TransformError::BadFormat)?;
        if module.text.is_empty() {
            return Err(TransformError::EmptyProgram);
        }
        let lowered = lower::lower(module)?;
        let cfg = Cfg::build(&lowered)?;
        let mut packed = pack::pack(&lowered, &cfg, &format);
        let trees = mux::build_trees(&mut packed, &format);
        resolve(Resolve {
            module: &lowered,
            cfg: &cfg,
            packed: &packed,
            trees: &trees,
            format,
            ram_size,
            source_instructions: module.text.len(),
        })
    }

    /// The keyed half: MACs every block under `keys` (one batch per
    /// block kind) and encrypts the whole text in one CTR sweep under
    /// nonce ω.
    pub fn seal(&self, keys: &KeySet, nonce: Nonce) -> SecureImage {
        let expanded = keys.expand();
        let format = self.format;
        let bw = format.block_words();
        let mut text = self.words.clone();

        // MAC phase. All blocks of one kind share a MAC key and a fixed
        // padded length, and their CBC chains are independent — so each
        // kind MACs lane-parallel in one batch.
        for kind in [BlockKind::Exec, BlockKind::Mux] {
            let blocks: Vec<usize> = (0..self.kinds.len())
                .filter(|&b| self.kinds[b] == kind)
                .collect();
            if blocks.is_empty() {
                continue;
            }
            let skip = format.mac_words(kind);
            let msgs: Vec<&[u32]> = blocks
                .iter()
                .map(|&b| &self.words[b * bw + skip..(b + 1) * bw])
                .collect();
            let mac_cipher = match kind {
                BlockKind::Exec => &expanded.mac_exec,
                BlockKind::Mux => &expanded.mac_mux,
            };
            let macs = mac::mac_words_batch(mac_cipher, &msgs, format.mac_padded_words(kind));
            for (b, mac) in blocks.into_iter().zip(macs) {
                let at = b * bw;
                match kind {
                    BlockKind::Exec => text[at..at + 2].copy_from_slice(&[mac.m1(), mac.m2()]),
                    // Fig. 8: a mux block stores M1 once per entry path.
                    BlockKind::Mux => {
                        text[at..at + 3].copy_from_slice(&[mac.m1(), mac.m1(), mac.m2()])
                    }
                }
            }
        }

        // Encrypt phase: every word's control-flow counter is known up
        // front (the whole point of install-time sealing), so the
        // keystream for the entire image is one flat sweep.
        let mut counters = Vec::with_capacity(text.len());
        let mut pc = self.text_base;
        for (&kind, entries) in self.kinds.iter().zip(&self.entries) {
            let entered = &entries[..entry_words(kind)];
            for w in 0..bw {
                let prev = entered.get(w).copied().unwrap_or(pc - 4);
                counters.push(CounterBlock::from_edge(nonce, prev, pc));
                pc += 4;
            }
        }
        ctr::apply_batch(&expanded.ctr, &counters, &mut text);

        SecureImage {
            nonce,
            format,
            text_base: self.text_base,
            ctext: text,
            data_base: DEFAULT_DATA_BASE,
            data: self.data.clone(),
            entry: self.entry,
            symbols: self.symbols.clone(),
            report: self.report.clone(),
        }
    }
}

/// The packed program [`resolve`] assigns addresses to.
struct Resolve<'a> {
    module: &'a Module,
    cfg: &'a Cfg,
    packed: &'a Packed,
    trees: &'a Trees,
    format: BlockFormat,
    ram_size: u32,
    source_instructions: usize,
}

/// Address assignment and operand resolution: every slot to its final
/// machine word, every word to its `prevPC`.
fn resolve(input: Resolve<'_>) -> Result<SealPlan, TransformError> {
    let Resolve {
        module,
        cfg,
        packed,
        trees,
        format,
        ram_size,
        source_instructions,
    } = input;

    let text_base = format.text_base();
    let bb = format.block_bytes();
    let base = |bi: usize| text_base + bi as u32 * bb;
    let last_word = |bi: usize| base(bi) + bb - 4;

    // --- token addresses of text labels: the labelled instruction's word ---
    let mut text_tokens: BTreeMap<String, u32> = BTreeMap::new();
    for (i, item) in module.text.iter().enumerate() {
        if item.labels.is_empty() {
            continue;
        }
        let (b, s) = packed.placement[i].expect("every instruction is placed");
        let addr = base(b) + (format.word_pos(packed.blocks[b].kind, s) as u32) * 4;
        for l in &item.labels {
            text_tokens.insert(l.clone(), addr);
        }
    }

    // --- data layout (shared rules with the plain assembler), sized
    // before it is allocated ---
    let placed = place_data(&module.data, DEFAULT_DATA_BASE)?;
    if placed.size() > ram_size {
        return Err(TransformError::DataTooLarge {
            bytes: placed.size(),
            ram_size,
        });
    }
    let (data, data_symbols) = placed.fill(|l| text_tokens.get(l).copied())?;

    // --- entry lookup: which word a transfer from `src` must target ---
    let entry_addr = |dst_block: usize, src: Src| -> Option<u32> {
        let candidates = std::iter::once(dst_block).chain(
            trees
                .nodes_of
                .get(&dst_block)
                .into_iter()
                .flatten()
                .copied(),
        );
        for cand in candidates {
            let blk = &packed.blocks[cand];
            if let Some(pos) = blk.entries.iter().position(|e| e.src == src) {
                let offset = match blk.kind {
                    BlockKind::Exec => 0,
                    BlockKind::Mux => 4 * (pos as u32 + 1),
                };
                return Some(base(cand) + offset);
            }
        }
        None
    };
    let block_of_leader = |leader: usize| packed.placement[leader].expect("placed").0;
    let label_leader = |label: &str| -> Option<usize> { cfg.label(label) };

    // --- resolve every slot to a final machine word, and give every
    // word the prevPC of the edge that reaches it ---
    let src_prev = |src: Src| -> u32 {
        match src {
            Src::Reset => RESET_PREV_PC,
            Src::Block(b) => last_word(b),
            Src::Orig(_) => unreachable!("entries are resolved"),
        }
    };
    let mut kinds = Vec::with_capacity(packed.blocks.len());
    let mut entries = Vec::with_capacity(packed.blocks.len());
    let mut words = Vec::with_capacity(packed.blocks.len() * format.block_words());
    for (bi, block) in packed.blocks.iter().enumerate() {
        // The MAC words come first, zero until sealed. Fig. 8: a mux
        // block stores an M1 copy per entry path, and its M2 is sealed
        // with prevPC = addr(M1e2) on *both* paths, so a single
        // ciphertext serves both entries.
        let macs = format.mac_words(block.kind);
        debug_assert_eq!(macs + block.slots.len(), format.block_words());
        if block.kind == BlockKind::Mux {
            debug_assert_eq!(block.entries.len(), 2, "mux blocks have two entries");
        }
        kinds.push(block.kind);
        entries.push(std::array::from_fn(|path| {
            block
                .entries
                .get(path)
                .filter(|_| path < entry_words(block.kind))
                .map_or(UNREACHABLE_PREV_PC, |e| src_prev(e.src))
        }));
        words.extend(std::iter::repeat_n(0, macs));
        for (s, slot) in block.slots.iter().enumerate() {
            let pc = base(bi) + (format.word_pos(block.kind, s) as u32) * 4;
            let inst = match &slot.target {
                None => slot.inst,
                Some(Target::Label(reloc)) => match reloc {
                    Reloc::Branch(l) | Reloc::Jump(l) => {
                        let leader =
                            label_leader(l).ok_or_else(|| TransformError::Layout(undef(l)))?;
                        let dst = block_of_leader(leader);
                        let addr = entry_addr(dst, Src::Block(bi)).ok_or_else(|| {
                            TransformError::Layout(undef(&format!(
                                "<entry for {l} from block {bi}>"
                            )))
                        })?;
                        apply_reloc(slot.inst, reloc, pc, addr)?
                    }
                    Reloc::Hi(l) | Reloc::Lo(l) => {
                        let addr = text_tokens
                            .get(l)
                            .or_else(|| data_symbols.get(l))
                            .copied()
                            .ok_or_else(|| TransformError::Layout(undef(l)))?;
                        apply_reloc(slot.inst, reloc, pc, addr)?
                    }
                },
                Some(Target::Leader(l)) => {
                    let dst = block_of_leader(*l);
                    let addr = entry_addr(dst, Src::Block(bi)).ok_or_else(|| {
                        TransformError::Layout(undef(&format!(
                            "<entry for leader {l} from block {bi}>"
                        )))
                    })?;
                    apply_reloc(slot.inst, &Reloc::Jump(format!("<leader {l}>")), pc, addr)?
                }
                Some(Target::Block(d)) => {
                    let addr = entry_addr(*d, Src::Block(bi)).ok_or_else(|| {
                        TransformError::Layout(undef(&format!("<entry of block {d}>")))
                    })?;
                    apply_reloc(slot.inst, &Reloc::Jump(format!("<block {d}>")), pc, addr)?
                }
            };
            words.push(inst.encode());
        }
    }

    // --- entry point ---
    let entry_leader = cfg.entry();
    let entry_block = block_of_leader(entry_leader);
    let entry = entry_addr(entry_block, Src::Reset)
        .ok_or_else(|| TransformError::Layout(undef("<reset entry>")))?;

    // --- symbols (debug aid) ---
    let mut symbols = text_tokens;
    symbols.extend(data_symbols);

    let exec_blocks = packed
        .blocks
        .iter()
        .filter(|b| b.kind == BlockKind::Exec)
        .count();
    let report = TransformReport {
        source_instructions,
        lowered_instructions: module.text.len(),
        blocks: packed.blocks.len(),
        exec_blocks,
        mux_blocks: packed.blocks.len() - exec_blocks,
        tree_blocks: trees.count,
        ft_trampolines: packed.ft_trampolines,
        landing_pads: packed.landing_pads,
        pad_nops: packed.pad_nops,
        text_bytes_in: source_instructions * 4,
        text_bytes_out: words.len() * 4,
    };

    Ok(SealPlan {
        format,
        text_base,
        kinds,
        words,
        entries,
        data,
        entry,
        symbols,
        report,
    })
}

/// How many of a block's words are entered from outside it: the first,
/// and for a mux block its second M1 copy.
fn entry_words(kind: BlockKind) -> usize {
    match kind {
        BlockKind::Exec => 1,
        BlockKind::Mux => 2,
    }
}

fn undef(label: &str) -> sofia_isa::AsmError {
    sofia_isa::AsmError {
        line: 0,
        kind: sofia_isa::error::AsmErrorKind::UndefinedLabel(label.to_string()),
    }
}
