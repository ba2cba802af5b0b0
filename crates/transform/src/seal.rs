//! Sealing: address assignment, operand resolution, MAC-then-Encrypt.
//!
//! Implements the install-time procedure of paper §II-C/§III: for each
//! block, a CBC-MAC is computed over the *plaintext* instruction words
//! (`k2` for execution blocks, `k3` for multiplexor blocks), the MAC words
//! are interleaved with the instructions, and every word is then
//! CTR-encrypted under `k1` with the counter `{ω ‖ prevPC ‖ PC}` of the
//! control-flow edge that legitimately reaches it.

use std::collections::BTreeMap;

use sofia_cfg::Cfg;
use sofia_crypto::{ctr, mac, CounterBlock, KeySet, Mac64, Nonce};
use sofia_isa::asm::{apply_reloc, layout_data, Module, Reloc, DEFAULT_DATA_BASE};

use crate::error::TransformError;
use crate::format::{BlockFormat, BlockKind, RESET_PREV_PC, UNREACHABLE_PREV_PC};
use crate::image::{SecureImage, TransformReport};
use crate::mux::Trees;
use crate::pack::{Packed, Src, Target};

pub(crate) struct SealInput<'a> {
    pub module: &'a Module,
    pub cfg: &'a Cfg,
    pub packed: &'a Packed,
    pub trees: &'a Trees,
    pub format: &'a BlockFormat,
    pub keys: &'a KeySet,
    pub nonce: Nonce,
    pub source_instructions: usize,
}

pub(crate) fn seal(input: SealInput<'_>) -> Result<SecureImage, TransformError> {
    let SealInput {
        module,
        cfg,
        packed,
        trees,
        format,
        keys,
        nonce,
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

    // --- data layout (shared rules with the plain assembler) ---
    let (data, data_symbols) = layout_data(&module.data, DEFAULT_DATA_BASE, |l| {
        text_tokens.get(l).copied()
    })?;

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

    // --- resolve every slot to a final machine word ---
    let mut block_words: Vec<Vec<u32>> = Vec::with_capacity(packed.blocks.len());
    for (bi, block) in packed.blocks.iter().enumerate() {
        let mut words = Vec::with_capacity(block.slots.len());
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
        block_words.push(words);
    }

    // --- MAC then encrypt ---
    let expanded = keys.expand();
    let src_prev = |src: Src| -> u32 {
        match src {
            Src::Reset => RESET_PREV_PC,
            Src::Block(b) => last_word(b),
            Src::Orig(_) => unreachable!("entries are resolved"),
        }
    };

    // MAC phase. All blocks of one kind share a MAC key and a fixed
    // padded length, and their CBC chains are independent — so each kind
    // MACs lane-parallel in one batch.
    let mut macs = vec![Mac64::new(0); packed.blocks.len()];
    for kind in [BlockKind::Exec, BlockKind::Mux] {
        let idxs: Vec<usize> = packed
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.kind == kind)
            .map(|(i, _)| i)
            .collect();
        if idxs.is_empty() {
            continue;
        }
        let msgs: Vec<&[u32]> = idxs.iter().map(|&i| block_words[i].as_slice()).collect();
        let mac_cipher = match kind {
            BlockKind::Exec => &expanded.mac_exec,
            BlockKind::Mux => &expanded.mac_mux,
        };
        let got = mac::mac_words_batch(mac_cipher, &msgs, format.mac_padded_words(kind));
        for (i, mac) in idxs.into_iter().zip(got) {
            macs[i] = mac;
        }
    }

    // Encrypt phase: every word's control-flow counter is known up front
    // (the whole point of install-time sealing), so the keystream for the
    // entire image is one flat sweep.
    let mut counters: Vec<CounterBlock> =
        Vec::with_capacity(packed.blocks.len() * format.block_words());
    let mut words: Vec<u32> = Vec::with_capacity(counters.capacity());
    for (bi, block) in packed.blocks.iter().enumerate() {
        let insts = &block_words[bi];
        let mac = macs[bi];

        // Plaintext word sequence and the prevPC of each word.
        let b = base(bi);
        let (plain, prevs): (Vec<u32>, Vec<u32>) = match block.kind {
            BlockKind::Exec => {
                let entry_prev = block
                    .entries
                    .first()
                    .map(|e| src_prev(e.src))
                    .unwrap_or(UNREACHABLE_PREV_PC);
                let mut plain = vec![mac.m1(), mac.m2()];
                plain.extend_from_slice(insts);
                let mut prevs = vec![entry_prev];
                for w in 0..plain.len() - 1 {
                    prevs.push(b + 4 * w as u32);
                }
                (plain, prevs)
            }
            BlockKind::Mux => {
                debug_assert_eq!(block.entries.len(), 2, "mux blocks have two entries");
                let p1 = block
                    .entries
                    .first()
                    .map(|e| src_prev(e.src))
                    .unwrap_or(UNREACHABLE_PREV_PC);
                let p2 = block
                    .entries
                    .get(1)
                    .map(|e| src_prev(e.src))
                    .unwrap_or(UNREACHABLE_PREV_PC);
                let mut plain = vec![mac.m1(), mac.m1(), mac.m2()];
                plain.extend_from_slice(insts);
                // Fig. 8: M2 is sealed with prevPC = addr(M1e2) on *both*
                // paths, so a single ciphertext serves both entries.
                let mut prevs = vec![p1, p2, b + 4];
                for w in 2..plain.len() - 1 {
                    prevs.push(b + 4 * w as u32);
                }
                (plain, prevs)
            }
        };
        debug_assert_eq!(plain.len(), format.block_words());
        debug_assert_eq!(prevs.len(), plain.len());
        for (w, (&word, &prev)) in plain.iter().zip(&prevs).enumerate() {
            counters.push(CounterBlock::from_edge(nonce, prev, b + 4 * w as u32));
            words.push(word);
        }
    }
    let mut ctext = words;
    ctr::apply_batch(&expanded.ctr, &counters, &mut ctext);

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
        text_bytes_out: ctext.len() * 4,
    };

    Ok(SecureImage {
        nonce,
        format: *format,
        text_base,
        ctext,
        data_base: DEFAULT_DATA_BASE,
        data,
        entry,
        symbols,
        report,
    })
}

fn undef(label: &str) -> sofia_isa::AsmError {
    sofia_isa::AsmError {
        line: 0,
        kind: sofia_isa::error::AsmErrorKind::UndefinedLabel(label.to_string()),
    }
}
