//! Sponge-based control-flow protection installer (Werner et al.,
//! "Sponge-Based Control-Flow Protection for IoT Devices" — PAPERS.md).
//!
//! SCFP keeps the text section encrypted under a **sponge state** that
//! absorbs every decrypted instruction word: word *i* is decrypted with
//! the keystream of the canonical chain state `Sᵢ` (the chain shared with
//! [`crate::fipac`]), and the state then absorbs the plaintext. There is
//! **no MAC anywhere** — authenticity is implicit. Tamper with a word, or
//! arrive over an edge the installer never enumerated, and the runtime
//! state diverges from the canonical chain: every subsequent word
//! decrypts to keyed garbage, and the core traps on the first word that
//! fails to decode. Detection is therefore *probabilistic with a short
//! expected latency* (a few garbage instructions may execute first),
//! which is the central trade-off against SOFIA's immediate MAC check —
//! the comparison `BENCH_backends.json` quantifies.

use std::collections::BTreeMap;

use sofia_crypto::{CounterBlock, KeySet, Nonce};

use crate::chain::build_chain;
use crate::error::TransformError;
use crate::RESET_PREV_PC;
use sofia_isa::asm::Module;

/// A program sealed for the sponge-CFP fetch unit: encrypted text, the
/// public patch table, and the plaintext data section.
///
/// Like [`crate::SecureImage`] the image carries **no key material**; the
/// patch table is public (in hardware SCFP the patches sit in the
/// instruction stream at each branch site).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpongeImage {
    /// The per-program nonce diversifying the chain.
    pub nonce: Nonce,
    /// Base address of the encrypted text section.
    pub text_base: u32,
    /// Sponge-encrypted text, one word per instruction.
    pub ctext: Vec<u32>,
    /// Base address of the data section.
    pub data_base: u32,
    /// Plaintext data section.
    pub data: Vec<u8>,
    /// The entry address out of reset.
    pub entry: u32,
    /// Per-edge state patches, keyed by `(from_pc, to_pc)`; includes the
    /// reset edge `(RESET_PREV_PC, entry)`.
    pub patches: BTreeMap<(u32, u32), u64>,
    /// Resolved label addresses, for the harnesses.
    pub symbols: BTreeMap<String, u32>,
}

impl SpongeImage {
    /// Size of the encrypted text in bytes. The sponge scheme adds *no*
    /// text expansion (contrast SOFIA's MAC words and mux blocks); its
    /// side table is the per-edge patch list.
    pub fn text_bytes(&self) -> usize {
        self.ctext.len() * 4
    }
}

/// The public seed of the canonical chain: a counter block over the
/// unreachable edge, so it collides with no real control-flow edge.
fn chain_seed(nonce: Nonce, text_base: u32) -> u64 {
    CounterBlock::from_edge(nonce, crate::UNREACHABLE_PREV_PC, text_base).as_u64()
}

/// The state a sponge fetch unit boots with, derived from public header
/// fields only (the reset-edge patch moves it onto the canonical chain).
pub fn reset_state(keys: &KeySet, nonce: Nonce, entry: u32) -> u64 {
    let cipher = keys.expand().ctr;
    cipher.encrypt_block(CounterBlock::from_edge(nonce, RESET_PREV_PC, entry).as_u64())
}

/// Seals `module` for the sponge-CFP backend.
///
/// # Errors
///
/// Rejects programs whose control flow cannot be enumerated (same
/// [`sofia_cfg`] contract as the SOFIA installer) and layout failures.
pub fn seal_sponge(
    module: &Module,
    keys: &KeySet,
    nonce: Nonce,
) -> Result<SpongeImage, TransformError> {
    let cipher = keys.expand().ctr;
    let permute = |x: u64| cipher.encrypt_block(x);

    // The reset state depends on the entry address, which the layout
    // determines — lay out once (cheap) to learn it, then build the
    // chain with the matching reset patch.
    let probe = module
        .layout(&sofia_isa::asm::LayoutOptions::default())
        .map_err(TransformError::Layout)?;
    let boot = permute(CounterBlock::from_edge(nonce, RESET_PREV_PC, probe.entry).as_u64());

    let chain = build_chain(module, &permute, chain_seed(nonce, probe.text_base), boot)?;
    let a = chain.assembly;

    let ctext = a
        .words
        .iter()
        .zip(&chain.states)
        .map(|(&w, &s)| w ^ (s as u32))
        .collect();

    Ok(SpongeImage {
        nonce,
        text_base: a.text_base,
        ctext,
        data_base: a.data_base,
        data: a.data,
        entry: a.entry,
        patches: chain.patches,
        symbols: a.symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_isa::asm;

    fn keys() -> KeySet {
        KeySet::from_seed(0x5707)
    }

    #[test]
    fn text_is_unintelligible_but_patch_table_is_small() {
        let m = asm::parse("main: addi t0, zero, 1\nbeqz t0, end\nnop\nend: halt").unwrap();
        let plain = m.layout(&asm::LayoutOptions::default()).unwrap();
        let img = seal_sponge(&m, &keys(), Nonce::new(9)).unwrap();
        assert_eq!(img.ctext.len(), plain.words.len(), "no text expansion");
        assert_ne!(img.ctext, plain.words);
        // One patch per non-fall-through edge plus the reset edge.
        assert_eq!(img.patches.len(), 2);
        assert!(img.patches.contains_key(&(RESET_PREV_PC, img.entry)));
    }

    #[test]
    fn decrypting_along_the_chain_recovers_the_program() {
        let m = asm::parse("main: addi t0, zero, 7\nnop\nhalt").unwrap();
        let plain = m.layout(&asm::LayoutOptions::default()).unwrap();
        let img = seal_sponge(&m, &keys(), Nonce::new(3)).unwrap();
        let cipher = keys().expand().ctr;
        // Replay the fetch unit's walk: boot state + reset patch, then
        // decrypt-absorb word by word.
        let mut s =
            reset_state(&keys(), img.nonce, img.entry) ^ img.patches[&(RESET_PREV_PC, img.entry)];
        for (i, &c) in img.ctext.iter().enumerate() {
            let w = c ^ (s as u32);
            assert_eq!(w, plain.words[i], "word {i}");
            s = cipher.encrypt_block(s ^ u64::from(w));
        }
    }

    #[test]
    fn nonce_diversifies_ciphertext() {
        let m = asm::parse("main: nop\nhalt").unwrap();
        let a = seal_sponge(&m, &keys(), Nonce::new(1)).unwrap();
        let b = seal_sponge(&m, &keys(), Nonce::new(2)).unwrap();
        assert_ne!(a.ctext, b.ctext);
    }
}
