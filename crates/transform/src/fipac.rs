//! FIPAC-style installer (Nasahl et al., "FIPAC: Thwarting Fault- and
//! Software-Induced Control-Flow Attacks" — PAPERS.md).
//!
//! FIPAC leaves the text **in plaintext** and instead maintains a keyed
//! running CFI state — a CBC-MAC-style chain over the executed SL32
//! words under the device MAC key, built by the chain pass it shares
//! with [`crate::sponge`] — with per-edge patch values reconciling
//! joins, exactly like the sponge backend.
//! Integrity is enforced at **justifying signature points**: at every
//! function return and every `halt` the installer records the canonical
//! state, and the fetch unit compares its runtime state against that
//! signature *before* the word issues. Tampering (or an unenumerated
//! edge) therefore executes until the next check — detection is
//! deferred, not immediate — but costs almost nothing on the fetch
//! critical path, since the state update pipelines off to the side.

use std::collections::BTreeMap;

use sofia_cfg::is_return;
use sofia_crypto::{KeySet, Nonce};
use sofia_isa::asm::Module;
use sofia_isa::Instruction;

use crate::chain::{boot_state, build_chain};
use crate::error::TransformError;

/// A program installed for the FIPAC fetch unit: plaintext words plus
/// the public patch table and the expected-state table at every
/// justifying signature point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FipacImage {
    /// The per-program nonce diversifying the chain.
    pub nonce: Nonce,
    /// Base address of the (plaintext) text section.
    pub text_base: u32,
    /// Plaintext instruction words.
    pub words: Vec<u32>,
    /// Base address of the data section.
    pub data_base: u32,
    /// Plaintext data section.
    pub data: Vec<u8>,
    /// The entry address out of reset.
    pub entry: u32,
    /// Per-edge state patches, keyed by `(from_pc, to_pc)`; includes the
    /// reset edge `(RESET_PREV_PC, entry)`.
    pub patches: BTreeMap<(u32, u32), u64>,
    /// Justifying signature points: `pc → expected state before issuing
    /// the word at pc`. Every `jr ra` and every `halt` is checked.
    pub checks: BTreeMap<u32, u64>,
    /// Resolved label addresses, for the harnesses.
    pub symbols: BTreeMap<String, u32>,
}

/// The state a FIPAC fetch unit boots with, derived from public header
/// fields only.
pub fn reset_state(keys: &KeySet, nonce: Nonce, entry: u32) -> u64 {
    boot_state(&keys.expand().mac_exec, nonce, entry)
}

/// Installs `module` for the FIPAC backend.
///
/// # Errors
///
/// Same contract as the other installers: the CFG must be enumerable and
/// the layout must succeed.
pub fn install_fipac(
    module: &Module,
    keys: &KeySet,
    nonce: Nonce,
) -> Result<FipacImage, TransformError> {
    let chain = build_chain(module, &keys.expand().mac_exec, nonce)?;

    // Signature points: every conventional return and every halt. (The
    // fetch unit additionally treats a `halt` *without* a check entry as
    // an unjustified exit, so tampering cannot silently truncate a run
    // by conjuring a halt.)
    let a = &chain.assembly;
    let mut checks = BTreeMap::new();
    for (i, item) in module.text.iter().enumerate() {
        let checked = matches!(item.inst, Instruction::Halt)
            || (is_return(&item.inst) && item.indirect_targets.is_empty());
        if checked {
            checks.insert(a.text_base + 4 * i as u32, chain.states[i]);
        }
    }

    Ok(FipacImage {
        nonce,
        text_base: a.text_base,
        words: a.words.clone(),
        data_base: a.data_base,
        data: a.data.clone(),
        entry: a.entry,
        patches: chain.patches,
        checks,
        symbols: a.symbols.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RESET_PREV_PC;
    use sofia_isa::asm;

    fn keys() -> KeySet {
        KeySet::from_seed(0xF1AC)
    }

    #[test]
    fn text_stays_plaintext_and_exits_are_checked() {
        let m = asm::parse("main: jal f\nhalt\nf: nop\nret").unwrap();
        let plain = m.layout(&asm::LayoutOptions::default()).unwrap();
        let img = install_fipac(&m, &keys(), Nonce::new(4)).unwrap();
        assert_eq!(img.words, plain.words, "FIPAC does not encrypt");
        // The halt and the return are both signature points.
        assert_eq!(img.checks.len(), 2);
        assert!(img.checks.contains_key(&(img.text_base + 4))); // halt
        assert!(img.checks.contains_key(&(img.text_base + 12))); // ret
    }

    #[test]
    fn replaying_the_chain_matches_every_signature() {
        let m = asm::parse("main: jal f\nhalt\nf: addi t0, zero, 9\nret").unwrap();
        let img = install_fipac(&m, &keys(), Nonce::new(8)).unwrap();
        let cipher = keys().expand().mac_exec;
        // Walk the valid execution path main→f→ret→halt, applying
        // patches exactly as the fetch unit would.
        let mut s =
            reset_state(&keys(), img.nonce, img.entry) ^ img.patches[&(RESET_PREV_PC, img.entry)];
        let word = |pc: u32| img.words[((pc - img.text_base) / 4) as usize];
        let absorb = |s: &mut u64, pc: u32| {
            if let Some(&exp) = img.checks.get(&pc) {
                assert_eq!(*s, exp, "signature at {pc:#x}");
            }
            *s = cipher.encrypt_block(*s ^ u64::from(word(pc)));
        };
        let (main, f) = (img.entry, img.text_base + 8);
        absorb(&mut s, main); // jal f
        s ^= img.patches[&(main, f)];
        absorb(&mut s, f); // addi
        absorb(&mut s, f + 4); // ret (checked)
        s ^= img.patches[&(f + 4, main + 4)];
        absorb(&mut s, main + 4); // halt (checked)
    }

    #[test]
    fn tampering_one_word_diverges_the_final_signature() {
        let m = asm::parse("main: addi t0, zero, 1\nnop\nhalt").unwrap();
        let img = install_fipac(&m, &keys(), Nonce::new(2)).unwrap();
        let cipher = keys().expand().mac_exec;
        let mut s =
            reset_state(&keys(), img.nonce, img.entry) ^ img.patches[&(RESET_PREV_PC, img.entry)];
        // Absorb a flipped first word, then the honest second word.
        s = cipher.encrypt_block(s ^ u64::from(img.words[0] ^ 0x1));
        s = cipher.encrypt_block(s ^ u64::from(img.words[1]));
        let halt_pc = img.text_base + 8;
        assert_ne!(s, img.checks[&halt_pc], "divergence must reach the check");
    }
}
