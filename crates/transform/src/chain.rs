//! Shared machinery for the *state-chained* integrity backends (sponge
//! CFP and FIPAC): a keyed running state walked over the linear text,
//! plus per-edge **patch values** that reconcile the state across control
//! transfers.
//!
//! Both alternative backends replace SOFIA's per-edge seals with one
//! canonical chain: the state before word *i* is
//!
//! ```text
//! S₀    = P(init)
//! Sᵢ₊₁  = P(Sᵢ ⊕ wordᵢ)
//! ```
//!
//! where `P` is a keyed permutation (RECTANGLE under a device key) and
//! `wordᵢ` is the *plaintext* instruction word. Sequential execution
//! keeps the runtime state in sync for free; every non-fall-through CFG
//! edge `a → t` gets a public patch
//!
//! ```text
//! patch(a, t) = S(a)⁺ ⊕ S(t)
//! ```
//!
//! (`S(a)⁺` = state after absorbing the transferring word) that the fetch
//! unit XORs in when control actually takes the edge. A transfer along an
//! edge the installer never enumerated finds no patch, so the runtime
//! state diverges from the canonical chain — which is exactly the
//! detection mechanism of both schemes (garbage decryption for the
//! sponge, a failed signature check for FIPAC).
//!
//! Unlike SOFIA's sealer, no dispatch ladders or multiplexer trees are
//! needed: a block with many predecessors simply carries one patch per
//! incoming edge. The price is paid elsewhere — detection is no longer
//! immediate (see the backend docs).

use std::collections::BTreeMap;

use sofia_cfg::{Cfg, EdgeKind};
use sofia_crypto::{CounterBlock, Nonce, Rectangle};
use sofia_isa::asm::{Assembly, LayoutOptions, Module};

use crate::error::TransformError;
use crate::{RESET_PREV_PC, UNREACHABLE_PREV_PC};

/// The canonical chain of a laid-out module: the plain [`Assembly`], the
/// state *before* each text word, and the patch table over all
/// non-fall-through CFG edges (keyed by `(from_pc, to_pc)` and including
/// the reset edge `(RESET_PREV_PC, entry)`).
pub(crate) struct Chain {
    pub assembly: Assembly,
    /// `states[i]` is the canonical state before absorbing word `i`;
    /// `states[n]` is the state after the final word.
    pub states: Vec<u64>,
    pub patches: BTreeMap<(u32, u32), u64>,
}

/// The state a fetch unit keyed with `cipher` boots with, derived from
/// public header fields only: the permuted counter block of the reset
/// edge into `entry`. The reset edge's patch moves it onto the
/// canonical chain.
pub(crate) fn boot_state(cipher: &Rectangle, nonce: Nonce, entry: u32) -> u64 {
    cipher.encrypt_block(CounterBlock::from_edge(nonce, RESET_PREV_PC, entry).as_u64())
}

/// Lays out `module` once with the plain assembler rules and walks the
/// chain keyed by `cipher` (the permutation `P`) over its text. The
/// chain's public seed is a counter block over the unreachable edge, so
/// it collides with no real control-flow edge; the reset edge's patch
/// moves the [`boot_state`] onto the canonical state at the entry word.
pub(crate) fn build_chain(
    module: &Module,
    cipher: &Rectangle,
    nonce: Nonce,
) -> Result<Chain, TransformError> {
    let assembly = module
        .layout(&LayoutOptions::default())
        .map_err(TransformError::Layout)?;
    if module.text.is_empty() {
        return Err(TransformError::EmptyProgram);
    }
    let cfg = Cfg::build(module)?;
    let permute = |x: u64| cipher.encrypt_block(x);
    let init = CounterBlock::from_edge(nonce, UNREACHABLE_PREV_PC, assembly.text_base).as_u64();

    let n = assembly.words.len();
    let mut states = Vec::with_capacity(n + 1);
    let mut s = permute(init);
    for &w in &assembly.words {
        states.push(s);
        s = permute(s ^ u64::from(w));
    }
    states.push(s);

    let addr = |i: usize| assembly.text_base + 4 * i as u32;
    let mut patches = BTreeMap::new();
    for i in 0..n {
        for e in cfg.succs(i) {
            if e.kind == EdgeKind::FallThrough {
                continue;
            }
            // State after the transferring word, onto the state before
            // the destination word.
            patches.insert(
                (addr(e.from), addr(e.to)),
                states[e.from + 1] ^ states[e.to],
            );
        }
    }
    let entry_index = (assembly.entry - assembly.text_base) / 4;
    patches.insert(
        (RESET_PREV_PC, assembly.entry),
        boot_state(cipher, nonce, assembly.entry) ^ states[entry_index as usize],
    );

    Ok(Chain {
        assembly,
        states,
        patches,
    })
}
