//! Block-relocation and splicing attacks.
//!
//! §I of the paper criticises ECB-mode ISR because it "seems to allow an
//! attacker to relocate encrypted instructions without leading to
//! decryption errors". SOFIA binds every word to its address (PC in the
//! counter) and to its block (MAC), so any relocation garbles and any
//! splice fails verification. These experiments demonstrate both, plus
//! cross-version splicing (nonce separation) and the vanilla machine's
//! silent acceptance of the same tampering.

use sofia_core::machine::SofiaMachine;
use sofia_core::SofiaConfig;
use sofia_cpu::machine::VanillaMachine;
use sofia_cpu::NoViolation;
use sofia_crypto::{KeySet, Nonce};
use sofia_isa::{asm, Instruction, Reg};
use sofia_transform::Transformer;

use crate::victims::{control_loop_expected, control_loop_victim, seal};
use crate::{judge, run_judged, Verdict, FUEL};

/// Swaps two whole blocks of the SOFIA ciphertext (attacker splicing
/// code they cannot read).
pub fn swap_blocks_sofia(keys: &KeySet, config: &SofiaConfig, a: usize, b: usize) -> Verdict {
    let image = seal(Transformer::new(keys.clone()), &control_loop_victim(8));
    let bw = image.format.block_words();
    assert!(a != b && (a + 1) * bw <= image.ctext.len() && (b + 1) * bw <= image.ctext.len());
    let mut m = SofiaMachine::with_config(&image, keys, config);
    for w in 0..bw {
        m.mem_mut().rom_mut().swap(a * bw + w, b * bw + w);
    }
    run_judged(m).0
}

/// The same wholesale swap on the **unprotected** machine: execution
/// continues with reordered code and produces a silently wrong result.
pub fn swap_code_vanilla() -> Verdict<NoViolation> {
    let program = asm::assemble(&control_loop_victim(8)).expect("victim assembles");
    let expected = control_loop_expected(8);
    let mut m = VanillaMachine::new(&program);
    // Swap the sensor load `lw t0, 0(s0)` with the accumulate
    // `add s2, s2, t0`: the accumulate then consumes a stale `t0`,
    // shifting the whole sum by one sample — silently wrong output.
    let rom = m.mem_mut().rom_mut();
    let find = |inst: Instruction| rom.iter().position(|&w| Instruction::decode(w) == Ok(inst));
    let lw_idx = find(Instruction::Lw {
        rt: Reg::T0,
        base: Reg::S0,
        offset: 0,
    })
    .expect("victim has the sensor load");
    let add_idx = find(Instruction::Add {
        rd: Reg::S2,
        rs: Reg::S2,
        rt: Reg::T0,
    })
    .expect("victim has the accumulate");
    rom.swap(lw_idx, add_idx);
    let ran = m.run(FUEL);
    let out = &m.mem().mmio.out_words;
    let landed = (*out != expected)
        .then(|| format!("silently wrong output {out:x?} (expected {expected:x?})"));
    judge(ran, &[], landed)
}

/// Splices a block from *version 2* of the program (same keys, different
/// nonce ω) into version 1 — the downgrade/mix-and-match attack the
/// per-program nonce exists to stop.
pub fn cross_version_splice(keys: &KeySet, config: &SofiaConfig) -> Verdict {
    let src = control_loop_victim(8);
    let version = |n| {
        seal(
            Transformer::new(keys.clone()).with_nonce(Nonce::new(n)),
            &src,
        )
    };
    let (v1, v2) = (version(1), version(2));
    let bw = v1.format.block_words();
    let mut m = SofiaMachine::with_config(&v1, keys, config);
    // Replace v1's second block with v2's bit-for-bit (same program, so
    // same plaintext — only ω differs).
    m.mem_mut().rom_mut()[bw..2 * bw].copy_from_slice(&v2.ctext[bw..2 * bw]);
    run_judged(m).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_accepts_reordered_code_silently() {
        let v = swap_code_vanilla();
        assert!(v.is_compromised(), "{v}");
    }

    #[test]
    fn sofia_detects_block_swaps() {
        let keys = KeySet::from_seed(77);
        let v = swap_blocks_sofia(&keys, &SofiaConfig::default(), 0, 1);
        assert!(v.is_detected(), "{v}");
        let v = swap_blocks_sofia(&keys, &SofiaConfig::default(), 1, 2);
        assert!(v.is_detected(), "{v}");
    }

    #[test]
    fn sofia_detects_cross_version_splice() {
        let keys = KeySet::from_seed(78);
        let v = cross_version_splice(&keys, &SofiaConfig::default());
        assert!(v.is_detected(), "{v}");
    }
}
