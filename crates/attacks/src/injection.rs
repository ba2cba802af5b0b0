//! Code-injection attacks: tampering with the stored program image.

use sofia_core::machine::SofiaMachine;
use sofia_core::SofiaConfig;
use sofia_cpu::machine::VanillaMachine;
use sofia_cpu::NoViolation;
use sofia_crypto::KeySet;
use sofia_isa::asm;
use sofia_isa::{Instruction, Reg};
use sofia_transform::{SecureImage, Transformer};

use crate::victims::{control_loop_victim, seal, EVIL_VALUE, SAFE_VALUE};
use crate::{evil_write, judge, run_judged, Verdict, FUEL};

/// Locates the word index of the `li t1, SAFE_VALUE` instruction (an
/// `addi`) in a flat instruction stream. The attacker is assumed to know
/// the program layout — standard for firmware attacks.
pub(crate) fn find_safe_imm(words: &[u32]) -> usize {
    words
        .iter()
        .position(|&w| {
            Instruction::decode(w)
                == Ok(Instruction::Addi {
                    rt: Reg::T1,
                    rs: Reg::ZERO,
                    imm: SAFE_VALUE as i16,
                })
        })
        .expect("victim contains the safe li")
}

/// The bit-difference between the safe and evil immediates — XORing it
/// into the instruction word turns `li t1, SAFE` into `li t1, EVIL`.
pub(crate) const EVIL_DIFF: u32 = SAFE_VALUE ^ EVIL_VALUE;

/// Injects the evil immediate into the **unprotected** machine's ROM:
/// the vanilla core executes the tampered instruction without noticing.
pub fn inject_vanilla() -> Verdict<NoViolation> {
    let program = asm::assemble(&control_loop_victim(8)).expect("victim assembles");
    let mut m = VanillaMachine::new(&program);
    let idx = find_safe_imm(m.mem().rom());
    m.mem_mut().rom_mut()[idx] ^= EVIL_DIFF;
    judge(m.run(FUEL), &[], evil_write(m.mem()))
}

/// The same layout-aware attack against a SOFIA image. Two strategies:
///
/// * `plaintext_overwrite` — write the evil instruction word directly
///   (an attacker ignoring the encryption);
/// * otherwise — the **CTR-malleability** attack: XOR the known
///   plaintext difference into the ciphertext, which decrypts to exactly
///   the evil instruction. This defeats encryption-only ISR; only the
///   MAC stops it (set `config.enforce_si = false` to watch it succeed).
pub fn inject_sofia(keys: &KeySet, config: &SofiaConfig, plaintext_overwrite: bool) -> Verdict {
    run_judged(tampered_sofia(keys, config, plaintext_overwrite)).0
}

/// The machine [`inject_sofia`] attacks, tampered and not yet run.
pub(crate) fn tampered_sofia(
    keys: &KeySet,
    config: &SofiaConfig,
    plaintext_overwrite: bool,
) -> SofiaMachine {
    let src = control_loop_victim(8);
    let image = seal(Transformer::new(keys.clone()), &src);
    // The transformer is deterministic, so the attacker learns the target
    // word *index* by sealing their own copy of the (public) program
    // under throwaway keys and decrypting it.
    let probe_keys = KeySet::from_seed(0xEEEE);
    let probe = seal(Transformer::new(probe_keys.clone()), &src);
    let idx = find_safe_imm(&decrypt_interior_words(&probe, &probe_keys));

    let mut m = SofiaMachine::with_config(&image, keys, config);
    if plaintext_overwrite {
        m.mem_mut().rom_mut()[idx] = Instruction::Addi {
            rt: Reg::T1,
            rs: Reg::ZERO,
            imm: EVIL_VALUE as i16,
        }
        .encode();
    } else {
        m.mem_mut().rom_mut()[idx] ^= EVIL_DIFF;
    }
    m
}

/// Decrypts the interior (sequentially chained) words of an image sealed
/// under **known** keys. Entry words use per-edge counters and come out
/// garbled, but instruction slots are always interior, which is all the
/// layout probe needs.
fn decrypt_interior_words(image: &SecureImage, keys: &KeySet) -> Vec<u32> {
    use sofia_crypto::{ctr, CounterBlock};
    let ks = keys.expand();
    let mut out = Vec::with_capacity(image.ctext.len());
    for (i, &c) in image.ctext.iter().enumerate() {
        let pc = image.text_base + 4 * i as u32;
        let prev = if i == 0 { 0 } else { pc - 4 };
        out.push(ctr::apply(
            &ks.ctr,
            CounterBlock::from_edge(image.nonce, prev, pc),
            c,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_is_compromised_by_injection() {
        assert!(inject_vanilla().is_compromised());
    }

    #[test]
    fn sofia_detects_plaintext_overwrite() {
        let keys = KeySet::from_seed(42);
        let v = inject_sofia(&keys, &SofiaConfig::default(), true);
        assert!(v.is_detected(), "{v}");
    }

    #[test]
    fn sofia_detects_ctr_malleability() {
        // The XOR attack decrypts to a perfectly valid evil instruction —
        // only the MAC catches it.
        let keys = KeySet::from_seed(42);
        let v = inject_sofia(&keys, &SofiaConfig::default(), false);
        assert!(v.is_detected(), "{v}");
    }

    #[test]
    fn cfi_only_machine_falls_to_ctr_malleability() {
        // With the SI check ablated, the malleability attack succeeds:
        // the paper's argument for combining CFI with SI (§II-A/§II-C).
        let keys = KeySet::from_seed(42);
        let cfi_only = SofiaConfig {
            enforce_si: false,
            ..SofiaConfig::default()
        };
        let v = inject_sofia(&keys, &cfi_only, false);
        assert!(v.is_compromised(), "{v}");
    }

    #[test]
    fn malleability_needs_known_plaintext_difference() {
        // Flipping the same bits of a *different* word garbles it and the
        // MAC rejects the block.
        let keys = KeySet::from_seed(43);
        let image = seal(Transformer::new(keys.clone()), &control_loop_victim(4));
        let mut m = SofiaMachine::new(&image, &keys);
        m.mem_mut().rom_mut()[5] ^= EVIL_DIFF;
        let (v, _) = run_judged(m);
        assert!(v.is_detected(), "{v}");
    }
}
