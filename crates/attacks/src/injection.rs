//! Code-injection attacks: tampering with the stored program image.

use sofia_core::machine::{RunOutcome, SofiaMachine};
use sofia_core::SofiaConfig;
use sofia_cpu::machine::VanillaMachine;
use sofia_crypto::KeySet;
use sofia_isa::asm;
use sofia_isa::{Instruction, Reg};
use sofia_transform::{SecureImage, Transformer};

use crate::victims::{control_loop_victim, EVIL_VALUE, SAFE_VALUE};
use crate::{Verdict, FUEL};

/// Locates the word index of the `li t1, SAFE_VALUE` instruction (an
/// `addi`) in a flat instruction stream. The attacker is assumed to know
/// the program layout — standard for firmware attacks.
fn find_safe_imm(words: &[u32]) -> Option<usize> {
    words.iter().position(|&w| {
        Instruction::decode(w)
            == Ok(Instruction::Addi {
                rt: Reg::T1,
                rs: Reg::ZERO,
                imm: SAFE_VALUE as i16,
            })
    })
}

/// The bit-difference between the safe and evil immediates — XORing it
/// into the instruction word turns `li t1, SAFE` into `li t1, EVIL`.
fn evil_diff() -> u32 {
    SAFE_VALUE ^ EVIL_VALUE
}

/// Injects the evil immediate into the **unprotected** machine's ROM:
/// the vanilla core executes the tampered instruction without noticing.
pub fn inject_vanilla() -> Verdict {
    let program = asm::assemble(&control_loop_victim(8)).expect("victim assembles");
    let mut m = VanillaMachine::new(&program);
    let idx = find_safe_imm(m.mem().rom()).expect("victim contains the safe li");
    m.mem_mut().rom_mut()[idx] ^= evil_diff();
    match m.run(FUEL) {
        Ok(r) if r.is_halted() => {
            if m.mem().mmio.actuator_writes.contains(&EVIL_VALUE) {
                Verdict::Compromised {
                    detail: format!("actuator received {EVIL_VALUE:#x} undetected"),
                }
            } else {
                Verdict::Neutralized {
                    detail: "tampered run halted without the evil write".into(),
                }
            }
        }
        Ok(_) => Verdict::Neutralized {
            detail: "tampered run did not halt".into(),
        },
        Err(t) => Verdict::Crashed { trap: t },
    }
}

/// The same layout-aware attack against a SOFIA image. Two strategies:
///
/// * `plaintext_overwrite` — write the evil instruction word directly
///   (an attacker ignoring the encryption);
/// * otherwise — the **CTR-malleability** attack: XOR the known
///   plaintext difference into the ciphertext, which decrypts to exactly
///   the evil instruction. This defeats encryption-only ISR; only the
///   MAC stops it (set `enforce_si = false` to watch it succeed).
pub fn inject_sofia(keys: &KeySet, enforce_si: bool, plaintext_overwrite: bool) -> Verdict {
    inject_sofia_with(
        keys,
        &SofiaConfig {
            enforce_si,
            ..Default::default()
        },
        plaintext_overwrite,
    )
}

/// [`inject_sofia`] under an arbitrary machine configuration — the
/// security matrix uses this to prove ablations (CFI-only) and additions
/// (the verified-block cache) change nothing about the verdict.
pub fn inject_sofia_with(
    keys: &KeySet,
    config: &SofiaConfig,
    plaintext_overwrite: bool,
) -> Verdict {
    classify_sofia_run(tampered_sofia(keys, config, plaintext_overwrite))
}

/// The machine [`inject_sofia_with`] attacks, tampered and not yet run.
pub(crate) fn tampered_sofia(
    keys: &KeySet,
    config: &SofiaConfig,
    plaintext_overwrite: bool,
) -> SofiaMachine {
    let module = asm::parse(&control_loop_victim(8)).expect("victim parses");
    let image = Transformer::new(keys.clone())
        .transform(&module)
        .expect("victim transforms");
    // The transformer is deterministic, so the attacker learns the target
    // word *index* by sealing their own copy of the (public) program
    // under throwaway keys and decrypting it.
    let probe_keys = KeySet::from_seed(0xEEEE);
    let probe = Transformer::new(probe_keys.clone())
        .transform(&module)
        .expect("probe transforms");
    let probe_plain = decrypt_interior_words(&probe, &probe_keys);
    let idx = find_safe_imm(&probe_plain).expect("probe contains the safe li");

    let mut m = SofiaMachine::with_config(&image, keys, config);
    if plaintext_overwrite {
        m.mem_mut().rom_mut()[idx] = Instruction::Addi {
            rt: Reg::T1,
            rs: Reg::ZERO,
            imm: EVIL_VALUE as i16,
        }
        .encode();
    } else {
        m.mem_mut().rom_mut()[idx] ^= evil_diff();
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

/// Runs a (possibly tampered) SOFIA machine and classifies the outcome by
/// observable effect.
pub(crate) fn classify_sofia_run(mut m: SofiaMachine) -> Verdict {
    match m.run(FUEL) {
        Ok(RunOutcome::ViolationStop(v)) => Verdict::Detected { violation: v },
        Ok(RunOutcome::ResetLoop { .. }) => Verdict::Detected {
            violation: *m.violations().last().expect("reset loop has violations"),
        },
        Ok(RunOutcome::Halted) | Ok(RunOutcome::OutOfFuel) => {
            if m.mem().mmio.actuator_writes.contains(&EVIL_VALUE) {
                Verdict::Compromised {
                    detail: format!("actuator received {EVIL_VALUE:#x} undetected"),
                }
            } else {
                Verdict::Neutralized {
                    detail: "no malicious effect observed".into(),
                }
            }
        }
        Err(t) => Verdict::Crashed { trap: t },
    }
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
        let v = inject_sofia(&keys, true, true);
        assert!(v.is_detected(), "{v}");
    }

    #[test]
    fn sofia_detects_ctr_malleability() {
        // The XOR attack decrypts to a perfectly valid evil instruction —
        // only the MAC catches it.
        let keys = KeySet::from_seed(42);
        let v = inject_sofia(&keys, true, false);
        assert!(v.is_detected(), "{v}");
    }

    #[test]
    fn cfi_only_machine_falls_to_ctr_malleability() {
        // With the SI check ablated, the malleability attack succeeds:
        // the paper's argument for combining CFI with SI (§II-A/§II-C).
        let keys = KeySet::from_seed(42);
        let v = inject_sofia(&keys, false, false);
        assert!(v.is_compromised(), "{v}");
    }

    #[test]
    fn malleability_needs_known_plaintext_difference() {
        // Flipping the same bits of a *different* word garbles it and the
        // MAC rejects the block.
        let keys = KeySet::from_seed(43);
        let module = asm::parse(&control_loop_victim(4)).unwrap();
        let image = Transformer::new(keys.clone()).transform(&module).unwrap();
        let mut m = SofiaMachine::new(&image, &keys);
        m.mem_mut().rom_mut()[5] ^= evil_diff();
        let v = classify_sofia_run(m);
        assert!(v.is_detected(), "{v}");
    }
}
