//! Control-flow hijack (code-reuse) attacks.
//!
//! Two channels:
//!
//! * **data poisoning** — the victim loads an attacker-controlled word
//!   and transfers through it (the software shape of a smashed return
//!   address). On the vanilla core the dangerous gadget runs; on SOFIA
//!   the dispatch ladder (the lowered form of the declared indirect
//!   transfer) refuses the undeclared target.
//! * **PC fault injection** — the attacker forces the fetch target
//!   directly, bypassing software entirely. SOFIA's decryption counter
//!   then mismatches every sealed edge of the victim block and the MAC
//!   check fires: the paper's fine-grained CFI at work.

use sofia_core::machine::SofiaMachine;
use sofia_core::SofiaConfig;
use sofia_cpu::machine::VanillaMachine;
use sofia_cpu::mem::Width;
use sofia_cpu::NoViolation;
use sofia_crypto::KeySet;
use sofia_isa::asm;
use sofia_transform::Transformer;

use crate::victims::{rop_victim, seal};
use crate::{evil_write, judge, run_judged, Verdict, FUEL};

/// Poisons the victim's spilled continuation slot with the gadget
/// address on the **unprotected** machine: the gadget runs.
pub fn poison_vanilla() -> Verdict<NoViolation> {
    let program = asm::assemble(&rop_victim()).expect("victim assembles");
    let gadget = program.symbols["gadget"];
    let slot = program.symbols["target_slot"];
    let mut m = VanillaMachine::new(&program);
    // Run until the program has published the legitimate continuation,
    // then overwrite it — the moral equivalent of the buffer overflow.
    // (The slot is written early; a few steps suffice.)
    for _ in 0..6 {
        m.step().expect("prologue executes");
    }
    m.mem_mut()
        .store(slot, Width::Word, gadget)
        .expect("slot is writable data");
    judge(m.run(FUEL), &[], evil_write(m.mem()))
}

/// The same poisoning against SOFIA: the declared-target dispatch refuses
/// the gadget (it is on no CFG edge), so the malicious write never
/// happens.
pub fn poison_sofia(keys: &KeySet, config: &SofiaConfig) -> Verdict {
    let image = seal(Transformer::new(keys.clone()), &rop_victim());
    let gadget = image.symbols["gadget"];
    let slot = image.symbols["target_slot"];
    let mut m = SofiaMachine::with_config(&image, keys, config);
    // The entry block publishes the slot; poison right after it, before
    // `process` loads the continuation.
    let _ = m.step_block().expect("prologue executes");
    m.mem_mut()
        .store(slot, Width::Word, gadget)
        .expect("slot is writable data");
    run_judged(m).0
}

/// PC fault injection against SOFIA: force the next fetch into the middle
/// of the program along an edge that does not exist in the CFG.
pub fn fault_inject_sofia(
    keys: &KeySet,
    config: &SofiaConfig,
    target_offset_blocks: usize,
) -> Verdict {
    run_judged(fault_injected_sofia(keys, config, target_offset_blocks)).0
}

/// The machine [`fault_inject_sofia`] attacks: its first block run and
/// its next fetch redirected.
pub(crate) fn fault_injected_sofia(
    keys: &KeySet,
    config: &SofiaConfig,
    target_offset_blocks: usize,
) -> SofiaMachine {
    let image = seal(Transformer::new(keys.clone()), &rop_victim());
    let mut m = SofiaMachine::with_config(&image, keys, config);
    let _ = m.step_block().expect("first block runs");
    let target = image.text_base + (target_offset_blocks as u32) * image.format.block_bytes();
    m.hijack_next_target(target);
    m
}

/// The same fault injection against the vanilla machine: execution simply
/// continues at the attacker's address.
pub fn fault_inject_vanilla() -> Verdict<NoViolation> {
    let program = asm::assemble(&rop_victim()).expect("victim assembles");
    let gadget = program.symbols["gadget"];
    let mut m = VanillaMachine::new(&program);
    m.step().expect("first instruction runs");
    m.hijack_pc(gadget);
    judge(m.run(FUEL), &[], evil_write(m.mem()))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::victims::EVIL_VALUE;

    #[test]
    fn clean_victim_runs_on_both_machines() {
        let program = asm::assemble(&rop_victim()).unwrap();
        let mut vm = VanillaMachine::new(&program);
        assert!(vm.run(FUEL).unwrap().is_halted());
        assert_eq!(
            vm.mem().mmio.out_words,
            crate::victims::rop_victim_expected()
        );
        assert!(!vm.mem().mmio.actuator_writes.contains(&EVIL_VALUE));

        let keys = KeySet::from_seed(5);
        let image = seal(Transformer::new(keys.clone()), &rop_victim());
        let mut sm = SofiaMachine::new(&image, &keys);
        assert!(sm.run(FUEL).unwrap().is_halted());
        assert_eq!(
            sm.mem().mmio.out_words,
            crate::victims::rop_victim_expected()
        );
    }

    #[test]
    fn vanilla_falls_to_poisoned_indirect() {
        let v = poison_vanilla();
        assert!(v.is_compromised(), "{v}");
    }

    #[test]
    fn sofia_neutralizes_poisoned_indirect() {
        let keys = KeySet::from_seed(6);
        let v = poison_sofia(&keys, &SofiaConfig::default());
        assert!(!v.is_compromised(), "{v}");
    }

    #[test]
    fn vanilla_falls_to_pc_fault() {
        let v = fault_inject_vanilla();
        assert!(v.is_compromised(), "{v}");
    }

    #[test]
    fn sofia_detects_pc_faults_at_every_block() {
        let keys = KeySet::from_seed(7);
        for block in 1..6 {
            let v = fault_inject_sofia(&keys, &SofiaConfig::default(), block);
            assert!(v.is_detected() || !v.is_compromised(), "block {block}: {v}");
        }
    }
}
