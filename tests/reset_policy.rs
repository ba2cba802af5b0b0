//! Reset-policy coverage through the public facade: the paper's reboot
//! behaviour ("the processor should be able to reboot reliably fast")
//! must be bounded — a persistently tampered image terminates in a
//! reported reset loop instead of spinning forever. SOFIA, the sponge
//! and FIPAC are one `Machine<F>` with one reset dispatch, so every case
//! runs on all three.

use sofia::core::{ResetPolicy, SofiaConfig, Violation};
use sofia::cpu::FetchUnit;
use sofia::prelude::*;

const SRC: &str = "main: li t0, 1\n li a0, 0xFFFF0000\n sw t0, 0(a0)\n halt";

/// `SRC` under `Reboot { max_resets }` on each backend.
fn build(max_resets: u32) -> (SofiaMachine, SpongeMachine, FipacMachine) {
    let keys = KeySet::from_seed(0x5E5E7);
    let module = asm::parse(SRC).unwrap();
    let reset_policy = ResetPolicy::Reboot { max_resets };
    let sofia = Transformer::new(keys.clone()).transform(&module).unwrap();
    let sofia = SofiaMachine::with_config(
        &sofia,
        &keys,
        &SofiaConfig {
            reset_policy,
            ..Default::default()
        },
    );
    let config = BackendConfig {
        reset_policy,
        ..Default::default()
    };
    let sponge = seal_sponge(&module, &keys, Nonce::new(1)).unwrap();
    let fipac = install_fipac(&module, &keys, Nonce::new(1)).unwrap();
    (
        sofia,
        SpongeFetch::machine(&sponge, &keys, &config),
        FipacFetch::machine(&fipac, &keys, &config),
    )
}

/// Corrupts stored word 0 — SOFIA's entry-block MAC, the first
/// instruction of the sponge and FIPAC images — and runs with
/// unbounded fuel.
fn tamper_and_run<F: FetchUnit>(m: &mut Machine<F>, flip: u32) -> RunOutcome<F::Violation> {
    m.mem_mut().rom_mut()[0] ^= flip;
    m.run(u64::MAX).unwrap()
}

fn persistent_tamper<F: FetchUnit>(label: &str, mut m: Machine<F>) -> Machine<F>
where
    F::Violation: PartialEq,
{
    // Every reboot re-fetches the same tampered word, so every boot
    // attempt fails the same way.
    let outcome = tamper_and_run(&mut m, 0xDEAD);
    // Terminates with exactly the configured reset budget spent — it
    // does not spin, even with unbounded fuel.
    assert_eq!(outcome, RunOutcome::ResetLoop { resets: 5 }, "{label}");
    assert_eq!(m.resets(), 5, "{label}");
    // One violation per boot attempt: the initial one plus one per reboot.
    assert_eq!(m.violations().len(), 6, "{label}");
    assert!(
        m.violations().iter().all(|v| *v == m.violations()[0]),
        "{label}: {:?}",
        m.violations()
    );
    // The honest result never reached the output port.
    assert!(!m.mem().mmio.out_words.contains(&1), "{label}");
    m
}

#[test]
fn persistent_tamper_terminates_in_a_reset_loop() {
    let (sofia, sponge, fipac) = build(5);
    let sofia = persistent_tamper("sofia", sofia);
    assert_eq!(sofia.stats().resets, 5);
    assert_eq!(sofia.stats().violations, 6);
    assert!(matches!(
        sofia.violations()[0],
        Violation::MacMismatch { .. }
    ));
    // SOFIA refuses the block before it executes: nothing was stored.
    assert!(sofia.mem().mmio.out_words.is_empty());
    persistent_tamper("sponge", sponge);
    persistent_tamper("fipac", fipac);
}

fn honest<F: FetchUnit>(label: &str, mut m: Machine<F>) {
    let outcome = m.run(100_000).unwrap();
    assert!(outcome.is_halted(), "{label}: {outcome:?}");
    assert_eq!(m.resets(), 0, "{label}");
    assert!(m.violations().is_empty(), "{label}");
    assert_eq!(m.mem().mmio.out_words, vec![1], "{label}");
}

#[test]
fn reboot_policy_is_transparent_for_honest_images() {
    let (sofia, sponge, fipac) = build(5);
    honest("sofia", sofia);
    honest("sponge", sponge);
    honest("fipac", fipac);
}

fn zero_budget<F: FetchUnit>(label: &str, mut m: Machine<F>) {
    let outcome = tamper_and_run(&mut m, 1);
    assert!(
        matches!(outcome, RunOutcome::ResetLoop { resets: 0 }),
        "{label}: {outcome:?}"
    );
    assert_eq!(m.resets(), 0, "{label}");
    assert_eq!(m.violations().len(), 1, "{label}");
}

#[test]
fn zero_reset_budget_abandons_on_first_violation() {
    let (sofia, sponge, fipac) = build(0);
    zero_budget("sofia", sofia);
    zero_budget("sponge", sponge);
    zero_budget("fipac", fipac);
}
