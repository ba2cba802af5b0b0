//! Behaviour contract of the alternative backends: clean runs are
//! architecturally identical to the vanilla baseline; tampering and
//! hijacks are detected through each scheme's own mechanism.

use sofia_backends::{
    BackendConfig, FipacFetch, FipacMachine, FipacViolation, SpongeFetch, SpongeMachine,
    SpongeViolation,
};
use sofia_core::machine::{ResetPolicy, RunOutcome};
use sofia_cpu::machine::VanillaMachine;
use sofia_crypto::{KeySet, Nonce};
use sofia_isa::asm;
use sofia_transform::{install_fipac, seal_sponge};

const FUEL: u64 = 1_000_000;

const SUM_LOOP: &str = "
main: li t0, 5
      li t1, 0
loop: add t1, t1, t0
      subi t0, t0, 1
      bnez t0, loop
      li a0, 0xFFFF0000
      sw t1, 0(a0)
      jal f
      halt
f:    addi t1, t1, 1
      ret
";

fn keys() -> KeySet {
    KeySet::from_seed(0xBACE)
}

fn vanilla_out(src: &str) -> (Vec<u32>, u64) {
    let program = asm::assemble(src).unwrap();
    let mut m = VanillaMachine::new(&program);
    assert!(m.run(FUEL).unwrap().is_halted());
    (m.mem().mmio.out_words.clone(), m.stats().cycles)
}

fn sponge(src: &str) -> SpongeMachine {
    let module = asm::parse(src).unwrap();
    let image = seal_sponge(&module, &keys(), Nonce::new(7)).unwrap();
    SpongeFetch::machine(&image, &keys(), &BackendConfig::default())
}

fn fipac(src: &str) -> FipacMachine {
    let module = asm::parse(src).unwrap();
    let image = install_fipac(&module, &keys(), Nonce::new(7)).unwrap();
    FipacFetch::machine(&image, &keys(), &BackendConfig::default())
}

#[test]
fn sponge_clean_run_matches_vanilla_architecturally() {
    let (out, vanilla_cycles) = vanilla_out(SUM_LOOP);
    let mut m = sponge(SUM_LOOP);
    assert!(m.run(FUEL).unwrap().is_halted());
    assert_eq!(m.mem().mmio.out_words, out);
    assert!(m.violations().is_empty());
    // The serial permute makes the sponge strictly slower than baseline.
    assert!(m.exec_stats().cycles > vanilla_cycles);
}

#[test]
fn fipac_clean_run_matches_vanilla_and_is_cheaper_than_sponge() {
    let (out, vanilla_cycles) = vanilla_out(SUM_LOOP);
    let mut f = fipac(SUM_LOOP);
    assert!(f.run(FUEL).unwrap().is_halted());
    assert_eq!(f.mem().mmio.out_words, out);
    assert!(f.fetch().stats().checks_passed >= 2); // ret + halt
    let mut s = sponge(SUM_LOOP);
    assert!(s.run(FUEL).unwrap().is_halted());
    // Overhead ordering: vanilla <= fipac < sponge on the same workload.
    assert!(f.exec_stats().cycles >= vanilla_cycles);
    assert!(f.exec_stats().cycles < s.exec_stats().cycles);
}

#[test]
fn sponge_tampered_word_is_detected() {
    let mut m = sponge(SUM_LOOP);
    m.mem_mut().rom_mut()[2] ^= 0xFFFF_FFFF;
    match m.run(FUEL) {
        Ok(RunOutcome::ViolationStop(_)) | Err(_) => {}
        other => panic!("tamper survived: {other:?}"),
    }
}

#[test]
fn sponge_detection_is_sticky_across_refetch() {
    // The garbage word is not absorbed, so the violation reproduces
    // identically on every reboot: the reboot policy must give up.
    let module = asm::parse(SUM_LOOP).unwrap();
    let image = seal_sponge(&module, &keys(), Nonce::new(7)).unwrap();
    let config = BackendConfig {
        reset_policy: ResetPolicy::Reboot { max_resets: 3 },
        ..BackendConfig::default()
    };
    let mut m = SpongeFetch::machine(&image, &keys(), &config);
    m.mem_mut().rom_mut()[0] ^= 0xFFFF_FFFF;
    assert_eq!(m.run(FUEL).unwrap(), RunOutcome::ResetLoop { resets: 3 });
    assert_eq!(m.violations().len(), 4); // initial + one per reset
}

#[test]
fn sponge_hijack_desynchronises_the_state() {
    let mut m = sponge(SUM_LOOP);
    let target = m.fetch().next_target() + 8; // skip into the program
    m.fetch_mut().hijack(target);
    match m.run(FUEL) {
        Ok(RunOutcome::ViolationStop(_)) | Err(_) => {}
        other => panic!("hijack survived: {other:?}"),
    }
    assert!(m.fetch().stats().patched_edges <= 1);
}

#[test]
fn fipac_tampered_word_is_caught_at_the_next_check() {
    let mut m = fipac("main: addi t0, zero, 1\nnop\nnop\nhalt");
    // Flip an immediate bit: still decodes, still executes — FIPAC only
    // notices when the running state meets the halt signature.
    m.mem_mut().rom_mut()[0] ^= 0x2;
    let outcome = m.run(FUEL).unwrap();
    assert!(
        matches!(
            outcome,
            RunOutcome::ViolationStop(FipacViolation::StateMismatch { .. })
        ),
        "{outcome:?}"
    );
    // Deferred detection: the tampered instruction (and the nops) retired
    // before the signature point fired.
    assert!(m.exec_stats().instret >= 3, "{}", m.exec_stats().instret);
}

#[test]
fn fipac_hijack_is_caught_at_the_next_check() {
    let mut m = fipac("main: addi t0, zero, 1\nnop\nnop\nhalt");
    let target = m.fetch().next_target() + 8;
    m.fetch_mut().hijack(target);
    let outcome = m.run(FUEL).unwrap();
    assert!(
        matches!(
            outcome,
            RunOutcome::ViolationStop(FipacViolation::StateMismatch { .. })
        ),
        "{outcome:?}"
    );
}

#[test]
fn fipac_conjured_halt_is_an_unjustified_exit() {
    let mut m = fipac("main: addi t0, zero, 1\nnop\nnop\nhalt");
    let halt_word = asm::assemble("main: halt").unwrap().words[0];
    m.mem_mut().rom_mut()[1] = halt_word;
    let outcome = m.run(FUEL).unwrap();
    assert!(
        matches!(
            outcome,
            RunOutcome::ViolationStop(FipacViolation::UnjustifiedExit { .. })
        ),
        "{outcome:?}"
    );
}

#[test]
fn fipac_elided_checks_let_tampering_through_silently() {
    // The discriminating fault: skip the comparison and FIPAC's deferred
    // detection has nothing left — the run completes as if honest.
    let mut m = fipac("main: addi t0, zero, 1\nnop\nnop\nhalt");
    m.mem_mut().rom_mut()[0] ^= 0x2;
    m.fetch_mut().elide_checks();
    assert!(m.run(FUEL).unwrap().is_halted());
    assert!(m.violations().is_empty());
    assert_eq!(m.regs().get(sofia_isa::Reg::T0), 3); // tampered imm took effect
}

#[test]
fn out_of_image_fetch_is_refused_by_both() {
    let mut s = sponge(SUM_LOOP);
    s.fetch_mut().hijack(0x10);
    assert!(matches!(
        s.run(FUEL).unwrap(),
        RunOutcome::ViolationStop(SpongeViolation::FetchOutOfImage { addr: 0x10 })
    ));
    let mut f = fipac(SUM_LOOP);
    f.fetch_mut().hijack(0x10);
    assert!(matches!(
        f.run(FUEL).unwrap(),
        RunOutcome::ViolationStop(FipacViolation::FetchOutOfImage { addr: 0x10 })
    ));
}

/// Stores 7 to the output port, then halts.
const STORE_7: &str = "main: li t0, 7\n li a0, 0xFFFF0000\n sw t0, 0(a0)\n halt";

#[test]
fn fetch_counters_survive_a_reset_on_both_backends() {
    // Like the engine's counters and the violation log, the fetch
    // counters keep counting across reboots: every issued word retires,
    // and every boot takes the patched reset edge.
    let module = asm::parse(STORE_7).unwrap();
    let config = BackendConfig {
        reset_policy: ResetPolicy::Reboot { max_resets: 3 },
        ..BackendConfig::default()
    };
    let image = seal_sponge(&module, &keys(), Nonce::new(7)).unwrap();
    let mut s = SpongeFetch::machine(&image, &keys(), &config);
    s.mem_mut().rom_mut()[3] ^= 0xFFFF_FFFF; // the halt decrypts to garbage
    assert_eq!(s.run(FUEL).unwrap(), RunOutcome::ResetLoop { resets: 3 });
    assert_eq!(s.exec_stats().instret, 12);
    assert_eq!(s.fetch().stats().words_fetched, s.exec_stats().instret);
    assert_eq!(s.fetch().stats().patched_edges, 4);

    let image = install_fipac(&module, &keys(), Nonce::new(7)).unwrap();
    let mut f = FipacFetch::machine(&image, &keys(), &config);
    f.mem_mut().rom_mut()[0] ^= 0x2; // the halt signature no longer matches
    assert_eq!(f.run(FUEL).unwrap(), RunOutcome::ResetLoop { resets: 3 });
    assert_eq!(f.exec_stats().instret, 12);
    assert_eq!(f.fetch().stats().words_fetched, f.exec_stats().instret);
    assert_eq!(f.fetch().stats().patched_edges, 4);
}

#[test]
fn fipac_runs_the_decoded_prefix_before_an_undecodable_word() {
    // An undecodable word ends the batch like any refused word: the
    // prefix before it retires, and the trap comes with the word itself,
    // exactly where the unchecked baseline traps.
    let mut program = asm::assemble(STORE_7).unwrap();
    program.words[3] = 0xFFFF_FFFF;
    let mut v = VanillaMachine::new(&program);
    let vanilla = v.run(FUEL);
    let mut f = fipac(STORE_7);
    f.mem_mut().rom_mut()[3] = 0xFFFF_FFFF;
    let fipac = f.run(FUEL);
    assert!(vanilla.is_err());
    assert_eq!(fipac.unwrap_err(), vanilla.unwrap_err());
    assert_eq!(f.mem().mmio.out_words, vec![7]);
    assert_eq!(f.mem().mmio.out_words, v.mem().mmio.out_words);
    assert_eq!(f.exec_stats().instret, v.stats().instret);
    // The signature gate before the halt was never reached, so it was
    // never charged.
    assert_eq!(f.fetch().stats().checks_passed, 0);
}
