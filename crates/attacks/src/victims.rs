//! Victim programs for the attack experiments.
//!
//! Each victim models a realistic safety-critical firmware shape: a
//! control loop that reads sensor data, computes, and writes an actuator
//! (the paper's motivating example: "a store instruction that disables
//! the brakes on a car"). Each also contains a *dangerous gadget* — code
//! that writes the attacker's value to the actuator — which is never
//! reached on any legitimate path.

use sofia_transform::{SecureImage, Transformer};

/// MMIO actuator port (see `sofia_cpu::mem::MMIO_ACTUATOR`).
pub const ACTUATOR: u32 = 0xFFFF_0010;

/// The value the legitimate control loop writes to the actuator.
pub const SAFE_VALUE: u32 = 0x5AFE;

/// The value the dangerous gadget writes when an attack succeeds.
pub const EVIL_VALUE: u32 = 0x0BAD;

/// A victim with an attacker-influenced indirect transfer: the "return
/// address" of `process` is loaded from a data slot (`target_slot`)
/// standing in for a stack slot an overflow can reach. Legitimate runs
/// find the correct continuation there; the hijack experiment poisons it
/// with the gadget address.
///
/// Emits `SAFE_VALUE` to the actuator and `0x600D` to the word port on a
/// clean run.
pub fn rop_victim() -> String {
    format!(
        r#"
.equ OUT, 0xFFFF0000
.equ ACTUATOR, {ACTUATOR:#x}

.text
.global main
main:
    # Publish the legitimate continuation address, as a compiler spilling
    # a return address to the stack would.
    la   t0, cont
    la   t1, target_slot
    sw   t0, 0(t1)
    jal  process
cont_landing:
    halt

# process: does "work", then returns via the spilled continuation —
# the attacker-reachable indirect transfer.
process:
    li   t2, {SAFE_VALUE:#x}
    li   t3, ACTUATOR
    sw   t2, 0(t3)
    la   t1, target_slot
    lw   t4, 0(t1)
    # `gadget` is deliberately NOT declared: it is on no legitimate path.
    .indirect cont
    jr   t4

cont:
    li   t5, OUT
    li   t6, 0x600D
    sw   t6, 0(t5)
    b    cont_landing

# The dangerous gadget: present in the binary, never called legitimately.
gadget:
    li   t2, {EVIL_VALUE:#x}
    li   t3, ACTUATOR
    sw   t2, 0(t3)
    halt

.data
target_slot: .space 4
"#
    )
}

/// The clean word-port output of [`rop_victim`].
pub fn rop_victim_expected() -> Vec<u32> {
    vec![0x600D]
}

/// A simple sensor→actuator control loop used as the injection and
/// relocation target: reads `n` sensor words, accumulates, writes the
/// safe value per iteration, emits the accumulator.
pub fn control_loop_victim(n: u32) -> String {
    format!(
        r#"
.equ OUT, 0xFFFF0000
.equ ACTUATOR, {ACTUATOR:#x}

.text
.global main
main:
    la   s0, sensor
    li   s1, {n}
    li   s2, 0
loop:
    beqz s1, done
    lw   t0, 0(s0)
    add  s2, s2, t0
    li   t1, {SAFE_VALUE:#x}
    li   t2, ACTUATOR
    sw   t1, 0(t2)
    addi s0, s0, 4
    subi s1, s1, 1
    b    loop
done:
    li   t3, OUT
    sw   s2, 0(t3)
    halt

.data
sensor:
    .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
"#
    )
}

/// Accumulator emitted by a clean run of [`control_loop_victim`] over the
/// first `n ≤ 16` sensor words.
pub fn control_loop_expected(n: u32) -> Vec<u32> {
    let sensor = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    vec![sensor[..n as usize].iter().sum()]
}

/// A two-phase victim for migration attacks: two long loops separated
/// by a straight-line spacer block, so a fuel-sliced run parks on
/// *different* control-flow edges in different phases — the raw
/// material for stale-[`sofia_core::ResumeEdge`] replay experiments
/// (the spacer guarantees the phase-1 loop block is never the direct
/// sequential predecessor of the phase-2 loop block, so a spliced
/// `(prevPC₁, target₂)` pair is on no sealed edge).
pub fn two_phase_victim() -> String {
    r#"
.equ OUT, 0xFFFF0000

.text
.global main
main:
    li   s0, 0
    li   t0, 60
phase1:
    addi s0, s0, 1
    subi t0, t0, 1
    bnez t0, phase1
    addi s1, zero, 1
    addi s1, s1, 1
    addi s1, s1, 1
    addi s1, s1, 1
    addi s1, s1, 1
    addi s1, s1, 1
    addi s1, s1, 1
    li   t0, 60
phase2:
    addi s0, s0, 2
    subi t0, t0, 1
    bnez t0, phase2
    li   t1, OUT
    sw   s0, 0(t1)
    halt
"#
    .to_string()
}

/// Word emitted by a clean run of [`two_phase_victim`].
pub fn two_phase_expected() -> Vec<u32> {
    vec![60 + 120]
}

/// Parses a victim's source and seals it with `transformer`.
pub(crate) fn seal(transformer: Transformer, src: &str) -> SecureImage {
    let module = sofia_isa::asm::parse(src).expect("victim parses");
    transformer.transform(&module).expect("victim transforms")
}
