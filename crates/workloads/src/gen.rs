//! Deterministic input generation, data-section emission helpers, and a
//! seed-driven random *program* generator for differential testing.

use sofia_crypto::util::SplitMix64;

/// One loop-body operation of a generated program.
#[derive(Clone, Copy, Debug)]
enum GenOp {
    Add,
    Sub,
    Xor,
    And,
    Or,
    Mul,
    Sll(u8),
    Srl(u8),
    /// A conditional branch inside the loop body.
    SkipIfEven,
    /// A store/load round-trip through memory.
    StoreLoad,
}

impl GenOp {
    fn pick(rng: &mut SplitMix64) -> GenOp {
        match rng.next_below(10) {
            0 => GenOp::Add,
            1 => GenOp::Sub,
            2 => GenOp::Xor,
            3 => GenOp::And,
            4 => GenOp::Or,
            5 => GenOp::Mul,
            6 => GenOp::Sll(rng.next_u64() as u8),
            7 => GenOp::Srl(rng.next_u64() as u8),
            8 => GenOp::SkipIfEven,
            _ => GenOp::StoreLoad,
        }
    }
}

/// A deterministic, always-terminating random program: a prologue seeds
/// registers, a bounded loop applies random ALU/branch/memory operations
/// (optionally through a helper call, exercising the mux-tree machinery),
/// and the epilogue emits two registers on the MMIO word port.
///
/// The same seed always yields the same source, so the differential test
/// engine can replay a divergence from nothing but its seed. Programs
/// cover every control-flow shape SOFIA seals: sequential fall-through,
/// conditional branches (taken and not), a backward loop edge, and
/// call/return through a multiplexor block.
///
/// # Examples
///
/// ```
/// let a = sofia_workloads::gen::random_program(7);
/// assert_eq!(a, sofia_workloads::gen::random_program(7));
/// assert_ne!(a, sofia_workloads::gen::random_program(8));
/// assert!(sofia_isa::asm::parse(&a).is_ok());
/// ```
pub fn random_program(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let seed_a = rng.next_below(10_000);
    let seed_b = rng.next_below(10_000);
    let iterations = 1 + rng.next_below(19);
    let call_helper = rng.next_below(2) == 1;
    let n_ops = 1 + rng.next_below(11) as usize;
    let mut body = String::new();
    for i in 0..n_ops {
        match GenOp::pick(&mut rng) {
            GenOp::Add => body.push_str("    add s0, s0, s1\n"),
            GenOp::Sub => body.push_str("    sub s1, s1, s0\n"),
            GenOp::Xor => body.push_str("    xor s0, s0, s1\n"),
            GenOp::And => body.push_str("    and s1, s1, s0\n    ori s1, s1, 3\n"),
            GenOp::Or => body.push_str("    or s0, s0, s1\n"),
            GenOp::Mul => body.push_str("    mul s0, s0, s1\n    ori s0, s0, 1\n"),
            GenOp::Sll(n) => {
                body.push_str(&format!("    sll s1, s1, {}\n    ori s1, s1, 5\n", n % 8))
            }
            GenOp::Srl(n) => body.push_str(&format!("    srl s0, s0, {}\n", n % 8)),
            GenOp::SkipIfEven => body.push_str(&format!(
                "    andi t0, s0, 1\n    beqz t0, skip_{i}\n    addi s1, s1, 17\nskip_{i}:\n"
            )),
            GenOp::StoreLoad => body.push_str(
                "    la t1, scratch\n    sw s0, 0(t1)\n    lw t2, 0(t1)\n    add s1, s1, t2\n",
            ),
        }
    }
    let helper_call = if call_helper {
        "    mv a0, s0\n    jal mixer\n    mv s0, v0\n"
    } else {
        ""
    };
    format!(
        ".equ OUT, 0xFFFF0000
.text
.global main
main:
    li   s0, {seed_a}
    li   s1, {seed_b}
    li   s2, {iterations}
loop:
    beqz s2, done
{body}{helper_call}    subi s2, s2, 1
    b    loop
done:
    li   t3, OUT
    sw   s0, 0(t3)
    sw   s1, 0(t3)
    halt
mixer:
    xor  v0, a0, a0
    add  v0, v0, a0
    addi v0, v0, 13
    ret

.data
scratch: .space 4
"
    )
}

/// Synthetic PCM: a sum of sines with a pseudo-random walk on top —
/// deterministic stand-in for the MediaBench audio input (README,
/// *Reproducing the paper*).
pub fn synth_pcm(n: usize, seed: u64) -> Vec<i16> {
    let mut rng = SplitMix64::new(seed);
    let mut noise = 0i32;
    (0..n)
        .map(|i| {
            let t = i as f64;
            let tone = 6000.0 * (t * 0.063).sin() + 2500.0 * (t * 0.211).sin();
            noise += (rng.next_below(401) as i32) - 200;
            noise = noise.clamp(-3000, 3000);
            (tone as i32 + noise).clamp(-32768, 32767) as i16
        })
        .collect()
}

/// Uniform pseudo-random words.
pub fn random_words(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64() as u32).collect()
}

/// Uniform pseudo-random bytes.
pub fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// Emits `.half` directives for a slice of signed samples.
pub fn half_directives(samples: &[i16]) -> String {
    let mut out = String::new();
    for chunk in samples.chunks(12) {
        let row: Vec<String> = chunk.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!("    .half {}\n", row.join(", ")));
    }
    out
}

/// Emits `.word` directives for a slice of words.
pub fn word_directives(words: &[u32]) -> String {
    let mut out = String::new();
    for chunk in words.chunks(8) {
        let row: Vec<String> = chunk.iter().map(|v| format!("{v:#x}")).collect();
        out.push_str(&format!("    .word {}\n", row.join(", ")));
    }
    out
}

/// Emits `.byte` directives for a slice of bytes.
pub fn byte_directives(bytes: &[u8]) -> String {
    let mut out = String::new();
    for chunk in bytes.chunks(16) {
        let row: Vec<String> = chunk.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!("    .byte {}\n", row.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_is_deterministic_and_bounded() {
        let a = synth_pcm(256, 9);
        let b = synth_pcm(256, 9);
        assert_eq!(a, b);
        assert_ne!(a, synth_pcm(256, 10));
        // A real waveform: both polarities present.
        assert!(a.iter().any(|&s| s > 1000));
        assert!(a.iter().any(|&s| s < -1000));
    }

    #[test]
    fn random_programs_assemble_and_terminate() {
        for seed in 0..8 {
            let src = random_program(seed);
            let asmb =
                sofia_isa::asm::assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let mut m = sofia_cpu::machine::VanillaMachine::new(&asmb);
            let outcome = m
                .run(5_000_000)
                .unwrap_or_else(|t| panic!("seed {seed}: {t}"));
            assert!(outcome.is_halted(), "seed {seed} did not halt");
            assert_eq!(m.mem().mmio.out_words.len(), 2, "seed {seed}");
        }
    }

    #[test]
    fn directive_emission_parses() {
        let src = format!(
            ".data\nx:\n{}\ny:\n{}\nz:\n{}\n.text\nmain: halt",
            half_directives(&[-1, 0, 32767]),
            word_directives(&[0xDEAD_BEEF, 7]),
            byte_directives(&[0, 255, 128]),
        );
        let asmb = sofia_isa::asm::assemble(&src).unwrap();
        assert_eq!(&asmb.data[0..2], &(-1i16).to_le_bytes());
    }
}
