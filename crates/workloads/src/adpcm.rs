//! The paper's benchmark: MediaBench (I) ADPCM — the Intel/DVI **IMA
//! ADPCM** codec (`rawcaudio`/`rawdaudio`), reproduced as hand-written
//! SL32 assembly plus a bit-exact golden Rust model (README,
//! *Reproducing the paper*).
//!
//! The program encodes `n` 16-bit PCM samples to 4-bit codes and decodes
//! them back, emitting on the MMIO word port: the encoded byte count, a
//! checksum of the encoded bytes, and a checksum of the decoded samples.
//! The golden model computes the same three words on the host; agreement
//! on both the vanilla and the SOFIA machine is the correctness criterion
//! for the whole stack.

use crate::gen::{half_directives, synth_pcm};
use crate::Workload;

/// The 89-entry IMA step-size table.
pub const STEP_TABLE: [i32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 158, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// The 16-entry IMA index-adjustment table.
pub const INDEX_TABLE: [i32; 16] = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8];

/// Codec state carried between calls (IMA `valprev`/`index`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdpcmState {
    /// Previous predicted value.
    pub valprev: i32,
    /// Step-table index.
    pub index: i32,
}

/// Golden IMA ADPCM encoder, bit-exact with the MediaBench `adpcm_coder`.
pub fn encode(input: &[i16], state: &mut AdpcmState) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 1);
    let mut valpred = state.valprev;
    let mut index = state.index;
    let mut step = STEP_TABLE[index as usize];
    let mut bufferstep = true;
    let mut outputbuffer = 0i32;
    for &sample in input {
        let val = sample as i32;
        let mut diff = val - valpred;
        let sign = if diff < 0 { 8 } else { 0 };
        if sign != 0 {
            diff = -diff;
        }
        let mut delta = 0;
        let mut vpdiff = step >> 3;
        if diff >= step {
            delta = 4;
            diff -= step;
            vpdiff += step;
        }
        let mut s = step >> 1;
        if diff >= s {
            delta |= 2;
            diff -= s;
            vpdiff += s;
        }
        s >>= 1;
        if diff >= s {
            delta |= 1;
            vpdiff += s;
        }
        if sign != 0 {
            valpred -= vpdiff;
        } else {
            valpred += vpdiff;
        }
        valpred = valpred.clamp(-32768, 32767);
        delta |= sign;
        index += INDEX_TABLE[delta as usize];
        index = index.clamp(0, 88);
        step = STEP_TABLE[index as usize];
        if bufferstep {
            outputbuffer = (delta << 4) & 0xF0;
        } else {
            out.push(((delta & 0x0F) | outputbuffer) as u8);
        }
        bufferstep = !bufferstep;
    }
    if !bufferstep {
        out.push(outputbuffer as u8);
    }
    state.valprev = valpred;
    state.index = index;
    out
}

/// Golden IMA ADPCM decoder (`adpcm_decoder`), producing `len` samples.
pub fn decode(input: &[u8], len: usize, state: &mut AdpcmState) -> Vec<i16> {
    let mut out = Vec::with_capacity(len);
    let mut valpred = state.valprev;
    let mut index = state.index;
    let mut step = STEP_TABLE[index as usize];
    let mut bufferstep = false;
    let mut inputbuffer = 0i32;
    let mut inp = input.iter();
    for _ in 0..len {
        let delta = if bufferstep {
            inputbuffer & 0xF
        } else {
            inputbuffer = *inp.next().expect("enough encoded bytes") as i32;
            (inputbuffer >> 4) & 0xF
        };
        bufferstep = !bufferstep;
        index += INDEX_TABLE[delta as usize];
        index = index.clamp(0, 88);
        let sign = delta & 8;
        let magnitude = delta & 7;
        let mut vpdiff = step >> 3;
        if magnitude & 4 != 0 {
            vpdiff += step;
        }
        if magnitude & 2 != 0 {
            vpdiff += step >> 1;
        }
        if magnitude & 1 != 0 {
            vpdiff += step >> 2;
        }
        if sign != 0 {
            valpred -= vpdiff;
        } else {
            valpred += vpdiff;
        }
        valpred = valpred.clamp(-32768, 32767);
        step = STEP_TABLE[index as usize];
        out.push(valpred as i16);
    }
    state.valprev = valpred;
    state.index = index;
    out
}

/// Checksum used by both the SL32 program and the golden model:
/// wrapping 32-bit sum of zero-extended bytes.
pub fn byte_checksum(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0u32, |a, &b| a.wrapping_add(b as u32))
}

/// Wrapping 32-bit sum of samples as unsigned 16-bit values.
pub fn sample_checksum(samples: &[i16]) -> u32 {
    samples
        .iter()
        .fold(0u32, |a, &s| a.wrapping_add(s as u16 as u32))
}

/// Builds the ADPCM workload over `n` synthetic PCM samples.
///
/// # Examples
///
/// ```
/// let w = sofia_workloads::adpcm::workload(64);
/// assert_eq!(w.expected.len(), 3);
/// w.verify_on_vanilla().unwrap();
/// ```
pub fn workload(n: usize) -> Workload {
    let input = synth_pcm(n, 0x50F1A);
    let mut enc_state = AdpcmState::default();
    let encoded = encode(&input, &mut enc_state);
    let mut dec_state = AdpcmState::default();
    let decoded = decode(&encoded, n, &mut dec_state);
    let expected = vec![
        encoded.len() as u32,
        byte_checksum(&encoded),
        sample_checksum(&decoded),
    ];

    let mut source = String::new();
    source.push_str(&format!(
        ".equ NSAMP, {n}\n.equ OUT, 0xFFFF0000\n\n.text\n.global main\n"
    ));
    source.push_str(MAIN_ASM);
    source.push_str(CODER_ASM);
    source.push_str(DECODER_ASM);
    source.push_str("\n.data\nstep_table:\n");
    for chunk in STEP_TABLE.chunks(8) {
        let row: Vec<String> = chunk.iter().map(|v| v.to_string()).collect();
        source.push_str(&format!("    .word {}\n", row.join(", ")));
    }
    source.push_str("index_table:\n");
    let row: Vec<String> = INDEX_TABLE.iter().map(|v| v.to_string()).collect();
    source.push_str(&format!("    .word {}\n", row.join(", ")));
    source.push_str("input:\n");
    source.push_str(&half_directives(&input));
    source.push_str(&format!(
        "\n.align 4\nencbuf: .space {}\n.align 4\ndecbuf: .space {}\n",
        n / 2 + 4,
        2 * n + 4
    ));

    Workload {
        name: "adpcm",
        description: "MediaBench IMA ADPCM encode + decode (the paper's benchmark)",
        source,
        expected,
    }
}

/// `main`: encode, checksum, decode, checksum, emit three words.
const MAIN_ASM: &str = r#"
main:
    la   a0, input
    la   a1, encbuf
    li   a2, NSAMP
    jal  adpcm_coder          # v0 = encoded byte count
    mv   s0, v0               # s0 = nbytes

    li   t0, OUT
    sw   v0, 0(t0)            # out[0] = nbytes

    # checksum encoded bytes
    la   t1, encbuf
    li   t2, 0                # sum
    mv   t3, s0
csum_enc:
    beqz t3, csum_enc_done
    lbu  t4, 0(t1)
    add  t2, t2, t4
    addi t1, t1, 1
    subi t3, t3, 1
    b    csum_enc
csum_enc_done:
    li   t0, OUT
    sw   t2, 0(t0)            # out[1] = encoded checksum

    la   a0, encbuf
    la   a1, decbuf
    li   a2, NSAMP
    jal  adpcm_decoder

    # checksum decoded samples (as u16)
    la   t1, decbuf
    li   t2, 0
    li   t3, NSAMP
csum_dec:
    beqz t3, csum_dec_done
    lhu  t4, 0(t1)
    add  t2, t2, t4
    addi t1, t1, 2
    subi t3, t3, 1
    b    csum_dec
csum_dec_done:
    li   t0, OUT
    sw   t2, 0(t0)            # out[2] = decoded checksum
    halt
"#;

/// `adpcm_coder(a0=inp, a1=outp, a2=len) -> v0 = bytes written`.
///
/// Register plan: s0=inp s1=outp s2=len s3=valpred s4=index s5=step
/// s6=bufferstep s7=outputbuffer a0=step_table a1=index_table.
const CODER_ASM: &str = r#"
adpcm_coder:
    mv   s0, a0
    mv   s1, a1
    mv   s2, a2
    mv   t9, a1               # remember outp base for byte count
    li   s3, 0                # valpred (state->valprev = 0)
    li   s4, 0                # index
    la   a0, step_table
    la   a1, index_table
    sll  t0, s4, 2
    add  t0, a0, t0
    lw   s5, 0(t0)            # step = stepTable[index]
    li   s6, 1                # bufferstep = 1
    li   s7, 0
enc_loop:
    beqz s2, enc_done
    lh   t0, 0(s0)            # val
    addi s0, s0, 2
    sub  t1, t0, s3           # diff = val - valpred
    li   t2, 0                # sign
    bge  t1, zero, enc_pos
    li   t2, 8
    sub  t1, zero, t1
enc_pos:
    li   t3, 0                # delta
    sra  t4, s5, 3            # vpdiff = step >> 3
    blt  t1, s5, enc_b2
    li   t3, 4
    sub  t1, t1, s5
    add  t4, t4, s5
enc_b2:
    sra  t5, s5, 1            # step >> 1
    blt  t1, t5, enc_b1
    ori  t3, t3, 2
    sub  t1, t1, t5
    add  t4, t4, t5
enc_b1:
    sra  t5, t5, 1            # step >> 2
    blt  t1, t5, enc_sgn
    ori  t3, t3, 1
    add  t4, t4, t5
enc_sgn:
    beqz t2, enc_addp
    sub  s3, s3, t4
    b    enc_clamp
enc_addp:
    add  s3, s3, t4
enc_clamp:
    li   t5, 32767
    ble  s3, t5, enc_cl2
    mv   s3, t5
enc_cl2:
    li   t5, -32768
    bge  s3, t5, enc_cl3
    mv   s3, t5
enc_cl3:
    or   t3, t3, t2           # delta |= sign
    sll  t5, t3, 2
    add  t5, a1, t5
    lw   t5, 0(t5)            # indexTable[delta]
    add  s4, s4, t5
    bge  s4, zero, enc_ix2
    li   s4, 0
enc_ix2:
    li   t5, 88
    ble  s4, t5, enc_ix3
    mv   s4, t5
enc_ix3:
    sll  t5, s4, 2
    add  t5, a0, t5
    lw   s5, 0(t5)            # step = stepTable[index]
    beqz s6, enc_flush
    sll  s7, t3, 4
    andi s7, s7, 0xf0
    li   s6, 0
    b    enc_next
enc_flush:
    andi t5, t3, 0x0f
    or   t5, t5, s7
    sb   t5, 0(s1)
    addi s1, s1, 1
    li   s6, 1
enc_next:
    subi s2, s2, 1
    b    enc_loop
enc_done:
    bnez s6, enc_count
    sb   s7, 0(s1)
    addi s1, s1, 1
enc_count:
    sub  v0, s1, t9           # bytes written
    ret
"#;

/// `adpcm_decoder(a0=inp, a1=outp, a2=len_samples)`.
///
/// Register plan: s0=inp s1=outp s2=len s3=valpred s4=index s5=step
/// s6=bufferstep s7=inputbuffer a0=step_table a1=index_table.
const DECODER_ASM: &str = r#"
adpcm_decoder:
    mv   s0, a0
    mv   s1, a1
    mv   s2, a2
    li   s3, 0                # valpred
    li   s4, 0                # index
    la   a0, step_table
    la   a1, index_table
    sll  t0, s4, 2
    add  t0, a0, t0
    lw   s5, 0(t0)
    li   s6, 0                # bufferstep = 0
    li   s7, 0
dec_loop:
    beqz s2, dec_done
    bnez s6, dec_low
    lbu  s7, 0(s0)            # inputbuffer = *inp++
    addi s0, s0, 1
    srl  t0, s7, 4
    andi t0, t0, 0xf          # delta = high nibble
    li   s6, 1
    b    dec_have
dec_low:
    andi t0, s7, 0xf          # delta = low nibble
    li   s6, 0
dec_have:
    sll  t5, t0, 2
    add  t5, a1, t5
    lw   t5, 0(t5)            # indexTable[delta]
    add  s4, s4, t5
    bge  s4, zero, dec_ix2
    li   s4, 0
dec_ix2:
    li   t5, 88
    ble  s4, t5, dec_ix3
    mv   s4, t5
dec_ix3:
    andi t2, t0, 8            # sign
    andi t3, t0, 7            # magnitude
    sra  t4, s5, 3            # vpdiff = step >> 3
    andi t5, t3, 4
    beqz t5, dec_m2
    add  t4, t4, s5
dec_m2:
    andi t5, t3, 2
    beqz t5, dec_m1
    sra  t6, s5, 1
    add  t4, t4, t6
dec_m1:
    andi t5, t3, 1
    beqz t5, dec_sgn
    sra  t6, s5, 2
    add  t4, t4, t6
dec_sgn:
    beqz t2, dec_addp
    sub  s3, s3, t4
    b    dec_clamp
dec_addp:
    add  s3, s3, t4
dec_clamp:
    li   t5, 32767
    ble  s3, t5, dec_cl2
    mv   s3, t5
dec_cl2:
    li   t5, -32768
    bge  s3, t5, dec_cl3
    mv   s3, t5
dec_cl3:
    sll  t5, s4, 2
    add  t5, a0, t5
    lw   s5, 0(t5)            # step = stepTable[index]
    sh   s3, 0(s1)
    addi s1, s1, 2
    subi s2, s2, 1
    b    dec_loop
dec_done:
    ret
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_encoder_matches_reference_shape() {
        // 2 samples per encoded byte, rounded up.
        let input = synth_pcm(101, 1);
        let enc = encode(&input, &mut AdpcmState::default());
        assert_eq!(enc.len(), 51);
    }

    #[test]
    fn golden_roundtrip_tracks_the_signal() {
        // ADPCM is lossy, but the decoded signal must track the input
        // closely for a smooth waveform.
        let input = synth_pcm(512, 7);
        let enc = encode(&input, &mut AdpcmState::default());
        let dec = decode(&enc, 512, &mut AdpcmState::default());
        let mut worst = 0i32;
        // Skip the attack transient at the start.
        for (a, b) in input.iter().zip(&dec).skip(32) {
            worst = worst.max((*a as i32 - *b as i32).abs());
        }
        assert!(worst < 4000, "worst tracking error {worst}");
    }

    #[test]
    fn encoder_state_carries_between_calls() {
        let input = synth_pcm(64, 3);
        let mut st = AdpcmState::default();
        let a = encode(&input[..32], &mut st);
        let b = encode(&input[32..], &mut st);
        assert_eq!(a.len() + b.len(), 32);
        assert_ne!(st, AdpcmState::default());
    }

    #[test]
    fn clamping_extremes() {
        // A violent square wave must stay within i16 and never panic.
        let input: Vec<i16> = (0..64)
            .map(|i| if i % 2 == 0 { 32767 } else { -32768 })
            .collect();
        let enc = encode(&input, &mut AdpcmState::default());
        let dec = decode(&enc, 64, &mut AdpcmState::default());
        assert_eq!(dec.len(), 64);
    }

    #[test]
    fn assembly_program_matches_golden_on_vanilla() {
        workload(200).verify_on_vanilla().unwrap();
    }

    #[test]
    fn odd_sample_count_flushes_final_nibble() {
        workload(33).verify_on_vanilla().unwrap();
    }
}
