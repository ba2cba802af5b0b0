//! The spec oracle and known-answer vectors for RECTANGLE-80.
//!
//! The scalar cipher and the bitsliced engine evaluate the *same* S-box
//! circuit, so `bitslice_equiv.rs` (which pins one against the other)
//! cannot catch a bug the two share. This suite closes that gap twice:
//!
//! * [`reference`] is a slow RECTANGLE written straight from the
//!   specification: the 16-entry [`SBOX`] looked up one column at a time,
//!   its own key schedule and its own round constants. It shares no code
//!   with the crate beyond the two S-box constants, and the properties
//!   below pin `encrypt_block`, `decrypt_block` and the bitsliced
//!   `encrypt_blocks` to it.
//! * The known-answer vectors were recorded from the table-driven scalar
//!   cipher this crate shipped before the circuit replaced it. They pin
//!   raw blocks, one block refill's CTR keystream, one CBC-MAC and the
//!   FNV-64 of a whole sealed program, so no refactor of the cipher can
//!   move a single ciphertext bit unnoticed.

use proptest::prelude::*;
use sofia_crypto::{
    ctr, mac, CounterBlock, Key80, KeySet, Mac64, Nonce, Rectangle, ROUNDS, SBOX, SBOX_INV,
};

/// RECTANGLE-80 from the specification, one column at a time.
mod reference {
    use super::{Key80, ROUNDS, SBOX, SBOX_INV};

    /// Applies `sbox` to the columns of `rows` selected by `cols`.
    fn sub_columns(rows: [u16; 4], sbox: &[u8; 16], cols: std::ops::Range<u32>) -> [u16; 4] {
        let mut out = rows;
        for col in cols {
            let input = (0..4).fold(0usize, |v, r| v | (((rows[r] >> col) & 1) as usize) << r);
            let output = sbox[input] as u16;
            for (r, row) in out.iter_mut().enumerate() {
                *row = (*row & !(1 << col)) | (((output >> r) & 1) << col);
            }
        }
        out
    }

    /// ShiftRow offsets of rows 0..3.
    const SHIFTS: [u32; 4] = [0, 1, 12, 13];

    /// The 26 round keys of the 80-bit key schedule.
    pub fn round_keys(key: &Key80) -> Vec<[u16; 4]> {
        let kb = key.as_bytes();
        let mut v: [u16; 5] =
            std::array::from_fn(|i| u16::from_le_bytes([kb[2 * i], kb[2 * i + 1]]));
        let mut rc: u16 = 0x01;
        let mut keys = Vec::with_capacity(ROUNDS + 1);
        for round in 0..=ROUNDS {
            keys.push([v[0], v[1], v[2], v[3]]);
            if round == ROUNDS {
                break;
            }
            let s = sub_columns([v[0], v[1], v[2], v[3]], &SBOX, 0..4);
            v = [
                s[0].rotate_left(8) ^ s[1],
                s[2],
                s[3],
                s[3].rotate_left(12) ^ v[4],
                s[0],
            ];
            v[0] ^= rc;
            rc = ((rc << 1) | (((rc >> 4) ^ (rc >> 2)) & 1)) & 0x1F;
        }
        keys
    }

    fn rows(block: u64) -> [u16; 4] {
        std::array::from_fn(|r| (block >> (16 * r)) as u16)
    }

    fn block(rows: [u16; 4]) -> u64 {
        rows.iter()
            .enumerate()
            .fold(0, |b, (r, &row)| b | (row as u64) << (16 * r))
    }

    fn add_key(rows: &mut [u16; 4], key: &[u16; 4]) {
        for (row, k) in rows.iter_mut().zip(key) {
            *row ^= k;
        }
    }

    pub fn encrypt(key: &Key80, plain: u64) -> u64 {
        let keys = round_keys(key);
        let mut st = rows(plain);
        for rk in &keys[..ROUNDS] {
            add_key(&mut st, rk);
            st = sub_columns(st, &SBOX, 0..16);
            for (row, &k) in st.iter_mut().zip(&SHIFTS) {
                *row = row.rotate_left(k);
            }
        }
        add_key(&mut st, &keys[ROUNDS]);
        block(st)
    }

    pub fn decrypt(key: &Key80, cipher: u64) -> u64 {
        let keys = round_keys(key);
        let mut st = rows(cipher);
        add_key(&mut st, &keys[ROUNDS]);
        for rk in keys[..ROUNDS].iter().rev() {
            for (row, &k) in st.iter_mut().zip(&SHIFTS) {
                *row = row.rotate_right(k);
            }
            st = sub_columns(st, &SBOX_INV, 0..16);
            add_key(&mut st, rk);
        }
        block(st)
    }
}

/// FNV-1a, 64-bit, over the little-endian bytes of `words`.
fn fnv64(words: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

proptest! {
    /// Scalar encryption and decryption equal the spec oracle.
    #[test]
    fn scalar_matches_reference(seed in any::<u64>(), block in any::<u64>()) {
        let key = Key80::from_seed(seed);
        let cipher = Rectangle::new(&key);
        let ct = reference::encrypt(&key, block);
        prop_assert_eq!(cipher.encrypt_block(block), ct);
        prop_assert_eq!(cipher.decrypt_block(ct), block);
        prop_assert_eq!(reference::decrypt(&key, ct), block);
    }

    /// The bitsliced batch path equals the spec oracle, across and
    /// between 8-lane passes.
    #[test]
    fn batch_pass_matches_reference(
        seed in any::<u64>(),
        blocks in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let key = Key80::from_seed(seed);
        let cipher = Rectangle::new(&key);
        let expect: Vec<u64> = blocks.iter().map(|&b| reference::encrypt(&key, b)).collect();
        let mut got = blocks;
        cipher.encrypt_blocks(&mut got);
        prop_assert_eq!(got, expect);
    }
}

/// `(key seed, plaintext, ciphertext)` triples.
const BLOCK_KATS: [(u64, u64, u64); 8] = [
    (0, 0, 0x9BFB_F5BD_6DA9_8F4E),
    (0, u64::MAX, 0x12AD_ED1B_48DC_6693),
    (1, 0x0123_4567_89AB_CDEF, 0x919E_1C9D_A42A_E3AF),
    (7, 1, 0xD64C_5076_E2D2_ED8A),
    (0x42, 0xDEAD_BEEF_0000_0001, 0x1135_F558_63D7_1ACA),
    (0xC0FFEE, 0x8000_0000_0000_0000, 0x3505_C2C4_DE60_2251),
    (0xF00D, 0x0000_0000_FFFF_FFFF, 0x804B_BC80_5F87_82F9),
    (u64::MAX, 0x5555_AAAA_3333_CCCC, 0x8EFC_2193_B769_1491),
];

#[test]
fn block_known_answers() {
    for &(seed, plain, expect) in &BLOCK_KATS {
        let key = Key80::from_seed(seed);
        let cipher = Rectangle::new(&key);
        assert_eq!(
            cipher.encrypt_block(plain),
            expect,
            "seed {seed:#x}, block {plain:#018x}"
        );
        assert_eq!(
            cipher.decrypt_block(expect),
            plain,
            "seed {seed:#x}, block {expect:#018x}"
        );
        assert_eq!(
            reference::encrypt(&key, plain),
            expect,
            "reference, seed {seed:#x}"
        );
    }
}

/// The 8 counters of one execution-block refill at `0x100` entered from
/// reset: M1 on the entry edge, then every word chained from the last.
fn refill_counters() -> Vec<CounterBlock> {
    let nonce = Nonce::new(0x5AFE);
    (0..8u32)
        .map(|w| {
            let pc = 0x100 + 4 * w;
            let prev = if w == 0 { 0 } else { pc - 4 };
            CounterBlock::from_edge(nonce, prev, pc)
        })
        .collect()
}

const REFILL_PADS: [u32; 8] = [
    0x8DBB_0FBC,
    0xD6E7_75B6,
    0x956A_EB4F,
    0x7FFC_FF69,
    0x8401_2626,
    0x4F13_F2CD,
    0x62F5_6626,
    0x9628_1DFE,
];

#[test]
fn refill_keystream_known_answer() {
    let keys = KeySet::from_seed(0xF00D).expand();
    let counters = refill_counters();
    assert_eq!(ctr::pads(&keys.ctr, &counters), REFILL_PADS);
    for (&c, &pad) in counters.iter().zip(&REFILL_PADS) {
        assert_eq!(ctr::pad(&keys.ctr, c), pad);
    }
}

const MAC_KAT: u64 = 0xC189_9601_610D_3F08;

#[test]
fn mac_known_answer() {
    let keys = KeySet::from_seed(0xF00D).expand();
    let words = [0x0120_8825, 0xDEAD_BEEF, 0, 0xFFFF_FFFF, 0x1234_5678];
    let got = mac::mac_words(&keys.mac_exec, &words, 6);
    assert_eq!(got, Mac64::new(MAC_KAT));
    assert_eq!(
        mac::mac_words_batch(&keys.mac_exec, &[&words[..]], 6),
        vec![got]
    );
}

/// An iterative Fibonacci program, sealed under fixed keys.
const FIB: &str = "
.equ OUT, 0xFFFF0000
.text
.global main
main:
    li   t0, 24
    li   t1, 0
    li   t2, 1
fib_loop:
    beqz t0, fib_done
    add  t3, t1, t2
    mv   t1, t2
    mv   t2, t3
    subi t0, t0, 1
    b    fib_loop
fib_done:
    li   t4, OUT
    sw   t1, 0(t4)
    halt
";

const FIB_CTEXT_FNV: u64 = 0xFE70_5214_9055_B6BF;

#[test]
fn sealed_fib_known_answer() {
    let module = sofia_isa::asm::parse(FIB).expect("fib assembles");
    let image = sofia_transform::Transformer::new(KeySet::from_seed(0xF1B))
        .transform(&module)
        .expect("fib seals");
    assert_eq!(
        fnv64(&image.ctext),
        FIB_CTEXT_FNV,
        "{} words",
        image.ctext.len()
    );
}

/// A program whose function has three callers, so the installer emits
/// multiplexor blocks and their trees beside the execution blocks.
const MULTI_CALLER: &str = "
main: li s0, 0
      jal f
      jal f
      jal f
loop: subi s0, s0, 1
      bnez s0, loop
      halt
f:    addi s0, s0, 2
      ret
";

/// Recorded before the one-block-per-call seal path was removed; that
/// path and the batched one both sealed this value.
const MULTI_CALLER_CTEXT_FNV: u64 = 0x03A5_847E_EAE3_53A6;

#[test]
fn sealed_multi_caller_known_answer() {
    let module = sofia_isa::asm::parse(MULTI_CALLER).expect("multi-caller assembles");
    let image = sofia_transform::Transformer::new(KeySet::from_seed(0x5EA1))
        .transform(&module)
        .expect("multi-caller seals");
    assert!(image.report.mux_blocks >= 1, "{:?}", image.report);
    assert_eq!(
        fnv64(&image.ctext),
        MULTI_CALLER_CTEXT_FNV,
        "{} words",
        image.ctext.len()
    );
}
