//! The RECTANGLE S-box circuit and the bitsliced engine built on it:
//! eight independent 64-bit blocks per pass, pure ALU work, no tables.
//!
//! RECTANGLE was designed for exactly this ("a bit-slice lightweight
//! block cipher", Zhang et al. 2014): the S-box layer applies the same
//! 4-bit boolean function to all 16 columns of the 4×16 state, so it can
//! be evaluated *bitwise* across a whole row at once, and across many
//! blocks at once if rows of independent blocks share a machine word.
//! `sub_column`, derived from the algebraic normal form of
//! [`crate::SBOX`], is therefore the crate's **only** S-box: the scalar
//! [`Rectangle::encrypt_block`] and the key schedule run it on one
//! block's 16-bit rows, the pass below on row words. The pass only
//! encrypts: CTR mode and CBC-MAC never run the inverse permutation, so
//! the inverse circuit `sub_column_inv` serves the scalar
//! [`Rectangle::decrypt_block`] alone. `SBOX`/`SBOX_INV` remain as the
//! specification and the oracle of `tests/kat.rs`.
//!
//! # Layout
//!
//! One `u64` **row word** carries row `r` of [`LANES_PER_WORD`] = 4
//! blocks side by side, each in its own 16-bit sub-lane. A **group** is
//! the four row words of those 4 blocks, and a pass ciphers two groups:
//! 8 independent blocks, one block refill's counters. A round is:
//!
//! * **AddRoundKey** — XOR each row word with the 16-bit round-key row
//!   replicated into every sub-lane;
//! * **SubColumn** — `sub_column` over the four row words;
//! * **ShiftRow** — a per-sub-lane 16-bit rotation by 0/1/12/13.
//!
//! Portable `u64` ops, no intrinsics. A batch runs through the pass in
//! chunks of 8; the last chunk's missing lanes are zero, ciphered and
//! discarded. `tests/bitslice_equiv.rs` pins the batch APIs to the
//! scalar path.

use crate::rectangle::{Rectangle, ROUNDS};

/// Independent blocks carried by one `u64` row word (16-bit sub-lanes).
pub const LANES_PER_WORD: usize = 4;

/// Row-word groups per pass.
const GROUPS: usize = 2;

/// Independent blocks one bitsliced pass ciphers.
const LANES: usize = LANES_PER_WORD * GROUPS;

/// Replication mask: one copy of a 16-bit row per sub-lane.
const LANE1: u64 = 0x0001_0001_0001_0001;

/// Rotates each 16-bit sub-lane of `x` left by `k` (1 ≤ k < 16).
#[inline(always)]
fn rotl16(x: u64, k: u32) -> u64 {
    let hi = ((0xFFFFu64 << k) & 0xFFFF) * LANE1;
    let lo = (0xFFFF >> (16 - k)) * LANE1;
    ((x << k) & hi) | ((x >> (16 - k)) & lo)
}

/// The RECTANGLE S-box as a bitwise boolean circuit (ANF of
/// [`crate::SBOX`]): inputs/outputs are row words, bit-position-wise.
#[inline(always)]
pub(crate) fn sub_column([x0, x1, x2, x3]: [u64; 4]) -> [u64; 4] {
    let t01 = x0 & x1;
    let t02 = x0 & x2;
    let t12 = x1 & x2;
    let y0 = x0 ^ t01 ^ x2 ^ x3;
    let y1 = !(x0 ^ x1 ^ x2 ^ (x1 & x3));
    let y2 = !(t01 ^ x2 ^ t02 ^ t12 ^ (t01 & x2) ^ x3 ^ (x2 & x3));
    let y3 = x1 ^ t02 ^ t12 ^ x3 ^ (x0 & x3) ^ (t12 & x3);
    [y0, y1, y2, y3]
}

/// The inverse S-box circuit (ANF of [`crate::SBOX_INV`]), for the
/// scalar [`Rectangle::decrypt_block`].
#[inline(always)]
pub(crate) fn sub_column_inv([x0, x1, x2, x3]: [u64; 4]) -> [u64; 4] {
    let t01 = x0 & x1;
    let t13 = x1 & x3;
    let t23 = x2 & x3;
    let y0 = !(x0 ^ x2 ^ (t01 & x2) ^ x3 ^ t13 ^ t23);
    let y1 = x1 ^ x2 ^ (x0 & x2) ^ (x0 & x3);
    let y2 = x0 ^ x1 ^ x2 ^ x3 ^ (x0 & x3);
    let y3 = !(x0 ^ t01 ^ (x1 & x2) ^ t13 ^ (t01 & x3) ^ t23);
    [y0, y1, y2, y3]
}

/// XORs one round key's four 16-bit rows, replicated into every
/// sub-lane, into a group's row words.
#[inline(always)]
fn add_key(s: [u64; 4], rk: &[u16; 4]) -> [u64; 4] {
    std::array::from_fn(|r| s[r] ^ (rk[r] as u64 * LANE1))
}

/// Packs one pass's blocks into row-word groups.
#[inline]
fn pack(blocks: &[u64; LANES]) -> [[u64; 4]; GROUPS] {
    let mut st = [[0u64; 4]; GROUPS];
    for (i, &b) in blocks.iter().enumerate() {
        let l = i % LANES_PER_WORD;
        for (r, row) in st[i / LANES_PER_WORD].iter_mut().enumerate() {
            *row |= ((b >> (16 * r)) & 0xFFFF) << (16 * l);
        }
    }
    st
}

/// Inverse of [`pack`].
#[inline]
fn unpack(st: &[[u64; 4]; GROUPS], blocks: &mut [u64; LANES]) {
    for (i, b) in blocks.iter_mut().enumerate() {
        let (group, l) = (&st[i / LANES_PER_WORD], i % LANES_PER_WORD);
        *b = (0..4).fold(0, |b, r| b | ((group[r] >> (16 * l)) & 0xFFFF) << (16 * r));
    }
}

/// Encrypts one pass of `LANES` blocks in place.
fn encrypt_pass(cipher: &Rectangle, blocks: &mut [u64; LANES]) {
    let mut st = pack(blocks);
    for rk in &cipher.round_keys[..ROUNDS] {
        for s in &mut st {
            let y = sub_column(add_key(*s, rk));
            *s = [y[0], rotl16(y[1], 1), rotl16(y[2], 12), rotl16(y[3], 13)];
        }
    }
    for s in &mut st {
        *s = add_key(*s, &cipher.round_keys[ROUNDS]);
    }
    unpack(&st, blocks);
}

/// Encrypts `blocks` in place, one pass per chunk of `LANES`; a short
/// last chunk is zero-padded to a full pass.
pub(crate) fn encrypt_blocks(cipher: &Rectangle, blocks: &mut [u64]) {
    for chunk in blocks.chunks_mut(LANES) {
        let mut pass = [0u64; LANES];
        pass[..chunk.len()].copy_from_slice(chunk);
        encrypt_pass(cipher, &mut pass);
        chunk.copy_from_slice(&pass[..chunk.len()]);
    }
}

#[cfg(test)]
mod tests {
    use crate::{Key80, Rectangle, SBOX, SBOX_INV};

    /// The boolean circuits agree with the spec tables on every input,
    /// in every sub-lane position.
    #[test]
    fn circuits_match_sbox_tables() {
        // Input nibble `v` at several bit positions at once.
        const POSITIONS: [u32; 5] = [0, 7, 16, 37, 63];
        let spread = |bit: u64| POSITIONS.iter().fold(0, |x, &p| x | (bit & 1) << p);
        let gather = |y: [u64; 4], pos: u32| (0..4).fold(0, |v, r| v | ((y[r] >> pos) & 1) << r);
        for v in 0..16u64 {
            let x = std::array::from_fn(|r| spread(v >> r));
            let (fwd, inv) = (super::sub_column(x), super::sub_column_inv(x));
            for pos in POSITIONS {
                assert_eq!(
                    gather(fwd, pos),
                    SBOX[v as usize] as u64,
                    "fwd input {v} pos {pos}"
                );
                assert_eq!(
                    gather(inv, pos),
                    SBOX_INV[v as usize] as u64,
                    "inv input {v} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn rotl16_rotates_each_lane_independently() {
        let x = 0x8001_4002_2004_1008u64;
        let rot = super::rotl16(x, 1);
        for lane in 0..4 {
            let orig = ((x >> (16 * lane)) & 0xFFFF) as u16;
            let got = ((rot >> (16 * lane)) & 0xFFFF) as u16;
            assert_eq!(got, orig.rotate_left(1), "lane {lane}");
        }
    }

    #[test]
    fn full_pass_matches_scalar_on_all_lanes() {
        let cipher = Rectangle::new(&Key80::from_seed(0xB175));
        let mut x = crate::util::SplitMix64::new(3);
        let blocks: Vec<u64> = (0..super::LANES).map(|_| x.next_u64()).collect();
        let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
        let mut enc = blocks;
        super::encrypt_blocks(&cipher, &mut enc);
        assert_eq!(enc, expect);
    }

    #[test]
    fn ragged_batches_match_scalar() {
        let cipher = Rectangle::new(&Key80::from_seed(0x7A11));
        let mut x = crate::util::SplitMix64::new(9);
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65, 100] {
            let blocks: Vec<u64> = (0..n).map(|_| x.next_u64()).collect();
            let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
            let mut got = blocks;
            super::encrypt_blocks(&cipher, &mut got);
            assert_eq!(got, expect, "batch of {n}");
        }
    }
}
