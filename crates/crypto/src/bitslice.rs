//! The RECTANGLE S-box circuit and the bitsliced engine built on it:
//! many independent 64-bit blocks per pass, pure ALU work, no tables.
//!
//! RECTANGLE was designed for exactly this ("a bit-slice lightweight
//! block cipher", Zhang et al. 2014): the S-box layer applies the same
//! 4-bit boolean function to all 16 columns of the 4×16 state, so it can
//! be evaluated *bitwise* across a whole row at once, and across many
//! blocks at once if rows of independent blocks share a machine word.
//! `sub_column`, derived from the algebraic normal form of
//! [`crate::SBOX`], is therefore the crate's **only** S-box: the scalar
//! [`Rectangle::encrypt_block`] and the key schedule run it on one
//! block's 16-bit rows, the passes below on row words. The passes only
//! encrypt: CTR mode and CBC-MAC never run the inverse permutation, so
//! the inverse circuit `sub_column_inv` serves the scalar
//! [`Rectangle::decrypt_block`] alone. `SBOX`/`SBOX_INV` remain as the
//! specification and the oracle of `tests/kat.rs`.
//!
//! # Layout
//!
//! One `u64` **row word** carries row `r` of [`LANES_PER_WORD`] = 4
//! blocks side by side, each in its own 16-bit sub-lane. A **group** is
//! the four row words of those 4 blocks, and a pass works on a register
//! file of `G` groups — `4·G` independent blocks ciphered together:
//!
//! * **AddRoundKey** — XOR each row word with the 16-bit round-key row
//!   replicated into every sub-lane;
//! * **SubColumn** — `sub_column` over the four row words;
//! * **ShiftRow** — a per-sub-lane 16-bit rotation by 0/1/12/13.
//!
//! Nothing in the round looks across row words, so the pass is generic
//! over the group count ([`LaneWidth`]: 8, 16, 32 or 64 lanes, portable
//! `u64` ops, no intrinsics). Padding lanes cost as much as real ones,
//! so the width is sized to the batch ([`LaneWidth::for_batch`]): a
//! block refill's 7–8 counters take one 8-lane pass, bulk work the width
//! that measured fastest. `tests/bitslice_equiv.rs` pins every width to
//! the scalar path and to each other.

use crate::rectangle::{Rectangle, ROUNDS};

/// Independent blocks carried by one `u64` row word (16-bit sub-lanes).
pub const LANES_PER_WORD: usize = 4;

/// How many independent blocks one bitsliced pass ciphers.
///
/// Purely a host-performance knob: every width produces bit-identical
/// output (lane independence — pinned by the equivalence suite), so the
/// choice never leaks into keystream, MACs or sealed images. There is no
/// default width: the batch APIs pick one per call with
/// [`LaneWidth::for_batch`], and the `_with` variants take it explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaneWidth {
    /// 8 blocks per pass (2 row-word groups) — one block refill's
    /// counters.
    W8,
    /// 16 blocks per pass (4 groups).
    W16,
    /// 32 blocks per pass (8 groups).
    W32,
    /// 64 blocks per pass (16 groups).
    W64,
}

impl LaneWidth {
    /// Every supported width, narrowest first.
    pub const ALL: [LaneWidth; 4] = [
        LaneWidth::W8,
        LaneWidth::W16,
        LaneWidth::W32,
        LaneWidth::W64,
    ];

    /// The width bulk work runs at: the fastest per block on large
    /// batches, measured by the `host` bench's keystream width rows.
    pub const BULK: LaneWidth = LaneWidth::W64;

    /// The width a batch of `n` blocks runs at: the widest pass the batch
    /// fills (at least [`LaneWidth::W8`], at most [`LaneWidth::BULK`]).
    /// Whatever the full passes leave over takes a narrower pass sized
    /// to it in turn, so padding lanes — which cost as much as real ones
    /// — only ever fill out one 8-lane pass.
    pub const fn for_batch(n: usize) -> LaneWidth {
        match n {
            0..=15 => LaneWidth::W8,
            16..=31 => LaneWidth::W16,
            32..=63 => LaneWidth::W32,
            _ => LaneWidth::BULK,
        }
    }

    /// Independent 64-bit blocks ciphered per pass at this width.
    pub const fn lanes(self) -> usize {
        match self {
            LaneWidth::W8 => 8,
            LaneWidth::W16 => 16,
            LaneWidth::W32 => 32,
            LaneWidth::W64 => 64,
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} lanes", self.lanes())
    }
}

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

/// Packs `4·G` blocks into `G` groups of row words.
#[inline]
fn pack<const G: usize>(blocks: &[u64]) -> [[u64; 4]; G] {
    debug_assert_eq!(blocks.len(), LANES_PER_WORD * G);
    let mut st = [[0u64; 4]; G];
    for (g, group) in st.iter_mut().enumerate() {
        for (l, &b) in blocks[g * LANES_PER_WORD..][..LANES_PER_WORD]
            .iter()
            .enumerate()
        {
            for (r, row) in group.iter_mut().enumerate() {
                *row |= ((b >> (16 * r)) & 0xFFFF) << (16 * l);
            }
        }
    }
    st
}

/// Inverse of [`pack`].
#[inline]
fn unpack<const G: usize>(st: &[[u64; 4]; G], blocks: &mut [u64]) {
    debug_assert_eq!(blocks.len(), LANES_PER_WORD * G);
    for (g, group) in st.iter().enumerate() {
        for (l, b) in blocks[g * LANES_PER_WORD..][..LANES_PER_WORD]
            .iter_mut()
            .enumerate()
        {
            *b = (0..4).fold(0, |b, r| b | ((group[r] >> (16 * l)) & 0xFFFF) << (16 * r));
        }
    }
}

/// Encrypts one full pass of `4·G` blocks in place.
fn encrypt_pass<const G: usize>(cipher: &Rectangle, blocks: &mut [u64]) {
    let mut st = pack::<G>(blocks);
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

/// Runs `pass` over `blocks` in chunks of `4·G` lanes. A ragged final
/// chunk goes back through [`encrypt_blocks`] at the narrower width
/// sized to it when one exists; otherwise it is zero-padded to a full
/// pass (padding lanes are ciphered and discarded). Lane independence
/// makes the real lanes bit-identical either way, and to every other
/// width's.
fn drive<const G: usize>(cipher: &Rectangle, blocks: &mut [u64], pass: fn(&Rectangle, &mut [u64])) {
    let lanes = LANES_PER_WORD * G;
    let mut chunks = blocks.chunks_exact_mut(lanes);
    for chunk in &mut chunks {
        pass(cipher, chunk);
    }
    let rem = chunks.into_remainder();
    let tail = LaneWidth::for_batch(rem.len());
    if rem.is_empty() {
    } else if tail.lanes() < lanes {
        encrypt_blocks(cipher, rem, tail);
    } else {
        let mut buf = [0u64; 64];
        buf[..rem.len()].copy_from_slice(rem);
        pass(cipher, &mut buf[..lanes]);
        rem.copy_from_slice(&buf[..rem.len()]);
    }
}

pub(crate) fn encrypt_blocks(cipher: &Rectangle, blocks: &mut [u64], width: LaneWidth) {
    match width {
        LaneWidth::W8 => drive::<2>(cipher, blocks, encrypt_pass::<2>),
        LaneWidth::W16 => drive::<4>(cipher, blocks, encrypt_pass::<4>),
        LaneWidth::W32 => drive::<8>(cipher, blocks, encrypt_pass::<8>),
        LaneWidth::W64 => drive::<16>(cipher, blocks, encrypt_pass::<16>),
    }
}

#[cfg(test)]
mod tests {
    use super::LaneWidth;
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
    fn full_pass_matches_scalar_on_all_lanes_at_every_width() {
        let cipher = Rectangle::new(&Key80::from_seed(0xB175));
        let mut x = crate::util::SplitMix64::new(3);
        for width in LaneWidth::ALL {
            let blocks: Vec<u64> = (0..width.lanes()).map(|_| x.next_u64()).collect();
            let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
            let mut enc = blocks;
            super::encrypt_blocks(&cipher, &mut enc, width);
            assert_eq!(enc, expect, "{width}");
        }
    }

    #[test]
    fn ragged_batches_match_scalar_at_every_width() {
        let cipher = Rectangle::new(&Key80::from_seed(0x7A11));
        let mut x = crate::util::SplitMix64::new(9);
        for width in LaneWidth::ALL {
            for n in [0usize, 1, 3, 4, 15, 16, 17, 31, 33, 63, 65, 100] {
                let blocks: Vec<u64> = (0..n).map(|_| x.next_u64()).collect();
                let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
                let mut got = blocks;
                super::encrypt_blocks(&cipher, &mut got, width);
                assert_eq!(got, expect, "{width}, batch of {n}");
            }
        }
    }
}
