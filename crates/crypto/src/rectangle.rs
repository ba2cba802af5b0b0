//! The RECTANGLE lightweight block cipher (64-bit block, 80-bit key).
//!
//! RECTANGLE (Zhang et al., 2014 — reference [35] of the SOFIA paper)
//! operates on a 4×16 bit-matrix state with 25 rounds of
//! AddRoundKey → SubColumn → ShiftRow plus a final AddRoundKey.
//! SOFIA uses it both in CTR mode (instruction encryption, key `k1`) and
//! as the CBC-MAC block cipher (keys `k2`/`k3`).
//!
//! The state mapping used here: bit `i` of the 64-bit block is bit
//! `i % 16` of row `i / 16` (row 0 holds the 16 least-significant bits).
//! The implementation follows the published specification (ShiftRow
//! offsets 0/1/12/13, 5-bit LFSR round constants, 80-bit key schedule),
//! evaluates the S-box as the bitwise circuit of [`crate::bitslice`], and
//! is pinned to a column-by-column reference and known answers
//! (`tests/kat.rs`) besides the structural tests below.

use crate::bitslice;

/// The RECTANGLE S-box applied to each 4-bit column.
pub const SBOX: [u8; 16] = [
    0x6, 0x5, 0xC, 0xA, 0x1, 0xE, 0x7, 0x9, 0xB, 0x0, 0x3, 0xD, 0x8, 0xF, 0x4, 0x2,
];

/// The inverse of [`SBOX`].
pub const SBOX_INV: [u8; 16] = {
    let mut inv = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Number of cipher rounds.
pub const ROUNDS: usize = 25;

/// Cycles per cipher operation for the iterated (one-round-per-cycle)
/// hardware implementation (25 rounds + final key add ≈ 26, as the paper
/// states: "requires 26 cycles").
pub const CYCLES_ITERATED: u32 = 26;

/// Cycles per cipher operation after the 13× unrolling the paper applies
/// ("the cipher was unrolled to require only two cycles").
pub const CYCLES_UNROLLED_13: u32 = 2;

/// An 80-bit RECTANGLE key.
///
/// # Examples
///
/// ```
/// use sofia_crypto::{Key80, Rectangle};
///
/// let key = Key80::from_bytes([0x42; 10]);
/// let cipher = Rectangle::new(&key);
/// let ct = cipher.encrypt_block(0x0123_4567_89AB_CDEF);
/// assert_eq!(cipher.decrypt_block(ct), 0x0123_4567_89AB_CDEF);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key80([u8; 10]);

impl Key80 {
    /// Creates a key from 10 raw bytes.
    pub const fn from_bytes(bytes: [u8; 10]) -> Key80 {
        Key80(bytes)
    }

    /// Deterministically derives a key from a 64-bit seed (SplitMix64).
    ///
    /// Used throughout the test-suite and benches; production deployments
    /// of SOFIA would provision device-unique keys instead.
    pub fn from_seed(seed: u64) -> Key80 {
        let mut s = crate::util::SplitMix64::new(seed);
        let a = s.next_u64().to_le_bytes();
        let b = s.next_u64().to_le_bytes();
        let mut bytes = [0u8; 10];
        bytes[..8].copy_from_slice(&a);
        bytes[8..].copy_from_slice(&b[..2]);
        Key80(bytes)
    }

    /// The raw key bytes.
    pub const fn as_bytes(&self) -> &[u8; 10] {
        &self.0
    }
}

impl std::fmt::Debug for Key80 {
    /// Redacted: keys are embedded device secrets in SOFIA's threat model
    /// ("known only by the software provider"), so they never appear in
    /// debug output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Key80(<redacted>)")
    }
}

/// The S-box layer on one block's four 16-bit rows: `circuit` (the
/// bitwise circuit [`bitslice::sub_column`] or its inverse) evaluated on
/// the rows widened to row words, truncated back to 16 bits.
#[inline(always)]
fn sub_rows(rows: [u16; 4], circuit: fn([u64; 4]) -> [u64; 4]) -> [u16; 4] {
    circuit(rows.map(u64::from)).map(|y| y as u16)
}

#[inline(always)]
fn add_round_key(rows: [u16; 4], rk: &[u16; 4]) -> [u16; 4] {
    std::array::from_fn(|r| rows[r] ^ rk[r])
}

#[inline]
fn block_to_rows(block: u64) -> [u16; 4] {
    [
        block as u16,
        (block >> 16) as u16,
        (block >> 32) as u16,
        (block >> 48) as u16,
    ]
}

#[inline]
fn rows_to_block(rows: [u16; 4]) -> u64 {
    rows[0] as u64 | ((rows[1] as u64) << 16) | ((rows[2] as u64) << 32) | ((rows[3] as u64) << 48)
}

/// The next 5-bit round constant from the LFSR
/// (`new_bit = rc4 ⊕ rc2`, shift left).
#[inline]
fn next_rc(rc: u8) -> u8 {
    ((rc << 1) | (((rc >> 4) ^ (rc >> 2)) & 1)) & 0x1F
}

/// A RECTANGLE-80 instance with a fully expanded key schedule.
///
/// Construction expands the 80-bit key into 26 round keys once; block
/// operations are then allocation-free.
///
/// # Examples
///
/// ```
/// use sofia_crypto::{Key80, Rectangle};
///
/// let cipher = Rectangle::new(&Key80::from_seed(7));
/// // A PRP: different plaintexts map to different ciphertexts.
/// assert_ne!(cipher.encrypt_block(0), cipher.encrypt_block(1));
/// ```
#[derive(Clone)]
pub struct Rectangle {
    pub(crate) round_keys: [[u16; 4]; ROUNDS + 1],
}

impl Rectangle {
    /// Expands `key` and returns a ready-to-use cipher instance.
    pub fn new(key: &Key80) -> Rectangle {
        // Key state: 5 rows of 16 bits, row 0 = least-significant bytes.
        let kb = key.as_bytes();
        let mut v = [0u16; 5];
        for (i, row) in v.iter_mut().enumerate() {
            *row = u16::from_le_bytes([kb[2 * i], kb[2 * i + 1]]);
        }
        let mut round_keys = [[0u16; 4]; ROUNDS + 1];
        let mut rc: u8 = 0x01;
        for (i, rk) in round_keys.iter_mut().enumerate() {
            *rk = [v[0], v[1], v[2], v[3]];
            if i == ROUNDS {
                break;
            }
            // S-box on the 4 rightmost columns of rows 0..3.
            let y = sub_rows([v[0], v[1], v[2], v[3]], bitslice::sub_column);
            let s: [u16; 4] = std::array::from_fn(|r| (v[r] & !0xF) | (y[r] & 0xF));
            // Generalised Feistel.
            v = [
                s[0].rotate_left(8) ^ s[1],
                s[2],
                s[3],
                s[3].rotate_left(12) ^ v[4],
                s[0],
            ];
            // Round constant into the 5 LSBs of row 0.
            v[0] ^= rc as u16;
            rc = next_rc(rc);
        }
        Rectangle { round_keys }
    }

    /// Encrypts one 64-bit block.
    #[inline]
    pub fn encrypt_block(&self, block: u64) -> u64 {
        let mut rows = block_to_rows(block);
        for rk in &self.round_keys[..ROUNDS] {
            let y = sub_rows(add_round_key(rows, rk), bitslice::sub_column);
            // ShiftRow.
            rows = [
                y[0],
                y[1].rotate_left(1),
                y[2].rotate_left(12),
                y[3].rotate_left(13),
            ];
        }
        rows_to_block(add_round_key(rows, &self.round_keys[ROUNDS]))
    }

    /// Decrypts one 64-bit block (the inverse of [`Rectangle::encrypt_block`]).
    ///
    /// Not used on SOFIA's data path — CTR and CBC-MAC only ever run the
    /// forward permutation — but provided for API completeness and used by
    /// the round-trip tests.
    #[inline]
    pub fn decrypt_block(&self, block: u64) -> u64 {
        let mut rows = add_round_key(block_to_rows(block), &self.round_keys[ROUNDS]);
        for rk in self.round_keys[..ROUNDS].iter().rev() {
            let unshifted = [
                rows[0],
                rows[1].rotate_right(1),
                rows[2].rotate_right(12),
                rows[3].rotate_right(13),
            ];
            rows = add_round_key(sub_rows(unshifted, bitslice::sub_column_inv), rk);
        }
        rows_to_block(rows)
    }

    /// Encrypts a batch of independent 64-bit blocks in place through the
    /// bitsliced engine ([`crate::bitslice`]), eight blocks per pass.
    /// Bit-identical to mapping [`Rectangle::encrypt_block`] over the
    /// slice (pinned by the equivalence suite), several times faster.
    pub fn encrypt_blocks(&self, blocks: &mut [u64]) {
        bitslice::encrypt_blocks(self, blocks);
    }
}

impl std::fmt::Debug for Rectangle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Rectangle(<key schedule redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 16];
        for &v in &SBOX {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        for (i, &v) in SBOX.iter().enumerate() {
            assert_eq!(SBOX_INV[v as usize], i as u8);
        }
    }

    #[test]
    fn round_constants_match_published_sequence() {
        // First constants listed in the RECTANGLE specification.
        let expected = [0x01, 0x02, 0x04, 0x09, 0x12, 0x05, 0x0B, 0x16, 0x0C, 0x19];
        let mut rc: u8 = 0x01;
        for &e in &expected {
            assert_eq!(rc, e);
            rc = next_rc(rc);
        }
        // The LFSR has full period over its 25 uses: no repeats.
        let mut seen = std::collections::HashSet::new();
        let mut rc: u8 = 0x01;
        for _ in 0..ROUNDS {
            assert!(seen.insert(rc), "round constant repeated");
            rc = next_rc(rc);
        }
    }

    proptest! {
        #[test]
        fn encrypt_decrypt_roundtrip(key in any::<u64>(), block in any::<u64>()) {
            let cipher = Rectangle::new(&Key80::from_seed(key));
            prop_assert_eq!(cipher.decrypt_block(cipher.encrypt_block(block)), block);
        }

        #[test]
        fn different_keys_differ(block in any::<u64>()) {
            let a = Rectangle::new(&Key80::from_seed(1));
            let b = Rectangle::new(&Key80::from_seed(2));
            prop_assert_ne!(a.encrypt_block(block), b.encrypt_block(block));
        }
    }

    #[test]
    fn avalanche_on_plaintext() {
        // Flipping one plaintext bit flips on average ~32 of 64 ciphertext
        // bits; allow a generous statistical band.
        let cipher = Rectangle::new(&Key80::from_seed(99));
        let mut total = 0u32;
        let trials = 256;
        let mut x = crate::util::SplitMix64::new(7);
        for _ in 0..trials {
            let p = x.next_u64();
            let bit = 1u64 << (x.next_u64() % 64);
            total += (cipher.encrypt_block(p) ^ cipher.encrypt_block(p ^ bit)).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!((24.0..40.0).contains(&avg), "avalanche average {avg}");
    }

    #[test]
    fn avalanche_on_key() {
        let mut x = crate::util::SplitMix64::new(13);
        let mut total = 0u32;
        let trials = 128;
        for _ in 0..trials {
            let mut ka = [0u8; 10];
            for b in &mut ka {
                *b = x.next_u64() as u8;
            }
            let mut kb = ka;
            let bitpos = (x.next_u64() % 80) as usize;
            kb[bitpos / 8] ^= 1 << (bitpos % 8);
            let p = x.next_u64();
            let a = Rectangle::new(&Key80::from_bytes(ka)).encrypt_block(p);
            let b = Rectangle::new(&Key80::from_bytes(kb)).encrypt_block(p);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!((24.0..40.0).contains(&avg), "key avalanche average {avg}");
    }

    #[test]
    fn encryption_is_not_identity_or_xor() {
        let cipher = Rectangle::new(&Key80::from_seed(3));
        let c0 = cipher.encrypt_block(0);
        let c1 = cipher.encrypt_block(1);
        assert_ne!(c0, 0);
        // A pure XOR cipher (the ASIST weakness cited in the paper) would
        // satisfy c1 == c0 ^ 1; RECTANGLE must not.
        assert_ne!(c1, c0 ^ 1);
    }

    #[test]
    fn row_circuit_matches_scalar_sbox() {
        // Spot-check the S-box layer on 16-bit rows against a direct
        // per-column lookup in the spec table.
        let mut x = crate::util::SplitMix64::new(21);
        for _ in 0..200 {
            let rows = [
                x.next_u64() as u16,
                x.next_u64() as u16,
                x.next_u64() as u16,
                x.next_u64() as u16,
            ];
            let mut expect = [0u16; 4];
            for j in 0..16 {
                let v = ((rows[0] >> j) & 1)
                    | (((rows[1] >> j) & 1) << 1)
                    | (((rows[2] >> j) & 1) << 2)
                    | (((rows[3] >> j) & 1) << 3);
                let w = SBOX[v as usize] as u16;
                for (r, e) in expect.iter_mut().enumerate() {
                    *e |= ((w >> r) & 1) << j;
                }
            }
            assert_eq!(sub_rows(rows, bitslice::sub_column), expect);
            assert_eq!(sub_rows(expect, bitslice::sub_column_inv), rows);
        }
    }

    #[test]
    fn key_debug_is_redacted() {
        let k = Key80::from_seed(5);
        assert_eq!(format!("{k:?}"), "Key80(<redacted>)");
    }
}
