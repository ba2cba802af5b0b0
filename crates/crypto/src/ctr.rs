//! Control-flow-bound CTR-mode encryption (Algorithm 1 of the paper).
//!
//! Each 32-bit word of the program is XORed with a 32-bit pad derived from
//! `E_k1(I)`, where the counter `I = {ω ‖ prevPC ‖ PC}` encodes the
//! control-flow *edge* that legitimately reaches the word. Taking an edge
//! absent from the static CFG therefore decrypts the destination word with
//! the wrong counter, producing noise — the core of SOFIA's CFI mechanism.

use crate::{Nonce, Rectangle};

/// Number of address bits kept per program counter inside a counter block.
///
/// Word addresses are used, so 24 bits cover 64 MiB of text.
pub const PC_BITS: u32 = 24;

/// A 64-bit CTR counter block `{ω(16) ‖ prevPC(24) ‖ PC(24)}`.
///
/// `prevPC`/`PC` are stored as *word* addresses (byte address ÷ 4).
///
/// # Examples
///
/// ```
/// use sofia_crypto::{CounterBlock, Nonce};
///
/// let i = CounterBlock::from_edge(Nonce::new(7), 0x100, 0x104);
/// assert_eq!(i.nonce(), Nonce::new(7));
/// assert_eq!(i.prev_pc(), 0x100);
/// assert_eq!(i.pc(), 0x104);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CounterBlock(u64);

impl CounterBlock {
    /// Builds a counter from a control-flow edge given as *byte* addresses.
    ///
    /// # Panics
    ///
    /// Panics if either address is not word-aligned or exceeds the 24-bit
    /// word-address space (≥ 64 MiB). The transformer validates program
    /// layout long before this can trigger at run time; edges that come
    /// from outside the sealer go through [`CounterBlock::try_from_edge`].
    pub fn from_edge(nonce: Nonce, prev_pc: u32, pc: u32) -> CounterBlock {
        assert!(prev_pc % 4 == 0 && pc % 4 == 0, "unaligned PC in counter");
        CounterBlock::try_from_edge(nonce, prev_pc, pc)
            .expect("PC outside 24-bit word-address space")
    }

    /// [`CounterBlock::from_edge`], but `None` where that panics. No such
    /// edge can have been sealed; it is never truncated into range, which
    /// would alias it onto one that was.
    ///
    /// # Examples
    ///
    /// ```
    /// use sofia_crypto::{CounterBlock, Nonce};
    ///
    /// let n = Nonce::new(7);
    /// assert!(CounterBlock::try_from_edge(n, 0x100, 0x104).is_some());
    /// assert!(CounterBlock::try_from_edge(n, 0x101, 0x104).is_none());
    /// assert!(CounterBlock::try_from_edge(n, 0x0400_0100, 0x104).is_none());
    /// ```
    pub const fn try_from_edge(nonce: Nonce, prev_pc: u32, pc: u32) -> Option<CounterBlock> {
        let (prev_w, pc_w) = (prev_pc >> 2, pc >> 2);
        if prev_pc % 4 != 0 || pc % 4 != 0 || prev_w >= 1 << PC_BITS || pc_w >= 1 << PC_BITS {
            return None;
        }
        Some(CounterBlock(
            ((nonce.value() as u64) << 48) | ((prev_w as u64) << PC_BITS) | pc_w as u64,
        ))
    }

    /// The raw 64-bit counter value fed to the block cipher.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The nonce field ω.
    pub const fn nonce(self) -> Nonce {
        Nonce::new((self.0 >> 48) as u16)
    }

    /// The previous program counter as a byte address.
    pub const fn prev_pc(self) -> u32 {
        (((self.0 >> PC_BITS) & 0xFF_FFFF) as u32) << 2
    }

    /// The program counter as a byte address.
    pub const fn pc(self) -> u32 {
        ((self.0 & 0xFF_FFFF) as u32) << 2
    }
}

/// Derives the 32-bit keystream pad for one counter: the 32 least
/// significant bits of `E_k1(I)` (the `r` LSBs of `O_i` in Algorithm 1).
#[inline]
pub fn pad(cipher: &Rectangle, counter: CounterBlock) -> u32 {
    cipher.encrypt_block(counter.as_u64()) as u32
}

/// Derives the keystream pads for a whole batch of counters through
/// [`Rectangle::encrypt_blocks`]: bit-identical to mapping [`pad`] over
/// the slice, eight counters per bitsliced pass. A block refill's
/// counters take one pass; sealing a whole image sweeps every counter
/// of the image at once.
pub fn pads(cipher: &Rectangle, counters: &[CounterBlock]) -> Vec<u32> {
    let mut blocks: Vec<u64> = counters.iter().map(|c| c.as_u64()).collect();
    cipher.encrypt_blocks(&mut blocks);
    blocks.into_iter().map(|b| b as u32).collect()
}

/// Encrypts (or decrypts) `words[i]` on the edge `counters[i]` for the
/// whole batch, via one [`pads`] sweep.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn apply_batch(cipher: &Rectangle, counters: &[CounterBlock], words: &mut [u32]) {
    assert_eq!(counters.len(), words.len(), "counter/word length mismatch");
    for (word, pad) in words.iter_mut().zip(pads(cipher, counters)) {
        *word ^= pad;
    }
}

/// Encrypts (or decrypts — XOR is an involution) one instruction word on
/// the control-flow edge `counter`.
///
/// # Examples
///
/// ```
/// use sofia_crypto::{ctr, CounterBlock, Key80, Nonce, Rectangle};
///
/// let cipher = Rectangle::new(&Key80::from_seed(1));
/// let edge = CounterBlock::from_edge(Nonce::new(1), 0x100, 0x104);
/// let ct = ctr::apply(&cipher, edge, 0xDEAD_BEEF);
/// assert_eq!(ctr::apply(&cipher, edge, ct), 0xDEAD_BEEF);
///
/// // A different edge (an invalid control flow) yields a different word.
/// let bad = CounterBlock::from_edge(Nonce::new(1), 0x200, 0x104);
/// assert_ne!(ctr::apply(&cipher, bad, ct), 0xDEAD_BEEF);
/// ```
pub fn apply(cipher: &Rectangle, counter: CounterBlock, word: u32) -> u32 {
    word ^ pad(cipher, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key80;
    use proptest::prelude::*;

    fn cipher() -> Rectangle {
        Rectangle::new(&Key80::from_seed(0xC0FFEE))
    }

    proptest! {
        /// Field packing is lossless for all valid edges.
        #[test]
        fn counter_fields_roundtrip(
            nonce in any::<u16>(),
            prev in 0u32..(1 << 24),
            pc in 0u32..(1 << 24),
        ) {
            let c = CounterBlock::from_edge(Nonce::new(nonce), prev << 2, pc << 2);
            prop_assert_eq!(c.nonce().value(), nonce);
            prop_assert_eq!(c.prev_pc(), prev << 2);
            prop_assert_eq!(c.pc(), pc << 2);
        }

        /// Distinct edges produce distinct counters (injective packing).
        #[test]
        fn distinct_edges_distinct_counters(
            a in (0u32..1 << 24, 0u32..1 << 24),
            b in (0u32..1 << 24, 0u32..1 << 24),
        ) {
            prop_assume!(a != b);
            let ca = CounterBlock::from_edge(Nonce::new(1), a.0 << 2, a.1 << 2);
            let cb = CounterBlock::from_edge(Nonce::new(1), b.0 << 2, b.1 << 2);
            prop_assert_ne!(ca.as_u64(), cb.as_u64());
        }

        /// `try_from_edge` packs exactly the edges `from_edge` accepts:
        /// `forge` bits 0–1 misalign `prevPC`, bit 2 lifts it past the
        /// 24-bit word space.
        #[test]
        fn try_from_edge_agrees_with_from_edge(
            prev in 0u32..1 << 24,
            pc in 0u32..1 << 24,
            forge in 0u32..8,
        ) {
            let prev = (prev << 2) | (forge & 3) | (forge & 4) << 24;
            let c = CounterBlock::try_from_edge(Nonce::new(9), prev, pc << 2);
            prop_assert_eq!(c.is_some(), forge == 0);
            if let Some(c) = c {
                prop_assert_eq!(c, CounterBlock::from_edge(Nonce::new(9), prev, pc << 2));
            }
        }

        /// XOR involution: apply twice restores the word.
        #[test]
        fn apply_is_involution(word in any::<u32>(), prev in 0u32..1024, pc in 0u32..1024) {
            let c = cipher();
            let edge = CounterBlock::from_edge(Nonce::new(3), prev << 2, pc << 2);
            prop_assert_eq!(apply(&c, edge, apply(&c, edge, word)), word);
        }
    }

    #[test]
    fn fig2_wrong_edge_garbles() {
        // Paper Fig. 2: instruction 5 encrypted on edge (2 → 5); taking the
        // invalid edge (1 → 5) must not recover the plaintext.
        let c = cipher();
        let nonce = Nonce::new(0xA5);
        let addr = |i: u32| i * 4;
        let valid = CounterBlock::from_edge(nonce, addr(2), addr(5));
        let invalid = CounterBlock::from_edge(nonce, addr(1), addr(5));
        let plain = 0x0120_8825; // "mov r1, r2" stand-in
        let ct = apply(&c, valid, plain);
        assert_eq!(apply(&c, valid, ct), plain);
        assert_ne!(apply(&c, invalid, ct), plain);
    }

    #[test]
    fn nonce_separates_programs() {
        // Same program, two versions with different ω: ciphertexts differ,
        // providing the paper's cross-version copyright separation.
        let c = cipher();
        let e1 = CounterBlock::from_edge(Nonce::new(1), 0x100, 0x104);
        let e2 = CounterBlock::from_edge(Nonce::new(2), 0x100, 0x104);
        assert_ne!(apply(&c, e1, 0x1234_5678), apply(&c, e2, 0x1234_5678));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_pc_rejected() {
        let _ = CounterBlock::from_edge(Nonce::new(0), 0x101, 0x104);
    }

    #[test]
    #[should_panic(expected = "24-bit")]
    fn oversized_pc_rejected() {
        let _ = CounterBlock::from_edge(Nonce::new(0), 0x0400_0000, 0x104);
    }
}
