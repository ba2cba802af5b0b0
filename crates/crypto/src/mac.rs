//! CBC-MAC over instruction words (ISO/IEC 9797-1 algorithm 1).
//!
//! SOFIA precomputes a 64-bit CBC-MAC over the plaintext instructions of
//! every block and stores it interleaved with the code; the hardware
//! recomputes it over the *decrypted* words at run time (paper §II-B).
//!
//! CBC-MAC is only secure for fixed-length messages, so the paper assigns
//! one key per block type (k2 for execution blocks, k3 for multiplexor
//! blocks), each of which always MACs the same number of words. This
//! module enforces that practice: [`mac_words`] takes the padded length
//! from the caller and refuses over-long messages.

use crate::Rectangle;

/// A 64-bit message authentication code split into the two 32-bit words
/// stored in a block (`M1` is the most significant half).
///
/// # Examples
///
/// ```
/// use sofia_crypto::Mac64;
///
/// let mac = Mac64::from_words(0xAAAA_0000, 0x0000_BBBB);
/// assert_eq!(mac.m1(), 0xAAAA_0000);
/// assert_eq!(mac.m2(), 0x0000_BBBB);
/// assert_eq!(mac.as_u64(), 0xAAAA_0000_0000_BBBB);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Mac64(u64);

impl Mac64 {
    /// Wraps a raw 64-bit MAC value.
    pub const fn new(value: u64) -> Mac64 {
        Mac64(value)
    }

    /// Rebuilds a MAC from its two stored words.
    pub const fn from_words(m1: u32, m2: u32) -> Mac64 {
        Mac64(((m1 as u64) << 32) | m2 as u64)
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The first stored MAC word (most significant half).
    pub const fn m1(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The second stored MAC word (least significant half).
    pub const fn m2(self) -> u32 {
        self.0 as u32
    }

    /// Truncates the MAC to its `bits` least significant bits.
    ///
    /// Used by the security-evaluation experiments to measure forgery
    /// success probability at tractable MAC lengths (§IV-A's 2^(n−1)
    /// scaling argument).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    pub fn truncate(self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "MAC length must be 1..=64 bits");
        if bits == 64 {
            self.0
        } else {
            self.0 & ((1u64 << bits) - 1)
        }
    }
}

/// Computes the CBC-MAC of `words`, zero-padded to exactly
/// `padded_words` 32-bit words (which must be even: the cipher block is
/// 64 bits = two words).
///
/// All callers MAC a *fixed* `padded_words` per key, making CBC-MAC's
/// fixed-length requirement structural.
///
/// # Panics
///
/// Panics if `padded_words` is odd, zero, or smaller than `words.len()`.
///
/// # Examples
///
/// ```
/// use sofia_crypto::{mac, Key80, Rectangle};
///
/// let cipher = Rectangle::new(&Key80::from_seed(2));
/// let a = mac::mac_words(&cipher, &[1, 2, 3, 4, 5, 6], 6);
/// let b = mac::mac_words(&cipher, &[1, 2, 3, 4, 5, 7], 6);
/// assert_ne!(a, b);
/// ```
#[inline]
pub fn mac_words(cipher: &Rectangle, words: &[u32], padded_words: usize) -> Mac64 {
    check_domain(words, padded_words);
    let mut state: u64 = 0;
    for pair in 0..padded_words / 2 {
        state = cipher.encrypt_block(state ^ message_block(words, pair));
    }
    Mac64(state)
}

/// Enforces [`mac_words`]' fixed-length domain on one message.
fn check_domain(words: &[u32], padded_words: usize) {
    assert!(padded_words > 0, "empty MAC domain");
    assert!(padded_words % 2 == 0, "padded length must be even");
    assert!(
        words.len() <= padded_words,
        "message longer than its fixed MAC domain ({} > {padded_words})",
        words.len()
    );
}

/// The `pair`-th 64-bit cipher block of a zero-padded message.
#[inline]
fn message_block(words: &[u32], pair: usize) -> u64 {
    let word = |i: usize| words.get(i).copied().unwrap_or(0) as u64;
    word(2 * pair) | word(2 * pair + 1) << 32
}

/// Computes [`mac_words`] for many *independent* messages that share one
/// fixed `padded_words` domain, lane-parallel: CBC chaining is sequential
/// *within* a message, but the chains of different messages are
/// independent, so each CBC step ciphers all messages' current states in
/// one bitsliced sweep ([`Rectangle::encrypt_blocks`], eight states per
/// pass).
///
/// Bit-identical to mapping [`mac_words`] over `messages` (pinned by the
/// equivalence suite). This is the install-time bulk path: an image's
/// blocks of one kind all MAC under the same key and padded length.
///
/// # Panics
///
/// Panics under the same conditions as [`mac_words`], checked per
/// message.
pub fn mac_words_batch(cipher: &Rectangle, messages: &[&[u32]], padded_words: usize) -> Vec<Mac64> {
    for words in messages {
        check_domain(words, padded_words);
    }
    let mut states = vec![0u64; messages.len()];
    for pair in 0..padded_words / 2 {
        for (state, words) in states.iter_mut().zip(messages) {
            *state ^= message_block(words, pair);
        }
        cipher.encrypt_blocks(&mut states);
    }
    states.into_iter().map(Mac64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key80;
    use proptest::prelude::*;

    fn cipher() -> Rectangle {
        Rectangle::new(&Key80::from_seed(0x4D41_4331))
    }

    proptest! {
        /// Any single-word change flips the MAC (with overwhelming
        /// probability; the strategy space makes collision vanishing).
        #[test]
        fn single_word_change_changes_mac(
            mut words in proptest::collection::vec(any::<u32>(), 6),
            pos in 0usize..6,
            delta in 1u32..,
        ) {
            let c = cipher();
            let a = mac_words(&c, &words, 6);
            words[pos] ^= delta;
            let b = mac_words(&c, &words, 6);
            prop_assert_ne!(a, b);
        }

        /// MAC words round-trip through the stored (M1, M2) pair.
        #[test]
        fn m1_m2_roundtrip(v in any::<u64>()) {
            let m = Mac64::new(v);
            prop_assert_eq!(Mac64::from_words(m.m1(), m.m2()), m);
        }

        /// Truncation keeps exactly the requested bits.
        #[test]
        fn truncate_masks(v in any::<u64>(), bits in 1u32..=63) {
            let t = Mac64::new(v).truncate(bits);
            prop_assert!(t < (1u64 << bits));
            prop_assert_eq!(t, v & ((1 << bits) - 1));
        }
    }

    #[test]
    fn different_keys_produce_different_macs() {
        // The paper's per-block-type key separation (k2 vs k3): the same
        // five words MAC differently under each key.
        let words = [10, 20, 30, 40, 50];
        let k2 = Rectangle::new(&Key80::from_seed(2));
        let k3 = Rectangle::new(&Key80::from_seed(3));
        assert_ne!(mac_words(&k2, &words, 6), mac_words(&k3, &words, 6));
    }

    #[test]
    fn zero_padding_is_deterministic() {
        let c = cipher();
        let a = mac_words(&c, &[1, 2, 3, 4, 5], 6);
        let b = mac_words(&c, &[1, 2, 3, 4, 5, 0], 6);
        // Explicit trailing zero and implicit padding agree by definition…
        assert_eq!(a, b);
        // …which is exactly why each block type gets its own key: the
        // fixed per-key length prevents cross-length splicing.
    }

    #[test]
    fn order_matters() {
        let c = cipher();
        assert_ne!(
            mac_words(&c, &[1, 2, 3, 4, 5, 6], 6),
            mac_words(&c, &[6, 5, 4, 3, 2, 1], 6)
        );
    }

    #[test]
    #[should_panic(expected = "longer than")]
    fn overlong_message_rejected() {
        let c = cipher();
        let _ = mac_words(&c, &[0; 8], 6);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_padding_rejected() {
        let c = cipher();
        let _ = mac_words(&c, &[0; 3], 5);
    }
}
