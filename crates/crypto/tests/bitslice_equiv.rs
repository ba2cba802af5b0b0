//! The bitsliced ≡ scalar equivalence suite: every bulk API — block
//! encryption, batched CTR keystream, lane-parallel CBC-MAC — must
//! reproduce the one-block scalar path bit for bit over random keys,
//! random blocks and every batch shape the 8-lane pass sees: empty,
//! short of one pass, exactly one pass, and ragged multi-pass tails (0–69
//! blocks, across and between 8-lane boundaries). Both paths evaluate
//! the same S-box circuit, so a bug common to them is `tests/kat.rs`'s
//! to catch: it pins both to a spec-written reference cipher and to
//! recorded known answers.

use proptest::prelude::*;
use sofia_crypto::{ctr, mac, CounterBlock, Key80, KeySet, Nonce, Rectangle};

proptest! {
    /// Batch encryption over any lane count matches per-block scalar
    /// encryption, including the zero-padded ragged final pass.
    #[test]
    fn encrypt_blocks_matches_scalar(
        key in any::<u64>(),
        blocks in proptest::collection::vec(any::<u64>(), 0..70),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
        let mut got = blocks.clone();
        cipher.encrypt_blocks(&mut got);
        prop_assert_eq!(got, expect);
    }

    /// The batched CTR keystream equals the per-counter scalar pads, for
    /// any batch shape of valid control-flow edges.
    #[test]
    fn ctr_keystream_matches_scalar(
        key in any::<u64>(),
        nonce in any::<u16>(),
        edges in proptest::collection::vec((0u32..1 << 24, 0u32..1 << 24), 0..70),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let counters: Vec<CounterBlock> = edges
            .iter()
            .map(|&(prev, pc)| CounterBlock::from_edge(Nonce::new(nonce), prev << 2, pc << 2))
            .collect();
        let expect: Vec<u32> = counters.iter().map(|&c| ctr::pad(&cipher, c)).collect();
        prop_assert_eq!(ctr::pads(&cipher, &counters), expect);
    }

    /// `apply_batch` is the batched involution of scalar `apply`.
    #[test]
    fn ctr_apply_batch_roundtrips(
        key in any::<u64>(),
        edges in proptest::collection::vec(
            ((0u32..1 << 24, 0u32..1 << 24), any::<u32>()), 0..70),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let counters: Vec<CounterBlock> = edges
            .iter()
            .map(|&((prev, pc), _)| CounterBlock::from_edge(Nonce::new(3), prev << 2, pc << 2))
            .collect();
        let plain: Vec<u32> = edges.iter().map(|&(_, w)| w).collect();
        let mut words = plain.clone();
        ctr::apply_batch(&cipher, &counters, &mut words);
        for ((&c, &w), &p) in counters.iter().zip(&words).zip(&plain) {
            prop_assert_eq!(w, ctr::apply(&cipher, c, p));
        }
        ctr::apply_batch(&cipher, &counters, &mut words);
        prop_assert_eq!(words, plain);
    }

    /// Lane-parallel CBC-MAC over independent messages matches the
    /// scalar MAC per message — across message counts (including ragged
    /// final cipher passes), message lengths and padded domains.
    #[test]
    fn cbc_mac_batch_matches_scalar(
        key in any::<u64>(),
        padded_pairs in 1usize..6,
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..10), 0..70),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let padded_words = padded_pairs * 2;
        let msgs: Vec<Vec<u32>> = messages
            .into_iter()
            .map(|mut m| {
                m.truncate(padded_words);
                m
            })
            .collect();
        let slices: Vec<&[u32]> = msgs.iter().map(|m| m.as_slice()).collect();
        let expect: Vec<_> = slices
            .iter()
            .map(|m| mac::mac_words(&cipher, m, padded_words))
            .collect();
        prop_assert_eq!(mac::mac_words_batch(&cipher, &slices, padded_words), expect);
    }
}

/// The keyset-level sanity check: all three expanded ciphers drive the
/// batch APIs identically to their scalar selves (exactly the shapes the
/// sealer uses: k1 for keystream, k2/k3 for MACs).
#[test]
fn expanded_keyset_batches_match_scalar() {
    let keys = KeySet::from_seed(0xE0).expand();
    let words: Vec<u32> = (0..6).collect();
    assert_eq!(
        mac::mac_words_batch(&keys.mac_exec, &[&words], 6),
        vec![mac::mac_words(&keys.mac_exec, &words, 6)]
    );
    assert_eq!(
        mac::mac_words_batch(&keys.mac_mux, &[&words[..5]], 6),
        vec![mac::mac_words(&keys.mac_mux, &words[..5], 6)]
    );
    let counters: Vec<CounterBlock> = (0..17)
        .map(|i| CounterBlock::from_edge(Nonce::new(1), i * 4, (i + 1) * 4))
        .collect();
    let expect: Vec<u32> = counters.iter().map(|&c| ctr::pad(&keys.ctr, c)).collect();
    assert_eq!(ctr::pads(&keys.ctr, &counters), expect);
}
