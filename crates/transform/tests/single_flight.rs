//! Single-flight pinning: many threads hammering [`ImageCache`] for the
//! *same* `(keys, source)` must trigger exactly one seal, and every
//! caller must come back holding the same `Arc<SecureImage>` — the
//! property a fleet's cold wave of same-image lanes builds on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use sofia_crypto::KeySet;
use sofia_transform::cache::{image_key, ImageCache};

const PROGRAM: &str = "main: li t0, 11
                             li t1, 0
                       loop: add t1, t1, t0
                             subi t0, t0, 1
                             bnez t0, loop
                             li a0, 0xFFFF0000
                             sw t1, 0(a0)
                             halt";

/// 16 threads × 8 calls for one image: exactly one seal (one traced
/// `false`, one cache miss), 127 shares, and every `Arc` pointer-equal.
#[test]
fn hammered_cache_seals_once_and_shares_one_arc() {
    let threads = 16;
    let calls_per_thread = 8;
    let cache = ImageCache::new();
    let keys = KeySet::from_seed(0x51F1);
    let barrier = Barrier::new(threads);
    let sealed_fresh = AtomicUsize::new(0);

    let images: Vec<Arc<sofia_transform::SecureImage>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cache, keys, barrier, sealed_fresh) = (&cache, &keys, &barrier, &sealed_fresh);
                scope.spawn(move || {
                    // Line every thread up so the cold call truly races.
                    barrier.wait();
                    let mut got = Vec::new();
                    for _ in 0..calls_per_thread {
                        let (image, from_cache) =
                            cache.get_or_seal_traced(keys, PROGRAM).expect("seals");
                        if !from_cache {
                            sealed_fresh.fetch_add(1, Ordering::SeqCst);
                        }
                        got.push(image);
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    assert_eq!(images.len(), threads * calls_per_thread);
    assert_eq!(
        sealed_fresh.load(Ordering::SeqCst),
        1,
        "exactly one caller observed a fresh seal"
    );
    let first = &images[0];
    assert!(
        images.iter().all(|i| Arc::ptr_eq(i, first)),
        "every caller shares the one sealed image"
    );

    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "the transformer ran once: {stats:?}");
    assert_eq!(stats.hits, (threads * calls_per_thread - 1) as u64);
    assert_eq!(stats.entries, 1);
}

/// The race dedups per *image*, not globally: distinct tenants sealing
/// concurrently each seal exactly once, with no cross-tenant sharing.
#[test]
fn concurrent_distinct_tenants_seal_once_each() {
    let tenants = 8;
    let cache = ImageCache::new();
    let keysets: Vec<KeySet> = (0..tenants)
        .map(|s| KeySet::from_seed(s as u64 + 1))
        .collect();
    let barrier = Barrier::new(tenants * 2);

    std::thread::scope(|scope| {
        // Two threads per tenant, all released at once.
        for keys in keysets.iter().chain(keysets.iter()) {
            let (cache, barrier) = (&cache, &barrier);
            scope.spawn(move || {
                barrier.wait();
                cache.get_or_seal(keys, PROGRAM).expect("seals");
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(
        stats.misses, tenants as u64,
        "one seal per tenant: {stats:?}"
    );
    assert_eq!(stats.hits, tenants as u64);
    assert_eq!(stats.entries, tenants);
    // Distinct tenants really did get distinct keys (no accidental
    // fingerprint collapse in this suite's key material).
    let keys: std::collections::HashSet<_> =
        keysets.iter().map(|k| image_key(k, PROGRAM)).collect();
    assert_eq!(keys.len(), tenants);
}
