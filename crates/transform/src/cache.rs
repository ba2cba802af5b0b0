//! The keyed secure-image cache: seal each (device keys, program) pair
//! **once**, share the result.
//!
//! The paper's deployment story is one software provider sealing programs
//! for a fleet of devices that share nothing but their device keys (§II:
//! "these keys are known only by the software provider"). A serving
//! system therefore re-seals the same program for the same tenant over
//! and over unless installation is memoised — which is what this cache
//! does, filed under a fingerprint of the key material plus a hash of
//! the program source, and served only to a request whose key material
//! and source match the stored ones exactly, so two tenants submitting
//! the *same* program still get *different* sealed images (key isolation
//! is structural, not policed) and a fingerprint collision costs a seal,
//! never a wrong image.
//!
//! The cache is internally synchronised, and sealing happens **outside**
//! the map lock behind a per-key in-progress marker: concurrent workers
//! racing on the same program seal it exactly once (the losers wait for
//! the winner's image), while workers sealing *different* programs — or
//! merely looking up already-cached ones — proceed in parallel.
//!
//! # Examples
//!
//! ```
//! use sofia_crypto::KeySet;
//! use sofia_transform::cache::ImageCache;
//!
//! let cache = ImageCache::new();
//! let keys = KeySet::from_seed(1);
//! let a = cache.get_or_seal(&keys, "main: halt")?;
//! let b = cache.get_or_seal(&keys, "main: halt")?;
//! assert!(std::sync::Arc::ptr_eq(&a, &b)); // sealed once, shared
//! assert_eq!(cache.stats().hits, 1);
//!
//! // A different tenant's keys seal a different image from the same
//! // source: no ciphertext is ever shared across key domains.
//! let other = cache.get_or_seal(&KeySet::from_seed(2), "main: halt")?;
//! assert_ne!(other.ctext, a.ctext);
//! # Ok::<(), sofia_transform::cache::SealError>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use sofia_crypto::KeySet;
use sofia_isa::asm;

use crate::decode::fnv64;
use crate::{BlockFormat, SecureImage, TransformError, Transformer};

/// Why [`ImageCache::get_or_seal`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SealError {
    /// The program source did not parse.
    Parse(String),
    /// The transformer rejected the module.
    Transform(TransformError),
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Parse(e) => write!(f, "program does not parse: {e}"),
            SealError::Transform(e) => write!(f, "secure installation failed: {e:?}"),
        }
    }
}

impl std::error::Error for SealError {}

/// Cache-effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the transformer.
    pub misses: u64,
    /// Sealed images currently held.
    pub entries: usize,
}

enum Entry {
    /// Some worker is sealing this key right now; wait on the condvar.
    Sealing,
    /// The sealed image, beside the exact request it was sealed for.
    Ready(Ready),
}

/// A published image and the `(keys, source)` pair it answers.
struct Ready {
    keys: KeySet,
    source: Arc<str>,
    image: Arc<SecureImage>,
}

impl Entry {
    /// The ready image, if this entry holds one sealed for exactly
    /// `(keys, source)`.
    fn serves(&self, keys: &KeySet, source: &str) -> Option<&Arc<SecureImage>> {
        match self {
            Entry::Ready(r) if r.keys == *keys && *r.source == *source => Some(&r.image),
            _ => None,
        }
    }
}

#[derive(Default)]
struct State {
    map: HashMap<(u64, u64), Entry>,
    /// One shared copy of each published source, by its fingerprint:
    /// every tenant that runs a program seals it under its own keys, so
    /// entries share the text instead of holding one copy each.
    sources: HashMap<u64, Arc<str>>,
    hits: u64,
    misses: u64,
}

impl State {
    /// The shared copy of `source` filed under fingerprint `fp`; a text
    /// whose fingerprint collides with another's keeps its own copy.
    fn intern(&mut self, fp: u64, source: &str) -> Arc<str> {
        match self.sources.get(&fp) {
            Some(text) if **text == *source => Arc::clone(text),
            Some(_) => source.into(),
            None => Arc::clone(self.sources.entry(fp).or_insert_with(|| source.into())),
        }
    }
}

/// A thread-safe memo of secure installations, filed under
/// [`image_key`] and matched on the full key material and source.
///
/// All images are sealed with this cache's [`BlockFormat`] and the
/// transformer's default nonce — callers wanting per-version nonces (the
/// paper's version-separation argument) seal outside the cache.
pub struct ImageCache {
    format: BlockFormat,
    inner: Mutex<State>,
    sealed: std::sync::Condvar,
}

impl Default for ImageCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageCache {
    /// An empty cache sealing with [`BlockFormat::default`].
    pub fn new() -> ImageCache {
        Self::with_format(BlockFormat::default())
    }

    /// An empty cache sealing with an explicit block format.
    pub fn with_format(format: BlockFormat) -> ImageCache {
        ImageCache {
            format,
            inner: Mutex::new(State::default()),
            sealed: std::sync::Condvar::new(),
        }
    }

    /// Whether a **ready** image sealed for exactly `(keys, source)` is
    /// in the cache right now — a lock-and-peek that never waits on
    /// in-flight seals and never seals. Schedulers use it to tell warm
    /// lookups from the fresh transforms a seal fault could strike.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking seal.
    pub fn contains(&self, keys: &KeySet, source: &str) -> bool {
        let ImageKey(key) = image_key(keys, source);
        let state = self.inner.lock().expect("image cache poisoned");
        state
            .map
            .get(&key)
            .is_some_and(|e| e.serves(keys, source).is_some())
    }

    /// The sealed image for `source` under `keys`, installing it on the
    /// first request and sharing the same `Arc` on every later one. A
    /// request whose [`image_key`] collides with another pair's ready
    /// image is sealed for this caller and not published.
    ///
    /// # Errors
    ///
    /// Returns [`SealError`] if the source does not parse or the
    /// transformer rejects it. Failures are not cached — a later retry
    /// re-attempts the installation.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking seal.
    pub fn get_or_seal(&self, keys: &KeySet, source: &str) -> Result<Arc<SecureImage>, SealError> {
        self.get_or_seal_traced(keys, source)
            .map(|(image, _)| image)
    }

    /// [`ImageCache::get_or_seal`], additionally reporting whether the
    /// image came from the cache (`true`) or was sealed by this call
    /// (`false`) — per-request attribution for serving statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SealError`] if the source does not parse or the
    /// transformer rejects it.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking seal.
    pub fn get_or_seal_traced(
        &self,
        keys: &KeySet,
        source: &str,
    ) -> Result<(Arc<SecureImage>, bool), SealError> {
        let ImageKey(key) = image_key(keys, source);
        // Claim the key (or wait for / reuse whoever already did).
        let mut state = self.inner.lock().expect("image cache poisoned");
        let claimed = loop {
            match state.map.get(&key) {
                Some(entry @ Entry::Ready(_)) => {
                    let Some(image) = entry.serves(keys, source) else {
                        // A fingerprint collision: another pair's image
                        // holds the key, so seal without a claim.
                        break false;
                    };
                    let image = Arc::clone(image);
                    state.hits += 1;
                    return Ok((image, true));
                }
                // Another worker is sealing exactly this program: wait
                // for its image instead of duplicating the work.
                Some(Entry::Sealing) => {
                    state = self.sealed.wait(state).expect("image cache poisoned");
                }
                None => {
                    state.map.insert(key, Entry::Sealing);
                    break true;
                }
            }
        };
        drop(state);

        // Seal outside the lock: expensive installs for different
        // programs run in parallel, and cache hits never queue behind an
        // in-progress seal of something else.
        let image = asm::parse(source)
            .map_err(|e| SealError::Parse(e.to_string()))
            .and_then(|module| {
                Transformer::new(keys.clone())
                    .with_format(self.format)
                    .transform(&module)
                    .map(Arc::new)
                    .map_err(SealError::Transform)
            });

        let mut state = self.inner.lock().expect("image cache poisoned");
        let claimed = claimed && matches!(state.map.get(&key), Some(Entry::Sealing));
        match image {
            Ok(image) => {
                state.misses += 1;
                // Publish unless this call holds no claim: the key
                // collided with another pair's image, or it was purged
                // while sealing (a concurrent tenant eviction). Then the
                // image is handed to this caller only and not cached.
                if claimed {
                    let ready = Ready {
                        keys: keys.clone(),
                        source: state.intern(key.1, source),
                        image: Arc::clone(&image),
                    };
                    state.map.insert(key, Entry::Ready(ready));
                }
                self.sealed.notify_all();
                Ok((image, false))
            }
            Err(e) => {
                // Failures are not cached; release the claim so a later
                // (or concurrently waiting) caller can retry.
                if claimed {
                    state.map.remove(&key);
                }
                self.sealed.notify_all();
                Err(e)
            }
        }
    }

    /// Drops every image sealed under `keys` (tenant eviction), returning
    /// how many entries were removed. Outstanding `Arc`s keep their
    /// images alive; the cache just stops serving them.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking seal.
    pub fn purge(&self, keys: &KeySet) -> usize {
        let fp = fingerprint_keys(keys);
        let mut state = self.inner.lock().expect("image cache poisoned");
        let before = state.map.len();
        state.map.retain(|&(key_fp, _), _| key_fp != fp);
        state.sources.retain(|_, text| Arc::strong_count(text) > 1);
        // In-flight seals for the purged domain lost their claim: wake
        // their waiters (they will re-claim), and the sealer itself will
        // notice the missing marker and skip publishing.
        self.sealed.notify_all();
        before - state.map.len()
    }

    /// Current counters.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking seal.
    pub fn stats(&self) -> ImageCacheStats {
        let state = self.inner.lock().expect("image cache poisoned");
        ImageCacheStats {
            hits: state.hits,
            misses: state.misses,
            entries: state
                .map
                .values()
                .filter(|e| matches!(e, Entry::Ready(_)))
                .count(),
        }
    }
}

// Compile-time guarantee: sealed images and the cache cross worker-thread
// boundaries in the fleet. An `Rc`/`RefCell` regression breaks the build
// here, not the fleet at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SecureImage>();
    assert_send_sync::<ImageCache>();
};

/// The cache's identity for one `(device keys, program source)` seal
/// request — the unit of single-flight deduplication.
///
/// Opaque by design: it reveals nothing about the key material (a
/// fingerprint, not the keys) and is `Copy`+`Hash`+`Ord`, so schedulers
/// above the cache (the fleet's seal attribution) can group, sort and
/// dedup seal requests without holding key material or source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageKey((u64, u64));

/// The [`ImageKey`] that [`ImageCache::get_or_seal`] files `(keys,
/// source)` under: two 64-bit FNV fingerprints, one of the key material
/// and one of the source. Equal requests always collapse to one seal.
/// Distinct requests get distinct keys only up to a fingerprint
/// collision; the cache stores the full key material and source beside
/// each image and serves it only to an exact match, so a colliding
/// request is sealed afresh for its caller, never handed the other
/// pair's ciphertext.
pub fn image_key(keys: &KeySet, source: &str) -> ImageKey {
    ImageKey((fingerprint_keys(keys), fnv64(source.as_bytes())))
}

/// FNV-1a over the concatenated key material — an identity fingerprint
/// (not a security boundary; the keys themselves never leave the cache's
/// callers).
fn fingerprint_keys(keys: &KeySet) -> u64 {
    fnv64(
        [
            *keys.k1.as_bytes(),
            *keys.k2.as_bytes(),
            *keys.k3.as_bytes(),
        ]
        .as_flattened(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_keys_are_pinned() {
        assert_eq!(
            image_key(&KeySet::from_seed(1), "main: halt"),
            ImageKey((0xf324_de3a_e292_4e70, 0xea16_c6e1_3573_74e5))
        );
    }

    #[test]
    fn seals_once_per_key_and_source() {
        let cache = ImageCache::new();
        let keys = KeySet::from_seed(0xF1EE);
        let a = cache.get_or_seal(&keys, "main: li t0, 1\n halt").unwrap();
        let b = cache.get_or_seal(&keys, "main: li t0, 1\n halt").unwrap();
        let c = cache.get_or_seal(&keys, "main: li t0, 2\n halt").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(
            cache.stats(),
            ImageCacheStats {
                hits: 1,
                misses: 2,
                entries: 2
            }
        );
    }

    #[test]
    fn key_domains_are_isolated() {
        let cache = ImageCache::new();
        let a = cache
            .get_or_seal(&KeySet::from_seed(1), "main: halt")
            .unwrap();
        let b = cache
            .get_or_seal(&KeySet::from_seed(2), "main: halt")
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_ne!(a.ctext, b.ctext, "same program, different key domains");
    }

    #[test]
    fn purge_removes_exactly_one_tenant() {
        let cache = ImageCache::new();
        let t1 = KeySet::from_seed(1);
        let t2 = KeySet::from_seed(2);
        cache.get_or_seal(&t1, "main: halt").unwrap();
        cache.get_or_seal(&t1, "main: nop\n halt").unwrap();
        cache.get_or_seal(&t2, "main: halt").unwrap();
        assert_eq!(cache.purge(&t1), 2);
        assert_eq!(cache.stats().entries, 1);
        // t2 still served from cache; t1 re-seals.
        cache.get_or_seal(&t2, "main: halt").unwrap();
        cache.get_or_seal(&t1, "main: halt").unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 4));
    }

    #[test]
    fn tenants_share_one_copy_of_a_source() {
        let cache = ImageCache::new();
        let (t1, t2) = (KeySet::from_seed(1), KeySet::from_seed(2));
        cache.get_or_seal(&t1, "main: halt").unwrap();
        cache.get_or_seal(&t2, "main: halt").unwrap();
        let texts = || cache.inner.lock().unwrap().sources.len();
        assert_eq!(texts(), 1);
        cache.purge(&t1);
        assert_eq!(texts(), 1, "t2's image still needs the text");
        cache.purge(&t2);
        assert_eq!(texts(), 0);
    }

    #[test]
    fn errors_surface_and_are_not_cached() {
        let cache = ImageCache::new();
        let keys = KeySet::from_seed(3);
        let err = cache.get_or_seal(&keys, "main: bogus t9").unwrap_err();
        assert!(matches!(err, SealError::Parse(_)), "{err}");
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get_or_seal(&keys, "main: halt").is_ok());
    }

    #[test]
    fn contains_peeks_without_sealing() {
        let cache = ImageCache::new();
        let keys = KeySet::from_seed(0xBEEF);
        assert!(!cache.contains(&keys, "main: halt"));
        cache.get_or_seal(&keys, "main: halt").unwrap();
        assert!(cache.contains(&keys, "main: halt"));
        assert_eq!(cache.stats().misses, 1, "contains never seals");
        cache.purge(&keys);
        assert!(!cache.contains(&keys, "main: halt"));
    }

    /// Files the ready image of `(keys, from)` under the [`ImageKey`] of
    /// `(keys, to)` instead: the state a fingerprint collision between
    /// the two requests would leave.
    fn plant_collision(cache: &ImageCache, keys: &KeySet, from: &str, to: &str) {
        let mut state = cache.inner.lock().unwrap();
        let entry = state.map.remove(&image_key(keys, from).0).unwrap();
        state.map.insert(image_key(keys, to).0, entry);
    }

    #[test]
    fn a_colliding_request_gets_its_own_image() {
        const A: &str = "main: li t0, 1\n halt";
        const B: &str = "main: li t0, 2\n halt";
        let keys = KeySet::from_seed(0xC011);
        let fresh = ImageCache::new().get_or_seal(&keys, B).unwrap();
        let cache = ImageCache::new();
        let a = cache.get_or_seal(&keys, A).unwrap();
        plant_collision(&cache, &keys, A, B);
        assert!(!cache.contains(&keys, B), "A's image answers for B");
        let b = cache.get_or_seal(&keys, B).unwrap();
        assert_eq!(b.ctext, fresh.ctext, "B was served A's image");
        assert_ne!(b.ctext, a.ctext);
        // Sealed for the caller, not published over A's entry.
        let again = cache.get_or_seal(&keys, B).unwrap();
        assert!(!Arc::ptr_eq(&b, &again));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 1));
    }

    #[test]
    fn concurrent_workers_seal_once() {
        let cache = std::sync::Arc::new(ImageCache::new());
        let keys = KeySet::from_seed(0xCC);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let keys = keys.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        cache.get_or_seal(&keys, "main: li t0, 5\n halt").unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 1, "sealed more than once: {s:?}");
        assert_eq!(s.hits, 31);
    }
}
