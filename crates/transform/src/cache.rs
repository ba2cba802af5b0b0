//! The keyed secure-image cache: plan once per source, seal once per key.
//!
//! The paper's deployment story is one software provider sealing programs
//! for a fleet of devices that share nothing but their device keys (§II:
//! "these keys are known only by the software provider"). The provider
//! lays a program out once; only the CBC-MAC and the CTR pass use a
//! device's keys (§II-C/§III). A serving system therefore re-seals the
//! same program for the same tenant over and over unless installation is
//! memoised, and re-plans it for every tenant unless the layout is shared
//! — which is what this cache does, at both levels:
//!
//! * one key-free [`SealPlan`] per source, filed under the **full source
//!   text**, so a plan can never be served for another program (it would
//!   seal validly under the tenant's keys and run the wrong program
//!   without any violation);
//! * one sealed image per `(keys, source)` pair, filed under a
//!   fingerprint of the key material plus a hash of the source and served
//!   only to a request whose key material and source match the stored
//!   ones exactly, so two tenants submitting the *same* program still get
//!   *different* sealed images (key isolation is structural, not
//!   policed) and a fingerprint collision costs a seal, never a wrong
//!   image.
//!
//! A plan is kept only while its source backs an image: [`ImageCache::purge`]
//! drops the plans its eviction orphaned.
//!
//! The cache is internally synchronised, and planning and sealing happen
//! **outside** the map lock behind in-progress markers: concurrent
//! workers racing on the same program plan and seal it exactly once (the
//! losers wait for the winner's plan or image), while workers sealing
//! *different* programs — or merely looking up already-cached ones —
//! proceed in parallel.
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

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use sofia_crypto::KeySet;
use sofia_isa::asm::{self, DEFAULT_RAM_SIZE};

use crate::decode::fnv64;
use crate::{BlockFormat, SealPlan, SecureImage, TransformError, DEFAULT_NONCE};

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
    /// Key-free plans currently held (one per source).
    pub plans: usize,
    /// Plans built: the lookups that found no plan for their source.
    pub planned: u64,
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

/// A source's key-free plan, or the marker of the worker building it.
enum Plan {
    /// Some worker is planning this source right now; wait on the
    /// condvar.
    Planning,
    Ready(Arc<SealPlan>),
}

#[derive(Default)]
struct State {
    map: HashMap<(u64, u64), Entry>,
    /// One plan per source, by the full source text (the shared copy in
    /// `sources`): every tenant's seal of a program starts from it.
    plans: HashMap<Arc<str>, Plan>,
    /// One shared copy of each published source, by its fingerprint:
    /// every tenant that runs a program seals it under its own keys, so
    /// entries share the text instead of holding one copy each.
    sources: HashMap<u64, Arc<str>>,
    hits: u64,
    misses: u64,
    planned: u64,
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
/// [`image_key`] and matched on the full key material and source, beside
/// the key-free plan of each source.
///
/// All images are sealed with this cache's [`BlockFormat`], for its
/// target's RAM size, and with the transformer's default nonce — callers
/// wanting per-version nonces (the paper's version-separation argument)
/// seal outside the cache.
pub struct ImageCache {
    format: BlockFormat,
    ram_size: u32,
    inner: Mutex<State>,
    sealed: std::sync::Condvar,
}

impl Default for ImageCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageCache {
    /// An empty cache sealing with [`BlockFormat::default`] for a target
    /// with the default data RAM ([`DEFAULT_RAM_SIZE`]).
    pub fn new() -> ImageCache {
        Self::with_format(BlockFormat::default())
    }

    /// An empty cache sealing with an explicit block format.
    pub fn with_format(format: BlockFormat) -> ImageCache {
        ImageCache {
            format,
            ram_size: DEFAULT_RAM_SIZE,
            inner: Mutex::new(State::default()),
            sealed: std::sync::Condvar::new(),
        }
    }

    /// Seals for a target whose data RAM holds `ram_size` bytes: a
    /// program whose data section is larger is refused before its
    /// section is allocated.
    pub fn with_ram_size(mut self, ram_size: u32) -> ImageCache {
        self.ram_size = ram_size;
        self
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
    /// transformer rejects it (a data section larger than the target's
    /// RAM among them). Failures are not cached — a later retry
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
        // Reuse the source's plan, wait for whoever is planning it, or
        // claim it.
        let planned = loop {
            match state.plans.get(source) {
                Some(Plan::Ready(plan)) => break Some(Arc::clone(plan)),
                Some(Plan::Planning) => {
                    state = self.sealed.wait(state).expect("image cache poisoned");
                }
                None => {
                    let text = state.intern(key.1, source);
                    state.plans.insert(text, Plan::Planning);
                    break None;
                }
            }
        };
        drop(state);

        // Plan and seal outside the lock: expensive installs for
        // different programs run in parallel, and cache hits never queue
        // behind an in-progress install of something else.
        let plan = match planned {
            Some(plan) => Ok(plan),
            None => self.plan(key.1, source),
        };
        let image = plan.map(|plan| Arc::new(plan.seal(keys, DEFAULT_NONCE)));

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

    /// Builds the plan of `source` (fingerprint `fp`) under this caller's
    /// claim, then publishes it, or on failure releases the claim and the
    /// text interned for it (failures are not cached), and wakes whoever
    /// waits for it.
    fn plan(&self, fp: u64, source: &str) -> Result<Arc<SealPlan>, SealError> {
        let plan = asm::parse(source)
            .map_err(|e| SealError::Parse(e.to_string()))
            .and_then(|module| {
                SealPlan::new(&module, self.format, self.ram_size)
                    .map(Arc::new)
                    .map_err(SealError::Transform)
            });
        let mut state = self.inner.lock().expect("image cache poisoned");
        match &plan {
            Ok(plan) => {
                state.planned += 1;
                if let Some(slot) = state.plans.get_mut(source) {
                    *slot = Plan::Ready(Arc::clone(plan));
                }
            }
            Err(_) => {
                state.plans.remove(source);
                if state
                    .sources
                    .get(&fp)
                    .is_some_and(|t| Arc::strong_count(t) == 1)
                {
                    state.sources.remove(&fp);
                }
            }
        }
        self.sealed.notify_all();
        plan
    }

    /// Drops every image sealed under `keys` (tenant eviction), returning
    /// how many entries were removed, and every plan whose source no
    /// longer backs an image. Outstanding `Arc`s keep their images
    /// alive; the cache just stops serving them.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking seal.
    pub fn purge(&self, keys: &KeySet) -> usize {
        let fp = fingerprint_keys(keys);
        let mut state = self.inner.lock().expect("image cache poisoned");
        let before = state.map.len();
        state.map.retain(|&(key_fp, _), _| key_fp != fp);
        // Plans go first: their keys share the texts whose count prunes
        // `sources`. One being built stays for whoever waits on it.
        let live: HashSet<u64> = state.map.keys().map(|&(_, src_fp)| src_fp).collect();
        state.plans.retain(|text, plan| {
            matches!(plan, Plan::Planning) || live.contains(&fnv64(text.as_bytes()))
        });
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
            plans: state
                .plans
                .values()
                .filter(|p| matches!(p, Plan::Ready(_)))
                .count(),
            planned: state.planned,
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
                entries: 2,
                plans: 2,
                planned: 2,
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
        let s = cache.stats();
        assert_eq!((s.entries, s.plans, s.planned), (0, 0, 0));
        assert!(cache.inner.lock().unwrap().sources.is_empty());
        assert!(cache.get_or_seal(&keys, "main: halt").is_ok());
    }

    #[test]
    fn tenants_share_one_plan_of_a_source() {
        let cache = ImageCache::new();
        let (t1, t2) = (KeySet::from_seed(1), KeySet::from_seed(2));
        let a = cache.get_or_seal(&t1, "main: li t0, 9\n halt").unwrap();
        let b = cache.get_or_seal(&t2, "main: li t0, 9\n halt").unwrap();
        assert_ne!(a.ctext, b.ctext);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries, s.plans, s.planned), (2, 2, 1, 1));
    }

    #[test]
    fn purging_every_tenant_drops_every_plan() {
        let cache = ImageCache::new();
        let tenants: Vec<KeySet> = (1..=3).map(KeySet::from_seed).collect();
        for keys in &tenants {
            cache.get_or_seal(keys, "main: halt").unwrap();
            cache.get_or_seal(keys, "main: nop\n halt").unwrap();
        }
        cache
            .get_or_seal(&tenants[0], "main: li t0, 1\n halt")
            .unwrap();
        assert_eq!(cache.stats().plans, 3);
        cache.purge(&tenants[0]);
        // The third source backed only the first tenant's image.
        assert_eq!(cache.stats().plans, 2);
        for keys in &tenants[1..] {
            cache.purge(keys);
        }
        let s = cache.stats();
        assert_eq!((s.plans, s.entries), (0, 0));
        assert!(cache.inner.lock().unwrap().sources.is_empty());
    }

    #[test]
    fn a_data_section_larger_than_ram_is_refused() {
        let src = "main: halt\n.data\n.space 0x1000";
        let err = ImageCache::new()
            .with_ram_size(0xFFF)
            .get_or_seal(&KeySet::from_seed(4), src)
            .unwrap_err();
        let want = TransformError::DataTooLarge {
            bytes: 0x1000,
            ram_size: 0xFFF,
        };
        assert_eq!(err, SealError::Transform(want));
        let fits = ImageCache::new().with_ram_size(0x1000);
        assert!(fits.get_or_seal(&KeySet::from_seed(4), src).is_ok());
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
    fn concurrent_tenants_plan_a_source_once() {
        const TENANTS: u64 = 6;
        let cache = ImageCache::new();
        // Every thread's first request leaves the barrier together, so
        // they race for the plan.
        let start = std::sync::Barrier::new(TENANTS as usize);
        std::thread::scope(|scope| {
            for seed in 0..TENANTS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    let keys = KeySet::from_seed(seed);
                    start.wait();
                    for _ in 0..4 {
                        cache.get_or_seal(&keys, "main: li t0, 5\n halt").unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.planned, 1, "planned more than once: {s:?}");
        assert_eq!(
            (s.plans, s.misses, s.entries),
            (1, TENANTS, TENANTS as usize)
        );
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
