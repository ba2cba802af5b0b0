//! The verified-block cache: post-verification caching of decrypted,
//! MAC-checked blocks, keyed by the control-flow edge that sealed them.
//!
//! # Why the key is `(prevPC, PC)` and why that is sound
//!
//! A SOFIA block's ciphertext is bound to the edge that legitimately
//! reaches it: the CTR counter is `{ω ‖ prevPC ‖ PC}` (paper §II-B), so
//! the *identity* of a verified block — which plaintext the hardware
//! would reconstruct and accept — is fully determined by the transfer
//! target and the `prevPC` the hardware presents. Caching the verified
//! plaintext under exactly that pair preserves the paper's security
//! argument:
//!
//! * a **forged edge** `(prevPC', PC)` with `prevPC' ≠ prevPC` is a
//!   *different key* — it can never hit a line that was verified for the
//!   sealed edge, so it falls through to [`crate::fetch::fetch_block`]
//!   and fails the MAC exactly as on an uncached machine;
//! * a **hit** replays instruction words that already passed the SI
//!   check for this very edge, so no unverified word ever reaches the
//!   pipeline through the cache;
//! * **tampering with ROM after a line was filled** is detected at the
//!   next miss/refill of that line — the same contract as the hardware's
//!   ciphertext I-cache, whose contents also go stale only until
//!   eviction. A core reset flushes the cache (the reboot must restore a
//!   safe control state), so persistent tampering still resets forever.
//!
//! Timing-wise a hit skips the CTR decrypt, the CBC-MAC, the ciphertext
//! I-cache walk and the decrypt-pipeline refill, charging only the
//! block's issue slots plus a configurable hit latency — which is the
//! whole point: hot loops stop paying MAC+CTR on every iteration.
//!
//! Host-wise a hit finds its set without a divide: the set index is
//! `hash % sets`, computed exactly by a multiply with a constant fixed
//! when the cache is built (Lemire's fastmod), so every edge lands in
//! the set it always did.
//!
//! A line is a [`CachedBlock`], the fetch path's one verified-line type:
//! every refill produces one, the host-only refill memo
//! ([`crate::memo`]) keeps the same line, and a hit or a memo hit lends
//! the engine the line's own slots. The cache alone counts its hits,
//! misses and evictions; [`crate::SofiaStats`] reads them from it.

use std::sync::Arc;

use sofia_cpu::fetch::Slot;
use sofia_cpu::pipeline::BlockCost;
use sofia_transform::BlockFormat;

use crate::fetch::EntryPath;

/// Geometry and policy of the verified-block cache.
///
/// The default is **disabled**, which preserves the uncached machine's
/// behaviour bit-for-bit (no lookups, no stats, no timing change).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VCacheConfig {
    /// Master switch. Disabled ⇒ the fetch path is byte-identical to a
    /// machine built before this cache existed.
    pub enabled: bool,
    /// Total capacity in cached edges (must be a multiple of `ways`).
    pub entries: u32,
    /// Associativity: 1 = direct-mapped, `entries` = fully associative.
    pub ways: u32,
    /// Cycles charged per hit on top of the block's issue slots. The
    /// default is 0: the tag compare overlaps the first issue slot, the
    /// same convention under which the ciphertext I-cache charges
    /// nothing on a hit. Raise it to model a slower tag/data array.
    pub hit_latency: u32,
}

impl Default for VCacheConfig {
    fn default() -> Self {
        VCacheConfig {
            enabled: false,
            entries: 64,
            ways: 4,
            hit_latency: 0,
        }
    }
}

impl VCacheConfig {
    /// An enabled cache with the given geometry and default hit latency.
    pub fn enabled(entries: u32, ways: u32) -> VCacheConfig {
        VCacheConfig {
            enabled: true,
            entries,
            ways,
            hit_latency: VCacheConfig::default().hit_latency,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is zero, or `ways` does not divide
    /// `entries`.
    pub fn validate(&self) {
        assert!(
            self.entries > 0 && self.ways > 0 && self.entries % self.ways == 0,
            "invalid vcache geometry: {} entries / {} ways",
            self.entries,
            self.ways
        );
    }
}

/// Hit/miss/eviction counters of the verified-block cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VCacheStats {
    /// Lookups that found the edge verified and cached.
    pub hits: u64,
    /// Lookups that fell through to the decrypt + verify path.
    pub misses: u64,
    /// Verified lines evicted to make room (capacity/conflict).
    pub evictions: u64,
    /// Verified lines inserted after a successful miss.
    pub insertions: u64,
    /// Lines dropped by a flush (core reset).
    pub flushed: u64,
}

impl VCacheStats {
    /// Hit rate in `[0, 1]`; 0 when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A verified line: the decoded instruction slots of one block entered
/// along one path (already past the SI check, the decoder and the
/// store-position rule) and their [`BlockCost`], plus the sequencing
/// facts the fetch unit needs to replay it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedBlock {
    /// Base address of the block.
    pub base: u32,
    /// Address of the block's last word (the `prevPC` its exits present).
    pub last_word_addr: u32,
    /// The entry path the line was verified along (its kind feeds the
    /// per-kind counters, its words the I-cache walk).
    pub path: EntryPath,
    /// Ciphertext words the uncached fetch walks for this entry path —
    /// what a hit *saves* in issue slots and cipher work.
    pub words_fetched: u32,
    /// The decoded, classified instruction slots, in issue order. Every
    /// fetch the line serves — a vcache hit, a memo hit or the refill
    /// that made it — lends them to the engine by reference
    /// ([`sofia_cpu::FetchUnit::fetch_batch`]); the `Arc` lets the refill
    /// memo and the cache share one copy of a line.
    slots: Arc<[Slot]>,
    /// `BlockCost::of(slots)`, summed once at decode; a hit lends it
    /// with the slots.
    cost: BlockCost,
}

impl CachedBlock {
    /// A line for `slots`, decoded from the block at `base` whose last
    /// word is `last_word_addr` and entered along `path`; its
    /// [`BlockCost`] is summed here, once.
    pub fn new(
        base: u32,
        last_word_addr: u32,
        path: EntryPath,
        words_fetched: u32,
        slots: Arc<[Slot]>,
    ) -> CachedBlock {
        CachedBlock {
            base,
            last_word_addr,
            path,
            words_fetched,
            cost: BlockCost::of(&slots),
            slots,
        }
    }

    /// The decoded, classified instruction slots, in issue order.
    #[inline]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The slots' static pipeline cost.
    #[inline]
    pub fn cost(&self) -> BlockCost {
        self.cost
    }

    /// Addresses of the words the line's path fetches, in fetch order:
    /// what a refill walks the ciphertext I-cache over, and what the
    /// refill memo re-reads to check a line is still current.
    pub(crate) fn fetched_addrs(&self, format: &BlockFormat) -> impl Iterator<Item = u32> + '_ {
        self.path
            .fetched_words(format)
            .map(|w| self.base + 4 * w as u32)
    }
}

/// Where a resident line sits, as [`VCache::lookup`] found it. It stays
/// valid until the cache next changes (insert, flush or restore).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineAt {
    set: u32,
    way: u32,
}

#[derive(Clone, Debug)]
struct Line {
    key: (u32, u32),
    stamp: u64,
    block: CachedBlock,
}

/// A set-associative, LRU-replaced cache of verified blocks keyed by the
/// control-flow edge `(prevPC, targetPC)`.
///
/// # Examples
///
/// ```
/// use sofia_core::fetch::EntryPath;
/// use sofia_core::vcache::{CachedBlock, VCache, VCacheConfig};
///
/// let mut c = VCache::new(VCacheConfig::enabled(4, 2));
/// let block = CachedBlock::new(0x40, 0x5C, EntryPath::Exec, 8, [].into());
/// c.insert((0x1C, 0x40), block);
/// let at = c.lookup(0x1C, 0x40).expect("the sealed edge hits");
/// assert_eq!(c.line(at).base, 0x40);
/// assert!(c.lookup(0x3C, 0x40).is_none()); // a forged edge never does
/// ```
#[derive(Clone, Debug)]
pub struct VCache {
    config: VCacheConfig,
    sets: Vec<Vec<Line>>,
    /// [`fastmod_magic`] of the set count (0 when disabled).
    set_magic: u64,
    tick: u64,
    stats: VCacheStats,
}

/// The constant [`fastmod`] divides by `d` with: `⌈2⁶⁴ / d⌉`, which
/// wraps to 0 for `d = 1`.
fn fastmod_magic(d: u32) -> u64 {
    (u64::MAX / u64::from(d)).wrapping_add(1)
}

/// `h % d` without a divide, exact for every `u32` pair (Lemire, Kaser
/// and Kurz, "Faster Remainder by Direct Computation", 2019): the low 64
/// bits of `magic · h` are the fraction `h / d` scaled by 2⁶⁴, and the
/// high half of that fraction times `d` is the remainder.
#[inline]
fn fastmod(h: u32, magic: u64, d: u32) -> u32 {
    let fraction = magic.wrapping_mul(u64::from(h));
    ((u128::from(fraction) * u128::from(d)) >> 64) as u32
}

impl VCache {
    /// An empty cache. A disabled config allocates no sets and turns
    /// [`VCache::lookup`]/[`VCache::insert`] into no-ops.
    ///
    /// # Panics
    ///
    /// Panics on an invalid geometry (see [`VCacheConfig::validate`]).
    pub fn new(config: VCacheConfig) -> VCache {
        let (sets, set_magic) = if config.enabled {
            config.validate();
            let sets = config.sets();
            (
                vec![Vec::with_capacity(config.ways as usize); sets as usize],
                fastmod_magic(sets),
            )
        } else {
            (Vec::new(), 0)
        };
        VCache {
            config,
            sets,
            set_magic,
            tick: 0,
            stats: VCacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> VCacheConfig {
        self.config
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Accumulated counters.
    pub fn stats(&self) -> VCacheStats {
        self.stats
    }

    #[inline]
    fn set_index(&self, key: (u32, u32)) -> usize {
        // Word-granular addresses: drop the always-zero low bits, then
        // run the combined edge through a full-avalanche mixer (the
        // murmur3 finalizer) so both the target (a block's many
        // successors) and the prevPC (a mux target's many callers)
        // spread across sets. A single odd-multiply is not enough: block
        // addresses stride by 32, and a multiply preserves that stride
        // structure modulo small set counts.
        let mut h = (key.0 >> 2) ^ (key.1 >> 2).rotate_left(16);
        h ^= h >> 16;
        h = h.wrapping_mul(0x7FEB_352D);
        h ^= h >> 15;
        h = h.wrapping_mul(0x846C_A68B);
        h ^= h >> 16;
        fastmod(h, self.set_magic, self.sets.len() as u32) as usize
    }

    /// Looks up the edge `(prev_pc, target)`, updating LRU order and the
    /// hit/miss counters, and returns where the line sits
    /// ([`VCache::line`] reads it). Always a miss when disabled (without
    /// counting).
    #[inline]
    pub fn lookup(&mut self, prev_pc: u32, target: u32) -> Option<LineAt> {
        if !self.config.enabled {
            return None;
        }
        let key = (prev_pc, target);
        let idx = self.set_index(key);
        self.tick += 1;
        let tick = self.tick;
        match self.sets[idx]
            .iter_mut()
            .enumerate()
            .find(|(_, l)| l.key == key)
        {
            Some((way, line)) => {
                line.stamp = tick;
                self.stats.hits += 1;
                Some(LineAt {
                    set: idx as u32,
                    way: way as u32,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The line a [`VCache::lookup`] found.
    ///
    /// # Panics
    ///
    /// Panics if the cache changed since that lookup moved the line out
    /// of range.
    #[inline]
    pub fn line(&self, at: LineAt) -> &CachedBlock {
        &self.sets[at.set as usize][at.way as usize].block
    }

    /// Inserts a freshly verified block for the edge `(prev_pc, target)`,
    /// evicting the set's least-recently-used line if the set is full.
    /// No-op when disabled.
    pub fn insert(&mut self, key: (u32, u32), block: CachedBlock) {
        if !self.config.enabled {
            return;
        }
        let idx = self.set_index(key);
        self.tick += 1;
        let tick = self.tick;
        let set = &mut self.sets[idx];
        if let Some(line) = set.iter_mut().find(|l| l.key == key) {
            // Re-verification of an edge already present (e.g. after the
            // insert-racing path was taken on a miss): refresh in place.
            line.stamp = tick;
            line.block = block;
            return;
        }
        if set.len() as u32 >= self.config.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            set.swap_remove(lru);
            self.stats.evictions += 1;
        }
        set.push(Line {
            key,
            stamp: tick,
            block,
        });
        self.stats.insertions += 1;
    }

    /// Drops every line (core reset: the reboot must restore a safe
    /// control state, so stale verified plaintext must not survive it).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            self.stats.flushed += set.len() as u64;
            set.clear();
        }
    }

    /// The LRU clock — exported by machine snapshots so a restored cache
    /// replays the exact same eviction decisions.
    pub(crate) fn clock(&self) -> u64 {
        self.tick
    }

    /// Every resident line's `(edge, LRU stamp)`, in set order — the
    /// snapshot export. Deliberately **metadata only**: the verified
    /// plaintext never leaves the cache; a restore re-verifies each edge
    /// from the (MAC-protected) ciphertext instead.
    pub(crate) fn export_lines(&self) -> Vec<((u32, u32), u64)> {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|l| (l.key, l.stamp)))
            .collect()
    }

    /// Rebuilds the cache wholesale from re-verified lines, preserving
    /// each line's LRU stamp and the clock, and replacing the counters —
    /// the restore half of [`VCache::export_lines`]. Placement is
    /// recomputed from the keys, so the only way a line set can be
    /// invalid is a snapshot claiming more lines than a set holds (or
    /// the same edge twice, or any line at all on a disabled cache).
    ///
    /// # Errors
    ///
    /// Returns the offending edge; the cache is left empty of restored
    /// lines (the caller discards the machine).
    pub(crate) fn restore_state(
        &mut self,
        lines: Vec<((u32, u32), u64, CachedBlock)>,
        tick: u64,
        stats: VCacheStats,
    ) -> Result<(), (u32, u32)> {
        if !self.config.enabled {
            if let Some(&(key, _, _)) = lines.first() {
                return Err(key);
            }
            self.tick = tick;
            self.stats = stats;
            return Ok(());
        }
        for set in &mut self.sets {
            set.clear();
        }
        for (key, stamp, block) in lines {
            let idx = self.set_index(key);
            let set = &mut self.sets[idx];
            if set.len() as u32 >= self.config.ways || set.iter().any(|l| l.key == key) {
                return Err(key);
            }
            set.push(Line { key, stamp, block });
        }
        self.tick = tick;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(base: u32) -> CachedBlock {
        CachedBlock::new(base, base + 28, EntryPath::Exec, 8, [].into())
    }

    #[test]
    fn disabled_cache_never_hits_and_counts_nothing() {
        let mut c = VCache::new(VCacheConfig::default());
        c.insert((0, 0x40), block(0x40));
        assert!(c.lookup(0, 0x40).is_none());
        assert_eq!(c.stats(), VCacheStats::default());
    }

    #[test]
    fn sealed_edge_hits_forged_edge_misses() {
        let mut c = VCache::new(VCacheConfig::enabled(8, 2));
        c.insert((0x1C, 0x40), block(0x40));
        let at = c.lookup(0x1C, 0x40).unwrap();
        assert_eq!(c.line(at).base, 0x40);
        // Same target, wrong prevPC: the key includes the edge source.
        assert!(c.lookup(0x5C, 0x40).is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_way() {
        // Fully associative with 2 ways: third insert evicts the LRU.
        let mut c = VCache::new(VCacheConfig::enabled(2, 2));
        c.insert((0, 0x40), block(0x40));
        c.insert((0, 0x60), block(0x60));
        assert!(c.lookup(0, 0x40).is_some()); // touch 0x40: 0x60 is LRU
        c.insert((0, 0x80), block(0x80));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(0, 0x40).is_some());
        assert!(c.lookup(0, 0x60).is_none());
        assert!(c.lookup(0, 0x80).is_some());
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = VCache::new(VCacheConfig::enabled(2, 2));
        c.insert((0, 0x40), block(0x40));
        c.insert((0, 0x40), block(0x40));
        assert_eq!(c.stats().insertions, 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn flush_empties_every_set() {
        let mut c = VCache::new(VCacheConfig::enabled(8, 2));
        c.insert((0, 0x40), block(0x40));
        c.insert((4, 0x60), block(0x60));
        c.flush();
        assert!(c.lookup(0, 0x40).is_none());
        assert!(c.lookup(4, 0x60).is_none());
        assert_eq!(c.stats().flushed, 2);
    }

    #[test]
    fn set_index_spreads_both_halves_of_the_edge() {
        // Successor edges of one block (same prevPC, many targets) and
        // caller edges of one target (many prevPCs) must both spread
        // across sets, or direct-mapped geometries thrash one set.
        let c = VCache::new(VCacheConfig::enabled(16, 1));
        let spread = |keys: Vec<(u32, u32)>| {
            keys.iter()
                .map(|&k| c.set_index(k))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let fanout = spread((0..64).map(|i| (0x1C, 0x100 + 32 * i)).collect());
        let fanin = spread((0..64).map(|i| (0x100 + 32 * i, 0x1C)).collect());
        assert!(fanout >= 8, "64 successor edges hit only {fanout} sets");
        assert!(fanin >= 8, "64 caller edges hit only {fanin} sets");
    }

    #[test]
    fn the_set_index_is_the_remainder() {
        // Every set count a decodable snapshot can configure (one way per
        // set at most `MAX_VCACHE_ENTRIES` sets), against random hashes
        // and the boundaries of each divisor.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        for d in 1..=crate::snapshot::MAX_VCACHE_ENTRIES {
            let magic = fastmod_magic(d);
            let boundaries = [0, 1, d - 1, d, d.wrapping_add(1), 2 * d, u32::MAX];
            let multiples = [u32::MAX / d * d, (u32::MAX / d - 1) * d];
            let hashes = boundaries
                .into_iter()
                .chain(multiples)
                .chain((0..4).map(|_| random()));
            for h in hashes {
                assert_eq!(fastmod(h, magic, d), h % d, "{h} % {d}");
            }
        }
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut c = VCache::new(VCacheConfig::enabled(1, 1));
        c.insert((0, 0x40), block(0x40));
        c.insert((0, 0x60), block(0x60));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(0, 0x40).is_none());
    }

    #[test]
    #[should_panic(expected = "vcache geometry")]
    fn bad_geometry_rejected() {
        let _ = VCache::new(VCacheConfig::enabled(6, 4));
    }
}
