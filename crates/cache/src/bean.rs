//! The business-tier unit-bean cache with model-driven invalidation.
//!
//! §6: "WebRatio caches the data beans produced by the action invocations,
//! which typically include the result of data access queries, and make
//! them reusable by multiple requests. Moreover, since a conceptual model
//! of the application is available, which clearly exposes the Entity or
//! Relationship on which the content of a unit depends, and the operations
//! that may act on such content, the implementation of operations
//! automatically invalidates the affected cached objects."

use crate::stats::{CacheStats, StatsSnapshot};
use crate::version::{Provenance, VersionTable};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on the number of lock stripes a cache is split into.
pub const MAX_STRIPES: usize = 16;

/// Minimum entries a stripe should hold before the cache splits further —
/// keeps small caches (unit tests, tiny deployments) on a single stripe
/// with *exact* global LRU semantics, and only shards caches big enough
/// that per-stripe LRU is statistically indistinguishable from global.
pub const MIN_STRIPE_CAPACITY: usize = 64;

/// Per-stripe bounds of a cache bounded to `capacity` entries: one stripe
/// per [`MIN_STRIPE_CAPACITY`] entries (at least one, at most
/// [`MAX_STRIPES`]), the bounds summing to exactly `capacity` (earlier
/// stripes absorb the remainder).
pub(crate) fn stripe_capacities(capacity: usize) -> Vec<usize> {
    let n = (capacity / MIN_STRIPE_CAPACITY).clamp(1, MAX_STRIPES);
    let base = capacity / n;
    let rem = capacity % n;
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// FNV-1a over a sequence of byte strings; computed once per key at
/// construction so neither the stripe selector nor the hash maps ever
/// re-hash the key's strings on the hot path.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // separator so ("ab","c") and ("a","bc") differ
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub(crate) fn stripe_of(key_hash: u64, n: usize) -> usize {
    if n == 1 {
        return 0;
    }
    (key_hash % n as u64) as usize
}

/// Cache key: unit descriptor id + a fingerprint of its input parameters.
///
/// Carries a precomputed FNV-1a of both strings: stripe selection and the
/// stripe map's hashing both feed off it, so one key is hashed exactly
/// once, at construction.
#[derive(Debug, Clone)]
pub struct BeanKey {
    pub unit: String,
    pub params: String,
    fnv: u64,
}

impl BeanKey {
    pub fn new(unit: impl Into<String>, params: impl Into<String>) -> BeanKey {
        let unit = unit.into();
        let params = params.into();
        let fnv = fnv1a(&[unit.as_bytes(), params.as_bytes()]);
        BeanKey { unit, params, fnv }
    }

    pub(crate) fn stripe_hash(&self) -> u64 {
        self.fnv
    }
}

impl PartialEq for BeanKey {
    fn eq(&self, other: &BeanKey) -> bool {
        // hash first: a cheap reject for the common not-equal probe
        self.fnv == other.fnv && self.unit == other.unit && self.params == other.params
    }
}

impl Eq for BeanKey {}

impl Hash for BeanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fnv);
    }
}

impl PartialOrd for BeanKey {
    fn partial_cmp(&self, other: &BeanKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BeanKey {
    fn cmp(&self, other: &BeanKey) -> std::cmp::Ordering {
        // lexicographic on the visible fields (stable, hash-independent)
        (&self.unit, &self.params).cmp(&(&other.unit, &other.params))
    }
}

/// Verdict a patch closure returns to [`BeanCache::patch`].
pub enum Patch {
    /// The closure patched the cached value.
    Updated,
    /// The change did not affect this bean; leave it untouched.
    Keep,
    /// Unpatchable — drop the entry so the next read recomputes.
    Drop,
}

/// What [`BeanCache::patch`] did to a cached entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchEffect {
    Updated,
    Kept,
    Dropped,
}

struct Entry<V> {
    value: Arc<V>,
    /// Entities (table names) the bean depends on.
    deps: Vec<String>,
    /// Row-scoped dependencies: the bean depends on exactly this row of
    /// the entity, not the whole table (single-row probes). A write to a
    /// *different* oid of the same entity leaves the bean untouched.
    row_deps: Vec<(String, i64)>,
    /// The commit LSN the value was computed at: it shows every batch up
    /// to that LSN, so maintenance of those batches passes it by.
    lsn: u64,
    expires: Option<Instant>,
    /// LRU clock reading.
    stamp: u64,
}

struct Inner<V> {
    entries: HashMap<BeanKey, Entry<V>>,
    /// LRU order: stamp → key (stamps come from the cache-global clock,
    /// so per-stripe order reflects global recency).
    order: BTreeMap<u64, BeanKey>,
    /// Reverse dependency index: entity → keys whose beans depend on it
    /// (stripe-local: it indexes only this stripe's entries).
    by_entity: HashMap<String, HashSet<BeanKey>>,
    /// Row-scoped reverse index: (entity, oid) → keys that depend on
    /// exactly that row.
    by_row: HashMap<(String, i64), HashSet<BeanKey>>,
    /// Entries this stripe may hold; stripe bounds sum to the cache bound.
    capacity: usize,
}

/// A bounded, thread-safe cache of unit beans keyed by (unit, parameters),
/// invalidated by TTL and/or by the entities the unit depends on.
///
/// Internally the key space is hash-partitioned over N lock stripes
/// (`hash(key) → stripe`), each guarding its own entry map, LRU order and
/// reverse dependency index, so concurrent readers of *different* keys no
/// longer serialize behind one global mutex. LRU is segmented: stamps come
/// from one cache-global clock but eviction picks the oldest entry of the
/// full stripe; small caches (< [`MIN_STRIPE_CAPACITY`] entries) stay on a
/// single stripe and keep exact global LRU. Entity/unit invalidation
/// sweeps every stripe, so the model-driven invalidation contract (§6) is
/// unchanged — `invalidate_entity` drops *every* dependent bean before
/// returning.
///
/// A put is stamped with the commit LSN its bean was computed at and is
/// refused when the node's [`VersionTable`] has recorded a newer write to
/// something the bean read (see [`VersionTable::outdates`]).
pub struct BeanCache<V> {
    stripes: Vec<Mutex<Inner<V>>>,
    clock: AtomicU64,
    capacity: usize,
    stats: CacheStats,
    versions: Arc<VersionTable>,
}

impl<V> BeanCache<V> {
    /// Create a cache bounded to `capacity` entries (LRU eviction), striped
    /// one lock per [`MIN_STRIPE_CAPACITY`] entries up to [`MAX_STRIPES`].
    pub fn new(capacity: usize) -> BeanCache<V> {
        Self::with_stats(capacity, CacheStats::default(), Arc::default())
    }

    /// Like [`BeanCache::new`], but reporting into externally owned counters
    /// (e.g. `CacheStats::shared(registry.bean_cache.clone())`) and
    /// checking puts against the node's version table.
    pub fn with_stats(
        capacity: usize,
        stats: CacheStats,
        versions: Arc<VersionTable>,
    ) -> BeanCache<V> {
        let capacity = capacity.max(1);
        let stripes = stripe_capacities(capacity)
            .into_iter()
            .map(|cap| {
                Mutex::new(Inner {
                    entries: HashMap::new(),
                    order: BTreeMap::new(),
                    by_entity: HashMap::new(),
                    by_row: HashMap::new(),
                    capacity: cap,
                })
            })
            .collect();
        BeanCache {
            stripes,
            clock: AtomicU64::new(0),
            capacity,
            stats,
            versions,
        }
    }

    /// The version table puts are checked against.
    pub fn versions(&self) -> &Arc<VersionTable> {
        &self.versions
    }

    /// Number of lock stripes the key space is partitioned over.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, key: &BeanKey) -> &Mutex<Inner<V>> {
        &self.stripes[stripe_of(key.stripe_hash(), self.stripes.len())]
    }

    /// Acquire a stripe lock, counting the acquisition as *contended* when
    /// the lock was already held (try-then-block probe). The counter feeds
    /// [`CacheStats::snapshot`]'s `lock_contended` — the core-count-independent
    /// measure of how much serialisation the striping policy removes.
    fn lock_probed<'a>(&self, m: &'a Mutex<Inner<V>>) -> parking_lot::MutexGuard<'a, Inner<V>> {
        match m.try_lock() {
            Some(g) => g,
            None => {
                self.stats.lock_contention();
                m.lock()
            }
        }
    }

    fn next_stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a bean; refreshes its LRU position.
    pub fn get(&self, key: &BeanKey) -> Option<Arc<V>> {
        self.get_at(key, Instant::now())
    }

    /// Look up at an explicit instant (deterministic TTL tests).
    pub fn get_at(&self, key: &BeanKey, now: Instant) -> Option<Arc<V>> {
        let mut inner = self.lock_probed(self.stripe(key));
        // expired?
        let expired = match inner.entries.get(key) {
            Some(e) => e.expires.is_some_and(|t| t <= now),
            None => {
                self.stats.miss();
                return None;
            }
        };
        if expired {
            Self::remove_entry(&mut inner, key);
            self.stats.expiration();
            self.stats.miss();
            return None;
        }
        let stamp = self.next_stamp();
        let e = inner.entries.get_mut(key).unwrap();
        let old_stamp = e.stamp;
        e.stamp = stamp;
        let value = Arc::clone(&e.value);
        inner.order.remove(&old_stamp);
        inner.order.insert(stamp, key.clone());
        self.stats.hit();
        Some(value)
    }

    /// Cache a bean computed from `from`, with an optional TTL. A row pair
    /// of `from.rows` narrows the bean's dependency on that entity to one
    /// row — the entity must not also appear in `from.entities`, which
    /// would re-widen it: a write to a different oid leaves the bean cached
    /// ([`BeanCache::keys_for_row`] does not name it), whole-entity
    /// invalidation still drops it. A put [`VersionTable::outdates`] is
    /// refused and the bean returned uncached.
    pub fn put(
        &self,
        key: BeanKey,
        value: V,
        from: Provenance<'_>,
        ttl: Option<Duration>,
    ) -> Arc<V> {
        let value = Arc::new(value);
        let mut inner = self.lock_probed(self.stripe(&key));
        if self.versions.outdates(&from) {
            return value;
        }
        // replace any existing entry
        if inner.entries.contains_key(&key) {
            Self::remove_entry(&mut inner, &key);
        }
        // evict this stripe's LRU if the stripe is full (segmented LRU)
        while inner.entries.len() >= inner.capacity {
            let Some((_, victim)) = inner.order.iter().next().map(|(s, k)| (*s, k.clone())) else {
                break;
            };
            Self::remove_entry(&mut inner, &victim);
            self.stats.eviction();
        }
        let stamp = self.next_stamp();
        inner.entries.insert(
            key.clone(),
            Entry {
                value: Arc::clone(&value),
                deps: from.entities.to_vec(),
                row_deps: from.rows.to_vec(),
                lsn: from.lsn,
                expires: ttl.map(|d| Instant::now() + d),
                stamp,
            },
        );
        inner.order.insert(stamp, key.clone());
        for d in from.entities {
            inner
                .by_entity
                .entry(d.clone())
                .or_default()
                .insert(key.clone());
        }
        for rd in from.rows {
            inner
                .by_row
                .entry(rd.clone())
                .or_default()
                .insert(key.clone());
        }
        self.stats.insertion();
        value
    }

    fn remove_entry(inner: &mut Inner<V>, key: &BeanKey) {
        if let Some(e) = inner.entries.remove(key) {
            inner.order.remove(&e.stamp);
            for d in &e.deps {
                if let Some(set) = inner.by_entity.get_mut(d) {
                    set.remove(key);
                    if set.is_empty() {
                        inner.by_entity.remove(d);
                    }
                }
            }
            for rd in &e.row_deps {
                if let Some(set) = inner.by_row.get_mut(rd) {
                    set.remove(key);
                    if set.is_empty() {
                        inner.by_row.remove(rd);
                    }
                }
            }
        }
    }

    /// Invalidate every bean depending on `entity`; returns how many were
    /// dropped. This is what operation services call automatically (§6).
    /// Sweeps every stripe: once this returns, no bean that depended on
    /// `entity` at call time is still served.
    pub fn invalidate_entity(&self, entity: &str) -> usize {
        let mut dropped = 0;
        for stripe in &self.stripes {
            let mut inner = self.lock_probed(stripe);
            let mut keys: HashSet<BeanKey> = inner
                .by_entity
                .get(entity)
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
            // row-scoped dependents narrow, they don't escape: a
            // whole-entity sweep takes them too
            for ((e, _), set) in &inner.by_row {
                if e == entity {
                    keys.extend(set.iter().cloned());
                }
            }
            for k in &keys {
                Self::remove_entry(&mut inner, k);
            }
            dropped += keys.len();
        }
        self.stats.invalidation(dropped as u64);
        dropped
    }

    /// Every cached key affected by a change to one specific row:
    /// whole-entity dependents (they may reflect any row) plus the beans
    /// row-scoped to exactly `oid`. Beans scoped to other rows are
    /// provably unaffected, so the maintenance layer never has to visit
    /// (or clone) their keys.
    pub fn keys_for_row(&self, entity: &str, oid: i64) -> Vec<BeanKey> {
        let rk = (entity.to_string(), oid);
        let mut out: HashSet<BeanKey> = HashSet::new();
        for stripe in &self.stripes {
            let inner = stripe.lock();
            if let Some(set) = inner.by_entity.get(entity) {
                out.extend(set.iter().cloned());
            }
            if let Some(set) = inner.by_row.get(&rk) {
                out.extend(set.iter().cloned());
            }
        }
        let mut v: Vec<BeanKey> = out.into_iter().collect();
        v.sort();
        v
    }

    /// Maintain a cached bean for the batch committed at `lsn`, keeping
    /// its dependencies, TTL, LRU position and stamp: `f` gets the cached
    /// value and returns a [`Patch`] verdict — patched (in place, through
    /// `Arc::make_mut`, which copies only a value a reader still holds; or
    /// replaced), left untouched (the change did not affect this bean), or
    /// to be dropped (the caller's fallback-to-recompute path; counted as
    /// an invalidation). `f` runs under the stripe lock, so no reader sees
    /// a value half patched; it must not change the value unless it
    /// answers [`Patch::Updated`]. A bean computed at `lsn` or later
    /// already shows the batch: `f` is not called and the bean is kept.
    /// Returns `None` when the key was not cached, otherwise the effect
    /// that was applied.
    pub fn patch(
        &self,
        key: &BeanKey,
        lsn: u64,
        f: impl FnOnce(&mut Arc<V>) -> Patch,
    ) -> Option<PatchEffect> {
        let mut inner = self.lock_probed(self.stripe(key));
        let entry = inner.entries.get_mut(key)?;
        if entry.lsn >= lsn {
            return Some(PatchEffect::Kept);
        }
        match f(&mut entry.value) {
            Patch::Updated => Some(PatchEffect::Updated),
            Patch::Keep => Some(PatchEffect::Kept),
            Patch::Drop => {
                Self::remove_entry(&mut inner, key);
                drop(inner);
                self.stats.invalidation(1);
                Some(PatchEffect::Dropped)
            }
        }
    }

    pub fn clear(&self) {
        let mut n = 0;
        for stripe in &self.stripes {
            let mut inner = stripe.lock();
            n += inner.entries.len();
            inner.entries.clear();
            inner.order.clear();
            inner.by_entity.clear();
            inner.by_row.clear();
        }
        self.stats.invalidation(n as u64);
    }

    /// The entities currently present in the reverse dependency index —
    /// the set of tables a write to which would invalidate at least one
    /// cached bean. Sorted for deterministic assertions; the index keeps
    /// no entry for entities whose last dependent bean was removed.
    pub fn dependency_entities(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        for stripe in &self.stripes {
            set.extend(stripe.lock().by_entity.keys().cloned());
        }
        set.into_iter().collect()
    }

    /// Number of cached beans indexed under `entity` (summed over stripes).
    pub fn dependents_of(&self, entity: &str) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .by_entity
                    .get(entity)
                    .map(|set| set.len())
                    .unwrap_or(0)
            })
            .sum()
    }

    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// The configured global capacity (sum of per-stripe bounds).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Computed at LSN 0 from `entities`.
    fn on(entities: &[String]) -> Provenance<'_> {
        Provenance {
            lsn: 0,
            entities,
            rows: &[],
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let c: BeanCache<String> = BeanCache::new(16);
        let k = BeanKey::new("unit1", "volume=7");
        c.put(k.clone(), "bean".into(), on(&deps(&["volume"])), None);
        assert_eq!(c.get(&k).as_deref(), Some(&"bean".to_string()));
        assert_eq!(c.stats().hits, 1);
        assert!(c.get(&BeanKey::new("unit1", "volume=8")).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn entity_invalidation_drops_dependents_only() {
        let c: BeanCache<i32> = BeanCache::new(16);
        c.put(BeanKey::new("u1", "a"), 1, on(&deps(&["product"])), None);
        c.put(
            BeanKey::new("u2", "b"),
            2,
            on(&deps(&["product", "news"])),
            None,
        );
        c.put(BeanKey::new("u3", "c"), 3, on(&deps(&["news"])), None);
        let dropped = c.invalidate_entity("product");
        assert_eq!(dropped, 2);
        assert!(c.get(&BeanKey::new("u1", "a")).is_none());
        assert!(c.get(&BeanKey::new("u3", "c")).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ttl_expiry_with_explicit_clock() {
        let c: BeanCache<i32> = BeanCache::new(16);
        let k = BeanKey::new("u", "p");
        // the put's own clock reading lies between the two
        let (before, ttl) = (Instant::now(), Duration::from_millis(100));
        c.put(k.clone(), 5, on(&[]), Some(ttl));
        let after = Instant::now();
        assert!(c.get_at(&k, before + ttl / 2).is_some());
        assert!(c.get_at(&k, after + ttl * 3 / 2).is_none());
        assert_eq!(c.stats().expirations, 1);
        // expired entry is fully removed (dep index included)
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let c: BeanCache<i32> = BeanCache::new(2);
        c.put(BeanKey::new("a", ""), 1, on(&[]), None);
        c.put(BeanKey::new("b", ""), 2, on(&[]), None);
        // touch a so b becomes the LRU victim
        c.get(&BeanKey::new("a", ""));
        c.put(BeanKey::new("c", ""), 3, on(&[]), None);
        assert!(c.get(&BeanKey::new("a", "")).is_some());
        assert!(c.get(&BeanKey::new("b", "")).is_none());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn replacement_updates_value_and_deps() {
        let c: BeanCache<i32> = BeanCache::new(4);
        let k = BeanKey::new("u", "p");
        c.put(k.clone(), 1, on(&deps(&["old"])), None);
        c.put(k.clone(), 2, on(&deps(&["new"])), None);
        assert_eq!(c.get(&k).as_deref(), Some(&2));
        assert_eq!(c.invalidate_entity("old"), 0);
        assert_eq!(c.invalidate_entity("new"), 1);
    }

    #[test]
    fn dependency_index_tracks_entities_no_query_reads() {
        // a bean may declare a dependency no other unit's query reads —
        // the index must still register it so a write there invalidates
        // the bean (the analyzer's AZ103 flags the model-level waste, but
        // the cache itself must stay sound)
        let c: BeanCache<i32> = BeanCache::new(8);
        c.put(
            BeanKey::new("u1", "a"),
            1,
            on(&deps(&["orphan_table"])),
            None,
        );
        assert_eq!(c.dependency_entities(), vec!["orphan_table".to_string()]);
        assert_eq!(c.dependents_of("orphan_table"), 1);
        assert_eq!(c.invalidate_entity("orphan_table"), 1);
        assert!(c.is_empty());
        assert!(c.dependency_entities().is_empty(), "ghost index entry");
    }

    #[test]
    fn removing_last_dependent_cleans_by_entity_index() {
        let c: BeanCache<i32> = BeanCache::new(8);
        let k2 = BeanKey::new("u2", "a");
        c.put(BeanKey::new("u1", "a"), 1, on(&deps(&["product"])), None);
        c.put(k2.clone(), 2, on(&deps(&["product", "news"])), None);
        assert_eq!(c.dependents_of("product"), 2);

        // replacement rewrites k2's deps: "news" loses its last dependent
        c.put(k2, 3, on(&deps(&["product"])), None);
        assert_eq!(c.dependents_of("news"), 0);
        assert_eq!(c.dependency_entities(), vec!["product".to_string()]);

        // invalidation drops both dependents and the index entry itself
        assert_eq!(c.invalidate_entity("product"), 2);
        assert!(c.dependency_entities().is_empty(), "ghost by_entity entry");
        assert_eq!(c.invalidate_entity("product"), 0); // idempotent when empty
    }

    #[test]
    fn ttl_expiry_and_eviction_clean_the_dependency_index() {
        let c: BeanCache<i32> = BeanCache::new(1);
        let k = BeanKey::new("u", "p");
        let ttl = Duration::from_millis(10);
        c.put(k.clone(), 1, on(&deps(&["volume"])), Some(ttl));
        assert!(c.get_at(&k, Instant::now() + ttl * 2).is_none());
        assert!(c.dependency_entities().is_empty());

        // capacity-1 eviction: the victim's deps leave the index with it
        c.put(BeanKey::new("a", ""), 1, on(&deps(&["t1"])), None);
        c.put(BeanKey::new("b", ""), 2, on(&deps(&["t2"])), None);
        assert_eq!(c.dependency_entities(), vec!["t2".to_string()]);
    }

    #[test]
    fn stripe_policy_scales_with_capacity() {
        // tiny caches stay exact-LRU on one stripe; big caches shard
        assert_eq!(BeanCache::<i32>::new(1).stripe_count(), 1);
        assert_eq!(BeanCache::<i32>::new(63).stripe_count(), 1);
        assert_eq!(BeanCache::<i32>::new(128).stripe_count(), 2);
        assert_eq!(BeanCache::<i32>::new(4096).stripe_count(), MAX_STRIPES);
        assert_eq!(BeanCache::<i32>::new(512).stripe_count(), 8);
    }

    #[test]
    fn stripe_capacities_sum_to_global_capacity() {
        for cap in [1, 63, 130, 1000, 4096, 100_000] {
            let caps = stripe_capacities(cap);
            assert_eq!(caps.iter().sum::<usize>(), cap, "cap={cap}");
            assert!(caps.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn striped_cache_keeps_oracle_semantics() {
        // 8 stripes, enough capacity that nothing evicts: behaviour must be
        // indistinguishable from a single-stripe cache
        let c: BeanCache<u32> = BeanCache::new(512);
        assert_eq!(c.stripe_count(), 8);
        for i in 0..64u32 {
            c.put(
                BeanKey::new(format!("u{}", i % 7), format!("p{i}")),
                i,
                on(&deps(&[&format!("e{}", i % 5), "shared"])),
                None,
            );
        }
        assert_eq!(c.len(), 64);
        for i in 0..64u32 {
            let k = BeanKey::new(format!("u{}", i % 7), format!("p{i}"));
            assert_eq!(c.get(&k).as_deref(), Some(&i));
        }
        // entity invalidation sweeps every stripe
        assert_eq!(c.dependents_of("shared"), 64);
        assert_eq!(c.invalidate_entity("shared"), 64);
        assert!(c.is_empty());
        assert!(c.dependency_entities().is_empty(), "ghost stripe index");
    }

    #[test]
    fn striped_capacity_is_never_exceeded() {
        let c: BeanCache<u32> = BeanCache::new(512);
        for i in 0..4000u32 {
            c.put(BeanKey::new(format!("u{i}"), ""), i, on(&[]), None);
            assert!(c.len() <= 512, "len {} > 512 at insert {i}", c.len());
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn concurrent_mixed_workload_is_safe() {
        for capacity in [64, 512] {
            mixed_storm(capacity);
        }
    }

    fn mixed_storm(capacity: usize) {
        let c = Arc::new(BeanCache::<u64>::new(capacity));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let k = BeanKey::new(format!("u{}", i % 32), format!("p{t}"));
                    match i % 5 {
                        0 => {
                            c.put(k, i, on(&[format!("e{}", i % 3)]), None);
                        }
                        1 => {
                            c.invalidate_entity(&format!("e{}", i % 3));
                        }
                        2 => {
                            c.patch(&k, 1, |_| Patch::Drop);
                        }
                        _ => {
                            c.get(&k);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // dependency index consistent after the storm: every indexed
        // entity resolves to live dependents and invalidation drains it
        for e in c.dependency_entities() {
            assert!(c.dependents_of(&e) > 0);
            c.invalidate_entity(&e);
            assert_eq!(c.dependents_of(&e), 0);
        }
    }

    #[test]
    fn row_scoped_bean_survives_unrelated_row_write() {
        let c: BeanCache<String> = BeanCache::new(16);
        // two single-row probes of the same entity, different oids
        for oid in [1, 2] {
            c.put(
                BeanKey::new("BookData", format!("oid={oid}&")),
                format!("book-{oid}"),
                Provenance {
                    lsn: 0,
                    entities: &[],
                    rows: &[("book".to_string(), oid)],
                },
                None,
            );
        }
        // plus a whole-entity dependent (an index over all books)
        c.put(
            BeanKey::new("BookIndex", "-"),
            "all-books".into(),
            on(&deps(&["book"])),
            None,
        );
        // a write to book oid=1 affects the scoped bean for oid=1 and the
        // whole-entity index — the oid=2 bean survives
        let affected = c.keys_for_row("book", 1);
        assert_eq!(affected.len(), 2);
        for k in &affected {
            assert_eq!(c.patch(k, 1, |_| Patch::Drop), Some(PatchEffect::Dropped));
            assert_eq!(c.patch(k, 1, |_| Patch::Drop), None);
        }
        assert!(c.get(&BeanKey::new("BookData", "oid=1&")).is_none());
        assert!(c.get(&BeanKey::new("BookData", "oid=2&")).is_some());
        assert!(c.get(&BeanKey::new("BookIndex", "-")).is_none());
        // whole-entity invalidation still takes row-scoped dependents
        assert_eq!(c.invalidate_entity("book"), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn patch_updates_value_in_place_keeping_deps() {
        let c: BeanCache<i32> = BeanCache::new(8);
        let k = BeanKey::new("u", "p");
        c.put(k.clone(), 10, on(&deps(&["t"])), None);
        assert_eq!(
            c.patch(&k, 1, |v| {
                *Arc::make_mut(v) += 1;
                Patch::Updated
            }),
            Some(PatchEffect::Updated)
        );
        assert_eq!(c.get(&k).as_deref(), Some(&11));
        // an unaffected bean is left untouched
        assert_eq!(c.patch(&k, 2, |_| Patch::Keep), Some(PatchEffect::Kept));
        assert_eq!(c.get(&k).as_deref(), Some(&11));
        // deps survive the patch: entity invalidation still drops it
        assert_eq!(c.invalidate_entity("t"), 1);
        // patching an absent key reports None; dropping via patch works
        assert_eq!(c.patch(&k, 3, |_| Patch::Updated), None);
        c.put(k.clone(), 1, on(&[]), None);
        assert_eq!(c.patch(&k, 3, |_| Patch::Drop), Some(PatchEffect::Dropped));
        assert!(c.get(&k).is_none());
    }

    /// The put rule ([`VersionTable::outdates`]) is checked on every put.
    #[test]
    fn put_loses_to_a_recorded_newer_write() {
        let c: BeanCache<i32> = BeanCache::new(8);
        c.versions().record("t", None, 5);
        let (t, k) = (deps(&["t"]), BeanKey::new("u", "p"));
        assert_eq!(
            *c.put(k.clone(), 1, Provenance { lsn: 4, ..on(&t) }, None),
            1
        );
        assert!(c.get(&k).is_none(), "stale bean became resident");
        c.put(k.clone(), 2, Provenance { lsn: 5, ..on(&t) }, None);
        assert_eq!(c.get(&k).as_deref(), Some(&2));
    }

    #[test]
    fn clear_counts_invalidations() {
        let c: BeanCache<i32> = BeanCache::new(8);
        c.put(BeanKey::new("u", "1"), 1, on(&[]), None);
        c.put(BeanKey::new("u", "2"), 2, on(&[]), None);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 2);
    }
}
