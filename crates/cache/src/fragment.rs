//! The template-fragment cache (the ESI-like first level).
//!
//! §6: "Last-generation cache technologies, like the Edge Side Include
//! (ESI) initiative, apply more sophisticated caching strategies, based on
//! the capability of marking fragments of the page template, which can be
//! cached individually and with different policies. However ... caching
//! fragments of the page template may spare only the computation of markup
//! from query results, not the execution of the data extraction queries."
//!
//! That limitation is intrinsic: a fragment cache sees only markup, so it
//! supports TTL policies but cannot do model-driven invalidation — which
//! is exactly why WebRatio adds the second, business-tier level
//! ([`crate::bean::BeanCache`]).

use crate::bean::{fnv1a, stripe_capacities, stripe_of};
use crate::stats::{CacheStats, StatsSnapshot};
use crate::version::{Provenance, VersionTable};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Key of a cached fragment: template + fragment marker (the unit id) +
/// rule set + the fingerprint of the parameters the unit *binds*, plus the
/// whole-request fingerprint for the few units whose markup embeds the
/// request itself.
///
/// `params` is the same `k=v&…` string as the unit's [`crate::BeanKey`]:
/// the effective values (request < session < edges) of the parameters the
/// unit's queries consume, so it names the row the fragment *shows* and
/// stays parseable by the row-precise invalidation. Two URLs that differ
/// only in parameters the unit never reads share one fragment.
///
/// Like [`crate::BeanKey`], carries a precomputed FNV-1a of its strings
/// so stripe selection and map hashing never re-hash them on the hot
/// path.
#[derive(Debug, Clone)]
pub struct FragmentKey {
    pub template: String,
    pub fragment: String,
    /// Name of the rule set that rendered the markup (per-device markup
    /// differs); empty when the caller renders with one rule set only.
    pub rules: String,
    pub params: String,
    /// Fingerprint of the raw request, for request-embedding units (the
    /// scroller's pager links); empty for every other unit.
    pub request: String,
    fnv: u64,
}

impl FragmentKey {
    /// Key without a rule-set or request component.
    pub fn new(
        template: impl Into<String>,
        fragment: impl Into<String>,
        params: impl Into<String>,
    ) -> FragmentKey {
        FragmentKey::keyed(template, fragment, "", params, "")
    }

    pub fn keyed(
        template: impl Into<String>,
        fragment: impl Into<String>,
        rules: impl Into<String>,
        params: impl Into<String>,
        request: impl Into<String>,
    ) -> FragmentKey {
        let template = template.into();
        let fragment = fragment.into();
        let rules = rules.into();
        let params = params.into();
        let request = request.into();
        let fnv = fnv1a(&[
            template.as_bytes(),
            fragment.as_bytes(),
            rules.as_bytes(),
            params.as_bytes(),
            request.as_bytes(),
        ]);
        FragmentKey {
            template,
            fragment,
            rules,
            params,
            request,
            fnv,
        }
    }

    pub(crate) fn stripe_hash(&self) -> u64 {
        self.fnv
    }
}

impl PartialEq for FragmentKey {
    fn eq(&self, other: &FragmentKey) -> bool {
        self.fnv == other.fnv
            && self.template == other.template
            && self.fragment == other.fragment
            && self.rules == other.rules
            && self.params == other.params
            && self.request == other.request
    }
}

impl Eq for FragmentKey {}

impl Hash for FragmentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fnv);
    }
}

struct Entry {
    /// Rendered fragment bytes, shared by refcount: `get` hands this
    /// `Arc<[u8]>` out and the serving tier writes it to the socket with
    /// a vectored write — the markup is never copied after rendering.
    markup: Arc<[u8]>,
    expires: Instant,
    stamp: u64,
    /// Read since it was queued for eviction: the sweep passes it over
    /// once (second chance) instead of evicting it.
    touched: bool,
}

/// Sentinel bucket for entries whose fingerprint has no numeric binding
/// for the registered probe parameter: they cannot be attributed to a
/// row, so every row invalidation of the unit must drop them.
const UNBOUND: i64 = i64::MIN;

struct Inner {
    entries: HashMap<FragmentKey, Entry>,
    order: BTreeMap<u64, FragmentKey>,
    /// Dirty tombstones: fragments dropped by unit-level invalidation.
    /// The next `put` of the same key reports itself as a re-render.
    dirty: HashSet<FragmentKey>,
    /// Stamps of live entries per unit id, so unit-level invalidation
    /// visits only the unit's own fragments instead of the stripe.
    by_unit: HashMap<String, BTreeSet<u64>>,
    /// Units registered for row-precise invalidation: unit id → the
    /// request parameter that names the displayed row.
    probe_params: HashMap<String, String>,
    /// Probe index over live entries of registered units:
    /// unit → bound oid (or [`UNBOUND`]) → stamps. Keeps
    /// [`FragmentCache::invalidate_units`]' row selectors proportional to
    /// the fragments actually affected instead of the stripe population.
    probe: HashMap<String, HashMap<i64, BTreeSet<u64>>>,
    /// Entries this stripe may hold; stripe bounds sum to the cache bound.
    capacity: usize,
}

impl Inner {
    fn index_insert(&mut self, key: &FragmentKey, stamp: u64) {
        match self.by_unit.get_mut(&key.fragment) {
            Some(stamps) => {
                stamps.insert(stamp);
            }
            None => {
                self.by_unit
                    .insert(key.fragment.clone(), BTreeSet::from([stamp]));
            }
        }
        let Some(param) = self.probe_params.get(&key.fragment) else {
            return;
        };
        let oid = binding_of(&key.params, param);
        match self.probe.get_mut(&key.fragment) {
            Some(rows) => {
                rows.entry(oid).or_default().insert(stamp);
            }
            None => {
                let mut rows: HashMap<i64, BTreeSet<u64>> = HashMap::new();
                rows.entry(oid).or_default().insert(stamp);
                self.probe.insert(key.fragment.clone(), rows);
            }
        }
    }

    fn index_remove(&mut self, key: &FragmentKey, stamp: u64) {
        if let Some(stamps) = self.by_unit.get_mut(&key.fragment) {
            stamps.remove(&stamp);
            if stamps.is_empty() {
                self.by_unit.remove(&key.fragment);
            }
        }
        let Some(param) = self.probe_params.get(&key.fragment) else {
            return;
        };
        let oid = binding_of(&key.params, param);
        if let Some(rows) = self.probe.get_mut(&key.fragment) {
            if let Some(stamps) = rows.get_mut(&oid) {
                stamps.remove(&stamp);
                if stamps.is_empty() {
                    rows.remove(&oid);
                }
            }
            if rows.is_empty() {
                self.probe.remove(&key.fragment);
            }
        }
    }

    /// `(stamp, key)` of every live entry of `unit`, resolved through the
    /// unit index — O(unit's entries).
    fn unit_entries(&self, unit: &str) -> Vec<(u64, FragmentKey)> {
        self.by_unit
            .get(unit)
            .into_iter()
            .flatten()
            .filter_map(|stamp| Some((*stamp, self.order.get(stamp)?.clone())))
            .collect()
    }

    /// Remove dirtied entries, leaving a tombstone for each. Tombstones
    /// are bounded by the stripe's capacity: a full set is emptied, which
    /// only under-counts re-renders.
    fn dirty(&mut self, keys: &[(u64, FragmentKey)]) {
        for (stamp, k) in keys {
            self.entries.remove(k);
            self.order.remove(stamp);
            if self.dirty.len() >= self.capacity {
                self.dirty.clear();
            }
            self.dirty.insert(k.clone());
        }
    }
}

/// A bounded TTL cache of rendered markup fragments.
///
/// Like [`crate::bean::BeanCache`], the key space is hash-partitioned over
/// N lock stripes so concurrent template rendering no longer serializes
/// behind one global mutex; small caches stay on a single stripe, and
/// unit invalidation sweeps every stripe. A full stripe evicts first
/// in, first out, passing over once any entry read since it was queued
/// (second chance): a hit costs a flag store, and fragments that are
/// written once per URL and never read cannot flush the shared ones.
///
/// Puts follow the bean cache's rule ([`VersionTable::outdates`]); a
/// refused put hands its markup back, to be served once, uncached.
pub struct FragmentCache {
    stripes: Vec<Mutex<Inner>>,
    clock: AtomicU64,
    default_ttl: Duration,
    stats: CacheStats,
    versions: Arc<VersionTable>,
}

impl FragmentCache {
    pub fn new(capacity: usize, default_ttl: Duration) -> FragmentCache {
        Self::with_stats(capacity, default_ttl, CacheStats::default(), Arc::default())
    }

    /// Like [`FragmentCache::new`], but reporting into externally owned
    /// counters (e.g. `CacheStats::shared(registry.fragment_cache.clone())`)
    /// and checking puts against the node's version table.
    pub fn with_stats(
        capacity: usize,
        default_ttl: Duration,
        stats: CacheStats,
        versions: Arc<VersionTable>,
    ) -> FragmentCache {
        let capacity = capacity.max(1);
        let stripes = stripe_capacities(capacity)
            .into_iter()
            .map(|cap| {
                Mutex::new(Inner {
                    entries: HashMap::new(),
                    order: BTreeMap::new(),
                    dirty: HashSet::new(),
                    by_unit: HashMap::new(),
                    probe_params: HashMap::new(),
                    probe: HashMap::new(),
                    capacity: cap,
                })
            })
            .collect();
        FragmentCache {
            stripes,
            clock: AtomicU64::new(0),
            default_ttl,
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

    fn stripe(&self, key: &FragmentKey) -> &Mutex<Inner> {
        &self.stripes[stripe_of(key.stripe_hash(), self.stripes.len())]
    }

    /// Acquire a stripe lock, counting the acquisition as *contended* when
    /// the lock was already held (try-then-block probe); see
    /// `BeanCache::lock_probed`.
    fn lock_probed<'a>(&self, m: &'a Mutex<Inner>) -> parking_lot::MutexGuard<'a, Inner> {
        match m.try_lock() {
            Some(g) => g,
            None => {
                self.stats.lock_contention();
                m.lock()
            }
        }
    }

    pub fn get(&self, key: &FragmentKey) -> Option<Arc<[u8]>> {
        self.get_at(key, Instant::now())
    }

    pub fn get_at(&self, key: &FragmentKey, now: Instant) -> Option<Arc<[u8]>> {
        let mut inner = self.lock_probed(self.stripe(key));
        match inner.entries.get_mut(key) {
            None => {
                self.stats.miss();
                None
            }
            Some(e) if e.expires <= now => {
                let stamp = e.stamp;
                inner.entries.remove(key);
                inner.order.remove(&stamp);
                inner.index_remove(key, stamp);
                self.stats.expiration();
                self.stats.miss();
                None
            }
            Some(e) => {
                e.touched = true;
                self.stats.hit();
                Some(Arc::clone(&e.markup))
            }
        }
    }

    /// Cache `markup` rendered from `from` unless the version table
    /// [`outdates`](VersionTable::outdates) it — then it may show state a
    /// write has since changed, and it is handed back (`Err`) to be served
    /// once, uncached. `Ok` carries the interned bytes and whether this put
    /// *re-rendered* a fragment a maintenance invalidation had dirtied (or
    /// replaced a live one) — the signal behind `fragment_rerenders_total`.
    pub fn put(
        &self,
        key: FragmentKey,
        markup: String,
        from: Provenance<'_>,
    ) -> Result<(Arc<[u8]>, bool), String> {
        self.put_at(key, markup, from, Instant::now())
    }

    fn put_at(
        &self,
        key: FragmentKey,
        markup: String,
        from: Provenance<'_>,
        now: Instant,
    ) -> Result<(Arc<[u8]>, bool), String> {
        let mut inner = self.lock_probed(self.stripe(&key));
        if self.versions.outdates(&from) {
            return Err(markup);
        }
        Ok(self.insert(&mut inner, key, markup, now))
    }

    fn insert(
        &self,
        inner: &mut Inner,
        key: FragmentKey,
        markup: String,
        now: Instant,
    ) -> (Arc<[u8]>, bool) {
        let markup: Arc<[u8]> = markup.into_bytes().into();
        let rerendered = match inner.entries.remove(&key) {
            Some(old) => {
                inner.order.remove(&old.stamp);
                inner.index_remove(&key, old.stamp);
                true
            }
            None => inner.dirty.remove(&key),
        };
        while inner.entries.len() >= inner.capacity {
            let Some((stamp, victim)) = inner.order.pop_first() else {
                break;
            };
            inner.index_remove(&victim, stamp);
            // second chance: an entry read since it was queued goes to the
            // back of the queue once, so fragments that are written and
            // never read again (one per URL for a request-embedding unit)
            // age out ahead of the ones every page variant shares
            if let Some(e) = inner.entries.get_mut(&victim).filter(|e| e.touched) {
                let requeued = self.clock.fetch_add(1, Ordering::Relaxed);
                e.touched = false;
                e.stamp = requeued;
                inner.index_insert(&victim, requeued);
                inner.order.insert(requeued, victim);
                continue;
            }
            inner.entries.remove(&victim);
            self.stats.eviction();
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        inner.entries.insert(
            key.clone(),
            Entry {
                markup: Arc::clone(&markup),
                expires: now + self.default_ttl,
                stamp,
                touched: false,
            },
        );
        inner.index_insert(&key, stamp);
        inner.order.insert(stamp, key);
        self.stats.insertion();
        (markup, rerendered)
    }

    /// Dirty the fragments rendered from the units' beans (a key's
    /// `fragment` field is the unit id), leaving dirty tombstones so the
    /// next render of each key is counted as a re-render. `None` drops
    /// every fragment of the unit; `Some(rows)` only those whose parameter
    /// fingerprint binds one of the `(param, oid)` rows — the page
    /// instances rendered from the affected bean. Fragments that do not
    /// bind `param` at all (the unit's input came from session state or a
    /// default) cannot be identified and are dropped conservatively; every
    /// other instance keeps serving its bytes untouched. One pass over the
    /// stripes; a stripe holding none of a unit's fragments costs one
    /// lookup for it. Returns how many fragments were dirtied.
    pub fn invalidate_units(&self, units: &BTreeMap<&str, Option<Vec<(String, i64)>>>) -> usize {
        let mut dropped = 0;
        for stripe in &self.stripes {
            let mut inner = self.lock_probed(stripe);
            if inner.by_unit.is_empty() {
                continue;
            }
            for (unit, rows) in units {
                if !inner.by_unit.contains_key(*unit) {
                    continue;
                }
                let Some(rows) = rows else {
                    let keys = inner.unit_entries(unit);
                    inner.dirty(&keys);
                    // every live entry of the unit is gone, so its indexes are too
                    inner.by_unit.remove(*unit);
                    inner.probe.remove(*unit);
                    dropped += keys.len();
                    continue;
                };
                for (param, oid) in rows {
                    // with the probe index registered for exactly this
                    // parameter, only the affected row's bucket (plus the
                    // unidentifiable remainder) is visited — O(dropped),
                    // not O(stripe)
                    let indexed = inner.probe_params.get(*unit) == Some(param);
                    let keys: Vec<(u64, FragmentKey)> = if indexed {
                        let rows = inner.probe.get(*unit);
                        [*oid, UNBOUND]
                            .iter()
                            .filter_map(|b| rows.and_then(|r| r.get(b)))
                            .flatten()
                            .filter_map(|stamp| Some((*stamp, inner.order.get(stamp)?.clone())))
                            .collect()
                    } else {
                        inner
                            .unit_entries(unit)
                            .into_iter()
                            .filter(|(_, k)| {
                                [*oid, UNBOUND].contains(&binding_of(&k.params, param))
                            })
                            .collect()
                    };
                    for (stamp, k) in &keys {
                        inner.index_remove(k, *stamp);
                    }
                    inner.dirty(&keys);
                    dropped += keys.len();
                }
            }
        }
        self.stats.invalidation(dropped as u64);
        dropped
    }

    /// Register `unit` for row-precise invalidation: its fragments are
    /// indexed by the numeric value their fingerprint binds `param` to,
    /// making [`FragmentCache::invalidate_units`]' row selectors
    /// proportional to the fragments dropped. The maintenance layer
    /// registers every key-probe unit of its plan at deployment; entries
    /// cached before registration are indexed retroactively.
    pub fn index_probe(&self, unit: &str, param: &str) {
        for stripe in &self.stripes {
            let mut inner = self.lock_probed(stripe);
            inner
                .probe_params
                .insert(unit.to_string(), param.to_string());
            inner.probe.remove(unit);
            let existing = inner.unit_entries(unit);
            for (stamp, k) in existing {
                inner.index_insert(&k, stamp);
            }
        }
    }

    /// Drop everything — live entries and dirty tombstones alike (the
    /// maintenance layer's DDL response: a schema change invalidates all
    /// derived markup).
    pub fn clear(&self) {
        let mut n = 0u64;
        for stripe in &self.stripes {
            let mut inner = self.lock_probed(stripe);
            n += inner.entries.len() as u64;
            inner.entries.clear();
            inner.order.clear();
            inner.dirty.clear();
            inner.by_unit.clear();
            inner.probe.clear();
        }
        self.stats.invalidation(n);
    }

    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

/// The row a `k=v&…` fingerprint binds `param` to, compared numerically
/// (`paper=05` is row 5), or [`UNBOUND`] when the binding is missing or
/// non-numeric — the instance cannot be identified and must be treated as
/// affected by every row.
fn binding_of(fingerprint: &str, param: &str) -> i64 {
    for seg in fingerprint.split('&') {
        if let Some(v) = seg.strip_prefix(param).and_then(|r| r.strip_prefix('=')) {
            return v.parse::<i64>().unwrap_or(UNBOUND);
        }
    }
    UNBOUND
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dirty every fragment of `unit`.
    fn invalidate_unit(c: &FragmentCache, unit: &str) -> usize {
        c.invalidate_units(&BTreeMap::from([(unit, None)]))
    }

    /// Dirty the fragments of `unit` bound to row `oid` by `param`.
    fn invalidate_unit_where(c: &FragmentCache, unit: &str, param: &str, oid: i64) -> usize {
        c.invalidate_units(&BTreeMap::from([(
            unit,
            Some(vec![(param.to_string(), oid)]),
        )]))
    }

    /// Rendered before any write was recorded, from nothing in particular.
    const FRESH: Provenance<'static> = Provenance {
        lsn: 0,
        entities: &[],
        rows: &[],
    };

    /// Put that must be accepted; whether it re-rendered.
    fn put(c: &FragmentCache, key: FragmentKey, markup: &str) -> bool {
        c.put(key, markup.into(), FRESH).unwrap().1
    }

    fn put_at(c: &FragmentCache, key: FragmentKey, markup: &str, now: Instant) {
        c.put_at(key, markup.into(), FRESH, now).unwrap();
    }

    #[test]
    fn hit_and_miss() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let k = FragmentKey::new("home.jsp", "unit3", "p=1");
        assert!(c.get(&k).is_none());
        put(&c, k.clone(), "<ul>...</ul>");
        assert_eq!(c.get(&k).as_deref(), Some(&b"<ul>...</ul>"[..]));
    }

    #[test]
    fn ttl_expiry() {
        let c = FragmentCache::new(8, Duration::from_millis(10));
        let t0 = Instant::now();
        let k = FragmentKey::new("t", "f", "");
        put_at(&c, k.clone(), "x", t0);
        assert!(c.get_at(&k, t0 + Duration::from_millis(5)).is_some());
        assert!(c.get_at(&k, t0 + Duration::from_millis(15)).is_none());
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn capacity_eviction_fifo_when_untouched() {
        let c = FragmentCache::new(2, Duration::from_secs(60));
        put(&c, FragmentKey::new("t", "1", ""), "a");
        put(&c, FragmentKey::new("t", "2", ""), "b");
        put(&c, FragmentKey::new("t", "3", ""), "c");
        assert_eq!(c.len(), 2);
        assert!(c.get(&FragmentKey::new("t", "1", "")).is_none());
        assert_eq!(c.stats().evictions, 1);
    }

    /// A fragment that was read since it was queued is passed over once:
    /// markup written per URL and never read again (a request-embedding
    /// unit's) cannot flush the fragments every URL variant shares.
    #[test]
    fn capacity_eviction_gives_read_fragments_a_second_chance() {
        let c = FragmentCache::new(3, Duration::from_secs(60));
        let shared = FragmentKey::new("t", "index", "");
        put(&c, shared.clone(), "shared");
        for url in 0..20 {
            assert!(c.get(&shared).is_some(), "flushed by put #{url}");
            let one_shot = FragmentKey::keyed("t", "scroller", "", "", format!("o={url}"));
            put(&c, one_shot, "pager");
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 18);
        // the chance is spent by the sweep that granted it: once the reads
        // stop, the fragment is evicted like any other
        for url in 20..23 {
            put(
                &c,
                FragmentKey::keyed("t", "scroller", "", "", format!("o={url}")),
                "pager",
            );
        }
        assert!(c.get(&shared).is_none());
    }

    /// Pins how the three removal paths interact and how each is
    /// accounted: capacity eviction is an `eviction` (never an
    /// expiration), a TTL lapse discovered by `get` is an `expiration`
    /// *and* a miss, an expired-but-untouched entry still occupies a slot
    /// (lazy expiry), and unit invalidation counts its removals as
    /// invalidations only.
    #[test]
    fn ttl_expiry_eviction_and_invalidation_stats_compose() {
        let ms = Duration::from_millis;
        let c = FragmentCache::new(3, ms(10));
        let t0 = Instant::now();
        let ka = FragmentKey::new("t", "a", "");
        let kb = FragmentKey::new("t", "b", "");
        let kc = FragmentKey::new("t", "c", "");
        let kd = FragmentKey::new("u", "d", "");
        put_at(&c, ka.clone(), "A", t0);
        put_at(&c, kb.clone(), "B", t0);
        put_at(&c, kc.clone(), "C", t0 + ms(2));
        assert!(c.get_at(&kb, t0 + ms(1)).is_some()); // hit #1

        // Capacity eviction: a 4th insert drops the oldest entry (a).
        put_at(&c, kd.clone(), "D", t0 + ms(3));
        assert_eq!(c.len(), 3);
        assert!(c.get_at(&ka, t0 + ms(3)).is_none()); // miss #1 — evicted, not expired
        let s = c.stats();
        assert_eq!(
            (s.insertions, s.evictions, s.expirations, s.hits, s.misses),
            (4, 1, 0, 1, 1)
        );

        // TTL: b (born t0) lapses at t0+10; d (born t0+3) lives to t0+13.
        assert!(c.get_at(&kb, t0 + ms(11)).is_none()); // expiration #1 + miss #2
        assert_eq!(c.len(), 2, "expired entry found by get is removed");
        assert!(c.get_at(&kd, t0 + ms(11)).is_some()); // hit #2 — each entry ages on its own clock
        let s = c.stats();
        assert_eq!((s.expirations, s.misses, s.hits), (1, 2, 2));

        // c lapsed at t0+12 but was never touched: lazy expiry means it
        // still occupies its slot and no expiration was counted for it.
        assert_eq!(c.len(), 2);
        // Unit invalidation removes it as an *invalidation* — the
        // expiration/eviction counters must not move.
        assert_eq!(invalidate_unit(&c, "c"), 1);
        let s = c.stats();
        assert_eq!((s.invalidations, s.evictions, s.expirations), (1, 1, 1));
        assert_eq!(c.len(), 1); // only d survives

        // The slot freed by invalidation is reusable without eviction.
        put_at(&c, kc.clone(), "C2", t0 + ms(12));
        assert_eq!(c.get_at(&kc, t0 + ms(13)).as_deref(), Some(&b"C2"[..]));
        let s = c.stats();
        assert_eq!((s.insertions, s.evictions, s.hits), (5, 1, 3));
    }

    #[test]
    fn striped_fragment_cache_keeps_semantics() {
        let c = FragmentCache::new(512, Duration::from_secs(60));
        assert_eq!(c.stripe_count(), 8);
        for i in 0..48 {
            let k = FragmentKey::new("t", format!("u{}", i % 3), format!("p={i}"));
            put(&c, k, &format!("m{i}"));
        }
        assert_eq!(c.len(), 48);
        for i in 0..48 {
            let k = FragmentKey::new("t", format!("u{}", i % 3), format!("p={i}"));
            let want = format!("m{i}");
            assert_eq!(c.get(&k).as_deref(), Some(want.as_bytes()));
        }
        // unit invalidation sweeps all stripes
        assert_eq!(invalidate_unit(&c, "u0"), 16);
        assert_eq!(c.len(), 32);
        assert!(c.get(&FragmentKey::new("t", "u0", "p=0")).is_none());
    }

    #[test]
    fn striped_fragment_concurrent_access_is_safe() {
        let c = Arc::new(FragmentCache::new(512, Duration::from_secs(60)));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..400 {
                    let k = FragmentKey::new(
                        format!("t{}", i % 4),
                        format!("u{}", i % 16),
                        format!("p{t}"),
                    );
                    match i % 4 {
                        0 => {
                            put(&c, k, &format!("m{i}"));
                        }
                        1 => {
                            invalidate_unit(&c, &format!("u{}", i % 16));
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
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
    }

    #[test]
    fn unit_invalidation_dirties_and_the_next_put_rerenders() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let k1 = FragmentKey::new("home.jsp", "idx1", "p=1");
        let k2 = FragmentKey::new("home.jsp", "idx2", "p=1");
        assert!(!put(&c, k1.clone(), "one"));
        put(&c, k2.clone(), "two");
        // dirty only idx1's fragments; idx2 keeps serving the same bytes
        let before = c.get(&k2).unwrap();
        assert_eq!(invalidate_unit(&c, "idx1"), 1);
        assert!(c.get(&k1).is_none());
        let after = c.get(&k2).unwrap();
        assert!(Arc::ptr_eq(&before, &after), "clean fragment re-interned");
        // the put over the tombstone reports a re-render, once
        assert!(put(&c, k1.clone(), "one'"));
        assert_eq!(c.get(&k1).as_deref(), Some(&b"one'"[..]));
        // replacing a live fragment is a re-render too; a fresh key is not
        assert!(put(&c, k1, "one''"));
        assert!(!put(&c, FragmentKey::new("x", "u", ""), "n"));
    }

    /// Row-precise dirtying: a write to paper 2 leaves paper 1's
    /// fragment serving the same shared bytes; only the affected
    /// instance (and instances that cannot be identified) go dirty.
    #[test]
    fn row_precise_invalidation_spares_unrelated_instances() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let k1 = FragmentKey::new("paper.jsp", "u1", "paper=1&");
        let k2 = FragmentKey::new("paper.jsp", "u1", "paper=2&");
        let k3 = FragmentKey::new("paper.jsp", "u1", "kw=%db%&"); // no binding
        let other = FragmentKey::new("paper.jsp", "u2", "paper=2&");
        for k in [&k1, &k2, &k3, &other] {
            put(&c, k.clone(), "m");
        }
        let live = c.get(&k1).unwrap();
        assert_eq!(invalidate_unit_where(&c, "u1", "paper", 2), 2);
        assert!(c.get(&k2).is_none(), "affected instance survived");
        assert!(c.get(&k3).is_none(), "unidentifiable instance survived");
        let after = c.get(&k1).unwrap();
        assert!(Arc::ptr_eq(&live, &after), "clean instance re-interned");
        assert!(c.get(&other).is_some(), "other unit's fragment dropped");
        // zero-padded bindings still identify the row numerically
        put(&c, k2.clone(), "m2");
        let pad = FragmentKey::new("paper.jsp", "u1", "paper=02&");
        put(&c, pad.clone(), "m02");
        assert_eq!(invalidate_unit_where(&c, "u1", "paper", 2), 2);
        assert!(c.get(&pad).is_none());
        // the dirtied instance re-renders
        assert!(put(&c, k2, "m2'"));
    }

    /// Rule set and request fingerprint are key components of their own:
    /// per-device markup never crosses devices, and a request-embedding
    /// unit's variants stay apart while `params` stays a clean `k=v&…`.
    #[test]
    fn rules_and_request_components_separate_fragments() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let desktop = FragmentKey::keyed("t", "u", "desktop", "sel=1&", "");
        let pda = FragmentKey::keyed("t", "u", "pda", "sel=1&", "");
        let paged = FragmentKey::keyed("t", "u", "desktop", "sel=1&", "block_offset=20&");
        put(&c, desktop.clone(), "zebra");
        assert!(c.get(&pda).is_none());
        assert!(c.get(&paged).is_none());
        put(&c, pda.clone(), "plain");
        put(&c, paged.clone(), "page 3");
        assert_eq!(c.get(&desktop).as_deref(), Some(&b"zebra"[..]));
        assert_eq!(c.get(&pda).as_deref(), Some(&b"plain"[..]));
        // all three show row 1: a write to it dirties every variant
        c.index_probe("u", "sel");
        assert_eq!(invalidate_unit_where(&c, "u", "sel", 1), 3);
    }

    /// The put rule: markup rendered before a recorded write to what its
    /// unit reads is handed back; writes elsewhere do not count.
    #[test]
    fn put_loses_to_a_newer_write_to_what_it_read() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let k = FragmentKey::new("t", "u", "sel=1&");
        let paper = ["paper".to_string()];
        let at = |lsn| Provenance {
            lsn,
            entities: &paper,
            rows: &[],
        };
        c.versions().record("author", Some(1), 3);
        c.versions().record("paper", Some(1), 2);
        assert_eq!(
            c.put(k.clone(), "stale".into(), at(1)),
            Err("stale".to_string())
        );
        assert!(c.get(&k).is_none());
        assert!(c.put(k.clone(), "fresh".into(), at(2)).is_ok());
        assert_eq!(c.get(&k).as_deref(), Some(&b"fresh"[..]));
    }

    #[test]
    fn distinct_params_are_distinct_fragments() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        put(&c, FragmentKey::new("t", "u", "volume=1"), "v1");
        put(&c, FragmentKey::new("t", "u", "volume=2"), "v2");
        assert_eq!(
            c.get(&FragmentKey::new("t", "u", "volume=2")).as_deref(),
            Some(&b"v2"[..])
        );
        assert_eq!(c.len(), 2);
    }
}
