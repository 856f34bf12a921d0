//! The template-fragment cache (the ESI-like first level).
//!
//! §6: "Last-generation cache technologies, like the Edge Side Include
//! (ESI) initiative, apply more sophisticated caching strategies, based on
//! the capability of marking fragments of the page template, which can be
//! cached individually and with different policies. However ... caching
//! fragments of the page template may spare only the computation of markup
//! from query results, not the execution of the data extraction queries."
//!
//! That limitation is intrinsic: a fragment cache sees only markup, which
//! is why WebRatio adds the second, business-tier level
//! ([`crate::bean::BeanCache`]). What the model does give the markup is
//! its dependencies: a fragment is checked when it is read against the
//! node's [`VersionTable`] for the tables (or the one row) its unit
//! depends on, so a write never has to find and sweep the fragments it
//! makes stale.

use crate::bean::{fnv1a, stripe_capacities, stripe_of};
use crate::stats::{CacheStats, StatsSnapshot};
use crate::version::{Provenance, VersionTable};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
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
/// unit's queries consume, so it names the row the fragment *shows*. Two
/// URLs that differ only in parameters the unit never reads share one
/// fragment.
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
    /// The settled LSN the markup was rendered at: a write recorded after
    /// it to what the unit depends on makes the entry stale.
    lsn: u64,
    stamp: u64,
    /// Read since it was queued for eviction: the sweep passes it over
    /// once (second chance) instead of evicting it.
    touched: bool,
}

struct Inner {
    entries: HashMap<FragmentKey, Entry>,
    order: BTreeMap<u64, FragmentKey>,
    /// Entries this stripe may hold; stripe bounds sum to the cache bound.
    capacity: usize,
}

impl Inner {
    fn remove(&mut self, key: &FragmentKey) {
        if let Some(e) = self.entries.remove(key) {
            self.order.remove(&e.stamp);
        }
    }
}

/// What [`FragmentCache::get`] found under a key.
#[derive(Debug)]
pub enum Lookup {
    /// Current markup: the cache's own bytes.
    Hit(Arc<[u8]>),
    /// Nothing: never put, evicted, or expired.
    Miss,
    /// Markup a write recorded since it was rendered has outdated. It is
    /// dropped, and the render that replaces it is a re-render.
    Stale,
}

impl Lookup {
    /// The markup of a hit.
    pub fn hit(self) -> Option<Arc<[u8]>> {
        match self {
            Lookup::Hit(markup) => Some(markup),
            Lookup::Miss | Lookup::Stale => None,
        }
    }
}

/// A bounded TTL cache of rendered markup fragments, validated on read.
///
/// Like [`crate::bean::BeanCache`], the key space is hash-partitioned over
/// N lock stripes so concurrent template rendering no longer serializes
/// behind one global mutex; small caches stay on a single stripe. A full
/// stripe evicts first in, first out, passing over once any entry read
/// since it was queued (second chance): a hit costs a flag store, and
/// fragments that are written once per URL and never read cannot flush
/// the shared ones.
///
/// Writes never visit this cache. Each entry keeps the settled LSN it was
/// rendered at, and [`get`](FragmentCache::get) checks it against the
/// version table for the dependencies its caller names: markup that a
/// recorded write to them has outdated is dropped, not served. Puts follow
/// the bean cache's rule ([`VersionTable::outdates`]); a refused put hands
/// its markup back, to be served once, uncached.
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
    /// and checking entries against the node's version table.
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

    /// The version table entries are checked against.
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

    /// The markup cached under `key`, unless it expired or a write
    /// recorded since it was rendered outdates it. `entities` and `rows`
    /// name what the key's unit depends on, as at its put; a stale entry
    /// is dropped and counted as a miss and an invalidation.
    pub fn get(&self, key: &FragmentKey, entities: &[String], rows: &[(String, i64)]) -> Lookup {
        self.get_at(key, entities, rows, Instant::now())
    }

    fn get_at(
        &self,
        key: &FragmentKey,
        entities: &[String],
        rows: &[(String, i64)],
        now: Instant,
    ) -> Lookup {
        let mut inner = self.lock_probed(self.stripe(key));
        let Some(e) = inner.entries.get_mut(key) else {
            self.stats.miss();
            return Lookup::Miss;
        };
        let from = Provenance {
            lsn: e.lsn,
            entities,
            rows,
        };
        let found = if e.expires <= now {
            self.stats.expiration();
            Lookup::Miss
        } else if self.versions.outdates(&from) {
            self.stats.invalidation(1);
            Lookup::Stale
        } else {
            e.touched = true;
            self.stats.hit();
            return Lookup::Hit(Arc::clone(&e.markup));
        };
        inner.remove(key);
        self.stats.miss();
        found
    }

    /// Cache `markup` rendered from `from` unless the version table
    /// [`outdates`](VersionTable::outdates) it — then it may show state a
    /// write has since changed, and it is handed back (`Err`) to be served
    /// once, uncached. `Ok` carries the interned bytes.
    pub fn put(
        &self,
        key: FragmentKey,
        markup: String,
        from: Provenance<'_>,
    ) -> Result<Arc<[u8]>, String> {
        self.put_at(key, markup, from, Instant::now())
    }

    fn put_at(
        &self,
        key: FragmentKey,
        markup: String,
        from: Provenance<'_>,
        now: Instant,
    ) -> Result<Arc<[u8]>, String> {
        let mut inner = self.lock_probed(self.stripe(&key));
        if self.versions.outdates(&from) {
            return Err(markup);
        }
        let markup: Arc<[u8]> = markup.into_bytes().into();
        inner.remove(&key);
        while inner.entries.len() >= inner.capacity {
            let Some((_, victim)) = inner.order.pop_first() else {
                break;
            };
            // second chance: an entry read since it was queued goes to the
            // back of the queue once, so fragments that are written and
            // never read again (one per URL for a request-embedding unit)
            // age out ahead of the ones every page variant shares
            if let Some(e) = inner.entries.get_mut(&victim).filter(|e| e.touched) {
                let requeued = self.clock.fetch_add(1, Ordering::Relaxed);
                e.touched = false;
                e.stamp = requeued;
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
                lsn: from.lsn,
                stamp,
                touched: false,
            },
        );
        inner.order.insert(stamp, key);
        self.stats.insertion();
        Ok(markup)
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut n = 0u64;
        for stripe in &self.stripes {
            let mut inner = self.lock_probed(stripe);
            n += inner.entries.len() as u64;
            inner.entries.clear();
            inner.order.clear();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Rendered before any write was recorded, from nothing in particular.
    const FRESH: Provenance<'static> = Provenance {
        lsn: 0,
        entities: &[],
        rows: &[],
    };

    /// Put that must be accepted.
    fn put(c: &FragmentCache, key: FragmentKey, markup: &str) {
        c.put(key, markup.into(), FRESH).unwrap();
    }

    fn put_at(c: &FragmentCache, key: FragmentKey, markup: &str, now: Instant) {
        c.put_at(key, markup.into(), FRESH, now).unwrap();
    }

    /// The markup of a unit that depends on nothing.
    fn get(c: &FragmentCache, key: &FragmentKey) -> Option<Arc<[u8]>> {
        c.get(key, &[], &[]).hit()
    }

    /// What `get` finds for a unit that depends on `entities`.
    fn get_of(c: &FragmentCache, key: &FragmentKey, entities: &[&str]) -> Lookup {
        let entities: Vec<String> = entities.iter().map(|e| e.to_string()).collect();
        c.get(key, &entities, &[])
    }

    #[test]
    fn hit_and_miss() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let k = FragmentKey::new("home.jsp", "unit3", "p=1");
        assert!(get(&c, &k).is_none());
        put(&c, k.clone(), "<ul>...</ul>");
        assert_eq!(get(&c, &k).as_deref(), Some(&b"<ul>...</ul>"[..]));
    }

    #[test]
    fn ttl_expiry() {
        let c = FragmentCache::new(8, Duration::from_millis(10));
        let t0 = Instant::now();
        let k = FragmentKey::new("t", "f", "");
        put_at(&c, k.clone(), "x", t0);
        let at = |ms| c.get_at(&k, &[], &[], t0 + Duration::from_millis(ms)).hit();
        assert!(at(5).is_some());
        assert!(at(15).is_none());
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn capacity_eviction_fifo_when_untouched() {
        let c = FragmentCache::new(2, Duration::from_secs(60));
        put(&c, FragmentKey::new("t", "1", ""), "a");
        put(&c, FragmentKey::new("t", "2", ""), "b");
        put(&c, FragmentKey::new("t", "3", ""), "c");
        assert_eq!(c.len(), 2);
        assert!(get(&c, &FragmentKey::new("t", "1", "")).is_none());
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
            assert!(get(&c, &shared).is_some(), "flushed by put #{url}");
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
        assert!(get(&c, &shared).is_none());
    }

    /// Pins how the three removal paths interact and how each is
    /// accounted: capacity eviction is an `eviction` (never an
    /// expiration), a TTL lapse discovered by `get` is an `expiration`
    /// *and* a miss, and an entry a recorded write outdates is found stale
    /// by `get` — an `invalidation` and a miss, never an expiration.
    #[test]
    fn ttl_expiry_eviction_and_invalidation_stats_compose() {
        let ms = Duration::from_millis;
        let c = FragmentCache::new(3, ms(10));
        let t0 = Instant::now();
        let ka = FragmentKey::new("t", "a", "");
        let kb = FragmentKey::new("t", "b", "");
        let kc = FragmentKey::new("t", "c", "");
        let kd = FragmentKey::new("u", "d", "");
        let at = |key: &FragmentKey, now| c.get_at(key, &[], &[], now);
        put_at(&c, ka.clone(), "A", t0);
        put_at(&c, kb.clone(), "B", t0);
        put_at(&c, kc.clone(), "C", t0 + ms(2));
        assert!(at(&kb, t0 + ms(1)).hit().is_some()); // hit #1

        // Capacity eviction: a 4th insert drops the oldest entry (a).
        put_at(&c, kd.clone(), "D", t0 + ms(3));
        assert_eq!(c.len(), 3);
        assert!(at(&ka, t0 + ms(3)).hit().is_none()); // miss #1 — evicted, not expired
        let s = c.stats();
        assert_eq!(
            (s.insertions, s.evictions, s.expirations, s.hits, s.misses),
            (4, 1, 0, 1, 1)
        );

        // TTL: b (born t0) lapses at t0+10; d (born t0+3) lives to t0+13.
        assert!(matches!(at(&kb, t0 + ms(11)), Lookup::Miss)); // expiration #1 + miss #2
        assert_eq!(c.len(), 2, "expired entry found by get is removed");
        assert!(at(&kd, t0 + ms(11)).hit().is_some()); // hit #2 — each entry ages on its own clock
        let s = c.stats();
        assert_eq!((s.expirations, s.misses, s.hits), (1, 2, 2));

        // c (born t0+2) is live until t0+12, but a write to the table it
        // depends on was recorded since it was rendered: the read finds it
        // stale — an *invalidation*; the expiration/eviction counters must
        // not move.
        let table = ["c_table".to_string()];
        c.versions().record("c_table", None, 1);
        let stale = c.get_at(&kc, &table, &[], t0 + ms(11)); // miss #3
        assert!(matches!(stale, Lookup::Stale));
        let s = c.stats();
        assert_eq!(
            (s.invalidations, s.evictions, s.expirations, s.misses),
            (1, 1, 1, 3)
        );
        assert_eq!(c.len(), 1); // only d survives

        // The slot freed by the stale read is reusable without eviction,
        // and markup rendered after the write is current.
        let after = Provenance {
            lsn: 1,
            entities: &table,
            rows: &[],
        };
        c.put_at(kc.clone(), "C2".into(), after, t0 + ms(12))
            .unwrap();
        let fresh = c.get_at(&kc, &table, &[], t0 + ms(13)).hit();
        assert_eq!(fresh.as_deref(), Some(&b"C2"[..]));
        let s = c.stats();
        assert_eq!((s.insertions, s.evictions, s.hits), (5, 1, 3));
    }

    #[test]
    fn striped_fragment_cache_keeps_semantics() {
        let c = FragmentCache::new(512, Duration::from_secs(60));
        assert_eq!(c.stripe_count(), 8);
        let key = |i: usize| FragmentKey::new("t", format!("u{}", i % 3), format!("p={i}"));
        let table = |i: usize| format!("table{}", i % 3);
        for i in 0..48 {
            put(&c, key(i), &format!("m{i}"));
        }
        assert_eq!(c.len(), 48);
        for i in 0..48 {
            let want = format!("m{i}");
            let got = get_of(&c, &key(i), &[&table(i)]).hit();
            assert_eq!(got.as_deref(), Some(want.as_bytes()));
        }
        // a write to one table outdates its unit's fragments in every
        // stripe, found as each is read
        c.versions().record("table0", None, 1);
        let stale = (0..48)
            .filter(|i| matches!(get_of(&c, &key(*i), &[&table(*i)]), Lookup::Stale))
            .count();
        assert_eq!(stale, 16);
        assert_eq!(c.len(), 32);
        assert!(get(&c, &key(0)).is_none());
    }

    #[test]
    fn striped_fragment_concurrent_access_is_safe() {
        let c = Arc::new(FragmentCache::new(512, Duration::from_secs(60)));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..400u64 {
                    let table = format!("u{}", i % 16);
                    let k =
                        FragmentKey::new(format!("t{}", i % 4), table.as_str(), format!("p{t}"));
                    match i % 4 {
                        0 => put(&c, k, &format!("m{i}")),
                        1 => c.versions().record(&table, None, i),
                        _ => {
                            get_of(&c, &k, &[&table]);
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

    /// A write to what one unit depends on makes that unit's fragment
    /// stale when it is next read — dropped, and counted — while another
    /// unit's fragment keeps serving the same shared bytes.
    #[test]
    fn a_write_makes_the_next_get_stale_and_spares_other_units() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let k1 = FragmentKey::new("home.jsp", "idx1", "p=1");
        let k2 = FragmentKey::new("home.jsp", "idx2", "p=1");
        put(&c, k1.clone(), "one");
        put(&c, k2.clone(), "two");
        let before = get_of(&c, &k2, &["author"]).hit().unwrap();
        c.versions().record("paper", Some(4), 1);
        // the write touches nothing until a read checks the entry
        assert_eq!((c.len(), c.stats().invalidations), (2, 0));
        assert!(matches!(get_of(&c, &k1, &["paper"]), Lookup::Stale));
        assert!(matches!(get_of(&c, &k1, &["paper"]), Lookup::Miss));
        let after = get_of(&c, &k2, &["author"]).hit().unwrap();
        assert!(Arc::ptr_eq(&before, &after), "clean fragment re-interned");
        assert_eq!(c.stats().invalidations, 1);
        // the re-render, stamped after the write, is current
        let paper = ["paper".to_string()];
        let rendered = Provenance {
            lsn: 1,
            entities: &paper,
            rows: &[],
        };
        c.put(k1.clone(), "one'".into(), rendered).unwrap();
        let got = get_of(&c, &k1, &["paper"]).hit();
        assert_eq!(got.as_deref(), Some(&b"one'"[..]));
    }

    /// Row-precise reads: a write to paper 2 outdates the fragment that
    /// shows paper 2 and the ones that depend on the whole table, and
    /// leaves paper 1's fragment serving the same shared bytes; a write
    /// whose row is unknown outdates every row.
    #[test]
    fn a_row_write_outdates_only_the_fragments_that_show_the_row() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        let k1 = FragmentKey::new("paper.jsp", "u1", "paper=1&");
        let k2 = FragmentKey::new("paper.jsp", "u1", "paper=2&");
        let k3 = FragmentKey::new("paper.jsp", "u1", "kw=%db%&"); // no row bound
        let other = FragmentKey::new("paper.jsp", "u2", "paper=2&");
        for k in [&k1, &k2, &k3, &other] {
            put(&c, k.clone(), "m");
        }
        let live = c.get(&k1, &[], &c_row(1)).hit().unwrap();
        c.versions().record("paper", Some(2), 1);
        assert!(matches!(c.get(&k2, &[], &c_row(2)), Lookup::Stale));
        assert!(matches!(get_of(&c, &k3, &["paper"]), Lookup::Stale));
        let after = c.get(&k1, &[], &c_row(1)).hit().unwrap();
        assert!(Arc::ptr_eq(&live, &after), "clean instance re-interned");
        assert!(get_of(&c, &other, &["author"]).hit().is_some());
        c.versions().record("paper", None, 2);
        assert!(matches!(c.get(&k1, &[], &c_row(1)), Lookup::Stale));
    }

    fn c_row(oid: i64) -> [(String, i64); 1] {
        [("paper".to_string(), oid)]
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
        assert!(get(&c, &pda).is_none());
        assert!(get(&c, &paged).is_none());
        put(&c, pda.clone(), "plain");
        put(&c, paged.clone(), "page 3");
        assert_eq!(get(&c, &desktop).as_deref(), Some(&b"zebra"[..]));
        assert_eq!(get(&c, &pda).as_deref(), Some(&b"plain"[..]));
        // all three show row 1: a write to it outdates every variant
        c.versions().record("paper", Some(1), 1);
        for k in [&desktop, &pda, &paged] {
            assert!(matches!(c.get(k, &[], &c_row(1)), Lookup::Stale));
        }
    }

    /// The one rule, at both ends: markup rendered before a recorded write
    /// to what its unit reads is handed back at put and found stale at
    /// get; writes elsewhere do not count, and a schema change outdates
    /// everything.
    #[test]
    fn a_put_or_a_get_loses_to_a_newer_write_to_what_it_read() {
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
        assert!(c.get(&k, &paper, &[]).hit().is_none());
        assert!(c.put(k.clone(), "fresh".into(), at(2)).is_ok());
        assert_eq!(c.get(&k, &paper, &[]).hit().as_deref(), Some(&b"fresh"[..]));
        c.versions().record("paper", Some(1), 4);
        assert!(matches!(c.get(&k, &paper, &[]), Lookup::Stale));
        assert!(c.put(k.clone(), "fresher".into(), at(4)).is_ok());
        c.versions().record_ddl(5);
        assert!(matches!(c.get(&k, &[], &[]), Lookup::Stale));
    }

    #[test]
    fn distinct_params_are_distinct_fragments() {
        let c = FragmentCache::new(8, Duration::from_secs(60));
        put(&c, FragmentKey::new("t", "u", "volume=1"), "v1");
        put(&c, FragmentKey::new("t", "u", "volume=2"), "v2");
        assert_eq!(
            get(&c, &FragmentKey::new("t", "u", "volume=2")).as_deref(),
            Some(&b"v2"[..])
        );
        assert_eq!(c.len(), 2);
    }
}
