//! A fragment put must not outlive the invalidation of what it was
//! rendered from: reader computes → maintenance dirties → reader puts.
//! The interleaving is forced with channels, never slept for.

use std::sync::mpsc::channel;
use std::time::Duration;
use webcache::{FragmentCache, FragmentKey};

#[test]
fn put_after_dirty_does_not_become_resident() {
    let cache = FragmentCache::new(64, Duration::from_secs(3600));
    cache.index_probe("data1", "sel");
    let key = FragmentKey::keyed("page.jsp", "data1", "desktop", "sel=7&", "");
    // an older render of the same row is resident
    cache.put(key.clone(), "<p>old</p>".into());

    let (computed_tx, computed) = channel();
    let (dirtied_tx, dirtied) = channel::<()>();
    std::thread::scope(|s| {
        let (cache, key) = (&cache, &key);
        let reader = s.spawn(move || {
            // the reader takes the generation, then "computes" its bean
            // from the pre-commit state
            let seen = cache.generation();
            computed_tx.send(()).unwrap();
            // … the write commits and the maintenance pass runs …
            dirtied.recv().unwrap();
            cache.put_if_current(key.clone(), "<p>pre-commit</p>".into(), seen)
        });
        computed.recv().unwrap();
        assert_eq!(cache.invalidate_unit_where("data1", "sel", 7), 1);
        dirtied_tx.send(()).unwrap();
        let put = reader.join().unwrap();
        // served once from the reader's own buffer, never cached
        assert_eq!(put, Err("<p>pre-commit</p>".to_string()));
    });
    assert!(cache.get(&key).is_none(), "stale put became resident");

    // the next render starts after the invalidation and is cached, as a
    // re-render of the dirtied fragment
    let (_, version, rerendered) = cache
        .put_if_current(key.clone(), "<p>new</p>".into(), cache.generation())
        .unwrap();
    assert_eq!((version, rerendered), (2, true));
    assert_eq!(cache.get(&key).as_deref(), Some(&b"<p>new</p>"[..]));
}
