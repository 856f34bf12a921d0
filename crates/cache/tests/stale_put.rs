//! A cache put must not outlive the write that made it stale: a reader
//! computes → the write commits and the maintenance pass runs → the reader
//! puts. The interleavings are forced with channels, never slept for.

use relstore::{ChangeRecord, Value};
use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;
use webcache::{
    BeanCache, BeanKey, CacheStats, FragmentCache, FragmentKey, LogDrivenMaintainer, Lookup,
    MaintenancePlan, PatchOutcome, Patcher, Provenance, RowDelta, TableCatalog, UnitPlan,
    UnitShape,
};

/// Patches a bean to the written row's title.
struct Title;

impl Patcher<String> for Title {
    fn apply(
        &self,
        _: &UnitPlan,
        _: &BTreeMap<String, String>,
        bean: &mut Arc<String>,
        delta: &RowDelta<'_>,
    ) -> PatchOutcome {
        *bean = Arc::new(delta.get("title").unwrap().render());
        PatchOutcome::Patched
    }
}

fn catalog() -> TableCatalog {
    let mut c = TableCatalog::new();
    c.add("book", vec!["oid".into(), "title".into()]);
    c
}

fn retitle(oid: i64, title: &str) -> ChangeRecord {
    ChangeRecord::Update {
        table: "book".into(),
        row_id: 0,
        row: vec![Value::Integer(oid), Value::Text(title.into())],
    }
}

fn maintainer(
    cache: &Arc<BeanCache<String>>,
    plan: MaintenancePlan,
) -> LogDrivenMaintainer<String> {
    LogDrivenMaintainer::new(
        Arc::clone(cache.versions()),
        plan,
        catalog(),
        Arc::new(obs::MaintCounters::new()),
    )
    .with_beans(Arc::clone(cache), Arc::new(Title))
}

/// The bean half: the reader computes book 7 at LSN 4; the write at LSN 5
/// is maintained while the key is absent (nothing to patch); the reader's
/// put then lands — and is refused, because the version table already
/// holds LSN 5 for the row it read.
#[test]
fn bean_put_after_the_maintenance_pass_does_not_become_resident() {
    let cache = Arc::new(BeanCache::<String>::new(64));
    let maint = maintainer(&cache, MaintenancePlan::default());
    let key = BeanKey::new("BookData", "item=7&");
    let row = [("book".to_string(), 7)];
    let at = |lsn| Provenance {
        lsn,
        entities: &[],
        rows: &row,
    };

    let (computed_tx, computed) = channel();
    let (maintained_tx, maintained) = channel::<()>();
    std::thread::scope(|s| {
        let (cache, key) = (&cache, &key);
        let reader = s.spawn(move || {
            // the reader's query ran before the write committed
            let bean = String::from("pre-commit");
            computed_tx.send(()).unwrap();
            maintained.recv().unwrap();
            cache.put(key.clone(), bean, at(4), None)
        });
        computed.recv().unwrap();
        maint.apply(5, &[retitle(7, "post-commit")]);
        maintained_tx.send(()).unwrap();
        // served once to its own page, never cached
        assert_eq!(*reader.join().unwrap(), "pre-commit");
    });
    assert!(cache.get(&key).is_none(), "stale bean became resident");

    // a reader whose query ran after the commit caches its bean
    cache.put(key.clone(), "post-commit".into(), at(5), None);
    assert_eq!(
        cache.get(&key).as_deref().map(String::as_str),
        Some("post-commit")
    );
}

/// The fragment half: markup rendered from a bean the maintenance pass
/// has not yet patched must never be served after the pass, even when the
/// store had already committed the write when rendering began. The
/// render's stamp is therefore the LSN the caches are maintained through,
/// and both ends of the cache check it: a put after the pass is refused,
/// and a put that landed before the pass is found stale by the next read.
#[test]
fn fragment_rendered_before_the_maintenance_pass_is_never_served_after_it() {
    let cache = Arc::new(BeanCache::<String>::new(64));
    let fragments = Arc::new(FragmentCache::with_stats(
        64,
        Duration::from_secs(3600),
        CacheStats::default(),
        Arc::clone(cache.versions()),
    ));
    let plan = MaintenancePlan::build(&[UnitShape {
        unit_id: "data1".into(),
        unit_kind: "data".into(),
        entity_table: Some("book".into()),
        sql: "SELECT t.oid, t.title FROM book t WHERE t.oid = :sel".into(),
        depends_on: vec!["book".into()],
        cached: true,
        ..UnitShape::default()
    }]);
    let maint = maintainer(&cache, plan);
    let versions = Arc::clone(cache.versions());
    // the unit shows book 7: its bean and fragments depend on that row
    let row = [("book".to_string(), 7)];
    let rendered_at = |lsn| Provenance {
        lsn,
        entities: &[],
        rows: &row,
    };
    let bean_key = BeanKey::new("data1", "sel=7&");
    let key = FragmentKey::keyed("page.jsp", "data1", "desktop", "sel=7&", "");
    // LSN 4 is maintained: the bean is resident
    versions.settle(4);
    cache.put(bean_key.clone(), "old".into(), rendered_at(4), None);

    // the write to book 7 commits at LSN 5; maintenance has not run yet
    let (computed_tx, computed) = channel();
    let (maintained_tx, maintained) = channel::<()>();
    std::thread::scope(|s| {
        let (cache, fragments, versions, bean_key, key) =
            (&cache, &fragments, &versions, &bean_key, &key);
        let reader = s.spawn(move || {
            let stamp = versions.settled();
            let bean = cache.get(bean_key).unwrap();
            computed_tx.send(()).unwrap();
            maintained.recv().unwrap();
            fragments.put(key.clone(), format!("<p>{bean}</p>"), rendered_at(stamp))
        });
        computed.recv().unwrap();
        maint.apply(5, &[retitle(7, "new")]);
        maintained_tx.send(()).unwrap();
        // the put after the pass is handed back, to be served once
        assert_eq!(reader.join().unwrap(), Err("<p>old</p>".to_string()));
    });
    assert!(fragments.is_empty(), "stale put became resident");
    // stamped with the store's LSN instead, the same put would have passed
    assert!(!versions.outdates(&rendered_at(5)));

    // a render that reached the cache before the pass: accepted, then
    // found stale by the first read after the pass, never served
    let early = FragmentKey::keyed("page.jsp", "data1", "pda", "sel=7&", "");
    fragments
        .put(early.clone(), "<p>old</p>".into(), rendered_at(5))
        .unwrap();
    maint.apply(6, &[retitle(7, "newer")]);
    assert!(matches!(fragments.get(&early, &[], &row), Lookup::Stale));
    assert!(fragments.get(&early, &[], &row).hit().is_none());

    // the next render starts after the pass: patched bean, cached markup
    let stamp = versions.settled();
    let bean = cache.get(&bean_key).unwrap();
    assert_eq!((stamp, bean.as_str()), (6, "newer"));
    fragments
        .put(key.clone(), format!("<p>{bean}</p>"), rendered_at(stamp))
        .unwrap();
    let served = fragments.get(&key, &[], &row).hit();
    assert_eq!(served.as_deref(), Some(&b"<p>newer</p>"[..]));
}
