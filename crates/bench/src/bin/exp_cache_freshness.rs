//! E5b (§6): correctness of model-driven cache invalidation.
//!
//! "Since a conceptual model of the application is available, which
//! clearly exposes the Entity or Relationship on which the content of a
//! unit depends, and the operations that may act on such content, the
//! implementation of operations automatically invalidates the affected
//! cached objects, sparing to the developer the need of managing a
//! business-tier cache in his application code."
//!
//! We interleave reads and writes and verify zero stale page reads with
//! the bean cache on, while measuring how much work the cache spares.
//! Then the §6 limitation — fragment-only caching is stale within its
//! TTL — which the runtime lifts: the node's maintainer records every
//! write's version and a fragment is checked against them when it is
//! read, so fragment-only caching is fresh too.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_cache_freshness
//! ```

use mvc::{RuntimeOptions, WebRequest};
use webratio::fixtures;

fn main() {
    println!("== E5b: model-driven invalidation keeps cached reads fresh (§6) ==\n");
    let app = fixtures::bookstore();
    let d = app.deploy(RuntimeOptions::default()).expect("deploy");
    let home = d.home_url("store").unwrap();
    let op_url = d.generated.descriptors.operations[0].url.clone();

    let mut stale_reads = 0;
    let mut created = 0;
    for round in 0..200 {
        // write every 5th round through the create operation
        if round % 5 == 0 {
            created += 1;
            let resp = d.handle(
                &WebRequest::get(&op_url)
                    .with_param("title", format!("Book #{created}"))
                    .with_param("price", "10.0"),
            );
            assert_eq!(resp.status, 200);
        }
        // cached read: must always reflect the latest create
        let resp = d.handle(&WebRequest::get(&home));
        let expect = format!("Book #{created}");
        if created > 0 && !resp.body.contains(&expect) {
            stale_reads += 1;
        }
    }
    let stats = d.controller.bean_cache().unwrap().stats();
    let patches = d.obs.maint.patches_applied.get();
    println!("rounds: 200, creates: {created}");
    println!("stale page reads observed: {stale_reads}");
    println!(
        "bean cache: {} hits, {} misses, {} invalidations + {patches} patches (hit ratio {:.2})",
        stats.hits,
        stats.misses,
        stats.invalidations,
        stats.hit_ratio()
    );
    assert_eq!(stale_reads, 0, "model-driven invalidation failed");
    assert!(stats.hits > 0, "cache never hit — nothing was spared");
    // every create reached the cached list: dropped or patched in place
    assert!(stats.invalidations + patches + 1 >= created as u64);

    println!(
        "\nqueries executed with cache: {} (reads mostly served from beans)",
        d.db.statements_executed()
    );

    // the §6 contrast: fragment-only caching, which sees nothing but
    // markup, used to stay stale within its TTL
    let d2 = app
        .deploy(RuntimeOptions {
            bean_cache: false,
            fragment_cache: true,
            fragment_ttl: std::time::Duration::from_secs(3600),
            ..RuntimeOptions::default()
        })
        .unwrap();
    let op2 = d2.generated.descriptors.operations[0].url.clone();
    d2.handle(&WebRequest::get(&home)); // prime empty-list fragment
    d2.handle(
        &WebRequest::get(&op2)
            .with_param("title", "Fresh Arrival")
            .with_param("price", "5.0"),
    );
    let resp = d2.handle(&WebRequest::get(&home));
    let fragment_stale = !resp.body.contains("Fresh Arrival");
    let fragment_hits = d2.controller.fragment_cache().unwrap().stats().hits;
    println!(
        "\nfragment-only cache serves stale markup after a write: {fragment_stale}\n\
         (the §6 limitation, lifted: the maintainer dirtied the written list's\n\
         fragment; {fragment_hits} fragment hits)"
    );
    assert!(!fragment_stale, "fragment-only caching served stale markup");
    println!("\nresult: PASS — two-level architecture is both fast and fresh.");
}
