//! Golden pages: every page of a seeded synthetic application, rendered
//! cold (no bean or fragment cache) for a desktop and a PDA browser and
//! as a scroller URL variant, hashes (FNV-1a, 64 bit) to one recorded
//! value. Any byte that moves on any page — markup, escaping, href
//! encoding, pager text, row order — moves the hash.
//!
//! The seeded text and one request parameter carry HTML specials, `%`,
//! spaces and non-ASCII characters, so escaping and URL encoding are part
//! of what is pinned.
//!
//! The same pages also pin what a cold page costs in heap allocations:
//! this test binary counts them with its own global allocator.

use webml_ratio::mvc::{RuntimeOptions, WebRequest};
use webml_ratio::relstore::{DataType, Params};
use webml_ratio::webratio::{seed_data, synthesize, Deployment, SynthSpec};

/// The hash of every page below, recorded before the render path was
/// rewritten to borrow its content; a deliberate markup change updates it.
const GOLDEN: u64 = 0xab7a_1f5a_fbb7_c792;

const PDA: &str = "PalmOS PDA Browser/1.0";

/// A counting global allocator: heap allocations per thread.
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-init: reading the counter inside `alloc` never allocates
        static COUNT: Cell<usize> = const { Cell::new(0) };
    }

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Heap allocations performed on the current thread while running `f`.
    pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
        let before = COUNT.try_with(Cell::get).unwrap_or(0);
        let out = f();
        let after = COUNT.try_with(Cell::get).unwrap_or(0);
        (after.saturating_sub(before), out)
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The seeded application deployed cold, and its 120 requests: every page
/// for a desktop and a PDA browser, and as a scroller URL variant.
fn cold_pages() -> (Deployment, Vec<(String, WebRequest)>) {
    let app = synthesize(&SynthSpec::scaled(40, 6));
    let d = app
        .deploy(RuntimeOptions {
            bean_cache: false,
            fragment_cache: false,
            ..RuntimeOptions::default()
        })
        .unwrap();
    seed_data(&app, &d.db, 24, 11);
    // hostile text in the first row of every entity: escaped in markup,
    // percent-encoded wherever an attribute feeds a link parameter
    for (eid, _) in app.er.entities() {
        let table = app.mapping.table_for(eid).unwrap();
        let schema = app.mapping.schema_for(eid).unwrap();
        for col in &schema.columns {
            if col.data_type == DataType::Text {
                d.db.execute(
                    &format!("UPDATE {table} SET {} = :v WHERE oid = 1", col.name),
                    &Params::new().bind("v", "Ünï <b>&\"qu0te\"</b> 100% ✓"),
                )
                .unwrap();
            }
        }
    }
    let mut requests = Vec::new();
    for p in &d.generated.descriptors.pages {
        for req in [
            WebRequest::get(&p.url),
            WebRequest::get(&p.url).with_user_agent(PDA),
            // pager links re-encode every request parameter
            WebRequest::get(&p.url)
                .with_param("block_offset", "10")
                .with_param("q", "a b&c=100% ü"),
        ] {
            requests.push((p.url.clone(), req));
        }
    }
    (d, requests)
}

#[test]
fn cold_pages_hash_to_the_recorded_golden() {
    let (d, requests) = cold_pages();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (url, req) in &requests {
        let resp = d.handle(req);
        assert_eq!(resp.status, 200, "{url}: {}", resp.body);
        fnv1a(&mut hash, url.as_bytes());
        fnv1a(&mut hash, resp.body.as_bytes());
    }
    assert_eq!(requests.len(), 120);
    assert_eq!(
        hash, GOLDEN,
        "the cold pages changed: {hash:#018x} != {GOLDEN:#018x}"
    );
}

/// Heap allocations per cold page, averaged over the 120 requests above.
/// Before the store shared its text cells and projected only the rows a
/// statement returns, this fixture cost 930 allocations per page; before
/// units were compiled into programs writing beans straight into the page,
/// 632.
const ALLOCATIONS_PER_PAGE: usize = 444;

#[test]
fn cold_pages_allocate_within_their_budget() {
    let (d, requests) = cold_pages();
    // warm-up outside the measured window: sessions, lazy runtime state
    for (_, req) in &requests {
        d.handle(req);
    }
    let (allocs, ()) = alloc_counter::allocations_during(|| {
        for (url, req) in &requests {
            assert_eq!(d.handle(req).status, 200, "{url}");
        }
    });
    let per_page = allocs / requests.len();
    let bound = ALLOCATIONS_PER_PAGE + ALLOCATIONS_PER_PAGE / 10;
    assert!(
        per_page <= bound,
        "{per_page} allocations per cold page (bound {bound}; {ALLOCATIONS_PER_PAGE} when \
         recorded, 632 before the view was compiled into unit programs, 930 before text cells \
         were shared and windows projected): copies are back on the cold path"
    );
}
