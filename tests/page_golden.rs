//! Golden pages: every page of a seeded synthetic application, rendered
//! cold (no bean or fragment cache) for a desktop and a PDA browser and
//! as a scroller URL variant, hashes (FNV-1a, 64 bit) to one recorded
//! value. Any byte that moves on any page — markup, escaping, href
//! encoding, pager text, row order — moves the hash.
//!
//! The seeded text and one request parameter carry HTML specials, `%`,
//! spaces and non-ASCII characters, so escaping and URL encoding are part
//! of what is pinned.

use webml_ratio::mvc::{RuntimeOptions, WebRequest};
use webml_ratio::relstore::{DataType, Params};
use webml_ratio::webratio::{seed_data, synthesize, SynthSpec};

/// The hash of every page below, recorded before the render path was
/// rewritten to borrow its content; a deliberate markup change updates it.
const GOLDEN: u64 = 0xab7a_1f5a_fbb7_c792;

const PDA: &str = "PalmOS PDA Browser/1.0";

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn cold_pages_hash_to_the_recorded_golden() {
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

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut served = 0;
    for p in &d.generated.descriptors.pages {
        for req in [
            WebRequest::get(&p.url),
            WebRequest::get(&p.url).with_user_agent(PDA),
            // pager links re-encode every request parameter
            WebRequest::get(&p.url)
                .with_param("block_offset", "10")
                .with_param("q", "a b&c=100% ü"),
        ] {
            let resp = d.handle(&req);
            assert_eq!(resp.status, 200, "{}: {}", p.url, resp.body);
            fnv1a(&mut hash, p.url.as_bytes());
            fnv1a(&mut hash, resp.body.as_bytes());
            served += 1;
        }
    }
    assert_eq!(served, 120);
    assert_eq!(
        hash, GOLDEN,
        "the cold pages changed: {hash:#018x} != {GOLDEN:#018x}"
    );
}
