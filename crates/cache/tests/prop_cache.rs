//! Model-based property tests of the bean cache against a map oracle.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use webcache::{BeanCache, BeanKey, Provenance};

#[derive(Debug, Clone)]
enum Op {
    Put {
        unit: u8,
        params: u8,
        value: u32,
        deps: Vec<u8>,
    },
    Get {
        unit: u8,
        params: u8,
    },
    InvalidateEntity(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (
                0u8..6,
                0u8..4,
                any::<u32>(),
                proptest::collection::vec(0u8..4, 0..3)
            )
                .prop_map(|(unit, params, value, deps)| Op::Put {
                    unit,
                    params,
                    value,
                    deps
                }),
            (0u8..6, 0u8..4).prop_map(|(unit, params)| Op::Get { unit, params }),
            (0u8..4).prop_map(Op::InvalidateEntity),
        ],
        0..60,
    )
}

fn key(unit: u8, params: u8) -> BeanKey {
    BeanKey::new(format!("u{unit}"), format!("p{params}"))
}

/// Computed before any write, from `entities`.
fn on(entities: &[String]) -> Provenance<'_> {
    Provenance {
        lsn: 0,
        entities,
        rows: &[],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn cache_matches_oracle_without_eviction(ops in arb_ops()) {
        // capacity large enough that LRU never kicks in → cache must agree
        // exactly with a simple map oracle
        let cache: BeanCache<u32> = BeanCache::new(1024);
        let mut oracle: HashMap<BeanKey, (u32, HashSet<u8>)> = HashMap::new();
        for op in ops {
            match op {
                Op::Put { unit, params, value, deps } => {
                    let k = key(unit, params);
                    cache.put(
                        k.clone(),
                        value,
                        on(&deps.iter().map(|d| format!("e{d}")).collect::<Vec<_>>()),
                        None,
                    );
                    oracle.insert(k, (value, deps.into_iter().collect()));
                }
                Op::Get { unit, params } => {
                    let k = key(unit, params);
                    let got = cache.get(&k).map(|v| *v);
                    let expect = oracle.get(&k).map(|(v, _)| *v);
                    prop_assert_eq!(got, expect);
                }
                Op::InvalidateEntity(e) => {
                    let dropped = cache.invalidate_entity(&format!("e{e}"));
                    let before = oracle.len();
                    oracle.retain(|_, (_, deps)| !deps.contains(&e));
                    prop_assert_eq!(dropped, before - oracle.len());
                }
            }
            prop_assert_eq!(cache.len(), oracle.len());
        }
    }

    #[test]
    fn capacity_is_never_exceeded(
        capacity in 1usize..8,
        puts in proptest::collection::vec((0u8..32, any::<u32>()), 0..64),
    ) {
        let cache: BeanCache<u32> = BeanCache::new(capacity);
        for (k, v) in puts {
            cache.put(key(k, 0), v, on(&[]), None);
            prop_assert!(cache.len() <= capacity);
        }
    }

    #[test]
    fn most_recently_used_survives_eviction(
        filler in proptest::collection::vec(0u8..20, 1..30),
    ) {
        let cache: BeanCache<u32> = BeanCache::new(4);
        let hot = BeanKey::new("hot", "");
        cache.put(hot.clone(), 1, on(&[]), None);
        for (i, f) in filler.iter().enumerate() {
            // keep touching the hot entry between fills
            prop_assert!(cache.get(&hot).is_some(), "hot entry evicted at step {i}");
            cache.put(key(*f, 1), i as u32, on(&[]), None);
        }
        prop_assert!(cache.get(&hot).is_some());
    }
}
