//! Deterministic traffic generator: Zipf page popularity, parameterised
//! requests, and the 90/10 read/write mix with read-your-writes probes.
//!
//! Everything here is bench-owned (its own PRNG, its own Zipf table), so a
//! product change cannot move the load generator. The program under test
//! sees only the request targets this module emits.

use crate::workload::Workload;
use std::sync::Arc;

/// Popularity skew of pages and of parameter values.
const ZIPF_S: f64 = 1.0;
/// Probability that a page request carries a unit parameter.
const PARAM_SHARE: f64 = 0.5;
/// Seed of the page-popularity permutation. Fixed, not taken from `--seed`:
/// pages differ five-fold in cost, so which pages are popular is part of the
/// workload's definition; `--seed` drives the data and the request sequence.
const RANK_SEED: u64 = 2003;
/// Operation mix. The generated model never gives one entity both a create
/// and a delete operation (kind = i mod 5, entity = i mod 40), so creates
/// grow their tables and deletes shrink theirs; small shares keep every
/// table within ±10 % of its seeded size over a run.
const CREATE_SHARE: f64 = 0.02;
const DELETE_SHARE: f64 = 0.02;

/// SplitMix64: small, fast, and good enough for workload sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF table lookup.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One page as the generator sees it.
#[derive(Debug, Clone)]
pub struct PageInfo {
    pub url: String,
    /// Descriptor title; every 200 body of this page must contain it.
    pub title: String,
    /// Request parameters the page's units read (selector oids, scroller
    /// offsets).
    pub params: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Create,
    Delete,
    Modify,
}

/// One content operation as the generator sees it.
#[derive(Debug, Clone)]
pub struct OpInfo {
    pub url: String,
    pub kind: OpKind,
    pub table: String,
    /// Index into [`Catalog::pages`] of the page the operation forwards to.
    /// The generated model makes it a page listing every row of `table`.
    pub forward: usize,
}

/// What the generator needs to know about the deployed application.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub pages: Vec<PageInfo>,
    pub ops: Vec<OpInfo>,
    pub rows_per_entity: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Page,
    Op,
}

/// One generated request plus what a correct response must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub kind: Kind,
    /// Path and query string.
    pub target: String,
    /// Page whose title a 200 body must carry (for operations: the forward).
    pub page: usize,
    /// Text written by this client that a 200 body must show.
    pub marker: Option<String>,
    /// The content changed under the client's last validator, so a 304
    /// would be a stale answer: the response must be a full 200.
    pub must_be_full: bool,
}

impl Request {
    /// The request head as sent when the client holds no cookie or
    /// validator yet — the seed-determined part of the wire bytes.
    pub fn wire_head(&self) -> String {
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\nUser-Agent: bench_e2e\r\n",
            self.target
        )
    }
}

/// Per-operation write cursor of one client.
#[derive(Debug, Clone)]
struct OpState {
    /// Modify: oids `first, first + stride, …` belong to this client alone,
    /// so two clients never race on one row.
    first: usize,
    stride: usize,
    /// Delete: next oid to delete, walking down from the seeded top so the
    /// popular low oids stay alive; `None` once the share is used up.
    next_delete: Option<usize>,
}

/// The request stream of one client connection.
pub struct Generator {
    catalog: Arc<Catalog>,
    rng: Rng,
    client: usize,
    page_zipf: Arc<Zipf>,
    rank_to_page: Arc<Vec<usize>>,
    value_zipf: Zipf,
    /// Probability that a slot not taken by a probe is an operation.
    op_probability: f64,
    creates: Vec<usize>,
    deletes: Vec<usize>,
    modifies: Vec<usize>,
    op_state: Vec<OpState>,
    /// The read-your-writes probe owed after a modify.
    pending: Option<Request>,
    sequence: u64,
}

/// The seed-independent parts of the traffic model, shared by all clients.
pub struct Popularity {
    page_zipf: Arc<Zipf>,
    rank_to_page: Arc<Vec<usize>>,
}

impl Popularity {
    pub fn new(pages: usize) -> Popularity {
        let mut order: Vec<usize> = (0..pages).collect();
        let mut rng = Rng::new(RANK_SEED);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Popularity {
            page_zipf: Arc::new(Zipf::new(pages, ZIPF_S)),
            rank_to_page: Arc::new(order),
        }
    }

    /// Page at popularity rank `rank` (0 = hottest).
    #[cfg(test)]
    pub fn page_at(&self, rank: usize) -> usize {
        self.rank_to_page[rank]
    }
}

impl Generator {
    pub fn new(
        catalog: Arc<Catalog>,
        popularity: &Popularity,
        workload: Workload,
        seed: u64,
        client: usize,
        clients: usize,
    ) -> Generator {
        let ops_of = |kind: OpKind| -> Vec<usize> {
            (0..catalog.ops.len())
                .filter(|&i| catalog.ops[i].kind == kind)
                .collect()
        };
        // Operations that share a table split its oids between them, and
        // each of those shares is split between the clients.
        let op_state = (0..catalog.ops.len())
            .map(|i| {
                let op = &catalog.ops[i];
                let peers: Vec<usize> = (0..catalog.ops.len())
                    .filter(|&j| catalog.ops[j].kind == op.kind && catalog.ops[j].table == op.table)
                    .collect();
                let slot = peers.iter().position(|&j| j == i).unwrap_or(0);
                let stride = peers.len() * clients;
                let first = 1 + slot * clients + client;
                let top = catalog.rows_per_entity;
                OpState {
                    first,
                    stride,
                    next_delete: (top >= first).then(|| top - (top - first) % stride),
                }
            })
            .collect();
        // A modify is followed by a probe GET; solve for the slot
        // probability that leaves operations at `write_share` of all requests.
        let w = workload.write_share();
        let modify_share = 1.0 - CREATE_SHARE - DELETE_SHARE;
        let op_probability = w / (1.0 - w * modify_share);
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(client as u64);
        Generator {
            rng: Rng::new(stream),
            client,
            page_zipf: Arc::clone(&popularity.page_zipf),
            rank_to_page: Arc::clone(&popularity.rank_to_page),
            value_zipf: Zipf::new(catalog.rows_per_entity.max(1), ZIPF_S),
            op_probability,
            creates: ops_of(OpKind::Create),
            deletes: ops_of(OpKind::Delete),
            modifies: ops_of(OpKind::Modify),
            op_state,
            pending: None,
            sequence: 0,
            catalog,
        }
    }

    /// The next request of this client's stream.
    pub fn next_request(&mut self) -> Request {
        if let Some(probe) = self.pending.take() {
            return probe;
        }
        self.sequence += 1;
        if self.op_probability > 0.0 && self.rng.unit() < self.op_probability {
            self.operation()
        } else {
            self.page()
        }
    }

    fn page(&mut self) -> Request {
        let page = self.rank_to_page[self.page_zipf.sample(&mut self.rng)];
        let info = &self.catalog.pages[page];
        let mut target = info.url.clone();
        if !info.params.is_empty() && self.rng.unit() < PARAM_SHARE {
            let name = &info.params[self.rng.below(info.params.len())];
            let value = 1 + self.value_zipf.sample(&mut self.rng);
            target.push_str(&format!("?{name}={value}"));
        }
        Request {
            kind: Kind::Page,
            target,
            page,
            marker: None,
            must_be_full: false,
        }
    }

    fn operation(&mut self) -> Request {
        let u = self.rng.unit();
        let marker = format!("w{}x{}", self.client, self.sequence);
        if u < CREATE_SHARE && !self.creates.is_empty() {
            let op = self.creates[self.rng.below(self.creates.len())];
            let info = &self.catalog.ops[op];
            return Request {
                kind: Kind::Op,
                target: format!("{}?name={marker}", info.url),
                page: info.forward,
                marker: Some(marker),
                must_be_full: true,
            };
        }
        if u < CREATE_SHARE + DELETE_SHARE && !self.deletes.is_empty() {
            let op = self.deletes[self.rng.below(self.deletes.len())];
            let state = &mut self.op_state[op];
            if let Some(oid) = state.next_delete {
                state.next_delete = (oid > state.stride).then(|| oid - state.stride);
                let info = &self.catalog.ops[op];
                return Request {
                    kind: Kind::Op,
                    target: format!("{}?oid={oid}", info.url),
                    page: info.forward,
                    marker: None,
                    must_be_full: true,
                };
            }
            // this client's share of the table is used up: modify instead
        }
        let op = self.modifies[self.rng.below(self.modifies.len())];
        let info = &self.catalog.ops[op];
        let state = &self.op_state[op];
        let owned = (self.catalog.rows_per_entity + state.stride - state.first) / state.stride;
        let rank = self.value_zipf.sample(&mut self.rng) % owned.max(1);
        let oid = state.first + rank * state.stride;
        // the same client's next GET of the forward page must show the value
        self.pending = Some(Request {
            kind: Kind::Page,
            target: self.catalog.pages[info.forward].url.clone(),
            page: info.forward,
            marker: Some(marker.clone()),
            must_be_full: true,
        });
        Request {
            kind: Kind::Op,
            target: format!("{}?oid={oid}&name={marker}", info.url),
            page: info.forward,
            marker: Some(marker),
            must_be_full: true,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A catalog with the generated model's shape: operation `i` has kind
    /// `i mod 5` over entity `i mod 40` and forwards to page `i`.
    pub(crate) fn catalog(pages: usize, ops: usize) -> Arc<Catalog> {
        let pages: Vec<PageInfo> = (0..pages)
            .map(|p| PageInfo {
                url: format!("/sv/page{p}"),
                title: format!("Page{p}"),
                params: if p % 2 == 0 {
                    vec![format!("sel{p}")]
                } else {
                    vec![]
                },
            })
            .collect();
        let ops = (0..ops)
            .filter_map(|o| {
                let kind = match o % 5 {
                    0 => OpKind::Create,
                    1 => OpKind::Delete,
                    2 => OpKind::Modify,
                    _ => return None,
                };
                Some(OpInfo {
                    url: format!("/op/op{o}"),
                    kind,
                    table: format!("entity{}", o % 40),
                    forward: o % pages.len(),
                })
            })
            .collect();
        Arc::new(Catalog {
            pages,
            ops,
            rows_per_entity: 100,
        })
    }

    fn stream(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<Request> {
        let cat = catalog(556, 60);
        let pop = Popularity::new(cat.pages.len());
        let mut g = Generator::new(cat, &pop, workload, seed, client, 2);
        (0..n).map(|_| g.next_request()).collect()
    }

    #[test]
    fn zipf_matches_its_distribution() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let n = 200_000;
        let mut counts = [0usize; 100];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=100).map(|k| 1.0 / k as f64).sum();
        for k in [0usize, 1, 9, 49] {
            let expected = 1.0 / ((k + 1) as f64 * h);
            let got = counts[k] as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.15 * expected + 0.0005,
                "rank {k}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let wire = |reqs: &[Request]| -> String { reqs.iter().map(Request::wire_head).collect() };
        let a = stream(Workload::EditMix, 11, 0, 5_000);
        let b = stream(Workload::EditMix, 11, 0, 5_000);
        assert_eq!(wire(&a), wire(&b));
        let c = stream(Workload::EditMix, 12, 0, 5_000);
        assert_ne!(wire(&a), wire(&c));
        let other_client = stream(Workload::EditMix, 11, 1, 5_000);
        assert_ne!(wire(&a), wire(&other_client));
    }

    #[test]
    fn top_tenth_of_pages_carries_two_thirds_of_the_requests() {
        let cat = catalog(556, 60);
        let pop = Popularity::new(556);
        let hot: Vec<usize> = (0..55).map(|r| pop.page_at(r)).collect();
        let mut g = Generator::new(cat, &pop, Workload::BrowseCold, 5, 0, 2);
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| hot.contains(&g.next_request().page))
            .count();
        let share = hits as f64 / n as f64;
        // Zipf(1.0): H(55) / H(556) = 0.665
        assert!((0.64..=0.69).contains(&share), "share {share}");
    }

    #[test]
    fn browse_workloads_never_write_and_half_the_pages_carry_a_parameter() {
        let reqs = stream(Workload::BrowseWarm, 3, 0, 20_000);
        assert!(reqs.iter().all(|r| r.kind == Kind::Page));
        let parameterised = reqs.iter().filter(|r| r.target.contains('?')).count();
        // half the pages of the test catalog take a parameter, half of those
        // requests carry one
        let share = parameterised as f64 / reqs.len() as f64;
        assert!((0.15..=0.35).contains(&share), "share {share}");
    }

    #[test]
    fn write_workloads_hold_the_ninety_ten_mix_and_probe_after_each_modify() {
        let reqs = stream(Workload::EditMix, 9, 0, 50_000);
        let ops = reqs.iter().filter(|r| r.kind == Kind::Op).count();
        let share = ops as f64 / reqs.len() as f64;
        assert!((0.09..=0.11).contains(&share), "op share {share}");
        for pair in reqs.windows(2) {
            if pair[0].kind == Kind::Op
                && pair[0].target.contains("oid=")
                && pair[0].marker.is_some()
            {
                assert_eq!(pair[1].kind, Kind::Page);
                assert_eq!(pair[1].marker, pair[0].marker);
                assert_eq!(pair[1].page, pair[0].page);
                assert!(pair[1].must_be_full);
            }
        }
    }

    /// Replays both clients' operations of a run-sized stream against row
    /// counts: no delete misses, no modify hits a row of another client or
    /// a deleted one, and every table stays within ±10 % of its seeded size.
    #[test]
    fn operations_keep_tables_level_and_never_collide() {
        let cat = catalog(556, 60);
        let mut live: HashMap<String, Vec<bool>> = HashMap::new();
        let mut created: HashMap<String, usize> = HashMap::new();
        let mut modified_by: HashMap<(String, usize), usize> = HashMap::new();
        for client in 0..2 {
            // a full-length run is about 8 000 requests per client
            for r in stream(Workload::ReplicatedMix, 21, client, 10_000) {
                if r.kind != Kind::Op {
                    continue;
                }
                let url = r.target.split('?').next().unwrap();
                let op = cat.ops.iter().find(|o| o.url == url).unwrap();
                let oid = r
                    .target
                    .split(['?', '&'])
                    .find_map(|kv| kv.strip_prefix("oid="))
                    .map(|v| v.parse::<usize>().unwrap());
                let rows = live
                    .entry(op.table.clone())
                    .or_insert_with(|| vec![true; 101]);
                match op.kind {
                    OpKind::Create => *created.entry(op.table.clone()).or_default() += 1,
                    OpKind::Delete => {
                        let oid = oid.unwrap();
                        assert!((1..=100).contains(&oid));
                        assert!(rows[oid], "double delete of {}#{oid}", op.table);
                        rows[oid] = false;
                    }
                    OpKind::Modify => {
                        let oid = oid.unwrap();
                        assert!((1..=100).contains(&oid) && rows[oid]);
                        let owner = modified_by.entry((op.table.clone(), oid)).or_insert(client);
                        assert_eq!(*owner, client, "two clients write {}#{oid}", op.table);
                    }
                }
            }
        }
        for (table, rows) in &live {
            let deleted = rows[1..].iter().filter(|alive| !**alive).count();
            let grown = created.get(table).copied().unwrap_or(0);
            assert!(deleted <= 10 && grown <= 10, "{table}: -{deleted} +{grown}");
        }
        assert!(!created.is_empty() && live.values().any(|r| r.contains(&false)));
    }
}
