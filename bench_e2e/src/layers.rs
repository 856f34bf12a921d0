//! The traced run: one thread drives the workload's request sequence
//! through the layers in process with a bench span around each layer call,
//! diffs the public counters across the pass, and derives the per-layer
//! table. End-to-end numbers are never taken here; tracing is off there.
//!
//! Spans are timed on the wall clock (reading the CPU clock costs a system
//! call per span edge); the per-request means derived from them are scaled
//! by the share of the pass's wall time the process was actually running,
//! which takes out what the hypervisor took away.

use crate::client::{parse_head, Browser, Connection, Verdict};
use crate::gen::{Catalog, Generator, Kind, Popularity};
use crate::host::{self, KeepAwake};
use crate::recorder::Recorder;
use crate::sut::Sut;
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::Run;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traced pass covers at most this many traced requests of the
/// sequence, and as many untraced ones in between.
const TRACED_REQUESTS: usize = 20_000;
/// Shares of `--seconds` given to each pass.
const TRACED_SHARE: f64 = 0.5;
const DIRECT_SHARE: f64 = 0.10;
const TCP_SHARE: f64 = 0.20;
const BASELINE_SHARE: f64 = 0.10;

pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub traced_requests: usize,
}

/// Requests served and the time they took, on the wall clock and on the
/// process's CPU clock.
#[derive(Default, Clone, Copy)]
struct Served {
    requests: usize,
    wall_s: f64,
    running_s: f64,
}

/// One single-threaded in-process pass over a request stream.
struct Pass {
    tracer: Tracer,
    /// Kind, status and page of traced request `i` (its root span is the
    /// `i`-th `request` span).
    kinds: Vec<Kind>,
    statuses: Vec<u16>,
    pages: Vec<usize>,
    traced: Served,
    /// The chunks served with the tracer off, when the pass alternates.
    untraced: Served,
    failed: u64,
    max_lag_lsn: u64,
}

/// What a pass sends: everything, or only the operations of the stream
/// (the pages in between are generated and skipped).
#[derive(Clone, Copy, PartialEq)]
enum Send {
    All,
    OpsOnly,
}

/// Requests per chunk when a pass alternates traced and untraced chunks.
const CHUNK: usize = 250;

/// Drive `stream` through the layers in process until `limit` requests or
/// `budget` wall time. With `alternate`, every other chunk of [`CHUNK`]
/// requests runs with the tracer off: the same state, the same mix, so the
/// two kinds of chunk differ only by what the bench's own spans cost.
#[allow(clippy::too_many_arguments)]
fn in_process_pass(
    sut: &Sut,
    catalog: &Catalog,
    stream: &mut Generator,
    browser: &mut Browser,
    alternate: bool,
    send: Send,
    limit: usize,
    budget: Duration,
) -> Pass {
    let mut pass = Pass {
        tracer: Tracer::new(),
        kinds: Vec::new(),
        statuses: Vec::new(),
        pages: Vec::new(),
        traced: Served::default(),
        untraced: Served::default(),
        failed: 0,
        max_lag_lsn: 0,
    };
    let (mut wire, mut sink) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut generated = 0;
    for chunk in 0.. {
        if generated >= limit || t0.elapsed() >= budget {
            break;
        }
        let tracing = !alternate || chunk % 2 == 0;
        pass.tracer.set_enabled(tracing);
        let (wall0, running0) = (Instant::now(), host::cpu_clock());
        let mut served = 0;
        while served < CHUNK && generated < limit && t0.elapsed() < budget {
            let req = stream.next_request();
            generated += 1;
            if send == Send::OpsOnly && req.kind != Kind::Op {
                continue;
            }
            browser.encode(&req, &mut wire);
            pass.tracer.begin_request();
            sut.request_in_process(&wire, &mut sink, &mut pass.tracer);
            pass.tracer.exit();
            served += 1;
            let status = match parse_head(&sink) {
                Ok(Some(head)) => {
                    let body = &sink[head.head_len..];
                    let verdict = browser.accept(&req, &head, body, catalog);
                    (verdict == Verdict::Correct).then_some(head.status)
                }
                _ => None,
            };
            if status.is_none() {
                pass.failed += 1;
            }
            if req.kind == Kind::Op {
                pass.max_lag_lsn = pass.max_lag_lsn.max(sut.replica_lag_lsn());
            }
            if tracing {
                pass.kinds.push(req.kind);
                pass.statuses.push(status.unwrap_or(0));
                pass.pages.push(req.page);
            }
        }
        let side = if tracing {
            &mut pass.traced
        } else {
            &mut pass.untraced
        };
        side.requests += served;
        side.wall_s += wall0.elapsed().as_secs_f64();
        side.running_s += (host::cpu_clock() - running0).as_secs_f64();
    }
    pass
}

/// Durations of the root spans of the requests of one kind that were
/// answered 200, as a recorder.
fn request_latencies(pass: &Pass, kind: Kind) -> Recorder {
    let mut rec = Recorder::default();
    let roots = pass.tracer.durations_us("request");
    for ((us, k), status) in roots.iter().zip(&pass.kinds).zip(&pass.statuses) {
        if *k == kind && *status == 200 {
            rec.record(0, u64::from(*us));
        }
    }
    rec
}

fn p50(rec: &Recorder) -> f64 {
    rec.percentile(0.5, 0).map_or(0.0, f64::from)
}

/// How far each counter moved between two snapshots.
fn moved(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> impl Fn(&str) -> u64 {
    let diff: BTreeMap<&'static str, u64> = after
        .iter()
        .map(|(k, v)| (*k, v.saturating_sub(before.get(k).copied().unwrap_or(0))))
        .collect();
    move |key| diff.get(key).copied().unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn run(cfg: &Run, scratch: &Path, trace_out: Option<&Path>) -> io::Result<Outcome> {
    let sut = Sut::deploy(cfg.workload, cfg.seed, scratch)?;
    let catalog = Arc::new(sut.catalog());
    let popularity = Popularity::new(catalog.pages.len());
    // client 0's stream of the untraced run
    let stream_of = |workload: Workload| {
        Generator::new(
            Arc::clone(&catalog),
            &popularity,
            workload,
            cfg.seed,
            0,
            cfg.clients,
        )
    };
    let budget = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    m.insert("setup.synthesize_s", sut.setup.synthesize_s);
    m.insert("setup.generate_s", sut.generate_s());
    m.insert("setup.analyze_s", sut.setup.analyze_s);
    m.insert("setup.deploy_s", sut.setup.deploy_s);
    m.insert("setup.seed_s", sut.setup.seed_s);
    m.insert("setup.settle_s", sut.setup.settle_s);

    // ---- traced pass ----------------------------------------------------
    let mut stream = stream_of(cfg.workload);
    let mut browser = Browser::new(cfg.workload.conditional_get());
    let before = sut.counters();
    let traced = in_process_pass(
        &sut,
        &catalog,
        &mut stream,
        &mut browser,
        true,
        Send::All,
        2 * TRACED_REQUESTS,
        budget(TRACED_SHARE),
    );
    sut.settle();
    let after = sut.counters();
    let delta = moved(&before, &after);
    // spans cover the traced chunks, counters every request of the pass
    let requests = traced.traced.requests.max(1);
    let all_requests = (traced.traced.requests + traced.untraced.requests).max(1) as u64;
    let pages = traced.kinds.iter().filter(|k| **k == Kind::Page).count();
    let ops = requests - pages;
    let page_share = pages as f64 / requests as f64;
    let agg = traced.tracer.aggregate();
    let self_us = |name: &str| agg.get(name).map_or(0.0, |a| a.self_ns as f64 / 1e3);
    let total_us = |name: &str| agg.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e3);
    let count = |name: &str| agg.get(name).map_or(0, |a| a.count);
    // mean µs per request, on an undisturbed CPU
    let undisturbed = traced.traced.running_s / traced.traced.wall_s.max(1e-9);
    let per_request = |us: f64| us * undisturbed / requests as f64;

    m.insert("httpd.parse_us", per_request(self_us("httpd.parse")));
    m.insert(
        "httpd.serialize_us",
        per_request(self_us("httpd.serialize")),
    );
    m.insert(
        "core.adapt_us",
        per_request(self_us("core.adapt_request") + self_us("core.adapt_response")),
    );
    m.insert("mvc.handle_us", per_request(total_us("mvc.handle")));
    m.insert("mvc.controller_self_us", per_request(self_us("mvc.handle")));
    m.insert("mvc.page_self_us", per_request(self_us("page")));
    m.insert("mvc.unit_self_us", per_request(self_us("unit")));
    m.insert("mvc.render_self_us", per_request(self_us("render")));
    m.insert("relstore.sql_us", per_request(self_us("sql")));
    m.insert("presentation.fragment_us", per_request(self_us("fragment")));
    m.insert(
        "mvc.op_us",
        total_us("op") * undisturbed / ops.max(1) as f64,
    );
    m.insert("mvc.units_per_page", ratio(count("unit"), count("page")));
    m.insert(
        "mvc.http_304_share",
        delta("mvc.http_304") as f64 / (all_requests as f64 * page_share).max(1.0),
    );
    m.insert("mvc.ko_flows", delta("mvc.ko_flows") as f64);
    m.insert(
        "trace.residual_ratio",
        self_us("request") / total_us("request").max(1.0),
    );

    m.insert(
        "relstore.stmts_per_req",
        ratio(delta("db.statements"), all_requests),
    );
    m.insert(
        "relstore.rows_scanned_per_stmt",
        ratio(delta("db.rows_scanned"), delta("db.statements")),
    );
    m.insert(
        "relstore.index_probes_per_stmt",
        ratio(delta("db.index_probes"), delta("db.statements")),
    );
    m.insert("relstore.scan_fallbacks", delta("db.scan_fallbacks") as f64);
    m.insert(
        "relstore.plan_cache_hit_ratio",
        ratio(
            delta("db.plan_cache_hits"),
            delta("db.plan_cache_hits") + delta("db.prepares"),
        ),
    );
    m.insert(
        "relstore.write_conflicts",
        delta("db.write_conflicts") as f64,
    );
    m.insert(
        "relstore.versions_live",
        after.get("gauge.db.versions_live").copied().unwrap_or(0) as f64,
    );

    m.insert(
        "cache.bean_hit_ratio",
        ratio(
            delta("bean.hits"),
            delta("bean.hits") + delta("bean.misses"),
        ),
    );
    m.insert("cache.bean_evictions", delta("bean.evictions") as f64);
    m.insert("cache.invalidations", delta("bean.invalidations") as f64);
    m.insert(
        "cache.fragment_hit_ratio",
        ratio(
            delta("fragment.hits"),
            delta("fragment.hits") + delta("fragment.misses"),
        ),
    );
    m.insert("cache.patches_applied", delta("maint.patches") as f64);
    m.insert("cache.patch_fallbacks", delta("maint.fallbacks") as f64);
    m.insert(
        "cache.patch_ratio",
        ratio(
            delta("maint.patches"),
            delta("maint.patches") + delta("maint.fallbacks"),
        ),
    );
    m.insert("cache.fragment_rerenders", delta("maint.rerenders") as f64);
    m.insert(
        "cache.maintain_apply_us",
        ratio(delta("maint.apply_us"), delta("maint.batches")),
    );

    m.insert("wal.flushes", delta("wal.flushes") as f64);
    m.insert(
        "wal.bytes_per_commit",
        ratio(delta("wal.bytes"), delta("wal.records")),
    );
    m.insert(
        "wal.commits_per_flush",
        ratio(delta("wal.records"), delta("wal.flushes")),
    );

    m.insert(
        "repl.replica_read_share",
        ratio(delta("repl.replica_reads"), delta("repl.reads")),
    );
    m.insert("repl.stale_redirects", delta("repl.stale_redirects") as f64);
    m.insert("repl.batches_applied", delta("repl.batches_applied") as f64);
    m.insert("repl.max_lag_lsn", traced.max_lag_lsn as f64);

    // what the bench's own spans cost: untraced ÷ traced chunks' req/s
    let rps = |side: Served| side.requests as f64 / side.running_s.max(1e-9);
    m.insert(
        "obs.trace_overhead_ratio",
        rps(traced.untraced) / rps(traced.traced).max(1e-9),
    );

    // ---- the SQL floor: the pages' statements straight against the store --
    let (t0, running0) = (Instant::now(), host::cpu_clock());
    let mut replayed = 0usize;
    for (kind, page) in traced.kinds.iter().zip(&traced.pages).cycle() {
        if t0.elapsed() >= budget(DIRECT_SHARE) || pages == 0 {
            break;
        }
        if *kind == Kind::Page {
            std::hint::black_box(sut.query_direct(*page));
            replayed += 1;
        }
    }
    m.insert(
        "relstore.query_direct_us",
        (host::cpu_clock() - running0).as_secs_f64() * 1e6 / replayed.max(1) as f64,
    );

    // ---- one connection over TCP: what the serving tier adds -------------
    let awake = KeepAwake::start()?;
    let http_before = sut.counters();
    let mut conn = Connection::new(sut.addr());
    let mut tcp = Recorder::default();
    let (mut tcp_others, mut tcp_failed) = (0u64, 0u64);
    let mut wire = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget(TCP_SHARE) {
        let req = stream.next_request();
        browser.encode(&req, &mut wire);
        let sent = host::cpu_clock();
        let answer = conn
            .exchange(&wire)
            .map(|(head, body)| (browser.accept(&req, &head, body, &catalog), head.status));
        let took = (host::cpu_clock() - sent).as_micros() as u64;
        match answer {
            // full pages only: one population on both sides of the difference
            Ok((Verdict::Correct, 200)) if req.kind == Kind::Page => tcp.record(0, took),
            Ok((Verdict::Correct, _)) => tcp_others += 1,
            _ => tcp_failed += 1,
        }
    }
    drop(awake);
    let http_delta = moved(&http_before, &sut.counters());
    let served = http_delta("http.requests");
    m.insert(
        "httpd.tcp_overhead_us",
        p50(&tcp) - p50(&request_latencies(&traced, Kind::Page)),
    );
    m.insert(
        "httpd.dispatches_per_req",
        ratio(http_delta("http.dispatches"), served),
    );
    m.insert(
        "httpd.vectored_writes_per_req",
        ratio(http_delta("http.vectored_writes"), served),
    );
    m.insert(
        "httpd.admission_rejects",
        http_delta("http.admission_rejects") as f64,
    );

    // ---- baselines for the write path -----------------------------------
    let (mut baseline_requests, mut baseline_failed) = (0, 0);
    let (mut op_plain_us, mut repl_page, mut repl_op) = (0.0, 0.0, 0.0);
    if cfg.workload.write_share() > 0.0 {
        // the same operations on a plain deploy(): no log, no maintenance
        let plain = Sut::deploy(Workload::BrowseCold, cfg.seed, scratch)?;
        let pass = in_process_pass(
            &plain,
            &catalog,
            &mut stream_of(cfg.workload),
            &mut Browser::new(false),
            false,
            Send::OpsOnly,
            requests,
            budget(BASELINE_SHARE),
        );
        baseline_requests += pass.traced.requests;
        baseline_failed += pass.failed;
        let agg = pass.tracer.aggregate();
        op_plain_us = agg
            .get("op")
            .map_or(0.0, |a| a.total_ns as f64 / 1e3 / a.count.max(1) as f64);
    }
    if cfg.workload == Workload::ReplicatedMix {
        // the same sequence on the single-node durable deployment
        let single = Sut::deploy(Workload::EditMix, cfg.seed, scratch)?;
        let pass = in_process_pass(
            &single,
            &catalog,
            &mut stream_of(cfg.workload),
            &mut Browser::new(false),
            false,
            Send::All,
            requests,
            budget(BASELINE_SHARE),
        );
        baseline_requests += pass.traced.requests;
        baseline_failed += pass.failed;
        repl_page = p50(&request_latencies(&traced, Kind::Page))
            - p50(&request_latencies(&pass, Kind::Page));
        repl_op =
            p50(&request_latencies(&traced, Kind::Op)) - p50(&request_latencies(&pass, Kind::Op));
    }
    m.insert("mvc.op_plain_us", op_plain_us);
    // without `op:*` spans (the router is opaque) there is nothing to subtract from
    let wal_overhead = if delta("wal.records") > 0 && count("op") > 0 {
        m["mvc.op_us"] - op_plain_us
    } else {
        0.0
    };
    m.insert("wal.commit_overhead_us", wal_overhead);
    m.insert("repl.page_overhead_us", repl_page);
    m.insert("repl.op_overhead_us", repl_op);

    if let Some(path) = trace_out {
        traced.tracer.write_to(path)?;
    }
    let attempted = all_requests + (baseline_requests + tcp.len()) as u64 + tcp_others + tcp_failed;
    Ok(Outcome {
        metrics: m,
        attempted,
        failed: traced.failed + tcp_failed + baseline_failed,
        traced_requests: traced.traced.requests,
    })
}
