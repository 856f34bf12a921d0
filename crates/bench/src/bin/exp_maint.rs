//! E17: incremental cache maintenance vs drop-and-recompute invalidation.
//!
//! §6 of the paper derives *which* cached objects a content operation
//! invalidates from the conceptual model. PR 10 goes one step further:
//! where a cached unit's query shape allows it, the durable WAL stream
//! *patches* the bean in place (key probes, oid-ordered row sets, bounded
//! Top-K windows), re-renders only the dirty fragments, and exposes the
//! page's dependency versions as a strong `ETag` so unchanged pages
//! answer `304 Not Modified` without being computed at all.
//!
//! This experiment drives the paper's own ACM DL application (Fig. 1/2,
//! extended with an `EditPaper` modify operation and §6 cache tags on
//! every cacheable unit) with a closed-loop 90/10 read/write mix, A/B:
//!
//! * **invalidate** — model-driven whole-entity bean invalidation on the
//!   operation path plus the drop-only (empty-plan) maintainer on the
//!   log; no fragment cache (it cannot stay fresh), no ETags;
//! * **maintain** — PR 10: `incremental_maintenance` patches beans from
//!   the durable change stream, versioned fragments re-render only when
//!   dirty, and conditional GETs revalidate against the page ETag.
//!
//! Both arms run the identical request schedule. Reported per arm:
//! throughput, the served-from-cache rate (bean hits, fragment hits and
//! client-cache revalidations over all cache probes — a 304 serves the
//! client's copy, the outermost level of the §6 hierarchy, before either
//! server cache is consulted), 304s, patches and per-reason fallbacks —
//! the counters are reconciled against `/metrics` over HTTP. Results
//! land in `BENCH_maint.json`.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_maint            # full run
//! cargo run -p bench --release --bin exp_maint -- --smoke # CI sanity
//! ```

use bench::row;
use mvc::{RuntimeOptions, WebRequest};
use std::time::Instant;
use webml::{CacheSpec, LinkEnd, OperationKind};
use webratio::{fixtures, Application, DurabilityConfig};

/// The ACM DL app of Fig. 1/2 with §6 cache tags on every cacheable unit
/// and a `Modify` operation so the closed loop has a write path.
fn acm_app() -> Application {
    let mut app = fixtures::acm_library();
    let cacheable = [
        "TODS volumes",
        "Volume data",
        "Paper data",
        "Matching papers",
    ];
    let ids: Vec<_> = app
        .hypertext
        .units()
        .filter(|(_, u)| cacheable.contains(&u.name.as_str()))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ids.len(), cacheable.len(), "fixture units renamed?");
    for id in ids {
        app.hypertext.set_cache(id, CacheSpec::model_driven());
    }
    let (paper, _) = app.er.entity_by_name("Paper").expect("Paper entity");
    let volumes = app
        .hypertext
        .pages()
        .find(|(_, p)| p.name == "Volumes")
        .expect("Volumes page")
        .0;
    let edit = app.hypertext.add_operation(
        "EditPaper",
        OperationKind::Modify { entity: paper },
        vec!["oid".into(), "pages".into()],
    );
    app.hypertext.link_ok(edit, LinkEnd::Page(volumes));
    app.hypertext.link_ko(edit, LinkEnd::Page(volumes));
    app
}

struct ArmResult {
    name: &'static str,
    requests: usize,
    writes: usize,
    throughput_rps: f64,
    bean_hits: u64,
    bean_misses: u64,
    frag_hits: u64,
    frag_misses: u64,
    /// (bean hits + fragment hits) / (bean + fragment lookups).
    hit_rate: f64,
    n304: u64,
    patches: u64,
    fallbacks: u64,
    rerenders: u64,
    invalidations: u64,
}

fn metric(text: &str, line_start: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(line_start))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Sum of a labelled counter family (`name{label="..."} v` lines).
fn metric_family(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(name) && l.contains('{'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// Run one arm over the shared schedule. Both arms see byte-identical
/// request sequences (same xorshift seed).
fn run_arm(
    maintained: bool,
    requests: usize,
    papers: usize,
    dims: (usize, usize, usize),
) -> ArmResult {
    let name = if maintained { "maintain" } else { "invalidate" };
    let dir = wal::TempDir::new(&format!("exp-maint-{name}")).expect("tempdir");
    let mut durability = DurabilityConfig::new(dir.path());
    durability.incremental_maintenance = maintained;
    let options = RuntimeOptions {
        bean_cache: true,
        fragment_cache: maintained,
        fragment_ttl: std::time::Duration::from_secs(600),
        conditional_get: maintained,
        ..RuntimeOptions::default()
    };
    let app = acm_app();
    let d = app.deploy_durable(options, &durability).expect("deploy");
    fixtures::seed_acm(&d.db, dims.0, dims.1, dims.2);
    d.wal.as_ref().unwrap().flush_and_notify();

    let pages = &d.generated.descriptors.pages;
    let page_url = |n: &str| {
        pages
            .iter()
            .find(|p| p.name == n)
            .unwrap_or_else(|| panic!("page {n}"))
            .url
            .clone()
    };
    let home = page_url("Volumes");
    let volume_url = page_url("Volume Page");
    let paper_url = page_url("Paper Details");
    let results_url = page_url("Search Results");
    let op_url = d
        .generated
        .descriptors
        .operations
        .iter()
        .find(|o| o.op_type == "modify")
        .expect("EditPaper")
        .url
        .clone();

    // read mix: home, every volume page, every paper page, one search
    let mut urls: Vec<WebRequest> = vec![WebRequest::get(&home)];
    for v in 1..=dims.0 {
        urls.push(WebRequest::get(&volume_url).with_param("volume", v.to_string()));
    }
    for p in 1..=papers {
        urls.push(WebRequest::get(&paper_url).with_param("paper", p.to_string()));
    }
    urls.push(WebRequest::get(&results_url).with_param("kw", "%TODS%"));

    // mint one session so ETags are stable across the loop
    let first = d.handle(&urls[0]);
    assert_eq!(first.status, 200);
    let sid = first.set_session.expect("session minted");

    let mut state: u64 = 0xC1D2_2003 | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut etags: Vec<Option<String>> = vec![None; urls.len()];
    let (mut writes, mut n304) = (0usize, 0u64);

    let debug = std::env::var("MAINT_DEBUG").is_ok();
    let (mut t_write, mut t_read) = (0.0f64, 0.0f64);
    let t0 = Instant::now();
    for i in 0..requests {
        let ti = debug.then(Instant::now);
        if next() % 10 == 0 {
            // 10%: edit a random paper through the modify operation
            writes += 1;
            let oid = next() % papers as u64 + 1;
            let resp = d.handle(
                &WebRequest::get(&op_url)
                    .with_session(&sid)
                    .with_param("oid", oid.to_string())
                    .with_param("pages", format!("{}-{}", i, i + 9)),
            );
            assert_eq!(resp.status, 200, "write #{writes}: {}", resp.body);
            if let Some(ti) = ti {
                t_write += ti.elapsed().as_secs_f64();
            }
        } else {
            let u = next() as usize % urls.len();
            let mut req = urls[u].clone().with_session(&sid);
            if let Some(tag) = &etags[u] {
                req = req.with_if_none_match(tag);
            }
            let resp = d.handle(&req);
            match resp.status {
                200 => etags[u] = resp.etag,
                304 => n304 += 1,
                s => panic!("{} -> {s}: {}", req.path, resp.body),
            }
            if let Some(ti) = ti {
                t_read += ti.elapsed().as_secs_f64();
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if debug {
        eprintln!(
            "[{name}] write time {t_write:.3}s ({:.3} ms/op), read time {t_read:.3}s \
             ({:.4} ms/req)",
            t_write / writes.max(1) as f64 * 1e3,
            t_read / (requests - writes).max(1) as f64 * 1e3
        );
    }

    if std::env::var("MAINT_DEBUG").is_ok() {
        if let Some(f) = d.controller.fragment_cache() {
            eprintln!("[{name}] frag len={} stats={:?}", f.len(), f.stats());
        }
        eprintln!("[{name}] fallbacks={:?}", d.obs.maint.fallback_counts());
    }
    let bean = d.controller.bean_cache().expect("bean cache").stats();
    let (frag_hits, frag_misses) = d
        .controller
        .fragment_cache()
        .map(|f| {
            let s = f.stats();
            (s.hits, s.misses)
        })
        .unwrap_or((0, 0));
    let lookups = bean.hits + bean.misses + frag_hits + frag_misses;

    // reconcile the client-observed numbers against /metrics over HTTP
    let server = d.serve_traced(0, 1).expect("serve");
    let m = httpd::client::get(server.addr(), "/metrics").expect("/metrics");
    let text = String::from_utf8(m.body).expect("utf8 metrics");
    server.stop();
    let patches = metric(&text, "cache_patches_applied_total ");
    let fallbacks = metric_family(&text, "cache_patch_fallbacks_total");
    let rerenders = metric(&text, "fragment_rerenders_total ");
    assert_eq!(
        metric(&text, "http_304_total "),
        n304,
        "{name}: 304 counter does not reconcile with the client's count"
    );
    if maintained {
        assert!(patches > 0, "{name}: no bean was ever patched in place");
        assert!(
            metric(&text, "maint_apply_micros_count ") >= writes as u64,
            "{name}: apply histogram missed durable batches"
        );
    } else {
        assert_eq!(patches, 0, "{name}: patched without the maintenance layer");
    }

    ArmResult {
        name,
        requests,
        writes,
        throughput_rps: requests as f64 / elapsed,
        bean_hits: bean.hits,
        bean_misses: bean.misses,
        frag_hits,
        frag_misses,
        // Cache effectiveness across the full §6 hierarchy. A 304 serves
        // the *client's* cached copy — the outermost cache level that
        // conditional GET adds — and answers before either server-side
        // cache is probed, so each revalidation counts as one served-
        // from-cache event next to the bean and fragment hits.
        hit_rate: if lookups + n304 == 0 {
            0.0
        } else {
            (bean.hits + frag_hits + n304) as f64 / (lookups + n304) as f64
        },
        n304,
        patches,
        fallbacks,
        rerenders,
        invalidations: bean.invalidations,
    }
}

/// The conditional-GET smoke sequence: a matching validator answers 304,
/// a write moves the ETag, the stale validator revalidates to a full 200
/// whose body already shows the patched row.
fn conditional_get_smoke() {
    let dir = wal::TempDir::new("exp-maint-304").expect("tempdir");
    let mut durability = DurabilityConfig::new(dir.path());
    durability.incremental_maintenance = true;
    let app = acm_app();
    let d = app
        .deploy_durable(
            RuntimeOptions {
                bean_cache: true,
                fragment_cache: true,
                fragment_ttl: std::time::Duration::from_secs(600),
                conditional_get: true,
                ..RuntimeOptions::default()
            },
            &durability,
        )
        .expect("deploy");
    fixtures::seed_acm(&d.db, 2, 2, 3);
    d.wal.as_ref().unwrap().flush_and_notify();
    let paper_url = d
        .generated
        .descriptors
        .pages
        .iter()
        .find(|p| p.name == "Paper Details")
        .unwrap()
        .url
        .clone();
    let op_url = d
        .generated
        .descriptors
        .operations
        .iter()
        .find(|o| o.op_type == "modify")
        .unwrap()
        .url
        .clone();

    let page = WebRequest::get(&paper_url).with_param("paper", "1");
    let r1 = d.handle(&page);
    assert_eq!(r1.status, 200);
    let sid = r1.set_session.expect("session");
    let r1 = d.handle(&page.clone().with_session(&sid));
    let e1 = r1.etag.clone().expect("ETag on");

    let r2 = d.handle(&page.clone().with_session(&sid).with_if_none_match(&e1));
    assert_eq!(r2.status, 304, "matching validator must answer 304");
    assert!(r2.body.is_empty(), "304 must not carry a body");

    let w = d.handle(
        &WebRequest::get(&op_url)
            .with_session(&sid)
            .with_param("oid", "1")
            .with_param("pages", "1-999"),
    );
    assert_eq!(w.status, 200);

    let r3 = d.handle(&page.clone().with_session(&sid).with_if_none_match(&e1));
    assert_eq!(r3.status, 200, "stale validator must revalidate in full");
    let e3 = r3.etag.clone().expect("new ETag");
    assert_ne!(e1, e3, "the write must move the validator");
    assert!(
        r3.body.contains("1-999"),
        "patched row missing: {}",
        r3.body
    );

    let r4 = d.handle(&page.with_session(&sid).with_if_none_match(&e3));
    assert_eq!(r4.status, 304, "fresh validator must answer 304 again");
    println!("conditional GET: 304 → write → 200 (patched) → 304  ✓");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("== E17: incremental maintenance vs invalidation (90/10 closed loop) ==\n");

    conditional_get_smoke();

    let (requests, dims) = if smoke {
        (300usize, (2usize, 2usize, 3usize))
    } else {
        (6000, (5, 4, 10))
    };
    let papers = dims.0 * dims.1 * dims.2;
    println!(
        "\nACM DL: {} volumes × {} issues × {} papers = {papers} papers, \
         {requests} requests per arm\n",
        dims.0, dims.1, dims.2
    );

    let widths = [11usize, 9, 7, 10, 9, 9, 9, 6, 8, 9, 9];
    println!(
        "{}",
        row(
            &[
                "arm".into(),
                "req/s".into(),
                "writes".into(),
                "hit rate".into(),
                "bean hit".into(),
                "frag hit".into(),
                "304s".into(),
                "patch".into(),
                "fallbk".into(),
                "rerender".into(),
                "invalid".into(),
            ],
            &widths
        )
    );
    let mut arms = Vec::new();
    for maintained in [false, true] {
        let a = run_arm(maintained, requests, papers, dims);
        println!(
            "{}",
            row(
                &[
                    a.name.into(),
                    format!("{:.0}", a.throughput_rps),
                    a.writes.to_string(),
                    format!("{:.3}", a.hit_rate),
                    a.bean_hits.to_string(),
                    a.frag_hits.to_string(),
                    a.n304.to_string(),
                    a.patches.to_string(),
                    a.fallbacks.to_string(),
                    a.rerenders.to_string(),
                    a.invalidations.to_string(),
                ],
                &widths
            )
        );
        arms.push(a);
    }
    let (base, maint) = (&arms[0], &arms[1]);
    let hit_ratio = if base.hit_rate > 0.0 {
        maint.hit_rate / base.hit_rate
    } else {
        f64::INFINITY
    };
    let speedup = maint.throughput_rps / base.throughput_rps;
    println!(
        "\nhit-rate ratio (maintain / invalidate): {hit_ratio:.2}x, \
         throughput: {speedup:.2}x"
    );
    assert!(maint.n304 > 0, "no conditional GET ever revalidated to 304");
    assert!(
        maint.fallbacks > 0,
        "the LIKE-shaped search unit should have fallen back at least once"
    );

    if !smoke {
        assert!(
            hit_ratio >= 3.0,
            "maintained served-from-cache rate (bean + fragment + 304) must \
             be ≥3x the invalidation baseline: {:.3} vs {:.3}",
            maint.hit_rate,
            base.hit_rate
        );
        assert!(
            speedup >= 1.5,
            "maintained throughput must be ≥1.5x the baseline: {:.0} vs {:.0} req/s",
            maint.throughput_rps,
            base.throughput_rps
        );
        let arm_json = |a: &ArmResult| {
            format!(
                "    {{\"arm\": \"{}\", \"requests\": {}, \"writes\": {}, \
                 \"throughput_rps\": {:.0}, \"hit_rate\": {:.4}, \
                 \"bean_hits\": {}, \"bean_misses\": {}, \
                 \"fragment_hits\": {}, \"fragment_misses\": {}, \
                 \"http_304\": {}, \"patches_applied\": {}, \
                 \"patch_fallbacks\": {}, \"fragment_rerenders\": {}, \
                 \"invalidations\": {}}}",
                a.name,
                a.requests,
                a.writes,
                a.throughput_rps,
                a.hit_rate,
                a.bean_hits,
                a.bean_misses,
                a.frag_hits,
                a.frag_misses,
                a.n304,
                a.patches,
                a.fallbacks,
                a.rerenders,
                a.invalidations
            )
        };
        let json = format!(
            "{{\n  \"experiment\": \"E17-incremental-maintenance\",\n  \
             \"app\": \"acm_dl\",\n  \"volumes\": {}, \"issues_per\": {}, \
             \"papers_per\": {}, \"papers\": {papers},\n  \
             \"write_ratio\": 0.1,\n  \"arms\": [\n{},\n{}\n  ],\n  \
             \"hit_rate_ratio\": {hit_ratio:.2},\n  \
             \"throughput_speedup\": {speedup:.2}\n}}\n",
            dims.0,
            dims.1,
            dims.2,
            arm_json(base),
            arm_json(maint)
        );
        std::fs::write("BENCH_maint.json", json).expect("write BENCH_maint.json");
        println!("\nwrote BENCH_maint.json");
    } else {
        println!("\n--smoke: skipping BENCH_maint.json");
    }
    println!("\nresult: PASS — the maintained cache serves more from memory, faster.");
}
