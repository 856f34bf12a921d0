//! The observability spine, end to end: a request served over HTTP yields
//! a ≥3-level span tree (`request > page > unit > sql`), `/metrics`
//! reports request, cache and plan-cache counters that match the traffic,
//! and span enter/exit stays balanced under arbitrary interleavings.

use proptest::prelude::*;
use webml_ratio::httpd::client;
use webml_ratio::mvc::RuntimeOptions;
use webml_ratio::webratio::{fixtures, SESSION_COOKIE};

/// One span parsed from the `X-Trace` summary header:
/// `(name, depth, start_us, dur_us)`.
fn parse_trace(summary: &str) -> Vec<(String, usize, u64, u64)> {
    summary
        .split(';')
        .skip(1) // leading request id
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut f = s.split('~');
            let name = f.next().unwrap().to_string();
            let depth: usize = f.next().unwrap().parse().unwrap();
            let timing = f.next().unwrap();
            let (start, dur) = timing.split_once('+').unwrap();
            (name, depth, start.parse().unwrap(), dur.parse().unwrap())
        })
        .collect()
}

/// Pull the value of a single-sample counter line out of Prometheus text.
fn metric(text: &str, line_start: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(line_start))
        .unwrap_or_else(|| panic!("metric {line_start} missing:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn http_request_produces_span_tree_and_metrics() {
    let app = fixtures::bookstore();
    let options = RuntimeOptions {
        bean_cache: true,
        fragment_cache: true,
        fragment_ttl: std::time::Duration::from_secs(300),
        ..RuntimeOptions::default()
    };
    let d = app.deploy(options).unwrap();
    d.db.execute_script(
        "INSERT INTO book (title, price) VALUES ('TODS primer', 30.0);
         INSERT INTO book (title, price) VALUES ('WebML handbook', 50.0);",
    )
    .unwrap();
    let prepares_after_deploy = d.obs.db.prepares.get();
    assert!(d.db.pinned_plan_count() > 0, "deploy should pin plans");

    let server = d.serve_traced(0, 2).unwrap();
    let addr = server.addr();
    let home = d.home_url("store").unwrap();

    // ---- first request: cold caches --------------------------------------
    let r1 = client::get(addr, &home).unwrap();
    assert_eq!(r1.status, 200);
    let req_id = r1.find_header("X-Request-Id").unwrap();
    assert!(req_id.starts_with("req-"), "{req_id}");
    let trace = r1.find_header("X-Trace").unwrap().to_string();
    let spans = parse_trace(&trace);

    // the tree is request > page:* > unit:* > sql — at least 3 levels deep
    let max_depth = spans.iter().map(|s| s.1).max().unwrap();
    assert!(max_depth >= 3, "depth {max_depth} in {trace}");
    assert_eq!(spans[0].0, "request");
    assert!(spans.iter().any(|s| s.0.starts_with("page:")), "{trace}");
    assert!(spans.iter().any(|s| s.0.starts_with("unit:")), "{trace}");
    assert!(spans.iter().any(|s| s.0 == "sql"), "{trace}");
    assert!(spans.iter().any(|s| s.0 == "render"), "{trace}");

    // timings are plausible and monotone: the root took real time and every
    // child interval nests inside its parent's interval.
    assert!(spans[0].3 > 0, "root duration must be non-zero: {trace}");
    let mut stack: Vec<(usize, u64, u64)> = Vec::new(); // depth, start, end
    for (name, depth, start, dur) in &spans {
        while stack.last().is_some_and(|(d, _, _)| d >= depth) {
            stack.pop();
        }
        if let Some((pd, ps, pe)) = stack.last() {
            assert_eq!(depth - 1, *pd, "{name} skips a level in {trace}");
            assert!(
                ps <= start && start + dur <= *pe,
                "{name} [{start},{}] escapes parent [{ps},{pe}] in {trace}",
                start + dur
            );
        }
        stack.push((*depth, *start, *start + *dur));
    }

    // ---- second request, same session: caches hit ------------------------
    let cookie = r1.find_header("set-cookie").unwrap().to_string();
    let sid = cookie.split(';').next().unwrap().to_string();
    let r2 = client::get_with_headers(addr, &home, &[("Cookie", &sid)]).unwrap();
    assert_eq!(r2.status, 200);

    // ---- /metrics: counters line up with the traffic ---------------------
    let m = client::get(addr, "/metrics").unwrap();
    assert_eq!(m.status, 200);
    assert_eq!(
        m.find_header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(m.body).unwrap();

    // exactly the two page requests went through the controller
    assert_eq!(metric(&text, "webml_requests_total "), 2);
    assert_eq!(metric(&text, "webml_page_requests_total "), 2);
    assert_eq!(metric(&text, "webml_request_latency_us_count "), 2);
    assert_eq!(metric(&text, "webml_errors_total "), 0);

    // request 1 missed both cache levels, request 2 hit them
    assert!(metric(&text, "webml_cache_misses_total{level=\"bean\"}") >= 1);
    assert!(metric(&text, "webml_cache_hits_total{level=\"bean\"}") >= 1);
    assert!(metric(&text, "webml_cache_hits_total{level=\"fragment\"}") >= 1);

    // every runtime statement reused a deploy-time pinned plan: the prepare
    // counter did not move, the plan-cache hit counter did
    assert_eq!(
        metric(&text, "webml_sql_prepares_total "),
        prepares_after_deploy
    );
    assert!(metric(&text, "webml_sql_plan_cache_hits_total ") >= 1);
    assert!(metric(&text, "webml_sql_rows_scanned_total ") >= 1);

    // the query planner reports its access-path choices: every SELECT
    // lands in the per-query rows-scanned histogram, and all five
    // path counters are exposed (values depend on the workload mix)
    assert!(metric(&text, "db_rows_scanned_per_query_count ") >= 1);
    for name in [
        "db_index_probes_total ",
        "db_hash_joins_total ",
        "db_topk_shortcuts_total ",
        "db_index_orders_total ",
        "db_scan_fallbacks_total ",
    ] {
        metric(&text, name); // panics with context if the line is missing
    }

    // the unit service-time histogram saw the index unit on both requests
    assert!(
        text.contains("webml_unit_service_time_us_count{kind=\"index\"} 2"),
        "{text}"
    );

    // valid exposition: no metric family is declared twice in one scrape
    let mut declared = std::collections::HashSet::new();
    for family in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let name = family.split(' ').next().unwrap();
        assert!(declared.insert(name), "# TYPE {name} appears twice");
    }

    // the JSON trace dump carries the same tree shape
    let sid_header = [("Cookie", sid.as_str())];
    let url = format!(
        "{home}{}__trace=json",
        if home.contains('?') { "&" } else { "?" }
    );
    let j = client::get_with_headers(addr, &url, &sid_header).unwrap();
    let body = String::from_utf8(j.body).unwrap();
    assert!(body.contains("\"name\":\"request\""), "{body}");
    assert!(body.contains("\"name\":\"page:"), "{body}");
    assert!(body.contains("\"name\":\"unit:"), "{body}");

    // cookie sanity: the session flowed, so no second Set-Cookie
    assert!(sid.contains(SESSION_COOKIE));
    assert!(r2.find_header("set-cookie").is_none());

    server.stop();
}

/// The storage tier's two row-level families render at `/metrics` and
/// tell the truth under writes: concurrent autocommit updates of one row
/// all commit (the last writer wins) and the write-conflict counter stays
/// 0, while every committed insert or delete moves the stored-rows gauge by
/// exactly the rows it added or removed.
#[test]
fn mvcc_counters_render_and_move() {
    use webml_ratio::relstore::Params;

    let app = fixtures::bookstore();
    let d = app.deploy(RuntimeOptions::default()).unwrap();
    d.db.execute_script(
        "INSERT INTO book (title, price) VALUES ('TODS primer', 30.0);
         INSERT INTO book (title, price) VALUES ('WebML handbook', 50.0);",
    )
    .unwrap();
    let server = d.serve_traced(0, 2).unwrap();
    let addr = server.addr();
    let scrape = || String::from_utf8(client::get(addr, "/metrics").unwrap().body).unwrap();
    let stored = || -> u64 {
        let tables = d.db.table_names();
        tables
            .iter()
            .map(|t| d.db.table_len(t).unwrap() as u64)
            .sum()
    };

    let before = scrape();
    assert!(
        before.contains("# TYPE db_write_conflicts_total counter"),
        "{before}"
    );
    assert!(before.contains("# TYPE db_versions_live gauge"), "{before}");
    assert_eq!(metric(&before, "db_versions_live "), stored());

    // four threads race to update one row: every statement commits
    let writers: Vec<_> = (0..4)
        .map(|i| {
            let db = std::sync::Arc::clone(&d.db);
            std::thread::spawn(move || {
                for j in 0..5 {
                    db.execute(
                        "UPDATE book SET price = :p WHERE oid = 1",
                        &Params::new().bind("p", f64::from(i * 10 + j)),
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    d.db.execute(
        "INSERT INTO book (title, price) VALUES ('Hypertext', 20.0)",
        &Params::new(),
    )
    .unwrap();
    let grown = scrape();
    assert_eq!(metric(&grown, "db_versions_live "), stored());
    assert_eq!(
        metric(&grown, "db_versions_live "),
        metric(&before, "db_versions_live ") + 1,
        "an update must not add a stored row:\n{grown}"
    );

    d.db.execute("DELETE FROM book WHERE title = 'Hypertext'", &Params::new())
        .unwrap();
    let after = scrape();
    assert_eq!(
        metric(&after, "db_versions_live "),
        metric(&before, "db_versions_live ")
    );
    assert_eq!(metric(&after, "db_write_conflicts_total "), 0);

    server.stop();
}

/// The five maintenance-layer metric families render at `/metrics` and
/// move under a maintained durable deployment: a conditional GET whose
/// validator still matches answers 304; a committed write patches the
/// cached bean in place (or counts its fallback) and forces exactly the
/// outdated fragment to re-render.
#[test]
fn maintenance_counters_render_and_move() {
    use webml_ratio::relstore::Params;
    use webml_ratio::webratio::DurabilityConfig;

    let dir = webml_ratio::wal::TempDir::new("obs-maint").unwrap();
    let app = fixtures::bookstore();
    let durability = DurabilityConfig::new(dir.path());
    let options = RuntimeOptions {
        bean_cache: true,
        fragment_cache: true,
        fragment_ttl: std::time::Duration::from_secs(300),
        conditional_get: true,
        ..RuntimeOptions::default()
    };
    let d = app.deploy_durable(options, &durability).unwrap();
    d.db.execute_script("INSERT INTO book (title, price) VALUES ('TODS primer', 30.0);")
        .unwrap();
    d.wal.as_ref().unwrap().flush_and_notify();
    let server = d.serve_traced(0, 2).unwrap();
    let addr = server.addr();
    let home = d.home_url("store").unwrap();

    // cold request: 200 with a strong validator, session minted
    let r1 = client::get(addr, &home).unwrap();
    assert_eq!(r1.status, 200);
    let etag1 = r1.find_header("etag").unwrap().to_string();
    assert!(etag1.starts_with('"') && etag1.ends_with('"'), "{etag1}");
    let cookie = r1.find_header("set-cookie").unwrap().to_string();
    let sid = cookie.split(';').next().unwrap().to_string();

    // same session, matching validator → 304 with an empty body
    let r2 = client::get_with_headers(addr, &home, &[("Cookie", &sid), ("If-None-Match", &etag1)])
        .unwrap();
    assert_eq!(r2.status, 304);
    assert!(r2.body.is_empty(), "304 must not carry a body");

    // a committed write to a non-order column patches the cached index
    // bean in place (the index is title-ordered, so the price edit cannot
    // move the row) …
    d.db.execute("UPDATE book SET price = 99.5 WHERE oid = 1", &Params::new())
        .unwrap();
    d.wal.as_ref().unwrap().flush_and_notify();

    // … so the stale validator now re-validates to a full 200 whose body
    // already shows the patched row (no invalidation round-trip)
    let r3 = client::get_with_headers(addr, &home, &[("Cookie", &sid), ("If-None-Match", &etag1)])
        .unwrap();
    assert_eq!(r3.status, 200);
    let etag3 = r3.find_header("etag").unwrap().to_string();
    assert_ne!(etag1, etag3, "validator must move with the write");
    let body = String::from_utf8(r3.body).unwrap();
    assert!(body.contains("99.5"), "{body}");

    // … and the fresh validator answers 304 again
    let r4 = client::get_with_headers(addr, &home, &[("Cookie", &sid), ("If-None-Match", &etag3)])
        .unwrap();
    assert_eq!(r4.status, 304);

    let m = client::get(addr, "/metrics").unwrap();
    let text = String::from_utf8(m.body).unwrap();
    assert!(metric(&text, "cache_patches_applied_total ") >= 1, "{text}");
    assert_eq!(metric(&text, "http_304_total "), 2);
    assert!(metric(&text, "fragment_rerenders_total ") >= 1, "{text}");
    assert!(metric(&text, "maint_apply_micros_count ") >= 1, "{text}");
    // the fallback family renders even when empty (total line or labels)
    assert!(text.contains("cache_patch_fallbacks_total"), "{text}");

    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any interleaving of span enters and exits — including abandoned
    /// (never-exited) spans — finishing the context leaves a balanced tree
    /// whose depth never exceeds the deepest live nesting.
    #[test]
    fn span_enter_exit_is_balanced(ops in proptest::collection::vec((any::<bool>(), 0u8..6), 0..64)) {
        let mut ctx = webml_ratio::obs::RequestContext::new("prop");
        let mut live = Vec::new();
        let mut depth = 0usize;
        let mut deepest = 0usize;
        for (enter, name) in ops {
            if enter {
                live.push(ctx.enter(format!("s{name}")));
                depth += 1;
                deepest = deepest.max(depth);
            } else if let Some(token) = live.pop() {
                ctx.exit(token);
                depth = depth.saturating_sub(1);
            }
        }
        let total = ctx.finish();
        prop_assert!(ctx.balanced(), "unbalanced after finish");
        prop_assert!(ctx.max_depth() <= deepest, "depth {} > {}", ctx.max_depth(), deepest);
        // finish() closes the root; a second finish must not change it
        prop_assert_eq!(ctx.finish(), total);
        // the summary mentions the root and parses back span-per-span
        let summary = ctx.trace_summary();
        prop_assert!(summary.contains("request"));
    }
}
