//! E12: model-driven query planning — deploy-time index derivation,
//! hash joins, and Top-K pushdown on the unit-query hot path.
//!
//! The paper's generated unit queries are the data tier's entire
//! workload, so their access paths are derivable from the model: selector
//! equalities, role FK/bridge columns, and sort keys. Deploy creates
//! exactly those indexes (see `codegen::derive_indexes`). This experiment
//! measures what that buys on the ACM Digital Library fixture (Fig. 1/2):
//!
//! * **rows scanned per request** — the volume page joins volume → issues
//!   → papers through the hierarchical index unit; with derived indexes
//!   each traversal probes, without them every level re-scans its table;
//! * **no PK regression** — single-row `paper_details` lookups are
//!   PK-index-served either way and must not change;
//! * **client-side latency** — closed-loop clients (the E11 harness
//!   shape) at 1/4/16 clients over real TCP, indexed vs scan baseline.
//!
//! Results land in `BENCH_query.json`.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_query            # full run
//! cargo run -p bench --release --bin exp_query -- --smoke # CI gate
//! ```

use bench::row;
use mvc::{RuntimeOptions, WebRequest};
use relstore::Database;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use webratio::{assemble_node, fixtures, Deployment, NodeSpec};

/// Deploy the ACM DL fixture. `indexed = false` assembles the node over
/// the generated schema with every `CREATE INDEX` statement stripped
/// (tables and primary keys only) and no derived indexes — the
/// scan-everything baseline of a naive generator.
fn deploy_acm(indexed: bool, volumes: usize, issues_per: usize, papers_per: usize) -> Deployment {
    let app = fixtures::acm_library();
    let d = if indexed {
        app.deploy(RuntimeOptions::default()).expect("deploy")
    } else {
        let registry = obs::MetricsRegistry::new();
        let mut generated = app.generate().expect("generate");
        generated.derived_indexes.clear();
        let db = Arc::new(Database::with_counters(Arc::clone(&registry.db)));
        let tables_only: String = generated
            .ddl
            .lines()
            .filter(|l| !l.trim_start().starts_with("CREATE INDEX"))
            .filter(|l| !l.trim_start().starts_with("CREATE UNIQUE INDEX"))
            .collect::<Vec<_>>()
            .join("\n");
        db.execute_script(&tables_only).expect("ddl");
        let controller = assemble_node(
            &generated,
            NodeSpec {
                db: Arc::clone(&db),
                runtime: RuntimeOptions::default(),
                obs: Arc::clone(&registry),
                sessions: None,
                plugins: None,
                stream: None,
                incremental_maintenance: false,
                barrier: None,
            },
        )
        .expect("assemble");
        Deployment {
            generated,
            db,
            controller: Arc::new(controller),
            obs: registry,
            wal: None,
            recovery: None,
            analysis: None,
        }
    };
    fixtures::seed_acm(&d.db, volumes, issues_per, papers_per);
    d
}

/// Executor-path statistics over one in-process workload.
#[derive(Debug)]
struct PathStats {
    requests: usize,
    rows_per_req: f64,
    index_probes: u64,
    hash_joins: u64,
    scan_fallbacks: u64,
}

fn measure(d: &Deployment, reqs: &[WebRequest]) -> PathStats {
    let c = d.db.counters();
    let before = (
        c.rows_scanned.get(),
        c.index_probes.get(),
        c.hash_joins.get(),
        c.scan_fallbacks.get(),
    );
    for r in reqs {
        let resp = d.handle(r);
        assert_eq!(
            resp.status, 200,
            "{} -> {}: {}",
            r.path, resp.status, resp.body
        );
    }
    PathStats {
        requests: reqs.len(),
        rows_per_req: (c.rows_scanned.get() - before.0) as f64 / reqs.len() as f64,
        index_probes: c.index_probes.get() - before.1,
        hash_joins: c.hash_joins.get() - before.2,
        scan_fallbacks: c.scan_fallbacks.get() - before.3,
    }
}

/// An ad-hoc cross-entity report (the §4 "derived information" shape):
/// a year's papers joined down volume → issue → paper, Top-5 per request.
/// The join columns are the FK columns of the *referencing* tables, so no
/// primary key can answer them: with derived indexes each join level
/// probes `ix_issue_volume_oid` / `ix_paper_issue_oid`; without them the
/// executor falls back to build/probe hash joins, and the Top-K heap
/// bounds the ORDER BY.
fn measure_report_join(d: &Deployment, n: usize, volumes: usize) -> PathStats {
    let c = d.db.counters();
    let before = (
        c.rows_scanned.get(),
        c.index_probes.get(),
        c.hash_joins.get(),
        c.scan_fallbacks.get(),
    );
    for i in 0..n {
        let mut p = relstore::Params::new();
        p.set("year", 2002 - ((i % volumes) as i64));
        let rs =
            d.db.query(
                "SELECT i.number, p.title FROM volume v \
                 INNER JOIN issue i ON i.volume_oid = v.oid \
                 INNER JOIN paper p ON p.issue_oid = i.oid \
                 WHERE v.year = :year ORDER BY p.title LIMIT 5",
                &p,
            )
            .expect("report join");
        assert!(rs.rows().len() <= 5);
    }
    PathStats {
        requests: n,
        rows_per_req: (c.rows_scanned.get() - before.0) as f64 / n as f64,
        index_probes: c.index_probes.get() - before.1,
        hash_joins: c.hash_joins.get() - before.2,
        scan_fallbacks: c.scan_fallbacks.get() - before.3,
    }
}

fn volume_page_workload(n: usize, volumes: usize) -> Vec<WebRequest> {
    (0..n)
        .map(|i| {
            WebRequest::get("/acm_dl/volume_page")
                .with_param("volume", ((i % volumes) + 1).to_string())
        })
        .collect()
}

fn paper_lookup_workload(n: usize, papers: usize) -> Vec<WebRequest> {
    (0..n)
        .map(|i| {
            WebRequest::get("/acm_dl/paper_details")
                .with_param("paper", ((i % papers) + 1).to_string())
        })
        .collect()
}

/// One closed-loop HTTP latency cell (E11 harness shape: every client
/// issues the next request only after the previous response).
struct Cell {
    clients: usize,
    throughput_rps: f64,
    p50_us: u64,
    p95_us: u64,
}

fn run_cell(addr: SocketAddr, urls: &Arc<Vec<String>>, clients: usize, per_client: usize) -> Cell {
    let hist = Arc::new(obs::Histogram::new());
    let errors = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for cidx in 0..clients {
        let urls = Arc::clone(urls);
        let hist = Arc::clone(&hist);
        let errors = Arc::clone(&errors);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut conn = httpd::client::Connection::open(addr).expect("connect");
            barrier.wait();
            for i in 0..per_client {
                let url = &urls[(cidx * 3 + i) % urls.len()];
                let t0 = Instant::now();
                match conn.get_with_headers(url, &[]) {
                    Ok(r) if r.status == 200 => hist.observe_us(t0.elapsed().as_micros() as u64),
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(errors.load(Ordering::Relaxed), 0, "non-200s under load");
    Cell {
        clients,
        throughput_rps: (clients * per_client) as f64 / elapsed,
        p50_us: hist.quantile(0.50),
        p95_us: hist.quantile(0.95),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("== E12: model-driven query planning (derived indexes × hash join × Top-K) ==\n");

    // Data scale: volumes × issues/volume × papers/issue.
    let (volumes, issues_per, papers_per, n_reqs, client_counts, per_client): (
        usize,
        usize,
        usize,
        usize,
        &[usize],
        usize,
    ) = if smoke {
        (12, 3, 3, 60, &[1, 4], 20)
    } else {
        (60, 4, 5, 300, &[1, 4, 16], 150)
    };
    let papers = volumes * issues_per * papers_per;

    let baseline = deploy_acm(false, volumes, issues_per, papers_per);
    let indexed = deploy_acm(true, volumes, issues_per, papers_per);
    println!(
        "ACM DL fixture: {volumes} volumes, {} issues, {papers} papers; \
         derived indexes: {}",
        volumes * issues_per,
        indexed
            .generated
            .derived_indexes
            .iter()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
    );

    // -- rows scanned per request (in-process, counter-exact) ---------------
    let widths = [22usize, 10, 12, 12, 10, 10];
    println!(
        "\n{}",
        row(
            &[
                "workload".into(),
                "plan".into(),
                "rows/req".into(),
                "ix probes".into(),
                "hash".into(),
                "scans".into(),
            ],
            &widths
        )
    );
    let print_stats = |name: &str, plan: &str, s: &PathStats| {
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    plan.into(),
                    format!("{:.1}", s.rows_per_req),
                    s.index_probes.to_string(),
                    s.hash_joins.to_string(),
                    s.scan_fallbacks.to_string(),
                ],
                &widths
            )
        );
    };

    let vol_reqs = volume_page_workload(n_reqs, volumes);
    let vol_scan = measure(&baseline, &vol_reqs);
    let vol_ix = measure(&indexed, &vol_reqs);
    print_stats("volume page (joins)", "scan", &vol_scan);
    print_stats("volume page (joins)", "indexed", &vol_ix);

    let rpt_scan = measure_report_join(&baseline, n_reqs, volumes);
    let rpt_ix = measure_report_join(&indexed, n_reqs, volumes);
    print_stats("report join (Top-5)", "scan", &rpt_scan);
    print_stats("report join (Top-5)", "indexed", &rpt_ix);

    let pk_reqs = paper_lookup_workload(n_reqs, papers);
    let pk_scan = measure(&baseline, &pk_reqs);
    let pk_ix = measure(&indexed, &pk_reqs);
    print_stats("paper details (PK)", "scan", &pk_scan);
    print_stats("paper details (PK)", "indexed", &pk_ix);

    let reduction = vol_scan.rows_per_req / vol_ix.rows_per_req.max(f64::MIN_POSITIVE);
    println!("\nrows-scanned reduction on the join workload: {reduction:.1}x");
    assert!(
        reduction >= 5.0,
        "derived indexes must cut rows scanned per request by >= 5x: \
         {:.1} -> {:.1} ({reduction:.1}x)",
        vol_scan.rows_per_req,
        vol_ix.rows_per_req
    );
    assert!(
        vol_ix.index_probes > 0,
        "indexed plan must answer through index probes"
    );
    assert!(
        rpt_scan.hash_joins > 0,
        "without indexes the report join must take the hash-join path"
    );
    assert!(
        pk_ix.rows_per_req <= pk_scan.rows_per_req + 0.5,
        "PK lookups must not regress: {:.1} -> {:.1} rows/req",
        pk_scan.rows_per_req,
        pk_ix.rows_per_req
    );

    // -- closed-loop HTTP latency (E11 harness shape) -----------------------
    let urls: Arc<Vec<String>> = Arc::new(
        (0..volumes)
            .map(|v| format!("/acm_dl/volume_page?volume={}", v + 1))
            .collect(),
    );
    let lat_widths = [10usize, 8, 12, 10, 10];
    println!(
        "\n{}",
        row(
            &[
                "plan".into(),
                "clients".into(),
                "req/s".into(),
                "p50 µs".into(),
                "p95 µs".into(),
            ],
            &lat_widths
        )
    );
    let mut grid: Vec<(&str, Cell)> = Vec::new();
    for (label, d) in [("scan", &baseline), ("indexed", &indexed)] {
        let server = d.serve(0, 2).expect("serve");
        for &clients in client_counts {
            let cell = run_cell(server.addr(), &urls, clients, per_client);
            println!(
                "{}",
                row(
                    &[
                        label.into(),
                        cell.clients.to_string(),
                        format!("{:.0}", cell.throughput_rps),
                        cell.p50_us.to_string(),
                        cell.p95_us.to_string(),
                    ],
                    &lat_widths
                )
            );
            grid.push((label, cell));
        }
        server.stop();
    }

    if smoke {
        println!("\n--smoke: skipping BENCH_query.json");
        return;
    }

    let mut json = String::from("{\n  \"experiment\": \"E12-query-planning\",\n");
    json.push_str(&format!(
        "  \"dataset\": {{\"volumes\": {volumes}, \"issues\": {}, \"papers\": {papers}}},\n",
        volumes * issues_per
    ));
    json.push_str(&format!(
        "  \"derived_indexes\": [{}],\n",
        indexed
            .generated
            .derived_indexes
            .iter()
            .map(|d| format!("\"{}\"", d.name))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let stats_json = |s: &PathStats| {
        format!(
            "{{\"requests\": {}, \"rows_scanned_per_request\": {:.1}, \"index_probes\": {}, \
             \"hash_joins\": {}, \"scan_fallbacks\": {}}}",
            s.requests, s.rows_per_req, s.index_probes, s.hash_joins, s.scan_fallbacks
        )
    };
    json.push_str(&format!(
        "  \"volume_page_join\": {{\"scan\": {}, \"indexed\": {}, \"reduction\": {:.1}}},\n",
        stats_json(&vol_scan),
        stats_json(&vol_ix),
        reduction
    ));
    json.push_str(&format!(
        "  \"report_join_topk\": {{\"scan\": {}, \"indexed\": {}}},\n",
        stats_json(&rpt_scan),
        stats_json(&rpt_ix)
    ));
    json.push_str(&format!(
        "  \"paper_pk_lookup\": {{\"scan\": {}, \"indexed\": {}}},\n",
        stats_json(&pk_scan),
        stats_json(&pk_ix)
    ));
    json.push_str("  \"http_latency\": [\n");
    json.push_str(
        &grid
            .iter()
            .map(|(label, c)| {
                format!(
                    "    {{\"plan\": \"{label}\", \"clients\": {}, \"throughput_rps\": {:.0}, \
                     \"p50_us\": {}, \"p95_us\": {}}}",
                    c.clients, c.throughput_rps, c.p50_us, c.p95_us
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_query.json", json).expect("write BENCH_query.json");
    println!("\nwrote BENCH_query.json");
}
