//! The system under test, behind one adapter: deploy per workload, serve,
//! counter snapshots, cache clearing, and the traced in-process request
//! path. Every call into a product crate is in this file, so a change to
//! the deploy or serve entry points needs a one-file follow-up here. The
//! end-to-end phases otherwise reach the system only over HTTP.

use crate::gen::{Catalog, OpInfo, OpKind, PageInfo};
use crate::trace::{Imported, Tracer};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::io::{self, IoSlice, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webratio::app::adapt_response_parts;
use webratio::httpd::{self, HttpRequest, HttpResponse, HttpServer, ParseOutcome};
use webratio::mvc::RuntimeOptions;
use webratio::relstore::{Params, Value};
use webratio::{
    adapt_request, adapt_response, analyze, obs, seed_data, synthesize, Application, DeployOptions,
    Deployment, DurabilityConfig, SynthSpec,
};

/// Seeded rows per entity table.
pub const ROWS_PER_ENTITY: usize = 100;
/// HTTP worker threads of the served deployment.
const WORKERS: usize = 2;
const REPLICAS: usize = 2;
/// Long enough that no fragment expires inside a run: coherence is the
/// maintenance layer's job, not the clock's.
const FRAGMENT_TTL: Duration = Duration::from_secs(600);

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub synthesize_s: f64,
    /// Generate + schema + indexes + plan pinning + controller (+ WAL
    /// recovery, + replica bootstrap and analysis when replicated).
    pub deploy_s: f64,
    /// Analyzer time inside `deploy_s` (replicated deploys only).
    pub analyze_s: f64,
    pub seed_s: f64,
    /// Seed flushed, applied to the caches by the maintenance pass, and
    /// applied on every replica.
    pub settle_s: f64,
    pub listen_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.synthesize_s + self.deploy_s + self.seed_s + self.settle_s + self.listen_s
    }
}

enum Topology {
    Single(Box<Deployment>),
    Replicated(Box<repl::ReplicatedDeployment>),
}

/// One deployed, seeded, listening application.
pub struct Sut {
    app: Application,
    topology: Topology,
    server: Option<HttpServer>,
    /// WAL directory of durable deployments; removed on drop.
    dir: Option<PathBuf>,
    pub setup: SetupTimes,
}

fn cached_runtime() -> RuntimeOptions {
    RuntimeOptions {
        bean_cache: true,
        fragment_cache: true,
        fragment_ttl: FRAGMENT_TTL,
        conditional_get: true,
        ..RuntimeOptions::default()
    }
}

/// Run `f`; return its result and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

impl Sut {
    /// Synthesize → deploy → seed → listen, timing each step. `scratch` is
    /// where a durable deployment keeps its log.
    pub fn deploy(workload: Workload, seed: u64, scratch: &Path) -> io::Result<Sut> {
        // the model seed stays 2003; `seed` drives the data
        let (app, synthesize_s) = timed(|| synthesize(&SynthSpec::acer_euro()));
        let dir = match workload {
            Workload::BrowseCold | Workload::BrowseWarm => None,
            Workload::EditMix | Workload::ReplicatedMix => {
                let dir = scratch.join(format!("wal-{}", workload.name()));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir)?;
                Some(dir)
            }
        };
        let deploy_err = |e: webratio::DeployError| io::Error::other(e.to_string());
        let (topology, deploy_s) = timed(|| match workload {
            Workload::BrowseCold => app
                .deploy(RuntimeOptions {
                    bean_cache: false,
                    fragment_cache: false,
                    conditional_get: false,
                    ..RuntimeOptions::default()
                })
                .map(|d| Topology::Single(Box::new(d))),
            Workload::BrowseWarm => app
                .deploy(cached_runtime())
                .map(|d| Topology::Single(Box::new(d))),
            Workload::EditMix => {
                let mut durability = DurabilityConfig::new(dir.as_ref().expect("durable dir"));
                durability.incremental_maintenance = true;
                app.deploy_durable(cached_runtime(), &durability)
                    .map(|d| Topology::Single(Box::new(d)))
            }
            Workload::ReplicatedMix => {
                let options = DeployOptions::with_gate(analyze::Gate::Warn).with_replicas(REPLICAS);
                let durability = DurabilityConfig::new(dir.as_ref().expect("durable dir"));
                repl::deploy_replicated(&app, options, &durability)
                    .map(|r| Topology::Replicated(Box::new(r)))
            }
        });
        let mut sut = Sut {
            app,
            topology: topology.map_err(deploy_err)?,
            server: None,
            dir,
            setup: SetupTimes::default(),
        };
        let analyze_s = sut.leader().obs.analyze.analysis_micros.sum_us() as f64 / 1e6;
        let ((), seed_s) = timed(|| seed_data(&sut.app, &sut.leader().db, ROWS_PER_ENTITY, seed));
        let ((), settle_s) = timed(|| sut.settle());
        let (server, listen_s) = timed(|| sut.serve());
        sut.server = Some(server?);
        sut.setup = SetupTimes {
            synthesize_s,
            deploy_s,
            analyze_s,
            seed_s,
            settle_s,
            listen_s,
        };
        Ok(sut)
    }

    fn leader(&self) -> &Deployment {
        match &self.topology {
            Topology::Single(d) => d,
            Topology::Replicated(r) => &r.leader,
        }
    }

    /// Make every committed write durable, maintained and applied on every
    /// replica.
    pub fn settle(&self) {
        let Some(wal) = &self.leader().wal else {
            return;
        };
        wal.flush_and_notify();
        if let Topology::Replicated(r) = &self.topology {
            let target = wal.appended_lsn();
            let deadline = Instant::now() + Duration::from_secs(10);
            while r.replicas.iter().any(|rep| rep.applied_lsn() < target)
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
                wal.flush_and_notify();
            }
        }
    }

    fn serve(&self) -> io::Result<HttpServer> {
        match &self.topology {
            Topology::Single(d) => d.serve(0, WORKERS),
            Topology::Replicated(r) => {
                let router = Arc::clone(&r.router);
                HttpServer::start(
                    0,
                    WORKERS,
                    Arc::new(move |req: HttpRequest| {
                        adapt_response(router.handle(&adapt_request(&req)))
                    }),
                )
            }
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("served").addr()
    }

    pub fn bean_cache_capacity(&self) -> usize {
        self.leader()
            .controller
            .bean_cache()
            .map_or(0, |c| c.capacity())
    }

    /// Pages, their request parameters, and the content operations.
    pub fn catalog(&self) -> Catalog {
        let set = &self.leader().generated.descriptors;
        let pages: Vec<PageInfo> = set
            .pages
            .iter()
            .map(|p| PageInfo {
                url: p.url.clone(),
                title: p.name.clone(),
                params: p
                    .units
                    .iter()
                    .filter_map(|u| set.unit(u))
                    .flat_map(|u| u.queries.iter().flat_map(|q| q.inputs.iter().cloned()))
                    // bound by the unit services themselves, not by requests
                    .filter(|input| input != "block_limit" && input != "parent")
                    .collect(),
            })
            .collect();
        let ops = set
            .operations
            .iter()
            .filter_map(|o| {
                let kind = match o.op_type.as_str() {
                    "create" => OpKind::Create,
                    "delete" => OpKind::Delete,
                    "modify" => OpKind::Modify,
                    _ => return None,
                };
                let forward = o.ok_forward.as_deref()?;
                Some(OpInfo {
                    url: o.url.clone(),
                    kind,
                    table: o.entity_table.clone()?,
                    forward: pages.iter().position(|p| p.url == forward)?,
                })
            })
            .collect();
        Catalog {
            pages,
            ops,
            rows_per_entity: ROWS_PER_ENTITY,
        }
    }

    fn controllers(&self) -> Vec<&webratio::mvc::Controller> {
        match &self.topology {
            Topology::Single(d) => vec![&d.controller],
            Topology::Replicated(r) => std::iter::once(&*r.leader.controller)
                .chain(r.router.replicas().iter().map(|ep| &*ep.controller))
                .collect(),
        }
    }

    /// Drop every cached bean and fragment, on every node.
    pub fn clear_caches(&self) {
        for c in self.controllers() {
            if let Some(b) = c.bean_cache() {
                b.clear();
            }
            if let Some(f) = c.fragment_cache() {
                f.clear();
            }
        }
    }

    /// Smallest and largest entity table on the leader.
    pub fn table_rows(&self) -> (usize, usize) {
        let db = &self.leader().db;
        let sizes: Vec<usize> = self
            .app
            .er
            .entities()
            .filter_map(|(eid, _)| self.app.mapping.table_for(eid))
            .filter_map(|t| db.table_len(t).ok())
            .collect();
        (
            sizes.iter().copied().min().unwrap_or(0),
            sizes.iter().copied().max().unwrap_or(0),
        )
    }

    /// Largest replica lag behind the leader's log, in LSNs, as of the last
    /// routed write.
    pub fn replica_lag_lsn(&self) -> u64 {
        let lag = self.leader().obs.repl.replica_lag();
        lag.iter()
            .map(|(_, g)| g.lag_lsn.get().max(0) as u64)
            .max()
            .unwrap_or(0)
    }

    /// Every public counter the per-layer table reads, by name. Gauges are
    /// marked `gauge.`; everything else only grows.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        let reg = &self.leader().obs;
        let mut m = BTreeMap::new();
        let mut put = |k: &'static str, v: u64| {
            m.insert(k, v);
        };
        put("mvc.requests", reg.requests.get());
        put("mvc.page_requests", reg.page_requests.get());
        put("mvc.operation_requests", reg.operation_requests.get());
        put("mvc.ko_flows", reg.ko_flows.get());
        put("mvc.http_304", reg.maint.http_304.get());
        put("db.prepares", reg.db.prepares.get());
        put("db.plan_cache_hits", reg.db.plan_cache_hits.get());
        put("db.statements", reg.db.statements_executed.get());
        put("db.rows_scanned", reg.db.rows_scanned.get());
        put("db.index_probes", reg.db.index_probes.get());
        put("db.scan_fallbacks", reg.db.scan_fallbacks.get());
        put("db.write_conflicts", reg.db.write_conflicts.get());
        put(
            "gauge.db.versions_live",
            reg.db.versions_live.get().max(0) as u64,
        );
        put("bean.hits", reg.bean_cache.hits.get());
        put("bean.misses", reg.bean_cache.misses.get());
        put("bean.evictions", reg.bean_cache.evictions.get());
        put("bean.invalidations", reg.bean_cache.invalidations.get());
        put("fragment.hits", reg.fragment_cache.hits.get());
        put("fragment.misses", reg.fragment_cache.misses.get());
        put("maint.patches", reg.maint.patches_applied.get());
        put("maint.fallbacks", reg.maint.fallbacks_total());
        put("maint.rerenders", reg.maint.fragment_rerenders.get());
        put("maint.apply_us", reg.maint.apply_micros.sum_us());
        put("maint.batches", reg.maint.apply_micros.count());
        put("wal.flushes", reg.wal.flushes.get());
        put("wal.bytes", reg.wal.bytes_written.get());
        put("wal.records", reg.wal.records_appended.get());
        put("repl.stale_redirects", reg.repl.stale_redirects.get());
        put("repl.batches_applied", reg.repl.batches_applied.get());
        let reads = reg.repl.read_counts();
        put("repl.reads", reads.iter().map(|(_, n)| n).sum());
        put(
            "repl.replica_reads",
            reads
                .iter()
                .filter(|(target, _)| target.starts_with("replica"))
                .map(|(_, n)| n)
                .sum(),
        );
        let contended: u64 = self
            .controllers()
            .iter()
            .map(|c| {
                c.bean_cache().map_or(0, |b| b.stats().lock_contended)
                    + c.fragment_cache().map_or(0, |f| f.stats().lock_contended)
            })
            .sum();
        put("cache.lock_contended", contended);
        if let Some(server) = &self.server {
            let http = server.http_counters();
            put("http.requests", http.requests.get());
            put("http.dispatches", http.dispatches.get());
            put("http.vectored_writes", http.vectored_writes.get());
            put("http.admission_rejects", http.admission_rejects.get());
        }
        m
    }

    /// Wall time of the code generators alone, on this application.
    pub fn generate_s(&self) -> f64 {
        let t0 = Instant::now();
        let generated = self.app.generate();
        let s = t0.elapsed().as_secs_f64();
        assert!(generated.is_ok(), "the deployed model must generate");
        s
    }

    /// Serve one request in process, the way a worker thread does — parse,
    /// adapt, handle, adapt back, serialize into `sink` with one vectored
    /// write — with a bench span around each layer's entry point.
    pub fn request_in_process(&self, wire: &[u8], sink: &mut Vec<u8>, t: &mut Tracer) {
        t.enter("httpd.parse");
        let req = match httpd::http::parse_request_bytes(wire, httpd::MAX_HEADER_BYTES) {
            Ok(ParseOutcome::Complete(req, _)) => req,
            other => panic!("generated request did not parse: {other:?}"),
        };
        t.exit();
        t.enter("core.adapt_request");
        let web = adapt_request(&req);
        t.exit();
        t.enter("mvc.handle");
        let http: HttpResponse = match &self.topology {
            Topology::Single(d) => {
                let mut ctx = obs::RequestContext::next();
                let parts = d.controller.handle_parts_traced(&web, &mut ctx);
                let handle = t.exit();
                if handle.is_some() {
                    ctx.finish();
                    t.import(handle, &import_spans(ctx.spans()));
                }
                t.enter("core.adapt_response");
                adapt_response_parts(parts)
            }
            // the router has no traced entry point: one opaque span
            Topology::Replicated(r) => {
                let resp = r.router.handle(&web);
                t.exit();
                t.enter("core.adapt_response");
                adapt_response(resp)
            }
        };
        t.exit();
        t.enter("httpd.serialize");
        let chunks = http.to_wire_chunks(true);
        let slices: Vec<IoSlice<'_>> = chunks.iter().map(|c| IoSlice::new(c.as_slice())).collect();
        sink.clear();
        let written = sink.write_vectored(&slices).expect("write to memory");
        debug_assert_eq!(written, chunks.iter().map(|c| c.len()).sum::<usize>());
        t.exit();
    }

    /// Run the first statement of every unit of `page` straight against the
    /// store, bound the way the unit services bind them on a default page
    /// view — the SQL floor of that page, without mvc.
    pub fn query_direct(&self, page: usize) -> usize {
        let d = self.leader();
        let set = &d.generated.descriptors;
        let mut rows = 0;
        for unit in set.pages[page].units.iter().filter_map(|u| set.unit(u)) {
            let Some(q) = unit.queries.first() else {
                continue;
            };
            let mut params = Params::new();
            for input in &q.inputs {
                let v = match input.as_str() {
                    "block_limit" => i64::MAX / 2,
                    "block_offset" => 0,
                    _ => 1,
                };
                params.set(input.clone(), Value::Integer(v));
            }
            rows += d.db.query(&q.sql, &params).map_or(0, |rs| rs.len());
        }
        rows
    }
}

/// `obs` spans as bench spans: the root is dropped (the bench span around
/// the call stands for it) and names are reduced to their kind.
fn import_spans(spans: &[obs::Span]) -> Vec<Imported> {
    spans
        .iter()
        .skip(1)
        .map(|s| Imported {
            name: match s.name.split(':').next().unwrap_or("") {
                "page" => "page",
                "unit" => "unit",
                "sql" => "sql",
                "render" => "render",
                "fragment" => "fragment",
                "op" => "op",
                _ => "other",
            },
            // index 0 is the dropped root; the rest shift down by one
            parent: s.parent.and_then(|p| p.checked_sub(1)),
            start_us: s.start_us,
            dur_us: s.dur_us.unwrap_or(0),
        })
        .collect()
}

impl Drop for Sut {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        // the log, its observers and the store reference each other, so the
        // flusher thread would outlive the deployment unless stopped here
        if let Some(wal) = &self.leader().wal {
            wal.stop();
        }
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
