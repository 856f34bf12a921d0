//! The application-server deployment of the business tier — Fig. 6.
//!
//! §4: "A better software organization is obtained by splitting the
//! business logic into the servlet engine and an application server ... the
//! business components are implemented as Enterprise JavaBeans." The
//! essential runtime consequences are (a) a **marshalling boundary**
//! between the action classes and the business components, and (b)
//! **elastic clone pools**: "cloning the machine where the servlet
//! container resides duplicates also all the services ... the number of
//! clones must be decided statically" — whereas application-server
//! components can grow and shrink at runtime.
//!
//! [`InProcessTier`] is the servlet-container deployment (direct calls);
//! [`AppServerTier`] runs page services on a worker pool behind a
//! JSON-serialisation boundary, with `set_clones` for elasticity.

use crate::beans::UnitBean;
use crate::error::{MvcError, Result};
use crate::page::PageResult;
use crate::plan::{ComputedUnit, SitePlan};
use crate::services::ParamMap;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use relstore::{Database, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webcache::BeanCache;

/// Where page services execute.
pub trait BusinessTier: Send + Sync {
    /// Compute the page named by `page_id` with the given parameters.
    fn compute(
        &self,
        page_id: &str,
        request_params: &ParamMap,
        session_vars: &ParamMap,
    ) -> Result<PageResult>;

    /// Compute with the request's observability context. The default
    /// implementation ignores the context (correct for tiers behind an
    /// opaque boundary); in-process tiers override it so unit/sql spans
    /// land in the caller's trace.
    fn compute_traced(
        &self,
        page_id: &str,
        request_params: &ParamMap,
        session_vars: &ParamMap,
        _ctx: &mut obs::RequestContext,
    ) -> Result<PageResult> {
        self.compute(page_id, request_params, session_vars)
    }

    /// Deployment name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Shared state both deployments need.
pub struct TierContext {
    /// The deploy-time page plans (descriptors and services resolved).
    pub plan: Arc<SitePlan>,
    pub db: Arc<Database>,
    pub bean_cache: Option<Arc<BeanCache<UnitBean>>>,
    /// Shared metrics registry (per-unit-kind histograms etc.).
    pub metrics: Option<Arc<obs::MetricsRegistry>>,
}

impl TierContext {
    fn run(&self, page_id: &str, request: &ParamMap, session: &ParamMap) -> Result<PageResult> {
        let mut ctx = obs::RequestContext::detached();
        self.run_traced(page_id, request, session, &mut ctx)
    }

    fn run_traced(
        &self,
        page_id: &str,
        request: &ParamMap,
        session: &ParamMap,
        ctx: &mut obs::RequestContext,
    ) -> Result<PageResult> {
        let page = self
            .plan
            .page(page_id)
            .ok_or_else(|| MvcError::MissingDescriptor(page_id.to_string()))?;
        let env = crate::page::PageEnv {
            db: &self.db,
            bean_cache: self.bean_cache.as_deref(),
            metrics: self.metrics.as_deref(),
        };
        crate::page::compute_page(&env, page, request, session, ctx)
    }
}

/// Direct in-container execution (§3's baseline deployment).
pub struct InProcessTier {
    pub ctx: TierContext,
}

impl BusinessTier for InProcessTier {
    fn compute(
        &self,
        page_id: &str,
        request_params: &ParamMap,
        session_vars: &ParamMap,
    ) -> Result<PageResult> {
        self.ctx.run(page_id, request_params, session_vars)
    }

    fn compute_traced(
        &self,
        page_id: &str,
        request_params: &ParamMap,
        session_vars: &ParamMap,
        ctx: &mut obs::RequestContext,
    ) -> Result<PageResult> {
        self.ctx
            .run_traced(page_id, request_params, session_vars, ctx)
    }

    fn name(&self) -> &'static str {
        "in-process"
    }
}

// ---- marshalling -----------------------------------------------------------

fn params_to_json(p: &ParamMap) -> serde_json::Value {
    let mut map = serde_json::Map::new();
    for (k, v) in p {
        map.insert(
            k.clone(),
            match v {
                Value::Null => serde_json::Value::Null,
                Value::Integer(i) => serde_json::json!({ "t": "i", "v": i }),
                Value::Real(r) => serde_json::json!({ "t": "r", "v": r }),
                Value::Text(s) => serde_json::json!({ "t": "s", "v": &**s }),
                Value::Boolean(b) => serde_json::json!({ "t": "b", "v": b }),
                Value::Timestamp(t) => serde_json::json!({ "t": "ts", "v": t }),
                Value::Blob(b) => serde_json::json!({ "t": "x", "v": b }),
            },
        );
    }
    serde_json::Value::Object(map)
}

fn params_from_json(j: &serde_json::Value) -> Option<ParamMap> {
    let mut out = ParamMap::new();
    for (k, v) in j.as_object()? {
        let value = if v.is_null() {
            Value::Null
        } else {
            let t = v.get("t")?.as_str()?;
            let w = v.get("v")?;
            match t {
                "i" => Value::Integer(w.as_i64()?),
                "r" => Value::Real(w.as_f64()?),
                "s" => Value::Text(w.as_str()?.into()),
                "b" => Value::Boolean(w.as_bool()?),
                "ts" => Value::Timestamp(w.as_i64()?),
                "x" => Value::Blob(
                    w.as_array()?
                        .iter()
                        .filter_map(|b| b.as_u64().map(|b| b as u8))
                        .collect(),
                ),
                _ => return None,
            }
        };
        out.insert(k.clone(), value);
    }
    Some(out)
}

struct Job {
    /// Marshalled `(page_id, request_params, session_vars)`.
    payload: String,
    reply: Sender<std::result::Result<String, String>>,
}

/// The EJB-container deployment: page computations execute on a pool of
/// worker "clones" behind a serialisation boundary.
pub struct AppServerTier {
    jobs: Sender<Job>,
    job_rx: Receiver<Job>,
    ctx: Arc<TierContext>,
    workers: Mutex<Vec<WorkerHandle>>,
    pub requests_served: AtomicU64,
    /// Bytes crossing the boundary (marshalled requests + responses).
    pub bytes_marshalled: AtomicU64,
}

struct WorkerHandle {
    stop: Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl AppServerTier {
    /// Start with `clones` workers.
    pub fn new(ctx: TierContext, clones: usize) -> Arc<AppServerTier> {
        let (tx, rx) = unbounded::<Job>();
        let tier = Arc::new(AppServerTier {
            jobs: tx,
            job_rx: rx,
            ctx: Arc::new(ctx),
            workers: Mutex::new(Vec::new()),
            requests_served: AtomicU64::new(0),
            bytes_marshalled: AtomicU64::new(0),
        });
        tier.set_clones(clones.max(1));
        tier
    }

    /// The elasticity §4 argues for: grow or shrink the clone pool at
    /// runtime without redeploying.
    pub fn set_clones(self: &Arc<Self>, n: usize) {
        let mut workers = self.workers.lock();
        while workers.len() < n {
            let ctx = Arc::clone(&self.ctx);
            let rx = self.job_rx.clone();
            let (stop_tx, stop_rx) = unbounded::<()>();
            let thread = std::thread::spawn(move || loop {
                // Poll the stop signal between short waits on the job
                // queue (the vendored channel shim has no `select!`).
                if stop_rx.try_recv().is_ok() {
                    break;
                }
                match rx.recv_timeout(std::time::Duration::from_millis(10)) {
                    Ok(job) => {
                        let result = Self::serve(&ctx, &job.payload);
                        let _ = job.reply.send(result);
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                }
            });
            workers.push(WorkerHandle {
                stop: stop_tx,
                thread,
            });
        }
        while workers.len() > n {
            if let Some(w) = workers.pop() {
                let _ = w.stop.send(());
                let _ = w.thread.join();
            }
        }
    }

    /// Current clone count (the resource footprint of this application in
    /// the server — shrinks when traffic drops).
    pub fn clones(&self) -> usize {
        self.workers.lock().len()
    }

    /// Record marshalled bytes locally and in the shared registry.
    fn count_bytes(&self, n: u64) {
        self.bytes_marshalled.fetch_add(n, Ordering::Relaxed);
        if let Some(m) = &self.ctx.metrics {
            m.appserver_bytes_marshalled.add(n);
        }
    }

    /// Unmarshal, compute, marshal — what one EJB invocation does.
    fn serve(ctx: &TierContext, payload: &str) -> std::result::Result<String, String> {
        let j: serde_json::Value =
            serde_json::from_str(payload).map_err(|e| format!("unmarshal: {e}"))?;
        let page_id = j
            .get("page")
            .and_then(|p| p.as_str())
            .ok_or("missing page id")?;
        let request = j
            .get("request")
            .and_then(params_from_json)
            .ok_or("bad request params")?;
        let session = j
            .get("session")
            .and_then(params_from_json)
            .ok_or("bad session params")?;
        let result = ctx
            .run(page_id, &request, &session)
            .map_err(|e| e.to_string())?;
        // units cross in plan order, each with the fingerprint its
        // fragments are keyed on and the row a probe shows: the servlet
        // side renders, caches and validates
        let units: Vec<serde_json::Value> = result
            .units
            .iter()
            .map(|u| {
                serde_json::json!({ "bean": u.bean.to_json(), "key": u.key.as_str(), "oid": u.oid })
            })
            .collect();
        let out = serde_json::json!({
            "units": units,
            "cache_hits": result.cache_hits,
            "computed": result.computed,
        });
        Ok(out.to_string())
    }
}

impl BusinessTier for AppServerTier {
    fn compute(
        &self,
        page_id: &str,
        request_params: &ParamMap,
        session_vars: &ParamMap,
    ) -> Result<PageResult> {
        let payload = serde_json::json!({
            "page": page_id,
            "request": params_to_json(request_params),
            "session": params_to_json(session_vars),
        })
        .to_string();
        self.count_bytes(payload.len() as u64);
        let (reply_tx, reply_rx) = unbounded();
        self.jobs
            .send(Job {
                payload,
                reply: reply_tx,
            })
            .map_err(|_| MvcError::Boundary("worker pool is down".into()))?;
        let response = reply_rx
            .recv()
            .map_err(|_| MvcError::Boundary("worker dropped the reply".into()))?
            .map_err(MvcError::Boundary)?;
        self.count_bytes(response.len() as u64);
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.ctx.metrics {
            m.appserver_requests.inc();
        }
        let j: serde_json::Value = serde_json::from_str(&response)
            .map_err(|e| MvcError::Boundary(format!("unmarshal response: {e}")))?;
        let units = j
            .get("units")
            .and_then(|u| u.as_array())
            .and_then(|units| {
                units
                    .iter()
                    .map(|u| {
                        Some(ComputedUnit {
                            bean: Arc::new(UnitBean::from_json(u.get("bean")?)?),
                            key: u.get("key")?.as_str()?.to_string(),
                            oid: u.get("oid").and_then(|o| o.as_i64()),
                        })
                    })
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| MvcError::Boundary("bad units payload".into()))?;
        Ok(PageResult {
            units,
            cache_hits: j.get("cache_hits").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
            computed: j.get("computed").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
        })
    }

    fn compute_traced(
        &self,
        page_id: &str,
        request_params: &ParamMap,
        session_vars: &ParamMap,
        ctx: &mut obs::RequestContext,
    ) -> Result<PageResult> {
        // Unit/sql spans cannot cross the marshalling boundary; the whole
        // remote invocation shows up as one `appserver` span.
        let token = ctx.enter("appserver");
        let r = self.compute(page_id, request_params, session_vars);
        ctx.exit(token);
        r
    }

    fn name(&self) -> &'static str {
        "app-server"
    }
}

impl Drop for AppServerTier {
    fn drop(&mut self) {
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.stop.send(());
            let _ = w.thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::ServiceRegistry;
    use descriptors::{ControllerConfig, DescriptorSet, PageDescriptor, QuerySpec, UnitDescriptor};
    use relstore::Params;

    fn context() -> TierContext {
        let db = Arc::new(Database::new());
        db.execute_script(
            "CREATE TABLE product (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT);",
        )
        .unwrap();
        db.execute(
            "INSERT INTO product (name) VALUES ('a'), ('b')",
            &Params::new(),
        )
        .unwrap();
        let set = DescriptorSet {
            units: vec![UnitDescriptor {
                id: "unit0".into(),
                name: "Products".into(),
                unit_type: "index".into(),
                page: "page0".into(),
                entity_table: Some("product".into()),
                queries: vec![QuerySpec {
                    name: "main".into(),
                    sql: "SELECT t.oid, t.name FROM product t ORDER BY t.oid".into(),
                    inputs: vec![],
                    bean: vec![],
                }],
                block_size: None,
                fields: vec![],
                optimized: false,
                service: "GenericIndexService".into(),
                depends_on: vec!["product".into()],
                cache: None,
            }],
            pages: vec![PageDescriptor {
                id: "page0".into(),
                name: "Home".into(),
                site_view: "sv".into(),
                url: "/sv/home".into(),
                units: vec!["unit0".into()],
                edges: vec![],
                links: vec![],
                request_params: vec![],
                layout: "single-column".into(),
                template: "t.jsp".into(),
                landmark: true,
                protected: false,
            }],
            operations: vec![],
            controller: ControllerConfig::default(),
        };
        TierContext {
            plan: Arc::new(SitePlan::build(set, &ServiceRegistry::standard())),
            db,
            bean_cache: None,
            metrics: None,
        }
    }

    #[test]
    fn in_process_and_app_server_agree() {
        let in_proc = InProcessTier { ctx: context() };
        let r1 = in_proc
            .compute("page0", &ParamMap::new(), &ParamMap::new())
            .unwrap();
        let tier = AppServerTier::new(context(), 2);
        let r2 = tier
            .compute("page0", &ParamMap::new(), &ParamMap::new())
            .unwrap();
        assert_eq!(r1.units[0].bean, r2.units[0].bean);
        assert_eq!(r1.units[0].key, r2.units[0].key);
        assert_eq!(tier.requests_served.load(Ordering::Relaxed), 1);
        assert!(tier.bytes_marshalled.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn clone_pool_grows_and_shrinks() {
        let tier = AppServerTier::new(context(), 1);
        assert_eq!(tier.clones(), 1);
        tier.set_clones(4);
        assert_eq!(tier.clones(), 4);
        // requests still served after shrinking
        tier.set_clones(1);
        assert_eq!(tier.clones(), 1);
        let r = tier
            .compute("page0", &ParamMap::new(), &ParamMap::new())
            .unwrap();
        assert_eq!(r.units.len(), 1);
    }

    #[test]
    fn concurrent_requests_across_clones() {
        let tier = AppServerTier::new(context(), 4);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&tier);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let r = t
                        .compute("page0", &ParamMap::new(), &ParamMap::new())
                        .unwrap();
                    assert_eq!(r.units[0].bean.row_count(), 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tier.requests_served.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn unknown_page_is_boundary_error() {
        let tier = AppServerTier::new(context(), 1);
        let err = tier
            .compute("nonexistent", &ParamMap::new(), &ParamMap::new())
            .unwrap_err();
        assert!(matches!(err, MvcError::Boundary(_)));
    }

    #[test]
    fn params_marshalling_round_trip() {
        let mut p = ParamMap::new();
        p.insert("a".into(), Value::Integer(1));
        p.insert("b".into(), Value::Text("x".into()));
        p.insert("c".into(), Value::Null);
        p.insert("d".into(), Value::Boolean(true));
        let j = params_to_json(&p);
        assert_eq!(params_from_json(&j).unwrap(), p);
    }
}
