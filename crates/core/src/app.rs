//! The application facade: model → artifacts → running system.

use codegen::{DerivedIndex, GenError, Generated};
use descriptors::DescriptorSet;
use er::{ErModel, RelationalMapping};
use httpd::{BodyChunk, HttpRequest, HttpResponse, HttpServer, ServerConfig, Service};
use mvc::{
    Controller, ControllerParts, RuntimeOptions, SessionManager, WebRequest, WebResponse,
    WebResponseParts,
};
use relstore::{CommitSink, Database};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use webml::HypertextModel;

/// Cookie carrying the session id.
pub const SESSION_COOKIE: &str = "WEBMLSESSION";

/// A complete WebML application specification: data model + hypertext
/// model (+ the derived relational mapping).
pub struct Application {
    pub name: String,
    pub er: ErModel,
    pub mapping: RelationalMapping,
    pub hypertext: HypertextModel,
}

impl Application {
    /// Couple an ER model and a hypertext model; the relational mapping is
    /// derived canonically.
    pub fn new(name: impl Into<String>, er: ErModel, hypertext: HypertextModel) -> Application {
        let mapping = RelationalMapping::derive(&er);
        Application {
            name: name.into(),
            er,
            mapping,
            hypertext,
        }
    }

    /// Run model validation.
    pub fn validate(&self) -> Vec<webml::Issue> {
        webml::validate(&self.er, &self.hypertext)
    }

    /// Run the whole-application analyzer (`WVxxx` + `AZxxx` findings)
    /// over the model and its generated descriptor bundle. When the model
    /// is not even generable, the report carries the validator findings
    /// that stopped generation.
    pub fn analyze_report(&self) -> analyze::Report {
        match self.generate() {
            Ok(g) => analyze::analyze(&self.er, &self.mapping, &self.hypertext, &g.descriptors),
            Err(_) => {
                let mut r = analyze::Report::default();
                for i in self.validate() {
                    r.diagnostics.push(i.into());
                }
                r.dedup();
                r.sort();
                r
            }
        }
    }

    /// Run the code generators.
    pub fn generate(&self) -> Result<Generated, GenError> {
        codegen::generate(&self.er, &self.mapping, &self.hypertext)
    }

    /// Serialize the project (ER + hypertext models) to its XML file form.
    pub fn save(&self) -> String {
        codegen::save_project(&self.name, &self.er, &self.hypertext)
    }

    /// Load a project back from [`Self::save`] output.
    pub fn load(src: &str) -> Result<Application, descriptors::XmlError> {
        let (name, er, ht) = codegen::load_project(src)?;
        Ok(Application::new(name, er, ht))
    }

    /// Deploy on a fresh in-memory store, without the analysis gate.
    pub fn deploy(&self, options: RuntimeOptions) -> Result<Deployment, DeployError> {
        self.assemble(DeployOptions::ungated(options), None, None)
    }

    /// Deploy behind the static-analysis gate.
    pub fn deploy_checked(&self, options: DeployOptions) -> Result<Deployment, DeployError> {
        self.assemble(options, None, None)
    }

    /// Deploy over a write-ahead log in `durability.dir`.
    pub fn deploy_durable(
        &self,
        options: RuntimeOptions,
        durability: &DurabilityConfig,
    ) -> Result<Deployment, DeployError> {
        self.assemble(DeployOptions::ungated(options), Some(durability), None)
    }

    /// The one deploy pipeline (DESIGN.md §9, *Node assembly*); every
    /// other entry point delegates here. All tiers report into one freshly
    /// minted [`obs::MetricsRegistry`], reachable as [`Deployment::obs`].
    ///
    /// 1. Generate the artifacts, once.
    /// 2. Analysis gate: unless `options.analysis` is `Off`, analyze for
    ///    the requested replica count and — at [`analyze::Gate::Deny`] — refuse
    ///    a model with Error-severity findings *before* any durable side
    ///    effect. The report is counted into the metrics
    ///    (`analyze_diagnostics_total{code,severity}`,
    ///    `analyze_distribution_total{code}`, `analyze_run_micros`) and
    ///    kept on [`Deployment::analysis`].
    /// 3. Open the store: fresh, or — with `durability` — recovered from
    ///    the snapshot + log tail *before* the commit sink is armed, so
    ///    replay never re-logs itself. The sink is the node's
    ///    [`wal::LocalStream`]: in front of the log, or alone when the
    ///    node has no log but something that follows its writes.
    /// 4. Run the DDL if the store is empty — on a durable first boot
    ///    through the armed sink, so it is itself durable.
    /// 5. – 8. [`assemble_node`].
    pub fn assemble(
        &self,
        options: DeployOptions,
        durability: Option<&DurabilityConfig>,
        plugins: Option<&Plugins<'_>>,
    ) -> Result<Deployment, DeployError> {
        let registry = obs::MetricsRegistry::new();
        let generated = self.generate().map_err(DeployError::Generation)?;
        let analysis = self.gate(&generated, &options, &registry)?;

        let db = Arc::new(Database::with_counters(Arc::clone(&registry.db)));
        let mut wal = None;
        let mut recovery = None;
        let mut stream = None;
        if let Some(durability) = durability {
            let mut cfg = wal::WalConfig::new(&durability.dir);
            cfg.group_commit_window = durability.group_commit_window;
            let log =
                wal::Wal::open(cfg, Arc::clone(&registry.wal)).map_err(DeployError::Durability)?;
            recovery = Some(log.recover_into(&db).map_err(DeployError::Durability)?);
            stream = Some(wal::LocalStream::over(
                Arc::clone(&log),
                durability.strict_commit,
            ));
            wal = Some(log);
        } else if options.runtime.follows_writes() {
            stream = Some(wal::LocalStream::standalone(db.lsn()));
        }
        if let Some(stream) = &stream {
            // strict: the database hands every commit back to the stream
            // once it has released the storage lock
            db.set_commit_sink(Arc::clone(stream) as Arc<dyn CommitSink>, true);
        }
        if db.table_names().is_empty() {
            db.execute_script(&generated.ddl)
                .map_err(DeployError::Schema)?;
        }
        let maintenance = options
            .runtime
            .follows_writes()
            .then(|| Arc::new(analyze::maintenance::plan_for(&generated.descriptors)));

        let controller = assemble_node(
            &generated,
            NodeSpec {
                db: Arc::clone(&db),
                runtime: options.runtime,
                obs: Arc::clone(&registry),
                sessions: None,
                plugins,
                stream: stream.as_deref().map(|s| s as &dyn wal::ChangeStream),
                maintenance: maintenance.clone(),
            },
        )?;
        Ok(Deployment {
            generated,
            db,
            controller: Arc::new(controller),
            obs: registry,
            wal,
            recovery,
            analysis,
            maintenance,
        })
    }

    fn gate(
        &self,
        generated: &Generated,
        options: &DeployOptions,
        registry: &obs::MetricsRegistry,
    ) -> Result<Option<analyze::Report>, DeployError> {
        if options.analysis == analyze::Gate::Off {
            return Ok(None);
        }
        let t0 = std::time::Instant::now();
        let report = analyze::analyze_deployment(
            &self.er,
            &self.mapping,
            &self.hypertext,
            &generated.descriptors,
            options.replicas,
        );
        registry.analyze.runs.inc();
        registry
            .analyze
            .analysis_micros
            .observe_us(t0.elapsed().as_micros() as u64);
        for ((code, severity), n) in report.code_counts() {
            registry.analyze.record_diagnostics(code, severity, n);
            if code.starts_with("AZ4") {
                registry.analyze.record_distribution(code, n);
            }
        }
        if options.analysis == analyze::Gate::Deny && report.has_errors() {
            return Err(DeployError::Analysis(Box::new(report)));
        }
        Ok(Some(report))
    }
}

/// Plug-in hook of [`Application::assemble`]: edits the parts a node's
/// controller is assembled from — unit services and operation handlers
/// (§6/§7), per-device rule sets (§5).
pub type Plugins<'a> = dyn Fn(&mut ControllerParts) + 'a;

/// One node — single store, durable leader or replica — as
/// [`assemble_node`] sees it.
pub struct NodeSpec<'a> {
    /// The node's store; its schema is installed, or (replica) arrives
    /// through the log. Must report into `obs.db`.
    pub db: Arc<Database>,
    pub runtime: RuntimeOptions,
    pub obs: Arc<obs::MetricsRegistry>,
    /// The leader's session store, on replicas.
    pub sessions: Option<Arc<SessionManager>>,
    pub plugins: Option<&'a Plugins<'a>>,
    /// The committed batches the node's store holds, which its caches
    /// follow: its own commits ([`wal::LocalStream`]) on a node that takes
    /// writes, the applied batches on a replica.
    pub stream: Option<&'a dyn wal::ChangeStream>,
    /// [`Deployment::maintenance`], shared by every node of the deployment.
    pub maintenance: Option<Arc<webcache::MaintenancePlan>>,
}

/// Steps 5 – 8 of [`Application::assemble`], shared by every node of every
/// topology: derived indexes, plan pinning, controller, cache coherence.
///
/// Coherence has one rule: a node with a cache level or conditional GET
/// ([`RuntimeOptions::follows_writes`], so a deployment with a
/// maintenance plan) attaches one [`webcache::LogDrivenMaintainer`]
/// ([`Controller::maintainer`]) under that plan to its stream. It records
/// each batch's LSN in the node's version table and patches or drops
/// beans; fragments are checked against those versions when read. A node
/// with neither attaches nothing.
pub fn assemble_node(generated: &Generated, spec: NodeSpec<'_>) -> Result<Controller, DeployError> {
    // recovered indexes are skipped; derivations new since the last boot
    // are created — and logged — here
    apply_derived_indexes(&spec.db, &generated.derived_indexes).map_err(DeployError::Schema)?;
    pin_descriptor_plans(&spec.db, &generated.descriptors);

    let mut parts = ControllerParts::standard(
        generated.descriptors.clone(),
        generated.skeletons.clone(),
        Arc::clone(&spec.db),
        spec.runtime,
        Arc::clone(&spec.obs),
    );
    parts.sessions = spec.sessions;
    if let Some(plugins) = spec.plugins {
        plugins(&mut parts);
    }
    let controller = Controller::new(parts).map_err(DeployError::View)?;

    if let (Some(stream), Some(plan)) = (spec.stream, spec.maintenance) {
        stream.attach_observer(Arc::new(controller.maintainer(plan)));
    }
    Ok(controller)
}

/// Runtime configuration plus the static-analysis gate level (defaults to
/// [`analyze::Gate::Deny`] — an unsound model is rejected before it
/// serves traffic) and the replica count.
#[derive(Debug, Clone, Default)]
pub struct DeployOptions {
    pub runtime: RuntimeOptions,
    pub analysis: analyze::Gate,
    /// Log-shipping read replicas behind the routing tier (0 = a single
    /// store). Built by `repl::deploy_replicated`; analyzed everywhere.
    pub replicas: usize,
}

impl DeployOptions {
    pub fn with_gate(analysis: analyze::Gate) -> DeployOptions {
        DeployOptions {
            analysis,
            ..DeployOptions::default()
        }
    }

    fn ungated(runtime: RuntimeOptions) -> DeployOptions {
        DeployOptions {
            runtime,
            ..DeployOptions::with_gate(analyze::Gate::Off)
        }
    }

    /// Ask for `n` log-shipping read replicas.
    pub fn with_replicas(mut self, n: usize) -> DeployOptions {
        self.replicas = n;
        self
    }
}

/// How a durable deployment persists committed work.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `wal.snap`.
    pub dir: PathBuf,
    /// Group-commit window: the flusher fsyncs at most this often, so a
    /// non-strict commit may lose at most one window's worth of work.
    pub group_commit_window: Duration,
    /// When `true`, every commit blocks until its log record is fsynced.
    pub strict_commit: bool,
    /// Ignored: every node maintains its caches incrementally (DESIGN §17).
    /// Kept only because the benchmark harness still assigns it; it goes
    /// in the next change to the benchmark.
    pub incremental_maintenance: bool,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            group_commit_window: Duration::from_millis(2),
            strict_commit: false,
            incremental_maintenance: false,
        }
    }
}

/// Apply the model-derived secondary indexes to a live database,
/// idempotently: a derivation is skipped when the table already has an
/// access path on those columns (hand-written DDL, a previous deploy, or
/// WAL/snapshot recovery) or when its table/columns are not present in
/// the live schema (e.g. a custom schema script replaced the generated
/// DDL). Returns the number of indexes actually created.
fn apply_derived_indexes(
    db: &Database,
    derived: &[DerivedIndex],
) -> Result<usize, relstore::Error> {
    let mut created = 0;
    for d in derived {
        let cols: Vec<&str> = d.columns.iter().map(String::as_str).collect();
        match db.has_index_on(&d.table, &cols) {
            Ok(true) => continue,
            Ok(false) => {}
            // unknown table/column: the live schema diverged from the
            // generated DDL — nothing to accelerate, not an error
            Err(_) => continue,
        }
        match db.execute(&d.ddl(), &relstore::Params::new()) {
            Ok(_) => created += 1,
            // raced or name-collided with an existing index: converge
            Err(relstore::Error::DuplicateIndex(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(created)
}

/// Resolve every statement named by the descriptor set into a pinned plan
/// (§6: the prepare is paid once at deploy time; runtime lookups are
/// plan-cache hits). Unparsable statements — e.g. templated
/// custom-operation SQL — are skipped; whatever they expand to is
/// prepared on first use.
fn pin_descriptor_plans(db: &Database, set: &DescriptorSet) {
    let unit_sql = set.units.iter().flat_map(|u| &u.queries).map(|q| &q.sql);
    let op_sql = set.operations.iter().filter_map(|op| op.sql.as_ref());
    for sql in unit_sql.chain(op_sql) {
        let _ = db.pin_plan(sql);
    }
}

/// Deployment failures.
#[derive(Debug)]
pub enum DeployError {
    Generation(GenError),
    Schema(relstore::Error),
    Durability(io::Error),
    /// The static-analysis gate (level [`analyze::Gate::Deny`]) refused
    /// the model; the full report is attached.
    Analysis(Box<analyze::Report>),
    /// The view did not compile: a page template places a unit its page
    /// does not list.
    View(mvc::MvcError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Generation(e) => write!(f, "generation failed: {e}"),
            DeployError::Schema(e) => write!(f, "schema deployment failed: {e}"),
            DeployError::Durability(e) => write!(f, "durability setup failed: {e}"),
            DeployError::View(e) => write!(f, "view compilation failed: {e}"),
            DeployError::Analysis(report) => {
                let n = report.errors().count();
                write!(f, "analysis gate denied deployment: {n} error(s)")?;
                if let Some(first) = report.errors().next() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// A deployed application: generated artifacts + database + controller +
/// the shared observability registry all tiers report into.
pub struct Deployment {
    pub generated: Generated,
    pub db: Arc<Database>,
    pub controller: Arc<Controller>,
    pub obs: Arc<obs::MetricsRegistry>,
    /// The write-ahead log of a durable deployment.
    pub wal: Option<Arc<wal::Wal>>,
    /// What recovery found at boot (durable deployments only).
    pub recovery: Option<wal::RecoveryInfo>,
    /// The analyzer report, when deployed with the gate at `Warn`/`Deny`.
    pub analysis: Option<analyze::Report>,
    /// The compiled [`analyze::maintenance::plan_for`] plan every node's
    /// maintainer follows; `None` when nothing follows writes
    /// ([`RuntimeOptions::follows_writes`]).
    pub maintenance: Option<Arc<webcache::MaintenancePlan>>,
}

impl Deployment {
    /// Service one request in process.
    pub fn handle(&self, req: &WebRequest) -> WebResponse {
        self.controller.handle(req)
    }

    /// URL of a site view's home page (first landmark of that view).
    pub fn home_url(&self, site_view: &str) -> Option<String> {
        self.generated
            .descriptors
            .pages
            .iter()
            .find(|p| p.site_view == site_view && p.landmark)
            .map(|p| p.url.clone())
    }

    /// The web-tier callback. Bodies travel as chunk sequences, so
    /// cache-resident fragments stay refcounted all the way to the
    /// vectored write. `traced`: the web tier mints one
    /// [`obs::RequestContext`] per request and reports into `self.obs`.
    fn service(&self, traced: bool) -> Service {
        let controller = Arc::clone(&self.controller);
        let respond = move |http_req: HttpRequest, ctx: &mut obs::RequestContext| {
            let web_req = adapt_request(&http_req);
            adapt_response_parts(controller.handle_parts_traced(&web_req, ctx))
        };
        if traced {
            Service::Traced {
                handler: Arc::new(respond),
                registry: Arc::clone(&self.obs),
            }
        } else {
            Service::Plain(Arc::new(move |http_req| {
                respond(http_req, &mut obs::RequestContext::detached())
            }))
        }
    }

    /// Expose the app over HTTP (port 0 = ephemeral) with the default
    /// [`ServerConfig`].
    pub fn serve(&self, port: u16, workers: usize) -> io::Result<HttpServer> {
        self.serve_with(port, workers, ServerConfig::default())
    }

    /// [`Deployment::serve`] with explicit serving-path configuration
    /// (per-connection request cap, idle timeout, header cap, admission
    /// budget).
    pub fn serve_with(
        &self,
        port: u16,
        workers: usize,
        config: ServerConfig,
    ) -> io::Result<HttpServer> {
        HttpServer::start_service(port, workers, self.service(false), config)
    }

    /// Expose the app over HTTP with the full observability spine: every
    /// request runs in a fresh [`obs::RequestContext`], responses carry
    /// `X-Request-Id` and `X-Trace` headers, `GET /metrics` renders the
    /// shared registry in Prometheus text format, and `?__trace=json`
    /// returns the request's span tree as JSON.
    pub fn serve_traced(&self, port: u16, workers: usize) -> io::Result<HttpServer> {
        HttpServer::start_service(port, workers, self.service(true), ServerConfig::default())
    }
}

/// httpd → mvc adaptation.
pub fn adapt_request(req: &HttpRequest) -> WebRequest {
    let mut out = WebRequest::get(req.path.clone());
    for (k, v) in req.params() {
        out.params.insert(k, v);
    }
    out.session = req.cookie(SESSION_COOKIE);
    out.user_agent = req.header("user-agent").unwrap_or_default().to_string();
    out.if_none_match = req.header("if-none-match").map(str::to_string);
    out
}

/// mvc → httpd adaptation.
pub fn adapt_response(resp: WebResponse) -> HttpResponse {
    let mut http = HttpResponse::html(resp.status, resp.body);
    http.headers[0].1 = resp.content_type;
    if let Some(tag) = resp.etag {
        http = http.header("ETag", tag);
    }
    if let Some(sid) = resp.set_session {
        http = http.header("Set-Cookie", format!("{SESSION_COOKIE}={sid}; Path=/"));
    }
    http
}

/// mvc → httpd adaptation, chunk-preserving: `Shared` fragments map onto
/// [`BodyChunk::Shared`] so the serving tier writes the cache's own bytes
/// with `writev`, never a flattened copy.
pub fn adapt_response_parts(resp: WebResponseParts) -> HttpResponse {
    let chunks: Vec<BodyChunk> = resp
        .body
        .into_iter()
        .map(|ch| match ch {
            presentation::HtmlChunk::Owned(s) => BodyChunk::Owned(s.into_bytes()),
            presentation::HtmlChunk::Shared(a) => BodyChunk::Shared(a),
        })
        .collect();
    let mut http = HttpResponse::html_chunks(resp.status, chunks);
    http.headers[0].1 = resp.content_type;
    if let Some(tag) = resp.etag {
        http = http.header("ETag", tag);
    }
    if let Some(sid) = resp.set_session {
        http = http.header("Set-Cookie", format!("{SESSION_COOKIE}={sid}; Path=/"));
    }
    http
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn bookstore_deploys_and_serves_in_process() {
        let app = fixtures::bookstore();
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        d.db.execute_script(
            "INSERT INTO book (title, price) VALUES ('TODS primer', 30.0);
                 INSERT INTO book (title, price) VALUES ('WebML handbook', 50.0);",
        )
        .unwrap();
        let home = d.home_url("store").unwrap();
        let resp = d.handle(&WebRequest::get(&home));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("WebML handbook"));
    }

    #[test]
    fn bookstore_serves_over_http() {
        let app = fixtures::bookstore();
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        d.db.execute_script("INSERT INTO book (title, price) VALUES ('Networked', 10.0);")
            .unwrap();
        let server = d.serve(0, 2).unwrap();
        let home = d.home_url("store").unwrap();
        let resp = httpd::client::get(server.addr(), &home).unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        assert!(body.contains("Networked"));
        // session cookie issued
        assert!(resp
            .find_header("set-cookie")
            .is_some_and(|c| c.contains(SESSION_COOKIE)));
        server.stop();
    }

    #[test]
    fn deploy_applies_model_derived_indexes() {
        let app = fixtures::acm_library();
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        // hierarchy roles → FK indexes; index-unit sort keys → sort indexes
        for (table, cols) in [
            ("issue", vec!["volume_oid"]),
            ("paper", vec!["issue_oid"]),
            ("volume", vec!["year"]),
        ] {
            assert!(
                d.db.has_index_on(table, &cols).unwrap(),
                "expected derived index on {table}({cols:?}); derived = {:?}",
                d.generated.derived_indexes
            );
        }
        // re-applying the same derivations is a no-op, not an error
        assert_eq!(
            apply_derived_indexes(&d.db, &d.generated.derived_indexes).unwrap(),
            0
        );
        // and the generated unit queries use them: the volume page (volume
        // details + the issues/papers hierarchy) answers by probes alone
        fixtures::seed_acm(&d.db, 3, 3, 3);
        let c = d.db.counters();
        let (probes, scans) = (c.index_probes.get(), c.scan_fallbacks.get());
        let resp = d.handle(&WebRequest::get("/acm_dl/volume_page").with_param("volume", "2"));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(c.index_probes.get() > probes && c.scan_fallbacks.get() == scans);
    }

    #[test]
    fn durable_redeploy_does_not_duplicate_indexes() {
        let dir = wal::TempDir::new("deploy-derived-ix").unwrap();
        let app = fixtures::acm_library();
        let mut durability = DurabilityConfig::new(dir.path());
        durability.strict_commit = true;
        {
            let d = app
                .deploy_durable(RuntimeOptions::default(), &durability)
                .unwrap();
            assert!(d.db.has_index_on("issue", &["volume_oid"]).unwrap());
            d.wal.as_ref().unwrap().simulate_crash();
        }
        // Second boot: the CREATE INDEX statements replay from the log;
        // deploy must detect them and skip re-creation.
        let d = app
            .deploy_durable(RuntimeOptions::default(), &durability)
            .unwrap();
        assert!(d.db.has_index_on("issue", &["volume_oid"]).unwrap());
        assert_eq!(
            apply_derived_indexes(&d.db, &d.generated.derived_indexes).unwrap(),
            0,
            "recovered indexes must be deduplicated"
        );
    }

    #[test]
    fn durable_deploy_survives_crash_and_recovers() {
        let dir = wal::TempDir::new("deploy-durable").unwrap();
        let app = fixtures::bookstore();
        let mut durability = DurabilityConfig::new(dir.path());
        durability.strict_commit = true;
        // First boot: DDL + one row, all logged.
        {
            let d = app.deploy(RuntimeOptions::default()).unwrap();
            assert!(d.wal.is_none()); // plain deploy stays log-free
        }
        {
            let d = app
                .deploy_durable(RuntimeOptions::default(), &durability)
                .unwrap();
            let info = d.recovery.as_ref().unwrap();
            assert_eq!(info.replayed_records, 0, "fresh dir has nothing to replay");
            d.db.execute_script("INSERT INTO book (title, price) VALUES ('Durable', 12.0);")
                .unwrap();
            d.wal.as_ref().unwrap().simulate_crash(); // everything strict ⇒ already on disk
        }
        // Second boot: schema and data come back from the log.
        let d = app
            .deploy_durable(RuntimeOptions::default(), &durability)
            .unwrap();
        let info = d.recovery.as_ref().unwrap();
        assert!(info.replayed_records >= 2, "DDL + insert must replay");
        assert!(info.tables_touched.contains("book"));
        let home = d.home_url("store").unwrap();
        let resp = d.handle(&WebRequest::get(&home));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("Durable"));
    }

    #[test]
    fn session_cookie_flows_through_http() {
        let app = fixtures::bookstore();
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        let server = d.serve(0, 1).unwrap();
        let home = d.home_url("store").unwrap();
        let r1 = httpd::client::get(server.addr(), &home).unwrap();
        let cookie = r1.find_header("set-cookie").unwrap().to_string();
        let sid = cookie
            .trim_start_matches(&format!("{SESSION_COOKIE}="))
            .split(';')
            .next()
            .unwrap()
            .to_string();
        let r2 = httpd::client::get_with_headers(
            server.addr(),
            &home,
            &[("Cookie", &format!("{SESSION_COOKIE}={sid}"))],
        )
        .unwrap();
        assert!(r2.find_header("set-cookie").is_none());
        server.stop();
    }
}
