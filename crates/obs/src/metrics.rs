//! Process-wide atomic counters and histograms, with a Prometheus-style
//! text export for the `/metrics` endpoint.
//!
//! One [`MetricsRegistry`] is wired into a deployment (`core::app`) and
//! shared by every tier: the controller counts dispatches and KO flows,
//! the bean/fragment caches report hits and misses through
//! [`CacheCounters`], the SQL tier reports prepares vs. plan-cache hits
//! and rows scanned through [`DbCounters`], and the app-server boundary
//! reports marshalled bytes. Everything is lock-free on the hot path.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (live snapshots, live row
/// versions). Signed so concurrent decrements racing past zero are safe.
#[derive(Debug, Default)]
pub struct Gauge(std::sync::atomic::AtomicI64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(std::sync::atomic::AtomicI64::new(0))
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` and return the new value.
    #[inline]
    pub fn add_fetch(&self, n: i64) -> i64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds, in microseconds (log-spaced, +Inf
/// implied). Chosen to resolve both in-memory unit computations (tens of
/// µs) and whole requests (tens of ms).
pub const BUCKET_BOUNDS_US: [u64; 12] = [
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// A fixed-bucket latency histogram (microseconds).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn observe_us(&self, us: u64) {
        self.observe(us)
    }

    /// Record a unitless value (e.g. a group-commit batch size). The
    /// bucket bounds of [`BUCKET_BOUNDS_US`] are just numbers; only the
    /// caller decides whether they mean microseconds or counts.
    pub fn observe(&self, value: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Total of observed values, unitless twin of [`Histogram::sum_us`].
    pub fn sum(&self) -> u64 {
        self.sum_us()
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum_us() as f64 / c as f64
        }
    }

    /// Estimated value at quantile `q` ∈ [0, 1]: the upper bound of the
    /// log-spaced bucket holding the q-th observation (the +Inf bucket
    /// reports the largest finite bound). 0 when empty. Coarse by design —
    /// good enough for p50/p95/p99 reporting in the serving bench.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        for (bound, cum) in self.cumulative_buckets() {
            if cum >= rank {
                return bound.unwrap_or(*BUCKET_BOUNDS_US.last().unwrap());
            }
        }
        *BUCKET_BOUNDS_US.last().unwrap()
    }

    /// Cumulative bucket counts in bound order, then the +Inf bucket.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            out.push((BUCKET_BOUNDS_US.get(i).copied(), acc));
        }
        out
    }
}

/// The counter block one cache level reports into (bean or fragment).
#[derive(Debug, Default)]
pub struct CacheCounters {
    pub hits: Counter,
    pub misses: Counter,
    pub insertions: Counter,
    pub invalidations: Counter,
    pub evictions: Counter,
    pub expirations: Counter,
}

impl CacheCounters {
    pub fn new() -> CacheCounters {
        CacheCounters::default()
    }

    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits.get();
        let m = self.misses.get();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// The counter block the SQL tier reports into.
#[derive(Debug, Default)]
pub struct DbCounters {
    /// Statements actually parsed/planned.
    pub prepares: Counter,
    /// Executions that reused an already-planned `Arc<Statement>`.
    pub plan_cache_hits: Counter,
    /// Statements executed (reads + writes).
    pub statements_executed: Counter,
    /// Rows touched while evaluating statements.
    pub rows_scanned: Counter,
    /// WHERE/JOIN predicates answered by a PK or secondary index probe
    /// instead of a scan (the planner's derived-index payoff).
    pub index_probes: Counter,
    /// Equi-joins executed with a build/probe hash table instead of the
    /// nested-loop scan fallback.
    pub hash_joins: Counter,
    /// ORDER BY + LIMIT queries answered by the bounded Top-K heap
    /// instead of a full materialize + sort.
    pub topk_shortcuts: Counter,
    /// ORDER BY queries answered by walking a secondary index in key order
    /// instead of sorting the scanned rows.
    pub index_orders: Counter,
    /// Table accesses that fell back to a full scan (no usable index,
    /// no hashable equi-conjunct, no index order).
    pub scan_fallbacks: Counter,
    /// Rows scanned by one SELECT — the per-query distribution behind
    /// the `rows_scanned` total (unitless histogram).
    pub rows_scanned_per_query: Histogram,
    /// Write conflicts surfaced to a caller. Always 0: every write holds
    /// the storage write lock, so no write can lose a race to another.
    pub write_conflicts: Counter,
    /// Rows stored across all tables (one version per row), set at every
    /// commit.
    pub versions_live: Gauge,
}

impl DbCounters {
    pub fn new() -> DbCounters {
        DbCounters::default()
    }
}

/// The counter block the durability subsystem (write-ahead log) reports
/// into: flush economics, log volume, and recovery cost.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Physical flushes (write + sync of the group-commit buffer).
    pub flushes: Counter,
    /// Real write/sync failures while flushing the log. Distinct from
    /// injected crash points, which simulate power loss and are silent by
    /// design; a non-zero value here means the kernel refused a write
    /// while committers were still waiting for acks.
    pub flush_errors: Counter,
    /// Bytes appended to the log file.
    pub bytes_written: Counter,
    /// Commit records appended (one per committed transaction).
    pub records_appended: Counter,
    /// Snapshots written.
    pub snapshots: Counter,
    /// Committed transactions made durable per flush (group-commit batch
    /// size, recorded as a histogram so the economics are visible).
    pub group_batch_size: Histogram,
    /// Time spent replaying snapshot + log tail at recovery, in µs.
    pub recovery_micros: Histogram,
}

impl WalCounters {
    pub fn new() -> WalCounters {
        WalCounters::default()
    }
}

/// The counter block the whole-application model checker reports into:
/// analyzer runs, findings by stable code, and analysis latency.
#[derive(Debug, Default)]
pub struct AnalyzeCounters {
    /// Analyzer runs (one per checked deploy or explicit analysis).
    pub runs: Counter,
    /// Findings keyed by `(code, severity)` — rendered as the labelled
    /// `analyze_diagnostics_total{code,severity}` family.
    diagnostics: Mutex<BTreeMap<(String, String), u64>>,
    /// Distribution-safety findings (`AZ4xx`) keyed by code — rendered as
    /// the labelled `analyze_distribution_total{code}` family, split out
    /// from `diagnostics` so replicated deploys are monitorable
    /// on their own.
    distribution: Mutex<BTreeMap<String, u64>>,
    /// Wall time of one whole-model analysis, in µs.
    pub analysis_micros: Histogram,
}

impl AnalyzeCounters {
    pub fn new() -> AnalyzeCounters {
        AnalyzeCounters::default()
    }

    /// Count `n` findings with the given stable code and severity.
    pub fn record_diagnostics(&self, code: &str, severity: &str, n: u64) {
        let mut map = self.diagnostics.lock();
        *map.entry((code.to_string(), severity.to_string()))
            .or_insert(0) += n;
    }

    /// Snapshot of per-(code, severity) finding counts.
    pub fn diagnostic_counts(&self) -> Vec<((String, String), u64)> {
        self.diagnostics
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Count `n` distribution-safety findings (`AZ4xx`) with `code`.
    pub fn record_distribution(&self, code: &str, n: u64) {
        let mut map = self.distribution.lock();
        *map.entry(code.to_string()).or_insert(0) += n;
    }

    /// Snapshot of per-code distribution finding counts.
    pub fn distribution_counts(&self) -> Vec<(String, u64)> {
        self.distribution
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// The counter block the incremental cache-maintenance layer reports
/// into: WAL-driven bean patching, stale-fragment re-render, and
/// conditional-GET economics.
#[derive(Debug, Default)]
pub struct MaintCounters {
    /// Cached beans updated in place from a durable `ChangeRecord`
    /// instead of being dropped.
    pub patches_applied: Counter,
    /// Beans dropped back to recompute because the delta was not
    /// patchable — keyed by reason, rendered as the labelled
    /// `cache_patch_fallbacks_total{reason}` family.
    fallbacks: Mutex<BTreeMap<String, u64>>,
    /// Page fragments re-rendered because a read found them outdated by a
    /// write to what their unit shows (current fragments keep serving the
    /// same interned bytes).
    pub fragment_rerenders: Counter,
    /// Conditional GETs answered `304 Not Modified` from the page
    /// version, skipping compute and body bytes entirely.
    pub http_304: Counter,
    /// Wall time to apply one durable batch to every dependent bean and
    /// fragment, in µs.
    pub apply_micros: Histogram,
}

impl MaintCounters {
    pub fn new() -> MaintCounters {
        MaintCounters::default()
    }

    /// Count one fallback-to-recompute with a stable `reason` tag.
    pub fn record_fallback(&self, reason: &str) {
        let mut map = self.fallbacks.lock();
        *map.entry(reason.to_string()).or_insert(0) += 1;
    }

    /// Snapshot of per-reason fallback counts.
    pub fn fallback_counts(&self) -> Vec<(String, u64)> {
        self.fallbacks
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Total fallbacks across all reasons.
    pub fn fallbacks_total(&self) -> u64 {
        self.fallbacks.lock().values().sum()
    }
}

/// The counter block the web tier (`httpd`) reports into: connection
/// lifecycle and keep-alive economics.
#[derive(Debug, Default)]
pub struct HttpCounters {
    /// TCP connections accepted and handed to the worker pool.
    pub connections: Counter,
    /// Requests fully serviced (all connections, all workers).
    pub requests: Counter,
    /// Requests serviced per connection before it closed — the keep-alive
    /// amortization factor (1 everywhere ⇒ `Connection: close` traffic).
    pub requests_per_conn: Histogram,
    /// Connections closed because the per-connection request cap was hit.
    pub conn_cap_closes: Counter,
    /// Connections closed by the idle read timeout.
    pub idle_timeouts: Counter,
    /// Requests rejected with `431 Request Header Fields Too Large`.
    pub header_overflows: Counter,
    /// Requests shed with `503` + `Retry-After` because the in-flight
    /// budget was exhausted (admission control, not a failure).
    pub admission_rejects: Counter,
    /// Ready-connection wake-ups served by an event loop. An idle
    /// keep-alive connection adds nothing here between requests — the
    /// no-polling invariant, asserted by tests.
    pub dispatches: Counter,
    /// Vectored (`writev`) response flushes — the zero-copy write path.
    pub vectored_writes: Counter,
    /// Client sockets currently open (accepted minus closed).
    pub open_fds: Gauge,
    /// Requests in service: admitted and not yet answered — the
    /// admission-control pressure signal.
    pub in_flight: Gauge,
}

impl HttpCounters {
    pub fn new() -> HttpCounters {
        HttpCounters::default()
    }
}

/// Per-replica progress gauges: how far one replica's apply loop has
/// gotten, and how far behind the leader's durable LSN it is.
#[derive(Debug, Default)]
pub struct ReplicaGauges {
    /// Last LSN this replica has fully applied.
    pub applied_lsn: Gauge,
    /// Leader durable LSN minus applied LSN at last refresh.
    pub lag_lsn: Gauge,
}

/// The counter block the replication tier reports into:
/// routing decisions, shipped batches, and per-replica lag.
#[derive(Debug, Default)]
pub struct ReplCounters {
    /// Reads that wanted a replica but were redirected to the leader
    /// because no replica had caught up to the session's last-write LSN.
    pub stale_redirects: Counter,
    /// Change batches applied by replicas (first delivery).
    pub batches_applied: Counter,
    /// Change batches skipped as duplicates (reconnect replay overlap).
    pub batches_duplicate: Counter,
    /// Reads routed per target (`leader`, `replica-0`, ...) —
    /// rendered as the labelled `repl_reads_total{target}` family.
    reads: Mutex<BTreeMap<String, u64>>,
    /// Per-replica progress gauges, keyed by replica name.
    replicas: Mutex<BTreeMap<String, Arc<ReplicaGauges>>>,
}

impl ReplCounters {
    pub fn new() -> ReplCounters {
        ReplCounters::default()
    }

    /// Count one read routed to `target`.
    pub fn record_read(&self, target: &str) {
        let mut map = self.reads.lock();
        *map.entry(target.to_string()).or_insert(0) += 1;
    }

    /// Snapshot of per-target read counts.
    pub fn read_counts(&self) -> Vec<(String, u64)> {
        self.reads
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Reads routed to one specific target so far.
    pub fn reads_for(&self, target: &str) -> u64 {
        self.reads.lock().get(target).copied().unwrap_or(0)
    }

    /// The progress gauges for one replica (created on first use; the
    /// `Arc` is cached by the replica's apply loop).
    pub fn replica_gauges(&self, name: &str) -> Arc<ReplicaGauges> {
        let mut map = self.replicas.lock();
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(ReplicaGauges::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Replicas observed so far, with their progress gauges.
    pub fn replica_lag(&self) -> Vec<(String, Arc<ReplicaGauges>)> {
        self.replicas
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

/// The process-wide registry every tier plugs into.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // -- controller / dispatch ------------------------------------------------
    pub requests: Counter,
    pub page_requests: Counter,
    pub operation_requests: Counter,
    pub forwards: Counter,
    pub errors: Counter,
    /// OK/KO chains that took a KO link (§3's failure flows).
    pub ko_flows: Counter,
    // -- tiers ----------------------------------------------------------------
    pub bean_cache: Arc<CacheCounters>,
    pub fragment_cache: Arc<CacheCounters>,
    pub db: Arc<DbCounters>,
    /// Durability subsystem (write-ahead log) counters.
    pub wal: Arc<WalCounters>,
    /// Whole-application model checker counters.
    pub analyze: Arc<AnalyzeCounters>,
    /// Web-tier connection lifecycle counters (`httpd`).
    pub http: Arc<HttpCounters>,
    /// Incremental cache-maintenance counters (`webcache::maintain`).
    pub maint: Arc<MaintCounters>,
    /// Replication tier counters (`repl`).
    pub repl: Arc<ReplCounters>,
    /// Sessions evicted by the TTL sweep (`mvc::SessionManager` holds a
    /// clone of this counter).
    pub sessions_expired: Arc<Counter>,
    /// Bytes crossing the app-server marshalling boundary (Fig. 6).
    pub appserver_bytes_marshalled: Counter,
    pub appserver_requests: Counter,
    // -- timing ---------------------------------------------------------------
    /// End-to-end request latency, recorded by `httpd`.
    pub request_latency: Histogram,
    /// Per-unit-kind service time (`data`, `index`, `scroller`, ...).
    unit_service_time: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::default())
    }

    /// The service-time histogram for one unit kind (created on first
    /// use; the `Arc` can be cached by hot paths).
    pub fn unit_histogram(&self, kind: &str) -> Arc<Histogram> {
        let mut map = self.unit_service_time.lock();
        if let Some(h) = map.get(kind) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(kind.to_string(), Arc::clone(&h));
        h
    }

    /// Unit kinds observed so far, with their histograms.
    pub fn unit_histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.unit_service_time
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Render the whole registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        fn counter_into(out: &mut String, name: &str, help: &str, v: u64) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        fn gauge_into(out: &mut String, name: &str, help: &str, v: i64) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        counter_into(
            &mut out,
            "webml_requests_total",
            "Requests dispatched by the controller",
            self.requests.get(),
        );
        counter_into(
            &mut out,
            "webml_page_requests_total",
            "Page-service dispatches",
            self.page_requests.get(),
        );
        counter_into(
            &mut out,
            "webml_operation_requests_total",
            "Operation-service dispatches",
            self.operation_requests.get(),
        );
        counter_into(
            &mut out,
            "webml_forwards_total",
            "Internal controller forwards",
            self.forwards.get(),
        );
        counter_into(
            &mut out,
            "webml_errors_total",
            "Requests that ended in an error response",
            self.errors.get(),
        );
        counter_into(
            &mut out,
            "webml_ko_flows_total",
            "Operation chains that took a KO link",
            self.ko_flows.get(),
        );
        // one family per event, its per-level samples contiguous
        let levels = [
            ("bean", &self.bean_cache),
            ("fragment", &self.fragment_cache),
        ];
        type Pick = fn(&CacheCounters) -> &Counter;
        let events: [(&str, Pick); 6] = [
            ("hits", |c| &c.hits),
            ("misses", |c| &c.misses),
            ("insertions", |c| &c.insertions),
            ("invalidations", |c| &c.invalidations),
            ("evictions", |c| &c.evictions),
            ("expirations", |c| &c.expirations),
        ];
        for (event, pick) in events {
            let name = format!("webml_cache_{event}_total");
            let _ = writeln!(out, "# HELP {name} Cache {event} per cache level");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (level, c) in levels {
                let _ = writeln!(out, "{name}{{level=\"{level}\"}} {}", pick(c).get());
            }
        }
        counter_into(
            &mut out,
            "webml_sql_prepares_total",
            "SQL statements parsed and planned",
            self.db.prepares.get(),
        );
        counter_into(
            &mut out,
            "webml_sql_plan_cache_hits_total",
            "Executions that reused a prepared plan",
            self.db.plan_cache_hits.get(),
        );
        counter_into(
            &mut out,
            "webml_sql_statements_total",
            "SQL statements executed",
            self.db.statements_executed.get(),
        );
        counter_into(
            &mut out,
            "webml_sql_rows_scanned_total",
            "Rows touched by the SQL tier",
            self.db.rows_scanned.get(),
        );
        counter_into(
            &mut out,
            "db_index_probes_total",
            "Predicates answered by a PK or secondary index probe",
            self.db.index_probes.get(),
        );
        counter_into(
            &mut out,
            "db_hash_joins_total",
            "Equi-joins executed with a build/probe hash table",
            self.db.hash_joins.get(),
        );
        counter_into(
            &mut out,
            "db_topk_shortcuts_total",
            "ORDER BY + LIMIT queries answered by the bounded Top-K heap",
            self.db.topk_shortcuts.get(),
        );
        counter_into(
            &mut out,
            "db_index_orders_total",
            "ORDER BY queries answered by walking a secondary index in key order",
            self.db.index_orders.get(),
        );
        counter_into(
            &mut out,
            "db_scan_fallbacks_total",
            "Table accesses that fell back to a full scan",
            self.db.scan_fallbacks.get(),
        );
        Self::render_histogram(
            &mut out,
            "db_rows_scanned_per_query",
            &self.db.rows_scanned_per_query,
        );
        counter_into(
            &mut out,
            "db_write_conflicts_total",
            "Write conflicts surfaced to callers (always 0: every write holds the storage lock)",
            self.db.write_conflicts.get(),
        );
        gauge_into(
            &mut out,
            "db_versions_live",
            "Stored rows across all tables, as of the last commit",
            self.db.versions_live.get(),
        );
        counter_into(
            &mut out,
            "webml_appserver_marshalled_bytes_total",
            "Bytes crossing the app-server boundary",
            self.appserver_bytes_marshalled.get(),
        );
        counter_into(
            &mut out,
            "webml_appserver_requests_total",
            "Page computations served by app-server clones",
            self.appserver_requests.get(),
        );
        counter_into(
            &mut out,
            "http_connections_total",
            "TCP connections accepted by the web tier",
            self.http.connections.get(),
        );
        counter_into(
            &mut out,
            "http_requests_total",
            "HTTP requests serviced by the web tier",
            self.http.requests.get(),
        );
        counter_into(
            &mut out,
            "http_conn_cap_closes_total",
            "Connections closed by the per-connection request cap",
            self.http.conn_cap_closes.get(),
        );
        counter_into(
            &mut out,
            "http_idle_timeouts_total",
            "Connections closed by the idle read timeout",
            self.http.idle_timeouts.get(),
        );
        counter_into(
            &mut out,
            "http_header_overflows_total",
            "Requests rejected with 431 Request Header Fields Too Large",
            self.http.header_overflows.get(),
        );
        counter_into(
            &mut out,
            "http_admission_rejects_total",
            "Requests shed with 503 + Retry-After by admission control",
            self.http.admission_rejects.get(),
        );
        counter_into(
            &mut out,
            "http_conn_wakeups_total",
            "Ready-connection wake-ups served by an event loop",
            self.http.dispatches.get(),
        );
        counter_into(
            &mut out,
            "http_vectored_writes_total",
            "Vectored (writev) response flushes on the zero-copy path",
            self.http.vectored_writes.get(),
        );
        gauge_into(
            &mut out,
            "http_open_fds",
            "Client sockets currently open in the web tier",
            self.http.open_fds.get(),
        );
        gauge_into(
            &mut out,
            "http_in_flight",
            "Requests in service: admitted and not yet answered",
            self.http.in_flight.get(),
        );
        Self::render_histogram(
            &mut out,
            "http_requests_per_conn",
            &self.http.requests_per_conn,
        );
        counter_into(
            &mut out,
            "cache_patches_applied_total",
            "Cached beans updated in place from durable change records",
            self.maint.patches_applied.get(),
        );
        // labelled family: the header is always emitted so scrapers learn
        // the name even before the first fallback
        let _ = writeln!(
            out,
            "# HELP cache_patch_fallbacks_total Beans dropped to recompute, by reason"
        );
        let _ = writeln!(out, "# TYPE cache_patch_fallbacks_total counter");
        for (reason, v) in self.maint.fallback_counts() {
            let _ = writeln!(
                out,
                "cache_patch_fallbacks_total{{reason=\"{reason}\"}} {v}"
            );
        }
        counter_into(
            &mut out,
            "fragment_rerenders_total",
            "Page fragments re-rendered because a write outdated what they show",
            self.maint.fragment_rerenders.get(),
        );
        counter_into(
            &mut out,
            "http_304_total",
            "Conditional GETs answered 304 Not Modified from the page version",
            self.maint.http_304.get(),
        );
        Self::render_histogram(&mut out, "maint_apply_micros", &self.maint.apply_micros);
        counter_into(
            &mut out,
            "webml_sessions_expired_total",
            "Sessions evicted by the TTL sweep",
            self.sessions_expired.get(),
        );
        counter_into(
            &mut out,
            "wal_flushes",
            "Write-ahead log physical flushes (write + sync)",
            self.wal.flushes.get(),
        );
        counter_into(
            &mut out,
            "wal_flush_errors",
            "Write-ahead log flushes that failed with a real I/O error",
            self.wal.flush_errors.get(),
        );
        counter_into(
            &mut out,
            "wal_bytes_written",
            "Bytes appended to the write-ahead log",
            self.wal.bytes_written.get(),
        );
        counter_into(
            &mut out,
            "wal_records_appended",
            "Commit records appended to the write-ahead log",
            self.wal.records_appended.get(),
        );
        counter_into(
            &mut out,
            "wal_snapshots",
            "Snapshots written by the durability subsystem",
            self.wal.snapshots.get(),
        );
        Self::render_histogram(&mut out, "wal_group_batch_size", &self.wal.group_batch_size);
        Self::render_histogram(&mut out, "wal_recovery_micros", &self.wal.recovery_micros);
        counter_into(
            &mut out,
            "analyze_runs_total",
            "Whole-model analyzer runs",
            self.analyze.runs.get(),
        );
        // labelled family: the header is always emitted so scrapers learn
        // the name even before the first finding
        let _ = writeln!(
            out,
            "# HELP analyze_diagnostics_total Analyzer findings by stable code and severity"
        );
        let _ = writeln!(out, "# TYPE analyze_diagnostics_total counter");
        for ((code, severity), v) in self.analyze.diagnostic_counts() {
            let _ = writeln!(
                out,
                "analyze_diagnostics_total{{code=\"{code}\",severity=\"{severity}\"}} {v}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP analyze_distribution_total Distribution-safety findings (AZ4xx) by stable code"
        );
        let _ = writeln!(out, "# TYPE analyze_distribution_total counter");
        for (code, v) in self.analyze.distribution_counts() {
            let _ = writeln!(out, "analyze_distribution_total{{code=\"{code}\"}} {v}");
        }
        Self::render_histogram(
            &mut out,
            "analyze_run_micros",
            &self.analyze.analysis_micros,
        );
        counter_into(
            &mut out,
            "repl_stale_redirects_total",
            "Reads redirected to the leader because every replica lagged the session",
            self.repl.stale_redirects.get(),
        );
        counter_into(
            &mut out,
            "repl_batches_applied_total",
            "Change batches applied by replicas",
            self.repl.batches_applied.get(),
        );
        counter_into(
            &mut out,
            "repl_batches_duplicate_total",
            "Change batches skipped as reconnect-replay duplicates",
            self.repl.batches_duplicate.get(),
        );
        // labelled family: the header is always emitted so scrapers learn
        // the name even before the first routed read
        let _ = writeln!(
            out,
            "# HELP repl_reads_total Reads routed per target (leader, replica-N)"
        );
        let _ = writeln!(out, "# TYPE repl_reads_total counter");
        for (target, v) in self.repl.read_counts() {
            let _ = writeln!(out, "repl_reads_total{{target=\"{target}\"}} {v}");
        }
        let replicas = self.repl.replica_lag();
        let _ = writeln!(out, "# HELP repl_applied_lsn Last LSN applied per replica");
        let _ = writeln!(out, "# TYPE repl_applied_lsn gauge");
        for (name, g) in &replicas {
            let _ = writeln!(
                out,
                "repl_applied_lsn{{replica=\"{name}\"}} {}",
                g.applied_lsn.get()
            );
        }
        let _ = writeln!(
            out,
            "# HELP repl_lag_lsn Leader durable LSN minus applied LSN per replica"
        );
        let _ = writeln!(out, "# TYPE repl_lag_lsn gauge");
        for (name, g) in &replicas {
            let _ = writeln!(
                out,
                "repl_lag_lsn{{replica=\"{name}\"}} {}",
                g.lag_lsn.get()
            );
        }
        Self::render_histogram(&mut out, "webml_request_latency_us", &self.request_latency);
        let _ = writeln!(out, "# TYPE webml_unit_service_time_us histogram");
        for (kind, h) in self.unit_histograms() {
            Self::histogram_samples(
                &mut out,
                "webml_unit_service_time_us",
                &format!("{{kind=\"{kind}\"}}"),
                &h,
            );
        }
        out
    }

    fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        Self::histogram_samples(out, name, "", h);
    }

    /// The bucket/sum/count samples of one histogram, `labels` being
    /// either empty or one `{k="v"}` set.
    fn histogram_samples(out: &mut String, name: &str, labels: &str, h: &Histogram) {
        let base = if labels.is_empty() {
            String::new()
        } else {
            let inner = &labels[1..labels.len() - 1];
            format!("{inner},")
        };
        for (bound, cum) in h.cumulative_buckets() {
            let le = match bound {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "{name}_bucket{{{base}le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum_us());
        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new();
        h.observe_us(5); // bucket le=10
        h.observe_us(99); // le=100
        h.observe_us(1_000_000); // +Inf
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 1_000_104);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (Some(10), 1));
        assert_eq!(buckets[3], (Some(100), 2));
        assert_eq!(buckets.last().unwrap(), &(None, 3));
        assert!((h.mean_us() - 1_000_104.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let reg = MetricsRegistry::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    reg.requests.inc();
                    reg.bean_cache.hits.inc();
                    reg.request_latency.observe_us(7);
                    reg.unit_histogram("index").observe_us(3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.requests.get(), 8000);
        assert_eq!(reg.bean_cache.hits.get(), 8000);
        assert_eq!(reg.request_latency.count(), 8000);
        assert_eq!(reg.unit_histogram("index").count(), 8000);
    }

    #[test]
    fn analyze_counters_render_labelled_family() {
        let reg = MetricsRegistry::new();
        // the family header is present even before any finding
        let empty = reg.render_prometheus();
        assert!(empty.contains("# TYPE analyze_diagnostics_total counter"));
        assert!(empty.contains("analyze_runs_total 0"));
        reg.analyze.runs.inc();
        reg.analyze.record_diagnostics("AZ001", "error", 2);
        reg.analyze.record_diagnostics("AZ103", "warning", 1);
        reg.analyze.analysis_micros.observe_us(450);
        let text = reg.render_prometheus();
        assert!(text.contains("analyze_diagnostics_total{code=\"AZ001\",severity=\"error\"} 2"));
        assert!(text.contains("analyze_diagnostics_total{code=\"AZ103\",severity=\"warning\"} 1"));
        assert!(text.contains("# TYPE analyze_run_micros histogram"));
        assert!(text.contains("analyze_runs_total 1"));
    }

    #[test]
    fn distribution_counters_render_labelled_family() {
        let reg = MetricsRegistry::new();
        let empty = reg.render_prometheus();
        assert!(empty.contains("# TYPE analyze_distribution_total counter"));
        reg.analyze.record_distribution("AZ404", 1);
        reg.analyze.record_distribution("AZ406", 2);
        reg.analyze.record_distribution("AZ404", 1);
        let text = reg.render_prometheus();
        assert!(text.contains("analyze_distribution_total{code=\"AZ404\"} 2"));
        assert!(text.contains("analyze_distribution_total{code=\"AZ406\"} 2"));
        assert_eq!(reg.analyze.distribution_counts().len(), 2);
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = MetricsRegistry::new();
        reg.requests.inc();
        reg.bean_cache.hits.inc();
        reg.bean_cache.misses.inc();
        reg.db.prepares.inc();
        reg.db.plan_cache_hits.add(3);
        reg.request_latency.observe_us(120);
        reg.unit_histogram("data").observe_us(40);
        let text = reg.render_prometheus();
        assert!(text.contains("webml_requests_total 1"));
        assert!(text.contains("webml_cache_hits_total{level=\"bean\"} 1"));
        assert!(text.contains("webml_cache_misses_total{level=\"bean\"} 1"));
        assert!(text.contains("webml_cache_hits_total{level=\"fragment\"} 0"));
        assert!(text.contains("webml_sql_prepares_total 1"));
        assert!(text.contains("webml_sql_plan_cache_hits_total 3"));
        assert!(text.contains("webml_request_latency_us_count 1"));
        assert!(text.contains("webml_unit_service_time_us_count{kind=\"data\"} 1"));
        assert!(text.contains("le=\"+Inf\""));
        // a scraper rejects a family declared twice
        reg.unit_histogram("index").observe_us(40);
        let text = reg.render_prometheus();
        let mut declared = std::collections::HashSet::new();
        for family in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
            assert!(declared.insert(family), "# TYPE {family} appears twice");
        }
    }

    #[test]
    fn prometheus_export_includes_wal_metrics() {
        let reg = MetricsRegistry::new();
        reg.wal.flushes.inc();
        reg.wal.bytes_written.add(128);
        reg.wal.group_batch_size.observe(4); // a count, not a duration
        reg.wal.recovery_micros.observe_us(900);
        let text = reg.render_prometheus();
        assert!(text.contains("wal_flushes 1"));
        assert!(text.contains("wal_flush_errors 0"));
        assert!(text.contains("wal_bytes_written 128"));
        assert!(text.contains("wal_group_batch_size_count 1"));
        assert!(text.contains("wal_group_batch_size_sum 4"));
        assert!(text.contains("wal_recovery_micros_sum 900"));
    }

    #[test]
    fn planner_counters_render() {
        let reg = MetricsRegistry::new();
        reg.db.index_probes.add(4);
        reg.db.hash_joins.inc();
        reg.db.topk_shortcuts.add(2);
        reg.db.index_orders.add(5);
        reg.db.scan_fallbacks.add(3);
        reg.db.rows_scanned_per_query.observe(7);
        let text = reg.render_prometheus();
        assert!(text.contains("db_index_probes_total 4"));
        assert!(text.contains("db_hash_joins_total 1"));
        assert!(text.contains("db_topk_shortcuts_total 2"));
        assert!(text.contains("db_index_orders_total 5"));
        assert!(text.contains("db_scan_fallbacks_total 3"));
        assert!(text.contains("db_rows_scanned_per_query_count 1"));
        assert!(text.contains("db_rows_scanned_per_query_sum 7"));
    }

    #[test]
    fn mvcc_counters_render() {
        let reg = MetricsRegistry::new();
        reg.db.versions_live.set(42);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE db_write_conflicts_total counter"));
        assert!(text.contains("db_write_conflicts_total 0"));
        assert!(text.contains("# TYPE db_versions_live gauge"));
        assert!(text.contains("db_versions_live 42"));
    }

    #[test]
    fn http_counters_render() {
        let reg = MetricsRegistry::new();
        reg.http.connections.inc();
        reg.http.requests.add(5);
        reg.http.requests_per_conn.observe(5);
        reg.http.header_overflows.inc();
        reg.http.admission_rejects.add(3);
        reg.http.dispatches.add(7);
        reg.http.vectored_writes.add(6);
        reg.http.open_fds.add(2);
        reg.http.in_flight.add(1);
        reg.sessions_expired.add(2);
        let text = reg.render_prometheus();
        assert!(text.contains("http_connections_total 1"));
        assert!(text.contains("http_requests_total 5"));
        assert!(text.contains("http_requests_per_conn_count 1"));
        assert!(text.contains("http_requests_per_conn_sum 5"));
        assert!(text.contains("http_header_overflows_total 1"));
        assert!(text.contains("http_admission_rejects_total 3"));
        assert!(text.contains("http_conn_wakeups_total 7"));
        assert!(text.contains("http_vectored_writes_total 6"));
        assert!(text.contains("# TYPE http_open_fds gauge"));
        assert!(text.contains("http_open_fds 2"));
        assert!(text.contains("http_in_flight 1"));
        assert!(text.contains("webml_sessions_expired_total 2"));
    }

    #[test]
    fn repl_counters_render_labelled_families() {
        let reg = MetricsRegistry::new();
        // family headers present even before any replica exists
        let empty = reg.render_prometheus();
        assert!(empty.contains("# TYPE repl_reads_total counter"));
        assert!(empty.contains("# TYPE repl_lag_lsn gauge"));
        assert!(empty.contains("repl_stale_redirects_total 0"));
        reg.repl.record_read("leader");
        reg.repl.record_read("replica-0");
        reg.repl.record_read("replica-0");
        reg.repl.stale_redirects.inc();
        reg.repl.batches_applied.add(4);
        reg.repl.batches_duplicate.inc();
        let g = reg.repl.replica_gauges("replica-0");
        g.applied_lsn.set(17);
        g.lag_lsn.set(3);
        let text = reg.render_prometheus();
        assert!(text.contains("repl_reads_total{target=\"leader\"} 1"));
        assert!(text.contains("repl_reads_total{target=\"replica-0\"} 2"));
        assert_eq!(reg.repl.reads_for("replica-0"), 2);
        assert!(text.contains("repl_stale_redirects_total 1"));
        assert!(text.contains("repl_batches_applied_total 4"));
        assert!(text.contains("repl_batches_duplicate_total 1"));
        assert!(text.contains("repl_applied_lsn{replica=\"replica-0\"} 17"));
        assert!(text.contains("repl_lag_lsn{replica=\"replica-0\"} 3"));
    }

    #[test]
    fn maint_counters_render() {
        let reg = MetricsRegistry::new();
        // family header present even before any fallback
        let empty = reg.render_prometheus();
        assert!(empty.contains("# TYPE cache_patch_fallbacks_total counter"));
        assert!(empty.contains("cache_patches_applied_total 0"));
        reg.maint.patches_applied.add(5);
        reg.maint.record_fallback("join");
        reg.maint.record_fallback("join");
        reg.maint.record_fallback("like-predicate");
        reg.maint.fragment_rerenders.add(3);
        reg.maint.http_304.add(7);
        reg.maint.apply_micros.observe_us(42);
        let text = reg.render_prometheus();
        assert!(text.contains("cache_patches_applied_total 5"));
        assert!(text.contains("cache_patch_fallbacks_total{reason=\"join\"} 2"));
        assert!(text.contains("cache_patch_fallbacks_total{reason=\"like-predicate\"} 1"));
        assert!(text.contains("fragment_rerenders_total 3"));
        assert!(text.contains("http_304_total 7"));
        assert!(text.contains("maint_apply_micros_count 1"));
        assert_eq!(reg.maint.fallbacks_total(), 3);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for _ in 0..90 {
            h.observe_us(40); // bucket le=50
        }
        for _ in 0..10 {
            h.observe_us(4_000); // bucket le=5000
        }
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(0.9), 50);
        assert_eq!(h.quantile(0.99), 5_000);
        h.observe_us(10_000_000); // +Inf bucket
        assert_eq!(h.quantile(1.0), *BUCKET_BOUNDS_US.last().unwrap());
    }

    #[test]
    fn hit_ratio() {
        let c = CacheCounters::new();
        assert_eq!(c.hit_ratio(), 0.0);
        c.hits.add(3);
        c.misses.add(1);
        assert!((c.hit_ratio() - 0.75).abs() < 1e-9);
    }
}
