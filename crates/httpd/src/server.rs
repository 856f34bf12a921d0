//! A nonblocking HTTP/1.1 server — the "HTTP server + servlet
//! container" box of Fig. 3, sized for examples, tests, and benches.
//!
//! Each worker thread is its own event loop. It owns an epoll set that
//! holds the shared listener, the server's stop eventfd and the
//! connections this loop accepted, and it keeps those connections and
//! their deadline heap to itself: a connection is served from accept to
//! close by one thread, with no hand-off. Quiet keep-alive clients cost
//! zero wakeups between requests, and idle/stall timeouts are
//! event-driven off the deadline heap (no polling ticks). A ready
//! connection is read nonblockingly, parsed incrementally out of its
//! buffer, every complete request is served, and the responses are
//! flushed with a vectored write of refcounted body chunks — cached
//! fragments travel to the socket without being copied. Beyond a
//! configurable in-flight budget, admission control sheds requests with
//! `503` + `Retry-After` instead of queueing into collapse.
//!
//! [`Service::Traced`] is the observability-aware callback: the server
//! mints one [`obs::RequestContext`] per request, records request latency
//! into the shared registry, serves `GET /metrics` in Prometheus text
//! format directly from the web tier, stamps every response with
//! `X-Request-Id` and `X-Trace` headers, and answers `?__trace=json` with
//! the full JSON span-tree dump of that request.

use crate::http::{
    parse_request_bytes, BodyChunk, HttpRequest, HttpResponse, ParseOutcome, MAX_HEADER_BYTES,
};
use epoll::{Epoll, Interest, WakeFd};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The application callback servicing requests.
pub type Handler = Arc<dyn Fn(HttpRequest) -> HttpResponse + Send + Sync>;

/// Serving-path configuration of one [`HttpServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests serviced on one connection before the server closes it
    /// (bounds the time one client can monopolize a worker).
    pub max_requests_per_conn: u64,
    /// How long a kept-alive connection may sit idle between requests —
    /// and how long a started request may take to finish arriving —
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Cap on one request's request-line + header block; beyond it the
    /// client gets `431 Request Header Fields Too Large`.
    pub max_header_bytes: usize,
    /// Admission control: while this many requests are in service, further
    /// requests are shed with `503` + `Retry-After: 1` (the connection
    /// stays usable). A ready connection with no complete request — a
    /// drip, an EOF — takes no part of the budget. `0` = unlimited.
    pub max_in_flight: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_requests_per_conn: 1_000,
            idle_timeout: Duration::from_secs(5),
            max_header_bytes: MAX_HEADER_BYTES,
            max_in_flight: 0,
        }
    }
}

/// An application callback that participates in request tracing.
pub type TracedHandler =
    Arc<dyn Fn(HttpRequest, &mut obs::RequestContext) -> HttpResponse + Send + Sync>;

/// How the event loops service a request.
pub enum Service {
    /// Call the handler; connection-lifecycle counters stay private to
    /// the server.
    Plain(Handler),
    /// Run every request inside a freshly minted [`obs::RequestContext`]
    /// whose latency lands in `registry`, serve `GET /metrics` from the
    /// registry, stamp responses with `X-Request-Id`/`X-Trace`
    /// (`?__trace=json` returns the JSON span dump instead of the page),
    /// and report connection-lifecycle counters into `registry.http`.
    Traced {
        handler: TracedHandler,
        registry: Arc<obs::MetricsRegistry>,
    },
}

impl Service {
    /// The web-tier counter block this service reports into: the shared
    /// registry's for traced servers, a private one otherwise.
    fn http_counters(&self) -> Arc<obs::HttpCounters> {
        match self {
            Service::Plain(_) => Arc::new(obs::HttpCounters::new()),
            Service::Traced { registry, .. } => Arc::clone(&registry.http),
        }
    }

    fn serve(&self, req: HttpRequest) -> HttpResponse {
        match self {
            Service::Plain(h) => h(req),
            Service::Traced { handler, registry } => {
                // The web tier owns the /metrics export surface.
                if req.method == "GET" && req.path == "/metrics" {
                    return HttpResponse::new(200)
                        .header("Content-Type", "text/plain; version=0.0.4")
                        .body_text(registry.render_prometheus());
                }
                let want_json_trace = req.query.iter().any(|(k, v)| k == "__trace" && v == "json");
                let mut ctx = obs::RequestContext::next();
                let resp = handler(req, &mut ctx);
                let total_us = ctx.finish();
                registry.request_latency.observe_us(total_us);
                if want_json_trace {
                    return HttpResponse::new(200)
                        .header("Content-Type", "application/json")
                        .header("X-Request-Id", ctx.request_id.clone())
                        .body_text(ctx.to_json());
                }
                resp.header("X-Request-Id", ctx.request_id.clone())
                    .header("X-Trace", ctx.trace_summary())
            }
        }
    }
}

const LISTENER_TOKEN: u64 = 0;
const STOP_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Pending response bytes of one connection: an ordered queue of body
/// chunks flushed by vectored writes. `Shared` chunks are written
/// straight out of the cache's `Arc<[u8]>` — never copied.
#[derive(Default)]
struct Outbox {
    chunks: VecDeque<BodyChunk>,
    /// Bytes of the front chunk already written.
    offset: usize,
}

/// How many chunks one `writev` gathers at most (Linux caps an iovec
/// batch at 1024; responses here are far smaller).
const MAX_IOVECS: usize = 64;

impl Outbox {
    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Write as much as the socket accepts. `Ok(true)` = drained,
    /// `Ok(false)` = the socket buffer is full (park with write
    /// interest). Each successful `write_vectored` ticks `vectored`.
    fn flush(&mut self, stream: &mut TcpStream, vectored: &obs::Counter) -> io::Result<bool> {
        loop {
            // drop fully written (or empty) front chunks
            while let Some(front) = self.chunks.front() {
                if self.offset >= front.len() {
                    self.offset = 0;
                    self.chunks.pop_front();
                } else {
                    break;
                }
            }
            if self.chunks.is_empty() {
                return Ok(true);
            }
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(self.chunks.len().min(MAX_IOVECS));
            for (i, c) in self.chunks.iter().take(MAX_IOVECS).enumerate() {
                let bytes = c.as_slice();
                let bytes = if i == 0 { &bytes[self.offset..] } else { bytes };
                if !bytes.is_empty() {
                    slices.push(IoSlice::new(bytes));
                }
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    vectored.inc();
                    while n > 0 {
                        let front_remaining =
                            self.chunks.front().expect("bytes > chunks").len() - self.offset;
                        if n >= front_remaining {
                            n -= front_remaining;
                            self.offset = 0;
                            self.chunks.pop_front();
                        } else {
                            self.offset += n;
                            n = 0;
                        }
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One live client connection, owned by the loop that accepted it.
struct Conn {
    stream: TcpStream,
    /// Accumulated not-yet-parsed request bytes.
    buf: Vec<u8>,
    outbox: Outbox,
    /// Requests serviced on this connection so far.
    served: u64,
    /// When the loop reaps this connection if nothing happens.
    deadline: Instant,
    /// A request's first bytes arrived but not its end. The deadline was
    /// set when they did and is *not* extended by further drips — a
    /// slow-loris client hits `408` after one idle-timeout window no
    /// matter how slowly it feeds bytes (and holds no thread meanwhile).
    mid_request: bool,
    /// Close as soon as the outbox drains.
    closing: bool,
    /// What the fd is registered for: read, or write while a flush stalls.
    interest: Interest,
    /// Generation of this conn's live deadline-heap entry (lazy deletion).
    gen: u64,
}

/// Record the end of a connection's life and drop its socket.
fn close_conn(counters: &obs::HttpCounters, conn: Conn) {
    if conn.served > 0 {
        counters.requests_per_conn.observe(conn.served);
    }
    counters.open_fds.add(-1);
    drop(conn);
}

/// State shared between the loops and `stop()`.
struct Shared {
    running: AtomicBool,
    /// Written once by `stop()` and never drained: it stays readable in
    /// every loop's epoll set until all of them have seen it.
    stop: WakeFd,
}

/// What a loop needs to serve a request; apart from the connections, so
/// a connection can be served in place in the loop's map.
struct Serving {
    service: Arc<Service>,
    config: ServerConfig,
    shared: Arc<Shared>,
    counters: Arc<obs::HttpCounters>,
}

/// One worker thread: the event loop of the connections it accepted.
struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    serving: Serving,
    conns: HashMap<u64, Conn>,
    /// Min-heap of `(deadline, token, gen)`; entries whose conn was
    /// served since are stale and skipped on pop.
    deadlines: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    next_token: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Vec::with_capacity(256);
        while self.running() {
            let timeout = self.next_timeout();
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
                if !self.running() {
                    break;
                }
                match ev.token {
                    LISTENER_TOKEN => self.accept_one(),
                    STOP_TOKEN => {}
                    token => self.ready(token),
                }
            }
            self.reap_expired();
        }
        for (_, c) in self.conns.drain() {
            close_conn(&self.serving.counters, c);
        }
    }

    fn running(&self) -> bool {
        self.serving.shared.running.load(Ordering::Acquire)
    }

    /// Sleep until the earliest live deadline (`None` = forever).
    fn next_timeout(&mut self) -> Option<Duration> {
        let now = Instant::now();
        while let Some(&Reverse((deadline, token, gen))) = self.deadlines.peek() {
            match self.conns.get(&token) {
                Some(c) if c.gen == gen => {
                    return Some(deadline.saturating_duration_since(now));
                }
                _ => {
                    self.deadlines.pop(); // stale entry
                }
            }
        }
        None
    }

    /// Accept one queued client. The level-triggered listener stays
    /// readable while more wait, so the other loops, woken with this one,
    /// take the rest of a burst. A new connection costs nothing until
    /// bytes arrive.
    fn accept_one(&mut self) {
        let stream = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: another loop took it
            }
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        // Level-triggered, registered once: bytes left unread re-fire.
        if self
            .epoll
            .add(stream.as_raw_fd(), token, Interest::Read)
            .is_err()
        {
            return;
        }
        let counters = &self.serving.counters;
        counters.connections.inc();
        counters.open_fds.add(1);
        let conn = Conn {
            stream,
            buf: Vec::new(),
            outbox: Outbox::default(),
            served: 0,
            deadline: Instant::now() + self.serving.config.idle_timeout,
            mid_request: false,
            closing: false,
            interest: Interest::Read,
            gen: 0,
        };
        self.deadlines
            .push(Reverse((conn.deadline, token, conn.gen)));
        self.conns.insert(token, conn);
    }

    /// A connection turned ready: serve it, then wait for it again —
    /// re-registering only when it flips between read and write interest.
    /// (Errors ride the same path — the read or write will report them.)
    fn ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // not a live connection of this loop
        };
        self.serving.counters.dispatches.inc();
        let mut keep = self.serving.slice(conn);
        if keep {
            let interest = if conn.outbox.is_empty() {
                Interest::Read
            } else {
                Interest::Write
            };
            if interest != conn.interest {
                let fd = conn.stream.as_raw_fd();
                keep = self.epoll.modify(fd, token, interest).is_ok();
                conn.interest = interest;
            }
        }
        if keep {
            conn.gen += 1;
            self.deadlines
                .push(Reverse((conn.deadline, token, conn.gen)));
        } else {
            let conn = self.conns.remove(&token).expect("served above");
            close_conn(&self.serving.counters, conn);
        }
    }

    /// Close every connection whose deadline lapsed.
    fn reap_expired(&mut self) {
        let now = Instant::now();
        let counters = &self.serving.counters;
        while let Some(&Reverse((deadline, token, gen))) = self.deadlines.peek() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            let live = matches!(self.conns.get(&token), Some(c) if c.gen == gen);
            if !live {
                continue;
            }
            let mut conn = self.conns.remove(&token).expect("checked live");
            // A stalled flush (the client is not reading its own
            // response) has nothing to say: it is just closed.
            if conn.outbox.is_empty() {
                counters.idle_timeouts.inc();
                if conn.mid_request {
                    // half-sent request (slow-loris or a stall): 408,
                    // best-effort nonblocking write, then close
                    let mut bytes = Vec::new();
                    let _ = HttpResponse::html(408, "<h1>408 Request Timeout</h1>")
                        .write_with_connection(&mut bytes, false);
                    let _ = conn.stream.write(&bytes);
                }
            }
            close_conn(counters, conn);
        }
    }
}

impl Serving {
    /// Write pending output. `Some(keep)` ends the slice: the socket is
    /// full (wait for write interest) or the connection failed.
    fn flush(&self, conn: &mut Conn) -> Option<bool> {
        match conn
            .outbox
            .flush(&mut conn.stream, &self.counters.vectored_writes)
        {
            Ok(true) => None,
            Ok(false) => {
                conn.deadline = Instant::now() + self.config.idle_timeout;
                Some(true)
            }
            Err(_) => Some(false),
        }
    }

    /// Serve one ready connection: flush pending output, read what
    /// arrived, serve every complete request, flush. `false` = close it.
    /// Never blocks — a stalled client waits threadlessly in the epoll
    /// set.
    fn slice(&self, conn: &mut Conn) -> bool {
        // 1. Finish a previously stalled flush before reading more.
        if let Some(keep) = self.flush(conn) {
            return keep;
        }
        if conn.closing {
            return false;
        }
        // 2. Read everything the socket has.
        let mut saw_eof = false;
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => conn.buf.extend_from_slice(&tmp[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        // 3. Serve every complete request in the buffer (pipelining).
        while !conn.closing {
            match parse_request_bytes(&conn.buf, self.config.max_header_bytes) {
                Ok(ParseOutcome::Complete(req, consumed)) => {
                    conn.buf.drain(..consumed);
                    conn.mid_request = false;
                    conn.served += 1;
                    let cap_hit = conn.served >= self.config.max_requests_per_conn;
                    let client_wants_more = req.wants_keep_alive();
                    let keep_alive = client_wants_more
                        && !cap_hit
                        && self.shared.running.load(Ordering::Acquire);
                    // admission counts requests in service, this one
                    // included; a shed request gives its place back at once
                    let in_service = self.counters.in_flight.add_fetch(1);
                    let over_budget = self.config.max_in_flight > 0
                        && in_service > self.config.max_in_flight as i64;
                    let resp = if over_budget {
                        // Shed, don't queue: the client backs off and the
                        // connection stays usable for the retry.
                        self.counters.admission_rejects.inc();
                        HttpResponse::html(503, "<h1>503 Service Unavailable</h1>")
                            .header("Retry-After", "1")
                    } else {
                        self.service.serve(req)
                    };
                    self.counters.in_flight.add(-1);
                    self.counters.requests.inc();
                    if cap_hit && client_wants_more {
                        self.counters.conn_cap_closes.inc();
                    }
                    conn.outbox.chunks.extend(resp.to_wire_chunks(keep_alive));
                    if !keep_alive {
                        conn.closing = true;
                    }
                }
                Ok(ParseOutcome::Partial) => break,
                Ok(ParseOutcome::TooLarge) => {
                    self.counters.header_overflows.inc();
                    conn.outbox.chunks.extend(
                        HttpResponse::html(431, "<h1>431 Request Header Fields Too Large</h1>")
                            .to_wire_chunks(false),
                    );
                    conn.closing = true;
                }
                Err(_) => {
                    conn.outbox
                        .chunks
                        .extend(HttpResponse::html(400, "<h1>400</h1>").to_wire_chunks(false));
                    conn.closing = true;
                }
            }
        }
        // 4. Flush what we produced.
        if let Some(keep) = self.flush(conn) {
            return keep;
        }
        if conn.closing || saw_eof {
            return false;
        }
        // 5. Wait for the next request.
        if conn.buf.is_empty() {
            conn.deadline = Instant::now() + self.config.idle_timeout;
            conn.mid_request = false;
        } else if !conn.mid_request {
            // First bytes of a request arrived: the clock starts once
            // and further drips do not extend it.
            conn.deadline = Instant::now() + self.config.idle_timeout;
            conn.mid_request = true;
        }
        true
    }
}

/// A running server; dropping it (or calling [`HttpServer::stop`]) shuts
/// it down.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Vec<std::thread::JoinHandle<()>>,
    http_counters: Arc<obs::HttpCounters>,
}

impl HttpServer {
    /// [`HttpServer::start_service`] for a plain handler under the default
    /// [`ServerConfig`].
    pub fn start(port: u16, workers: usize, handler: Handler) -> io::Result<HttpServer> {
        Self::start_service(
            port,
            workers,
            Service::Plain(handler),
            ServerConfig::default(),
        )
    }

    /// Bind `127.0.0.1:port` (0 = ephemeral) and serve `service` with
    /// `workers` event-loop threads, named `httpd-loop-{i}`.
    pub fn start_service(
        port: u16,
        workers: usize,
        service: Service,
        config: ServerConfig,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let service = Arc::new(service);
        let http_counters = service.http_counters();
        // Built before any loop starts, so an error below drops it and
        // stops the loops already running.
        let mut server = HttpServer {
            addr: listener.local_addr()?,
            shared: Arc::new(Shared {
                running: AtomicBool::new(true),
                stop: WakeFd::new()?,
            }),
            loops: Vec::with_capacity(workers.max(1)),
            http_counters,
        };
        for i in 0..workers.max(1) {
            let listener = listener.try_clone()?;
            let epoll = Epoll::new()?;
            epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)?;
            let stop_fd = server.shared.stop.as_raw_fd();
            epoll.add(stop_fd, STOP_TOKEN, Interest::Read)?;
            let event_loop = EventLoop {
                epoll,
                listener,
                serving: Serving {
                    service: Arc::clone(&service),
                    config: config.clone(),
                    shared: Arc::clone(&server.shared),
                    counters: Arc::clone(&server.http_counters),
                },
                conns: HashMap::new(),
                deadlines: BinaryHeap::new(),
                next_token: FIRST_CONN_TOKEN,
            };
            let handle = std::thread::Builder::new()
                .name(format!("httpd-loop-{i}"))
                .spawn(move || event_loop.run())?;
            server.loops.push(handle);
        }
        Ok(server)
    }

    /// The web-tier connection-lifecycle counter block this server reports
    /// into (the shared registry's for traced servers).
    pub fn http_counters(&self) -> &Arc<obs::HttpCounters> {
        &self.http_counters
    }

    /// The bound address (use this to build client URLs).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join all threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if !self.shared.running.swap(false, Ordering::AcqRel) {
            return; // already stopped (stop() followed by Drop)
        }
        // Every loop is parked in epoll_wait or serving a request; the
        // eventfd wakes the parked ones at once, and each closes its own
        // connections and its listener handle on the way out. Joins are
        // bounded: a loop stuck in a handler is leaked rather than
        // hanging shutdown, and closes its connections when it returns.
        self.shared.stop.wake();
        let deadline = Instant::now() + Duration::from_secs(2);
        for t in self.loops.drain(..) {
            while !t.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if t.is_finished() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn echo_handler() -> Handler {
        Arc::new(|req: HttpRequest| {
            let body = format!("method={} path={} q={:?}", req.method, req.path, req.query);
            HttpResponse::html(200, body)
        })
    }

    #[test]
    fn serves_requests() {
        let server = HttpServer::start(0, 2, echo_handler()).unwrap();
        let addr = server.addr();
        let resp = client::get(addr, "/hello?x=1").unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("path=/hello"));
        assert!(body.contains("x"));
        server.stop();
    }

    #[test]
    fn concurrent_clients() {
        let server = HttpServer::start(0, 4, echo_handler()).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..8 {
            handles.push(std::thread::spawn(move || {
                for j in 0..5 {
                    let resp = client::get(addr, &format!("/t{i}/{j}")).unwrap();
                    assert_eq!(resp.status, 200);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.http_counters().requests.get(), 40);
        server.stop();
    }

    #[test]
    fn traced_server_metrics_and_trace_headers() {
        let registry = obs::MetricsRegistry::new();
        let handler: TracedHandler = Arc::new(|_req, ctx: &mut obs::RequestContext| {
            let page = ctx.enter("page:Home");
            let unit = ctx.enter("unit:u1");
            ctx.exit(unit);
            ctx.exit(page);
            HttpResponse::html(200, "<p>ok</p>")
        });
        let service = Service::Traced {
            handler,
            registry: Arc::clone(&registry),
        };
        let server = HttpServer::start_service(0, 2, service, ServerConfig::default()).unwrap();
        let addr = server.addr();

        let resp = client::get(addr, "/home").unwrap();
        assert_eq!(resp.status, 200);
        let req_id = resp.find_header("X-Request-Id").unwrap();
        assert!(req_id.starts_with("req-"), "request id: {req_id}");
        let trace = resp.find_header("X-Trace").unwrap().to_string();
        assert!(trace.contains("page:Home~1"), "trace: {trace}");
        assert!(trace.contains("unit:u1~2"), "trace: {trace}");
        assert_eq!(registry.request_latency.count(), 1);

        // JSON dump of the span tree instead of the page.
        let resp = client::get(addr, "/home?__trace=json").unwrap();
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"name\":\"unit:u1\""), "json: {body}");

        // /metrics is served by the web tier itself.
        let resp = client::get(addr, "/metrics").unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("webml_request_latency_us_count 2"),
            "metrics: {text}"
        );
        server.stop();
    }

    #[test]
    fn stop_unblocks_the_kernel_parked_loops_promptly() {
        let server = HttpServer::start(0, 2, echo_handler()).unwrap();
        let addr = server.addr();
        // one real request so the pool is demonstrably live
        assert_eq!(client::get(addr, "/x").unwrap().status, 200);
        let t0 = std::time::Instant::now();
        server.stop(); // must not wait for a poll tick or a new client
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "stop() took {:?}; the loops did not wake",
            t0.elapsed()
        );
        // the listener is really gone
        assert!(client::get(addr, "/x").is_err());
    }

    /// Poll until `cond` holds or ~2s elapse (counter updates race the
    /// client's view of the connection teardown).
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        cond()
    }

    #[test]
    fn keep_alive_reuses_one_connection_for_many_requests() {
        let server = HttpServer::start(0, 2, echo_handler()).unwrap();
        let counters = Arc::clone(server.http_counters());
        let mut conn = client::Connection::open(server.addr()).unwrap();
        for i in 0..10 {
            let resp = conn.get(&format!("/r{i}")).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.find_header("Connection").map(str::to_ascii_lowercase),
                Some("keep-alive".into())
            );
            assert!(String::from_utf8(resp.body)
                .unwrap()
                .contains(&format!("path=/r{i}")));
        }
        assert_eq!(counters.requests.get(), 10);
        assert_eq!(counters.connections.get(), 1, "one TCP connection total");
        drop(conn); // client closes; server should record 10 req on 1 conn
        assert!(
            eventually(|| counters.requests_per_conn.count() == 1),
            "requests_per_conn never observed"
        );
        assert_eq!(counters.requests_per_conn.sum(), 10);
        server.stop();
    }

    #[test]
    fn idle_keep_alive_conn_generates_zero_wakeups() {
        // The no-polling invariant: between requests, an idle keep-alive
        // connection waits in its loop's epoll set and produces zero
        // wake-ups — where the old sliced loop woke a worker every 25ms
        // tick to re-check it.
        let server = HttpServer::start(0, 2, echo_handler()).unwrap();
        let counters = Arc::clone(server.http_counters());
        let mut conn = client::Connection::open(server.addr()).unwrap();
        assert_eq!(conn.get("/x").unwrap().status, 200);
        let settled = counters.dispatches.get();
        assert!(settled >= 1);
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            counters.dispatches.get(),
            settled,
            "idle keep-alive connection woke its loop"
        );
        // the parked connection is still live
        assert_eq!(conn.get("/y").unwrap().status, 200);
        assert!(counters.dispatches.get() > settled);
        // and stop() stays bounded with the conn parked
        let t0 = std::time::Instant::now();
        server.stop();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "stop() with a parked conn took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn pipelined_bytes_in_the_buffer_are_not_lost() {
        let server = HttpServer::start(0, 1, echo_handler()).unwrap();
        let mut conn = client::Connection::open(server.addr()).unwrap();
        let resps = conn.pipeline_get(&["/a", "/b", "/c"]).unwrap();
        assert_eq!(resps.len(), 3);
        for (resp, path) in resps.iter().zip(["/a", "/b", "/c"]) {
            assert_eq!(resp.status, 200);
            assert!(
                String::from_utf8(resp.body.clone())
                    .unwrap()
                    .contains(&format!("path={path} ")),
                "wrong response order for {path}"
            );
        }
        server.stop();
    }

    #[test]
    fn request_cap_closes_the_connection() {
        let server = HttpServer::start_service(
            0,
            1,
            Service::Plain(echo_handler()),
            ServerConfig {
                max_requests_per_conn: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let counters = Arc::clone(server.http_counters());
        let mut conn = client::Connection::open(server.addr()).unwrap();
        for i in 0..3 {
            let resp = conn.get("/x").unwrap();
            assert_eq!(resp.status, 200);
            let c = resp.find_header("Connection").unwrap().to_ascii_lowercase();
            if i < 2 {
                assert_eq!(c, "keep-alive");
            } else {
                assert_eq!(c, "close", "cap must be announced on the last response");
            }
        }
        assert!(
            eventually(|| counters.conn_cap_closes.get() == 1),
            "cap close never counted"
        );
        // the server hung up: the next request on this connection fails
        // (write may succeed into the dead socket; the read cannot)
        assert!(conn.get("/y").is_err());
        server.stop();
    }

    #[test]
    fn idle_connections_are_reaped_by_the_deadline() {
        let server = HttpServer::start_service(
            0,
            1,
            Service::Plain(echo_handler()),
            ServerConfig {
                idle_timeout: Duration::from_millis(60),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let counters = Arc::clone(server.http_counters());
        let mut conn = client::Connection::open(server.addr()).unwrap();
        assert_eq!(conn.get("/x").unwrap().status, 200);
        assert!(
            eventually(|| counters.idle_timeouts.get() == 1),
            "idle connection never reaped"
        );
        assert!(conn.get("/y").is_err(), "connection should be closed");
        // the worker is free again for new clients
        assert_eq!(client::get(server.addr(), "/z").unwrap().status, 200);
        server.stop();
    }

    #[test]
    fn admission_budget_sheds_with_503_retry_after() {
        // Budget 1 + a handler that holds its worker: concurrent
        // requests beyond the budget get 503 + Retry-After while the
        // connection stays open for the retry.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let slow_gate = Arc::clone(&gate);
        let handler: Handler = Arc::new(move |_req| {
            while slow_gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(2));
            }
            HttpResponse::html(200, "done")
        });
        let server = HttpServer::start_service(
            0,
            4,
            Service::Plain(handler),
            ServerConfig {
                max_in_flight: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let counters = Arc::clone(server.http_counters());
        // park one request inside the handler
        let blocked = std::thread::spawn(move || client::get(addr, "/slow").unwrap());
        assert!(
            eventually(|| counters.in_flight.get() >= 1),
            "first request never entered service"
        );
        // now exceed the budget from a second connection
        let mut conn = client::Connection::open(addr).unwrap();
        let resp = conn.get("/over").unwrap();
        assert_eq!(resp.status, 503, "over-budget request must be shed");
        assert_eq!(resp.find_header("Retry-After"), Some("1"));
        assert!(counters.admission_rejects.get() >= 1);
        // release the parked handler; the shed connection still works
        gate.store(false, Ordering::Release);
        assert_eq!(blocked.join().unwrap().status, 200);
        assert!(
            eventually(|| counters.in_flight.get() == 0),
            "in-flight gauge never drained"
        );
        assert_eq!(conn.get("/after").unwrap().status, 200);
        server.stop();
    }

    #[test]
    fn oversized_header_stream_gets_431_not_a_dead_worker() {
        use std::io::Write as _;
        let server = HttpServer::start(0, 1, echo_handler()).unwrap();
        let counters = Arc::clone(server.http_counters());
        let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        // stream headers until the server cuts us off
        let filler = format!("X-Flood: {}\r\n", "v".repeat(1024));
        for _ in 0..1024 {
            if s.write_all(filler.as_bytes()).is_err() {
                break; // server already answered 431 and closed
            }
        }
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut buf = Vec::new();
        use std::io::Read as _;
        let _ = s.read_to_end(&mut buf);
        let head = String::from_utf8_lossy(&buf);
        assert!(head.starts_with("HTTP/1.1 431"), "got: {head:.60}");
        assert_eq!(counters.header_overflows.get(), 1);
        // worker survived: a normal request still works
        assert_eq!(client::get(server.addr(), "/ok").unwrap().status, 200);
        server.stop();
    }

    #[test]
    fn more_keep_alive_connections_than_workers_all_make_progress() {
        // 1 loop, 4 persistent connections: serving each ready one in
        // turn must keep every client moving instead of pinning the loop
        // to one.
        let server = HttpServer::start(0, 1, echo_handler()).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..4 {
            handles.push(std::thread::spawn(move || {
                let mut conn = client::Connection::open(addr).unwrap();
                for i in 0..10 {
                    let resp = conn.get(&format!("/t{t}/{i}")).unwrap();
                    assert_eq!(resp.status, 200);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let counters = Arc::clone(server.http_counters());
        assert_eq!(counters.requests.get(), 40);
        assert_eq!(counters.connections.get(), 4);
        server.stop();
    }

    #[test]
    fn http_1_0_clients_still_get_connection_close() {
        use std::io::{Read as _, Write as _};
        let server = HttpServer::start(0, 1, echo_handler()).unwrap();
        let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /legacy HTTP/1.0\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap(); // EOF ⇒ server closed for us
        let head = String::from_utf8_lossy(&buf);
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(head.contains("Connection: close\r\n"));
        server.stop();
    }

    #[test]
    fn shutdown_with_open_keep_alive_connections_does_not_hang() {
        let server = HttpServer::start(0, 2, echo_handler()).unwrap();
        let addr = server.addr();
        // three live keep-alive connections, one of them mid-stream
        let mut c1 = client::Connection::open(addr).unwrap();
        let _c2 = client::Connection::open(addr).unwrap();
        let _c3 = client::Connection::open(addr).unwrap();
        assert_eq!(c1.get("/x").unwrap().status, 200);
        let t0 = std::time::Instant::now();
        server.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "stop() with open connections took {:?}",
            t0.elapsed()
        );
        assert!(client::get(addr, "/x").is_err(), "listener still up");
    }

    #[test]
    fn post_body_reaches_handler() {
        let handler: Handler = Arc::new(|req: HttpRequest| {
            let params = req.params();
            HttpResponse::html(200, format!("{params:?}"))
        });
        let server = HttpServer::start(0, 1, handler).unwrap();
        let resp = client::post_form(server.addr(), "/op", &[("name", "Box")]).unwrap();
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("name"));
        assert!(body.contains("Box"));
        server.stop();
    }

    #[test]
    fn shared_body_chunks_reach_the_wire_uncopied() {
        // End-to-end zero-copy: the handler hands out an Arc<[u8]> chunk;
        // the response body must arrive intact and the vectored-write
        // counter must tick.
        let frag: Arc<[u8]> = Arc::from(&b"<p>cached fragment</p>"[..]);
        let frag_for_handler = Arc::clone(&frag);
        let handler: Handler = Arc::new(move |_req| {
            HttpResponse::html_chunks(
                200,
                vec![
                    BodyChunk::Owned(b"<html>".to_vec()),
                    BodyChunk::Shared(Arc::clone(&frag_for_handler)),
                    BodyChunk::Owned(b"</html>".to_vec()),
                ],
            )
        });
        let server = HttpServer::start(0, 1, handler).unwrap();
        let counters = Arc::clone(server.http_counters());
        let resp = client::get(server.addr(), "/frag").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"<html><p>cached fragment</p></html>");
        // the counter increments just after the writev syscall returns,
        // which can race the client's read — poll briefly
        assert!(
            eventually(|| counters.vectored_writes.get() >= 1),
            "writev never used"
        );
        server.stop();
    }
}
