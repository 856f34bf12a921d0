//! The concurrent serving fast path, end to end over real TCP: HTTP/1.1
//! keep-alive conversations (sequential and pipelined), connection-close
//! negotiation, bounded shutdown under open connections, and the
//! malformed-input suite — multibyte/truncated percent-escapes, oversized
//! header blocks, forged session cookies — which must yield 4xx or a
//! fresh session, never a panic or a wedged worker.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use webml_ratio::httpd::{client, Handler, HttpRequest, HttpServer, ServerConfig, Service};
use webml_ratio::mvc::RuntimeOptions;
use webml_ratio::obs::HttpCounters;
use webml_ratio::webratio::{adapt_request, adapt_response, fixtures, Deployment, SESSION_COOKIE};

fn options() -> RuntimeOptions {
    RuntimeOptions {
        bean_cache: true,
        fragment_cache: true,
        fragment_ttl: Duration::from_secs(300),
        ..RuntimeOptions::default()
    }
}

fn bookstore() -> Deployment {
    let d = fixtures::bookstore().deploy(options()).unwrap();
    d.db.execute_script(
        "INSERT INTO book (title, price) VALUES ('TODS primer', 30.0);
         INSERT INTO book (title, price) VALUES ('WebML handbook', 50.0);",
    )
    .unwrap();
    d
}

fn sid_of(resp: &webml_ratio::httpd::HttpResponse) -> Option<String> {
    resp.find_header("set-cookie")
        .and_then(|c| c.split(';').next())
        .and_then(|kv| kv.strip_prefix(&format!("{SESSION_COOKIE}=")))
        .map(str::to_string)
}

// ---- keep-alive conversations ---------------------------------------------

/// One TCP connection carries a whole conversation: N sequential requests,
/// one server-side connection accepted, N requests counted on it.
#[test]
fn keep_alive_reuses_one_connection_for_many_requests() {
    let d = bookstore();
    let server = d.serve_with(0, 2, ServerConfig::default()).unwrap();
    let home = d.home_url("store").unwrap();

    let mut conn = client::Connection::open(server.addr()).unwrap();
    let first = conn.get(&home).unwrap();
    assert_eq!(first.status, 200);
    let sid = sid_of(&first).expect("session minted");
    let cookie = format!("{SESSION_COOKIE}={sid}");

    for _ in 0..9 {
        let r = conn
            .get_with_headers(&home, &[("Cookie", &cookie)])
            .unwrap();
        assert_eq!(r.status, 200);
        // same session throughout the conversation: no new cookie minted
        assert_eq!(sid_of(&r), None, "server re-minted a session mid-conn");
    }

    let counters = server.http_counters();
    assert_eq!(counters.connections.get(), 1, "keep-alive must reuse");
    assert_eq!(counters.requests.get(), 10);
    server.stop();
}

/// Pipelined requests (all written before any response is read) come back
/// complete and in order — bytes of request N+1 buffered behind request N
/// survive worker hand-offs.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let d = bookstore();
    let server = d.serve_with(0, 2, ServerConfig::default()).unwrap();
    let home = d.home_url("store").unwrap();

    let mut conn = client::Connection::open(server.addr()).unwrap();
    let responses = conn.pipeline_get(&[&home, &home, &home, &home]).unwrap();
    assert_eq!(responses.len(), 4);
    for r in &responses {
        assert_eq!(r.status, 200);
        assert!(!r.body.is_empty());
    }
    assert_eq!(server.http_counters().connections.get(), 1);
    assert_eq!(server.http_counters().requests.get(), 4);
    server.stop();
}

/// `Connection: close` in the request is honored: the server answers,
/// closes, and the next request on the same socket fails.
#[test]
fn connection_close_is_negotiated() {
    let d = bookstore();
    let server = d.serve_with(0, 2, ServerConfig::default()).unwrap();
    let home = d.home_url("store").unwrap();

    let mut conn = client::Connection::open(server.addr()).unwrap();
    let r = conn
        .request("GET", &home, &[("Connection", "close")], None)
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.find_header("connection").map(str::to_ascii_lowercase),
        Some("close".into())
    );
    // the server hung up; the next request on this connection errors
    assert!(conn.get(&home).is_err(), "server should have closed");
    server.stop();
}

/// The per-connection request cap closes long conversations (and counts
/// them), so one client cannot hold a worker forever.
#[test]
fn request_cap_closes_the_conversation() {
    let d = bookstore();
    let server = d
        .serve_with(
            0,
            2,
            ServerConfig {
                max_requests_per_conn: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap();
    let home = d.home_url("store").unwrap();

    let mut conn = client::Connection::open(server.addr()).unwrap();
    for _ in 0..2 {
        let r = conn.get(&home).unwrap();
        assert_eq!(r.status, 200);
        assert_ne!(
            r.find_header("connection").map(str::to_ascii_lowercase),
            Some("close".into())
        );
    }
    // request 3 hits the cap: still served, but with Connection: close
    let r = conn.get(&home).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.find_header("connection").map(str::to_ascii_lowercase),
        Some("close".into())
    );
    assert!(conn.get(&home).is_err());
    assert_eq!(server.http_counters().conn_cap_closes.get(), 1);
    server.stop();
}

/// `stop()` returns promptly even while keep-alive connections are open
/// and idle — shutdown must not wait out idle timeouts.
#[test]
fn shutdown_is_bounded_with_open_connections() {
    let d = bookstore();
    let server = d.serve_with(0, 2, ServerConfig::default()).unwrap();
    let home = d.home_url("store").unwrap();

    // park two live keep-alive connections on the workers
    let mut c1 = client::Connection::open(server.addr()).unwrap();
    let mut c2 = client::Connection::open(server.addr()).unwrap();
    assert_eq!(c1.get(&home).unwrap().status, 200);
    assert_eq!(c2.get(&home).unwrap().status, 200);

    let t0 = Instant::now();
    server.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "stop() took {:?} with open connections",
        t0.elapsed()
    );
    // the parked connections are dead now
    assert!(c1.get(&home).is_err() || c2.get(&home).is_err());
}

// ---- malformed input never panics the serving path ------------------------

/// Send raw bytes on a fresh socket and read whatever comes back.
fn raw_roundtrip(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.write_all(bytes).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn status_of(raw: &str) -> Option<u16> {
    raw.split_whitespace().nth(1).and_then(|s| s.parse().ok())
}

/// Percent-escapes that land inside multibyte UTF-8, truncated escapes,
/// and raw high bytes in the request target: every variant gets an HTTP
/// answer (never a worker panic) and the server keeps serving afterwards.
#[test]
fn hostile_percent_escapes_get_answers_not_panics() {
    let d = bookstore();
    let server = d.serve_with(0, 2, ServerConfig::default()).unwrap();
    let home = d.home_url("store").unwrap();

    let hostile = [
        format!("GET {home}?q=%C3%A9 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        format!("GET {home}?q=%C3 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        format!("GET {home}?q=%é HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        format!("GET {home}?%=%%25%2 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        "GET /%C3%A9/%ZZ%1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_string(),
    ];
    for req in &hostile {
        let raw = raw_roundtrip(server.addr(), req.as_bytes());
        let status = status_of(&raw).unwrap_or_else(|| panic!("no response to {req:?}"));
        assert!(
            (200..500).contains(&status),
            "{req:?} answered {status} — must be a page or a 4xx, not a 5xx"
        );
    }

    // the pool survived all of it
    let alive = client::get(server.addr(), &home).unwrap();
    assert_eq!(alive.status, 200);
    server.stop();
}

/// A header block over the configured bound draws `431` (read bounded —
/// the server must not buffer the excess) and is counted; the connection
/// closes but the server keeps serving.
#[test]
fn oversized_header_block_draws_431() {
    let d = bookstore();
    let server = d
        .serve_with(
            0,
            2,
            ServerConfig {
                max_header_bytes: 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap();
    let home = d.home_url("store").unwrap();

    let mut req = format!("GET {home} HTTP/1.1\r\nHost: x\r\n");
    for i in 0..64 {
        req.push_str(&format!("X-Filler-{i}: {}\r\n", "y".repeat(64)));
    }
    req.push_str("\r\n");
    let raw = raw_roundtrip(server.addr(), req.as_bytes());
    assert_eq!(status_of(&raw), Some(431), "{raw}");
    assert!(server.http_counters().header_overflows.get() >= 1);

    let alive = client::get(server.addr(), &home).unwrap();
    assert_eq!(alive.status, 200);
    server.stop();
}

/// A forged (or long-expired) session cookie is not an error: the
/// controller mints a fresh session and serves the page.
#[test]
fn forged_session_cookie_gets_a_fresh_session() {
    let d = bookstore();
    let server = d.serve_with(0, 2, ServerConfig::default()).unwrap();
    let home = d.home_url("store").unwrap();

    for forged in ["deadbeef", "s-1", "../../etc/passwd", ""] {
        let cookie = format!("{SESSION_COOKIE}={forged}");
        let r = client::get_with_headers(server.addr(), &home, &[("Cookie", &cookie)]).unwrap();
        assert_eq!(r.status, 200, "forged cookie {forged:?} must not error");
        let fresh = sid_of(&r).expect("fresh session minted for forged cookie");
        assert_ne!(fresh, forged);
    }
    server.stop();
}

// ---- observability --------------------------------------------------------

/// The traced server exports the connection-lifecycle counters at
/// `/metrics`, and they reconcile with the traffic that was sent.
#[test]
fn metrics_report_connection_lifecycle() {
    let d = bookstore();
    let server = d.serve_traced(0, 2).unwrap();
    let home = d.home_url("store").unwrap();

    // one keep-alive conversation of 3 requests + one one-shot request
    let mut conn = client::Connection::open(server.addr()).unwrap();
    for _ in 0..3 {
        assert_eq!(conn.get(&home).unwrap().status, 200);
    }
    drop(conn);
    assert_eq!(client::get(server.addr(), &home).unwrap().status, 200);

    let m = client::get(server.addr(), "/metrics").unwrap();
    assert_eq!(m.status, 200);
    let text = String::from_utf8(m.body).unwrap();
    let value = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    // Connections: conversation + one-shot + the /metrics connection
    // (accepted before rendering). Requests: the /metrics request itself
    // is counted only after its response renders, so it reports the 4
    // page requests that preceded it.
    assert_eq!(value("http_connections_total"), 3);
    assert_eq!(value("http_requests_total"), 4);
    // cached fragments reached the socket as shared chunks through writev
    assert!(value("http_vectored_writes_total") > 0);
    server.stop();
}

// ---- C10K event loops: slow-loris, admission control, fd lifecycle ---------

/// A header-dripping client waits in its loop's epoll set without holding
/// a thread: with more dribblers than workers, normal requests still get
/// served immediately, and each dribbler draws `408` when its mid-request
/// deadline expires (the deadline is set once per request, not reset per
/// dripped byte).
#[test]
fn slow_loris_parks_threadless_and_draws_408() {
    let d = bookstore();
    let server = d
        .serve_with(
            0,
            2,
            ServerConfig {
                idle_timeout: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .unwrap();
    let home = d.home_url("store").unwrap();

    // 4 dribblers > 2 workers: if dripping held a worker thread, the
    // normal requests below would starve behind them.
    let mut drips: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_nodelay(true).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\nX-Drip: ").unwrap();
            s
        })
        .collect();
    for s in &mut drips {
        s.write_all(b"y").unwrap();
    }
    for _ in 0..4 {
        let r = client::get(server.addr(), &home).unwrap();
        assert_eq!(r.status, 200, "dribblers must not occupy the pool");
    }
    // mid-request expiry: best-effort 408, then close
    for s in &mut drips {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let raw = String::from_utf8_lossy(&out);
        assert_eq!(status_of(&raw), Some(408), "{raw}");
    }
    assert!(server.http_counters().idle_timeouts.get() >= 4);
    server.stop();
}

/// Dripping an ever-growing header block never outruns the header cap:
/// the excess draws `431` even though no terminator ever arrives.
#[test]
fn slow_loris_oversized_drip_draws_431() {
    let d = bookstore();
    let server = d
        .serve_with(
            0,
            2,
            ServerConfig {
                max_header_bytes: 256,
                ..ServerConfig::default()
            },
        )
        .unwrap();

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    for i in 0..24 {
        // 24 × ~24 bytes ≫ 256; dripped in separate segments. The server
        // answers 431 and closes as soon as the cap trips, so later drips
        // may hit a broken pipe — that IS the defense working.
        if s.write_all(format!("X-F{i:02}: {}\r\n", "z".repeat(14)).as_bytes())
            .is_err()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let raw = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&raw), Some(431), "{raw}");
    assert!(server.http_counters().header_overflows.get() >= 1);
    server.stop();
}

/// Past the admission budget the server sheds with `503 Retry-After: 1`
/// instead of queueing without bound; shed responses keep the connection
/// usable, every response is a clean 200 or 503, and afterwards the
/// in-flight gauge drains to zero and the fds are all returned.
///
/// Fast bookstore requests need not overlap by themselves, so one request
/// is held in service behind a gate until the storm has been shed at least
/// once.
#[test]
fn admission_budget_sheds_load_end_to_end() {
    let d = Arc::new(bookstore());
    let counters: Arc<OnceLock<Arc<HttpCounters>>> = Arc::new(OnceLock::new());
    let gate_closed = Arc::new(AtomicBool::new(true));
    let handler: Handler = {
        let (d, counters, gate_closed) = (
            Arc::clone(&d),
            Arc::clone(&counters),
            Arc::clone(&gate_closed),
        );
        Arc::new(move |req: HttpRequest| {
            if gate_closed.swap(false, Ordering::AcqRel) {
                let counters = counters.get().expect("set before the first request");
                while counters.admission_rejects.get() == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            adapt_response(d.handle(&adapt_request(&req)))
        })
    };
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
    counters.set(Arc::clone(server.http_counters())).unwrap();
    let home = d.home_url("store").unwrap();

    let addr = server.addr();
    let gated_home = home.clone();
    let gated = std::thread::spawn(move || client::get(addr, &gated_home).unwrap().status);
    let t0 = Instant::now();
    while server.http_counters().in_flight.get() < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "gated request never entered service"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let shed = std::sync::atomic::AtomicU64::new(0);
    let ok = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let mut conn = client::Connection::open(server.addr()).unwrap();
                for _ in 0..50 {
                    let r = conn.get(&home).unwrap();
                    match r.status {
                        200 => ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                        503 => {
                            assert_eq!(r.find_header("retry-after"), Some("1"));
                            shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                        }
                        other => panic!("unexpected status {other}"),
                    };
                }
            });
        }
    });
    let ok = ok.load(std::sync::atomic::Ordering::Relaxed);
    let shed = shed.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(ok + shed, 400);
    assert!(ok > 0, "some requests must get through");
    assert!(shed > 0, "8 clients vs budget 1 must shed");
    assert_eq!(server.http_counters().admission_rejects.get(), shed);
    assert_eq!(gated.join().unwrap(), 200, "the gated request is served");

    // the storm leaves no residue: in-flight drains, a fresh request works
    let t0 = Instant::now();
    while server.http_counters().in_flight.get() != 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "in_flight stuck");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client::get(server.addr(), &home).unwrap().status, 200);
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// fd lifecycle: any interleaving of keep-alive conversations,
    /// one-shot closes, client aborts mid-request, silently idle
    /// connections, and admission-shed bursts leaves the open-fd gauge
    /// back at its baseline of zero once the churn settles — no leaked
    /// sockets on any exit path.
    #[test]
    fn churned_connections_return_open_fds_to_baseline(
        plan in proptest::collection::vec(0u8..5, 4..14),
    ) {
        let d = bookstore();
        let server = d
            .serve_with(
                0,
                2,
                ServerConfig {
                    idle_timeout: Duration::from_millis(200),
                    max_in_flight: 1,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
        let home = d.home_url("store").unwrap();

        // held open on the client side; the server must reap them itself
        let mut idle: Vec<TcpStream> = Vec::new();
        for op in plan {
            match op {
                // keep-alive conversation, then client hangs up (an
                // earlier burst may still be draining, so a shed 503 is a
                // legal answer — the property here is fd accounting)
                0 => {
                    let mut c = client::Connection::open(server.addr()).unwrap();
                    for _ in 0..3 {
                        let status = c.get(&home).unwrap().status;
                        prop_assert!(status == 200 || status == 503, "status {}", status);
                    }
                }
                // one-shot Connection: close request
                1 => {
                    let status = client::get(server.addr(), &home).unwrap().status;
                    prop_assert!(status == 200 || status == 503, "status {}", status);
                }
                // client aborts mid-request (half a header block)
                2 => {
                    let mut s = TcpStream::connect(server.addr()).unwrap();
                    s.write_all(b"GET / HTTP/1.1\r\nX-Half:").unwrap();
                }
                // silent connection left to the idle reaper
                3 => {
                    idle.push(TcpStream::connect(server.addr()).unwrap());
                }
                // concurrent burst over the admission budget: some shed 503
                4 => {
                    std::thread::scope(|scope| {
                        for _ in 0..4 {
                            scope.spawn(|| {
                                if let Ok(r) = client::get(server.addr(), &home) {
                                    assert!(r.status == 200 || r.status == 503);
                                }
                            });
                        }
                    });
                }
                _ => unreachable!(),
            }
        }

        // every accepted socket is eventually closed server-side, on every
        // path: EOF, abort, timeout reap, cap, shed; and every request
        // admitted into service has been answered. Both counters are
        // polled to zero together.
        let t0 = Instant::now();
        let counters = server.http_counters();
        while counters.open_fds.get() != 0 || counters.in_flight.get() != 0 {
            prop_assert!(
                t0.elapsed() < Duration::from_secs(5),
                "open_fds stuck at {}, in_flight at {}",
                counters.open_fds.get(),
                counters.in_flight.get()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(idle);
        server.stop();
    }
}
