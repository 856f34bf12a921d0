//! The untraced end-to-end run of one workload: repeated set-up, warm-up,
//! a closed-loop phase (throughput, CPU) and a paced open-loop phase
//! (latency from the instant each request was due), all over loopback TCP.
//!
//! Rates, schedules and latencies are kept on the process's CPU clock
//! ([`host::cpu_clock`]), which stands still while the hypervisor has taken
//! the CPU away; phase lengths are wall time. Each phase is cut into
//! windows of CPU-clock time and summarized by the better quartile of its
//! windows (see [`better_quartile`]).

use crate::client::{Browser, Connection, Verdict};
use crate::gen::{Catalog, Generator, Kind, Popularity, Request};
use crate::host::{self, KeepAwake, CLIENT_THREAD};
use crate::recorder::{better_quartile, median, Recorder};
use crate::sut::Sut;
use crate::workload::Workload;
use crate::Run;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Shares of `--seconds`: the closed and the paced phase are the measured
/// time; the warm-up comes on top.
const WARMUP_SHARE: f64 = 0.1;
const CLOSED_SHARE: f64 = 0.4;
/// Length of the windows a phase is cut into, on the CPU clock.
const WINDOW: Duration = Duration::from_secs(1);
/// A paced request sent later than this is reported as `sent_late`.
const LATE_SEND: Duration = Duration::from_millis(100);
/// Pages compared cached-vs-recomputed at the end of a cached workload.
const IDENTITY_PAGES: usize = 64;

/// Requests attempted and how they fared.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub io_errors: u64,
    /// Neither 200 nor 304.
    pub bad_status: u64,
    /// Wrong page, missing write, unasked-for 304, cached ≠ recomputed.
    pub bad_content: u64,
    /// Reads that missed this client's own acknowledged write, and cached
    /// pages that differ from their recomputation after writes. Not counted
    /// as failed: see the README on the stale-put race at the seed commit.
    pub stale_reads: u64,
    /// Paced requests sent more than [`LATE_SEND`] after they were due
    /// (their latency still runs from the due time).
    pub sent_late: u64,
    pub not_modified: u64,
    pub response_bytes: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.io_errors + self.bad_status + self.bad_content
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.io_errors += other.io_errors;
        self.bad_status += other.bad_status;
        self.bad_content += other.bad_content;
        self.stale_reads += other.stale_reads;
        self.sent_late += other.sent_late;
        self.not_modified += other.not_modified;
        self.response_bytes += other.response_bytes;
    }
}

/// Everything the untraced run measures.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setups_s: Vec<f64>,
    pub setup_s: f64,
    pub req_per_s: f64,
    pub cpu_ms_per_req: f64,
    pub wire_bytes_per_req: f64,
    pub page_p50_us: f64,
    pub peak_rss_mb: f64,
    pub sched_lag_p99_us: f64,
    /// Reported but not gated: in this sandbox page tails measure the
    /// hypervisor and operation latencies the disk.
    pub page_p90_us: f64,
    pub page_p99_us: f64,
    pub op_p50_us: f64,
    pub op_p90_us: f64,
    pub op_p99_us: f64,
    pub tally: Tally,
    pub closed_requests: u64,
    pub page_samples: usize,
    pub op_samples: usize,
    /// Per-window values behind the medians, for judging a run's noise.
    pub closed_rate_windows: Vec<f64>,
    pub page_p50_windows: Vec<f64>,
    /// Share of the measured wall time the hypervisor took the CPU away.
    pub stolen_share: f64,
    pub identity_pages: usize,
    pub table_rows: (usize, usize),
    pub bean_cache_capacity: usize,
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// A full page (200) to a page request.
    Page,
    /// 304 to a conditional page request.
    NotModified,
    /// The forward page of an operation.
    Op,
    Failed,
}

/// One simulated browser on one connection with its own request stream.
struct Client {
    conn: Connection,
    browser: Browser,
    stream: Generator,
    wire: Vec<u8>,
}

impl Client {
    /// Send the next request of the stream and judge the answer.
    fn step(&mut self, catalog: &Catalog, tally: &mut Tally) -> Answer {
        let req = self.stream.next_request();
        self.browser.encode(&req, &mut self.wire);
        tally.attempted += 1;
        let answer = match self.conn.exchange(&self.wire) {
            Ok((head, body)) => {
                tally.response_bytes += (head.head_len + body.len()) as u64;
                Some((self.browser.accept(&req, &head, body, catalog), head.status))
            }
            Err(_) => None,
        };
        // a page request that carries a marker is the read-your-writes probe
        let probe = req.kind == Kind::Page && req.marker.is_some();
        match answer {
            Some((Verdict::Correct, 304)) => {
                tally.not_modified += 1;
                return Answer::NotModified;
            }
            Some((Verdict::Correct, _)) => {
                return match req.kind {
                    Kind::Page => Answer::Page,
                    Kind::Op => Answer::Op,
                }
            }
            Some((Verdict::BadStatus, _)) => tally.bad_status += 1,
            Some((Verdict::BadContent, _)) if probe => tally.stale_reads += 1,
            Some((Verdict::BadContent, _)) => tally.bad_content += 1,
            None => tally.io_errors += 1,
        }
        Answer::Failed
    }
}

/// Spawn a load-generator thread, named so that its CPU time is not
/// charged to the program under test.
fn client_thread<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .name(CLIENT_THREAD.into())
        .spawn_scoped(scope, f)
        .expect("spawn client thread")
}

fn micros_since(start: Duration) -> u64 {
    host::cpu_clock().saturating_sub(start).as_micros() as u64
}

/// What a closed phase recorded.
#[derive(Default)]
struct Closed {
    tally: Tally,
    /// Successful completions, at their completion time on the CPU clock
    /// (µs since the phase began).
    completions: Recorder,
    /// (µs since the phase began, CPU ms the program has used), read about
    /// once per window.
    cpu_marks: Vec<(u64, f64)>,
}

/// Each client sends its next request as soon as the previous one
/// completed, for `length` of wall time.
fn closed_phase(
    clients: &mut [Client],
    catalog: &Catalog,
    start: Duration,
    length: Duration,
) -> Closed {
    let until = Instant::now() + length;
    let mut out = Closed::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                client_thread(s, move || {
                    let mut mine = Closed::default();
                    let mut sent = micros_since(start);
                    while Instant::now() < until {
                        // the first client reads the program's CPU time as
                        // each window begins
                        let window = sent / WINDOW.as_micros() as u64;
                        if c == 0 && window >= mine.cpu_marks.len() as u64 {
                            if let Ok(cpu_ms) = host::process_cpu_ms() {
                                mine.cpu_marks.push((sent, cpu_ms));
                            }
                        }
                        let answer = client.step(catalog, &mut mine.tally);
                        let done = micros_since(start);
                        if answer != Answer::Failed {
                            mine.completions.record(done, done - sent);
                        }
                        sent = done;
                    }
                    // close the last (partial) window
                    if c == 0 {
                        if let Ok(cpu_ms) = host::process_cpu_ms() {
                            mine.cpu_marks.push((sent, cpu_ms));
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            let mine = h.join().expect("client thread panicked");
            out.tally.add(mine.tally);
            out.completions.merge(mine.completions);
            out.cpu_marks.extend(mine.cpu_marks);
        }
    });
    out
}

#[derive(Default)]
struct Paced {
    tally: Tally,
    /// Full (200) page responses: one population, not two.
    pages: Recorder,
    ops: Recorder,
    send_lag: Recorder,
}

/// Open loop: request `i` of client `c` is due at `start + (i·n + c)/rate`
/// on the CPU clock, whatever happened to the requests before it, and its
/// latency runs from that instant. Samples are recorded at their due time.
/// Ends after `length` of CPU-clock time, or of 1.25× that in wall time.
fn paced_phase(
    clients: &mut [Client],
    catalog: &Catalog,
    rate: f64,
    start: Duration,
    length: Duration,
) -> Paced {
    let n = clients.len() as u64;
    let wall_limit = Instant::now() + length.mul_f64(1.25);
    let mut out = Paced::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                client_thread(s, move || {
                    let mut mine = Paced::default();
                    for i in 0u64.. {
                        let offset = Duration::from_secs_f64((i * n + c as u64) as f64 / rate);
                        if offset >= length || Instant::now() >= wall_limit {
                            break;
                        }
                        let due = start + offset;
                        // the sandbox's timers overshoot a sleep by
                        // milliseconds; yielding until due does not
                        while host::cpu_clock() < due {
                            std::thread::yield_now();
                        }
                        let lag = host::cpu_clock().saturating_sub(due);
                        let answer = client.step(catalog, &mut mine.tally);
                        let latency = host::cpu_clock().saturating_sub(due);
                        let at_us = offset.as_micros() as u64;
                        mine.send_lag.record(at_us, lag.as_micros() as u64);
                        if lag > LATE_SEND {
                            mine.tally.sent_late += 1;
                        }
                        match answer {
                            Answer::Page => mine.pages.record(at_us, latency.as_micros() as u64),
                            Answer::Op => mine.ops.record(at_us, latency.as_micros() as u64),
                            Answer::NotModified | Answer::Failed => {}
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            let mine = h.join().expect("client thread panicked");
            out.tally.add(mine.tally);
            out.pages.merge(mine.pages);
            out.ops.merge(mine.ops);
            out.send_lag.merge(mine.send_lag);
        }
    });
    out
}

/// A page served from the caches must be byte-identical to the same page
/// recomputed after both caches were emptied.
fn cached_pages_match_recomputed(
    sut: &Sut,
    catalog: &Arc<Catalog>,
    popularity: &Popularity,
    workload: Workload,
    seed: u64,
) -> Tally {
    sut.settle();
    let mut tally = Tally::default();
    let mut stream = Generator::new(
        Arc::clone(catalog),
        popularity,
        Workload::BrowseWarm,
        seed ^ 0x1DE7,
        0,
        1,
    );
    let mut targets: Vec<Request> = Vec::new();
    while targets.len() < IDENTITY_PAGES {
        let req = stream.next_request();
        if !targets.iter().any(|r| r.target == req.target) {
            targets.push(req);
        }
    }
    let mut conn = Connection::new(sut.addr());
    let mut browser = Browser::new(false);
    let mut wire = Vec::new();
    let mut fetch = |req: &Request| -> Option<Vec<u8>> {
        browser.encode(req, &mut wire);
        let (head, body) = conn.exchange(&wire).ok()?;
        let body = body.to_vec();
        (browser.accept(req, &head, &body, catalog) == Verdict::Correct).then_some(body)
    };
    let cached: Vec<Option<Vec<u8>>> = targets
        .iter()
        .map(|req| {
            fetch(req); // fill
            fetch(req) // served from cache
        })
        .collect();
    sut.clear_caches();
    for (req, from_cache) in targets.iter().zip(cached) {
        tally.attempted += 1;
        let recomputed = fetch(req);
        if from_cache.is_none() || recomputed.is_none() {
            tally.bad_content += 1;
        } else if from_cache != recomputed {
            // after writes, a difference is the stale-put race again
            if workload.write_share() > 0.0 {
                tally.stale_reads += 1;
            } else {
                tally.bad_content += 1;
            }
        }
    }
    tally
}

/// Whole windows of a phase that lasted `elapsed` on the CPU clock.
fn whole_windows(elapsed: Duration) -> usize {
    ((elapsed.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize).max(1)
}

pub fn run(cfg: &Run, scratch: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // Set-up, several times over: each deployment is dropped before the
    // next is built; the last one serves the run.
    let mut sut = None;
    for _ in 0..SETUPS {
        drop(sut.take());
        let built = Sut::deploy(cfg.workload, cfg.seed, scratch)?;
        out.setups_s.push(built.setup.total_s());
        sut = Some(built);
    }
    let sut = sut.expect("at least one set-up");
    out.setup_s = median(&mut out.setups_s.clone()).expect("at least one set-up");
    out.bean_cache_capacity = sut.bean_cache_capacity();

    let catalog = Arc::new(sut.catalog());
    let popularity = Popularity::new(catalog.pages.len());
    let mut clients: Vec<Client> = (0..cfg.clients)
        .map(|c| Client {
            conn: Connection::new(sut.addr()),
            browser: Browser::new(cfg.workload.conditional_get()),
            stream: Generator::new(
                Arc::clone(&catalog),
                &popularity,
                cfg.workload,
                cfg.seed,
                c,
                cfg.clients,
            ),
            wire: Vec::new(),
        })
        .collect();

    let seconds = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let _awake = KeepAwake::start()?;
    let warmup = closed_phase(
        &mut clients,
        &catalog,
        host::cpu_clock(),
        seconds(WARMUP_SHARE),
    );
    let mut total = warmup.tally;

    // ---- closed phase ---------------------------------------------------
    let (wall_start, steal_start) = (Instant::now(), host::steal_seconds(cfg.cpu)?);
    let closed_start = host::cpu_clock();
    let closed = closed_phase(&mut clients, &catalog, closed_start, seconds(CLOSED_SHARE));
    let closed_windows = whole_windows(host::cpu_clock() - closed_start);
    out.closed_requests = closed.tally.attempted;
    total.add(closed.tally);
    let window_us = WINDOW.as_micros() as u64;
    out.closed_rate_windows = closed
        .completions
        .windows(window_us, closed_windows)
        .iter()
        .map(|w| w.len() as f64 / WINDOW.as_secs_f64())
        .collect();
    out.req_per_s = better_quartile(&mut out.closed_rate_windows.clone(), false)
        .expect("a phase has at least one window");
    // the program's CPU time per request, between consecutive marks
    let mut cpu_per_req: Vec<f64> = closed
        .cpu_marks
        .windows(2)
        .filter_map(|pair| {
            let ((from, cpu0), (to, cpu1)) = (pair[0], pair[1]);
            let served = closed.completions.count_between(from, to);
            (served > 0).then(|| (cpu1 - cpu0) / served as f64)
        })
        .collect();
    out.cpu_ms_per_req = better_quartile(&mut cpu_per_req, true).ok_or_else(|| {
        io::Error::other("the closed phase is too short to read CPU time per window")
    })?;

    // ---- paced phase ----------------------------------------------------
    let paced_length = seconds(1.0 - CLOSED_SHARE);
    let paced = paced_phase(
        &mut clients,
        &catalog,
        cfg.workload.paced_rate(),
        host::cpu_clock() + Duration::from_millis(5),
        paced_length,
    );
    let measured_wall = wall_start.elapsed().as_secs_f64();
    out.stolen_share = (host::steal_seconds(cfg.cpu)? - steal_start) / measured_wall;
    // a percentile is the better quartile, over the windows of the phase,
    // of each window's own percentile
    let windowed = |q: f64, what: &str| -> io::Result<f64> {
        let mut per_window = paced.pages.window_percentiles(
            q,
            window_us,
            whole_windows(paced_length),
            cfg.min_beyond,
        );
        better_quartile(&mut per_window, true).ok_or_else(|| {
            io::Error::other(format!(
                "{} page samples are too few to report {what} with {} beyond it in any \
                 window; lengthen --seconds",
                paced.pages.len(),
                cfg.min_beyond
            ))
        })
    };
    out.page_samples = paced.pages.len();
    out.op_samples = paced.ops.len();
    out.page_p50_windows =
        paced
            .pages
            .window_percentiles(0.5, window_us, whole_windows(paced_length), 0);
    out.page_p50_us = windowed(0.5, "page_p50_us")?;
    out.page_p90_us = windowed(0.9, "page_p90_us")?;
    out.page_p99_us = paced.pages.percentile(0.99, 0).map_or(0.0, f64::from);
    // Operations are a tenth of the traffic and wait on the log's flusher,
    // whose fsync time is the sandbox's, not the program's: their latencies
    // are reported, not gated. 0 on the browse workloads, which send none.
    let of_ops = |q: f64| paced.ops.percentile(q, 0).map_or(0.0, f64::from);
    out.op_p50_us = of_ops(0.5);
    out.op_p90_us = of_ops(0.9);
    out.op_p99_us = of_ops(0.99);
    out.sched_lag_p99_us = paced.send_lag.percentile(0.99, 0).map_or(0.0, f64::from);
    total.add(paced.tally);
    out.wire_bytes_per_req = total.response_bytes as f64 / total.attempted.max(1) as f64;

    drop(clients);
    if cfg.workload.cached() {
        let identity =
            cached_pages_match_recomputed(&sut, &catalog, &popularity, cfg.workload, cfg.seed);
        out.identity_pages = identity.attempted as usize;
        total.add(identity);
    }
    out.table_rows = sut.table_rows();
    out.tally = total;
    out.peak_rss_mb = host::peak_rss_mb()?;
    Ok(out)
}
