//! Context switches the server's threads make per keep-alive request.
//!
//! One exchange needs one: the loop that owns the connection wakes, serves
//! it and goes back to `epoll_wait`. Handing the connection to another
//! thread and back costs more. The test pins itself — and with it the
//! server and the client — to one CPU, where every wake-up is a switch,
//! and counts the switches of the `httpd-loop-*` threads. It is the only
//! test in this binary, so no other test's threads share the process.

use httpd::{client, HttpResponse, HttpServer, ServerConfig, Service};
use std::sync::Arc;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const REQUESTS: usize = 5_000;
const MAX_SWITCHES_PER_REQUEST: f64 = 1.5;

/// Confine the calling thread, and every thread it later spawns, to the
/// CPU it runs on now.
fn pin_to_one_cpu() {
    // SAFETY: takes no arguments; returns a CPU number or -1.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).expect("sched_getcpu failed");
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live CPU set of the size passed; pid 0 names the
    // calling thread; the call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Voluntary plus involuntary context switches of this process's
/// `httpd-loop-*` threads so far, from `/proc/self/task/*/status`.
fn loop_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // a thread may end between the listing and the read
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue;
        };
        if status.starts_with("Name:\thttpd-loop-") {
            // `voluntary_ctxt_switches` and `nonvoluntary_ctxt_switches`
            for (key, value) in status.lines().filter_map(|l| l.split_once(':')) {
                if key.ends_with("voluntary_ctxt_switches") {
                    total += value.trim().parse::<u64>().unwrap();
                }
            }
        }
    }
    total
}

#[test]
fn keep_alive_request_costs_at_most_one_and_a_half_server_switches() {
    pin_to_one_cpu();
    let body = "x".repeat(300);
    let server = HttpServer::start_service(
        0,
        2,
        Service::Plain(Arc::new(move |_req| HttpResponse::html(200, body.clone()))),
        ServerConfig {
            max_requests_per_conn: u64::MAX,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = client::Connection::open(server.addr()).unwrap();
    // the connection is accepted and every loop has settled in epoll_wait
    assert_eq!(conn.get("/warm").unwrap().status, 200);
    std::thread::sleep(std::time::Duration::from_millis(50));

    let before = loop_switches();
    for i in 0..REQUESTS {
        assert_eq!(conn.get(&format!("/r{i}")).unwrap().status, 200);
    }
    let per_request = (loop_switches() - before) as f64 / REQUESTS as f64;
    server.stop();
    println!("server-thread context switches per request: {per_request:.3}");
    assert!(
        per_request <= MAX_SWITCHES_PER_REQUEST,
        "{per_request:.3} context switches per request (at most {MAX_SWITCHES_PER_REQUEST})"
    );
}
