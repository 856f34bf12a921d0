//! What the benchmark reads from, and does to, the host it runs on: the
//! CPU the process is confined to, the process's CPU clock that the
//! benchmark keeps time on, CPU time and peak memory of the program, and
//! the hypervisor's steal clock.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Linux reports `/proc/stat` times in 1/100 s.
const TICKS_PER_SECOND: f64 = 100.0;
/// Name of the load generator's threads, so their CPU time can be told
/// from the program's.
pub const CLIENT_THREAD: &str = "benchclient";

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>`.
const CLOCK_PROCESS_CPUTIME: i32 = 2;

extern "C" {
    /// glibc's wrapper of the `sched_setaffinity` system call.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Confine this thread, and every thread it later spawns, to the
/// highest-numbered CPU; returns that CPU's number.
///
/// The sandbox is a small virtual machine: a wake-up that crosses virtual
/// CPUs costs a trip through the hypervisor whose price varies by the
/// minute, and swamps the differences this benchmark is after. With client,
/// reactor and workers sharing one CPU a wake-up is a context switch, which
/// costs the same every time. Parallel speed-up is therefore out of scope.
pub fn pin_to_one_cpu(cpus: usize) -> io::Result<usize> {
    let cpu = cpus.clamp(1, 64) - 1;
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set and its true size is passed;
    // pid 0 names the calling thread; the call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The process's CPU clock: the time its threads have spent running.
///
/// This is the clock the benchmark keeps time on. The hypervisor takes the
/// CPU away for a tenth to a third of the time, in bursts, and a wall clock
/// charges those bursts to whatever request they hit. The process is
/// confined to one CPU that it keeps busy (see [`KeepAwake`]), so its CPU
/// clock runs exactly when the machine lets it run and stands still while
/// the CPU is stolen: wall time on an undisturbed CPU.
pub fn cpu_clock() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout; the call
    // writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A thread that does nothing but yield, for as long as this lives.
///
/// It runs only when nothing else can, so the CPU never idles and the CPU
/// clock keeps counting while the program waits — for a timer, a flush, a
/// lock: waiting must cost time on the benchmark's clock too.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> io::Result<KeepAwake> {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(CLIENT_THREAD.into())
            .spawn(move || {
                while !stopped.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            })?;
        Ok(KeepAwake {
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// CPU time in milliseconds of every live thread of this process except the
/// load generator's, from the scheduler's per-thread run time. A thread that
/// has ended is no longer counted: take differences only across a stretch
/// in which the program's threads persist, as they do within a phase.
pub fn process_cpu_ms() -> io::Result<f64> {
    let mut total_ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task")? {
        let dir = task?.path();
        // a thread may end between the listing and the reads
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if comm.trim() == CLIENT_THREAD {
            continue;
        }
        let Ok(schedstat) = std::fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        total_ns += schedstat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("unexpected schedstat layout"))?;
    }
    Ok(total_ns as f64 / 1e6)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Cumulative steal time of CPU `cpu`, in seconds: time the hypervisor
/// ran something else while that CPU had work to do.
pub fn steal_seconds(cpu: usize) -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let label = format!("cpu{cpu}");
    stat.lines()
        .find(|line| line.split_whitespace().next() == Some(label.as_str()))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map(|ticks| ticks / TICKS_PER_SECOND)
        .ok_or_else(|| io::Error::other("no steal column in /proc/stat"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let c0 = cpu_clock();
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        // other tests may run beside this one, so only a floor holds
        assert!(cpu_clock() - c0 >= Duration::from_millis(20));
        assert!(cpu_clock() >= c0);
    }

    #[test]
    fn process_readings_work_on_this_host() {
        // other tests' threads come and go beside this one, taking their
        // CPU time with them, so only the readings themselves are checked
        assert!(process_cpu_ms().unwrap() > 0.0);
        assert!(peak_rss_mb().unwrap() > 1.0);
        assert!(steal_seconds(0).unwrap() >= 0.0);
    }

    #[test]
    fn keep_awake_runs_under_the_load_generators_name_and_stops() {
        let awake = KeepAwake::start().unwrap();
        let c0 = cpu_clock();
        std::thread::sleep(Duration::from_millis(50));
        // the spinner kept the CPU clock running through the sleep
        assert!(cpu_clock() - c0 >= Duration::from_millis(10));
        drop(awake);
    }
}
