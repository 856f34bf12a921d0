//! `bench_e2e`: the page-request benchmark over the Acer-Euro-shape
//! application. See `README.md` in this directory for the metric glossary,
//! the workloads and the commands.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! bench_e2e --smoke
//! bench_e2e --repeat <n> [--seed <n>] [--seconds <s>]
//! ```

mod client;
mod e2e;
mod gen;
mod host;
mod layers;
mod recorder;
mod repeat;
mod sut;
mod trace;
mod workload;

use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// End-to-end metrics (`--trace 0`), with units. `BENCHMARK.json` carries
/// the same names plus direction and bound; `--smoke` checks they agree.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("page_p50_us", "us"),
    ("cpu_ms_per_req", "ms"),
    ("wire_bytes_per_req", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("httpd.parse_us", "us"),
    ("httpd.serialize_us", "us"),
    ("httpd.tcp_overhead_us", "us"),
    ("httpd.dispatches_per_req", "count"),
    ("httpd.vectored_writes_per_req", "count"),
    ("httpd.admission_rejects", "count"),
    ("core.adapt_us", "us"),
    ("mvc.handle_us", "us"),
    ("mvc.controller_self_us", "us"),
    ("mvc.page_self_us", "us"),
    ("mvc.unit_self_us", "us"),
    ("mvc.render_self_us", "us"),
    ("mvc.units_per_page", "count"),
    ("mvc.http_304_share", "ratio"),
    ("mvc.op_us", "us"),
    ("mvc.op_plain_us", "us"),
    ("mvc.ko_flows", "count"),
    ("relstore.sql_us", "us"),
    ("relstore.query_direct_us", "us"),
    ("relstore.stmts_per_req", "count"),
    ("relstore.rows_scanned_per_stmt", "count"),
    ("relstore.index_probes_per_stmt", "count"),
    ("relstore.scan_fallbacks", "count"),
    ("relstore.plan_cache_hit_ratio", "ratio"),
    ("relstore.write_conflicts", "count"),
    ("relstore.versions_live", "count"),
    ("cache.bean_hit_ratio", "ratio"),
    ("cache.bean_evictions", "count"),
    ("cache.fragment_hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("cache.patches_applied", "count"),
    ("cache.patch_fallbacks", "count"),
    ("cache.patch_ratio", "ratio"),
    ("cache.fragment_rerenders", "count"),
    ("cache.maintain_apply_us", "us"),
    ("presentation.fragment_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.commits_per_flush", "count"),
    ("wal.flushes", "count"),
    ("wal.commit_overhead_us", "us"),
    ("repl.page_overhead_us", "us"),
    ("repl.op_overhead_us", "us"),
    ("repl.replica_read_share", "ratio"),
    ("repl.stale_redirects", "count"),
    ("repl.max_lag_lsn", "count"),
    ("repl.batches_applied", "count"),
    ("setup.synthesize_s", "s"),
    ("setup.generate_s", "s"),
    ("setup.analyze_s", "s"),
    ("setup.deploy_s", "s"),
    ("setup.seed_s", "s"),
    ("setup.settle_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("trace.residual_ratio", "ratio"),
];

/// The characters the result format allows in a metric or workload name.
pub fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

/// CPUs this process may run on (read before it confines itself to one).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `{name: {"value": v, "unit": u}}` for every name of `table`.
fn metrics_object(table: &[(&str, &str)], value: impl Fn(&str) -> f64) -> Value {
    let mut m = Map::new();
    for (name, unit) in table {
        m.insert(
            (*name).to_string(),
            json!({"value": value(name), "unit": *unit}),
        );
    }
    Value::Object(m)
}

/// One workload, one run: print the detail document, then the result line.
fn run_one(args: &Args) -> Result<(), String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
    let traced = match args.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let min_beyond = args.parsed("--min-beyond")?.unwrap_or(recorder::MIN_BEYOND);
    let trace_out = args.value("--trace-out").map(PathBuf::from);
    let cpus = host_cpus();
    // client connections: one per core, at most two
    let clients = cpus.min(2);
    let cpu = host::pin_to_one_cpu(cpus).map_err(|e| format!("sched_setaffinity: {e}"))?;

    // the only place the benchmark writes: inside the checkout
    let scratch = PathBuf::from(format!(".bench_build/e2e-run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let run = Run {
        workload,
        seed,
        seconds,
        clients,
        cpu,
        min_beyond,
    };
    let outcome = measure(&run, traced, &scratch, trace_out.as_deref());
    let _ = std::fs::remove_dir_all(&scratch);
    let (detail, result) = outcome.map_err(|e| e.to_string())?;

    let mut doc = Map::new();
    doc.insert("benchmark".into(), json!("bench_e2e"));
    doc.insert("workload".into(), json!(workload.name()));
    doc.insert("trace".into(), json!(traced));
    doc.insert("seed".into(), json!(seed));
    doc.insert("seconds".into(), json!(seconds));
    doc.insert("host_cpus".into(), json!(cpus));
    doc.insert("pinned_cpu".into(), json!(cpu));
    doc.insert("clients".into(), json!(clients));
    doc.insert("git_commit".into(), json!(git_commit()));
    doc.insert("rows_per_entity".into(), json!(sut::ROWS_PER_ENTITY));
    doc.insert("paced_rate".into(), json!(workload.paced_rate()));
    doc.insert("detail".into(), detail);
    // the summary ends with the claim: this benchmark makes none
    let body = Value::Object(doc).to_string();
    println!("{},\"claim\":null}}", &body[..body.len() - 1]);
    println!("{result}");
    Ok(())
}

/// What one run was asked to do.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Client connections.
    pub clients: usize,
    /// The CPU the process confined itself to.
    pub cpu: usize,
    /// Samples required beyond a reported percentile.
    pub min_beyond: usize,
}

/// Returns the detail object and the result line of the contract.
fn measure(
    run: &Run,
    traced: bool,
    scratch: &Path,
    trace_out: Option<&Path>,
) -> std::io::Result<(Value, Value)> {
    if traced {
        let out = layers::run(run, scratch, trace_out)?;
        let metrics = metrics_object(PER_LAYER, |name| out.metrics[name]);
        let detail = json!({"traced_requests": out.traced_requests});
        let result = json!({
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": metrics,
        });
        return Ok((detail, result));
    }
    let out = e2e::run(run, scratch)?;
    let metrics = metrics_object(END_TO_END, |name| match name {
        "setup_s" => out.setup_s,
        "req_per_s" => out.req_per_s,
        "page_p50_us" => out.page_p50_us,
        "cpu_ms_per_req" => out.cpu_ms_per_req,
        "wire_bytes_per_req" => out.wire_bytes_per_req,
        "peak_rss_mb" => out.peak_rss_mb,
        other => unreachable!("no value for end-to-end metric {other}"),
    });
    let t = out.tally;
    let detail = json!({
        "setups_s": out.setups_s.clone(),
        "bean_cache_capacity": out.bean_cache_capacity,
        "closed_requests": out.closed_requests,
        "closed_rate_windows": out.closed_rate_windows.clone(),
        "page_p50_windows": out.page_p50_windows.clone(),
        "page_samples": out.page_samples,
        "op_samples": out.op_samples,
        "page_p90_us": out.page_p90_us,
        "page_p99_us": out.page_p99_us,
        "op_p50_us": out.op_p50_us,
        "op_p90_us": out.op_p90_us,
        "op_p99_us": out.op_p99_us,
        "sched_lag_p99_us": out.sched_lag_p99_us,
        "stolen_share": out.stolen_share,
        "fail_ratio": t.failed() as f64 / t.attempted.max(1) as f64,
        "io_errors": t.io_errors,
        "bad_status": t.bad_status,
        "bad_content": t.bad_content,
        "stale_reads": t.stale_reads,
        "sent_late": t.sent_late,
        "not_modified": t.not_modified,
        "identity_pages": out.identity_pages,
        "table_rows_min": out.table_rows.0,
        "table_rows_max": out.table_rows.1,
    });
    let result = json!({
        "correct": t.failed() == 0,
        "attempted": t.attempted,
        "failed": t.failed(),
        "metrics": metrics,
    });
    Ok((detail, result))
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = if args.flag("--smoke") {
        repeat::smoke()
    } else if args.flag("--repeat") {
        repeat::repeat(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(name) && !unit.is_empty() && unit.len() <= 16);
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }
}
