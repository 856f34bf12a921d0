//! `--smoke` and `--repeat`: run the benchmark's own command line as child
//! processes (fresh process per run, as the driver does) and check what
//! they print against `BENCHMARK.json`.

use crate::workload::{self, Workload};
use crate::{well_formed, Args, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::process::{Command, Stdio};

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so spreads agree with the driver's.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // position k·(n+1)/4, 1-based, clamped into the data
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    Some((at(1), at(2), at(3)))
}

fn manifest() -> Result<Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))
}

/// Names (and a numeric field, when asked) of one list of the manifest.
fn listed(manifest: &Value, key: &str, field: Option<&str>) -> Vec<(String, f64)> {
    manifest
        .get(key)
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|m| {
                    let name = m.get("name")?.as_str()?.to_string();
                    let number = field.and_then(|f| m.get(f)?.as_f64()).unwrap_or(0.0);
                    Some((name, number))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Run one workload once in a child process; returns its result line.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    thin: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if thin {
        cmd.args(["--min-beyond", "0"]);
    }
    // `output` waits for the child to end
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{} run exited with {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("result line of {}: {e:?}", workload.name()))
}

/// Every name of `expected` must be a metric of `result`, well-formed, with
/// its unit; and nothing else may be there.
fn check_names(
    result: &Value,
    expected: &[(&str, &str)],
    listed: &[(String, f64)],
) -> Result<(), String> {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics object")?;
    for (name, unit) in expected {
        if !well_formed(name) {
            return Err(format!("metric name {name:?} is malformed"));
        }
        if !listed.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "{name} is printed but not listed in BENCHMARK.json"
            ));
        }
        let m = metrics.get(*name).ok_or(format!("{name} is missing"))?;
        if m.get("unit").and_then(Value::as_str) != Some(unit) {
            return Err(format!("{name} has no unit {unit}"));
        }
        if m.get("value").and_then(Value::as_f64).is_none() {
            return Err(format!("{name} has no numeric value"));
        }
    }
    for (name, _) in listed {
        if !expected.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "{name} is listed in BENCHMARK.json but not printed"
            ));
        }
    }
    if metrics.len() != expected.len() {
        return Err("result line carries metrics nobody declared".into());
    }
    Ok(())
}

/// All four workloads, traced and untraced, at a twentieth of the run
/// length; validates names and units against `BENCHMARK.json`.
pub fn smoke() -> Result<(), String> {
    let manifest = manifest()?;
    let seconds = manifest
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?
        / 20.0;
    let listed_workloads = listed(&manifest, "workloads", None);
    if listed_workloads.len() != workload::ALL.len() {
        return Err("BENCHMARK.json lists other workloads than the benchmark has".into());
    }
    for w in workload::ALL {
        if !listed_workloads.iter().any(|(n, _)| n == w.name()) {
            return Err(format!("workload {} is not in BENCHMARK.json", w.name()));
        }
        let untraced = child(w, 1, seconds, false, true)?;
        check_names(
            &untraced,
            END_TO_END,
            &listed(&manifest, "end_to_end", None),
        )?;
        let traced = child(w, 1, seconds, true, true)?;
        check_names(&traced, PER_LAYER, &listed(&manifest, "per_layer", None))?;
        for r in [&untraced, &traced] {
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                return Err(format!("{}: outputs were not correct: {r}", w.name()));
            }
        }
        println!("smoke {}: ok", w.name());
    }
    Ok(())
}

/// `--repeat N`: the full set N times (seeds `seed`, `seed + 1`, …), then
/// per metric the median, quartiles and relative spread; fails when a
/// spread exceeds the metric's bound.
pub fn repeat(args: &Args) -> Result<(), String> {
    let manifest = manifest()?;
    let runs: usize = args.parsed("--repeat")?.unwrap_or(0);
    if runs < 2 {
        return Err("--repeat needs at least 2 runs".into());
    }
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let run_seconds = manifest
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(run_seconds);
    let bounds = listed(&manifest, "end_to_end", Some("bound"));
    let mut exceeded = Vec::new();
    println!("| workload | metric | median | q1 | q3 | spread | bound |");
    println!("|---|---|---|---|---|---|---|");
    for w in workload::ALL {
        let mut results = Vec::new();
        for i in 0..runs {
            let r = child(w, seed + i as u64, seconds, false, false)?;
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                return Err(format!(
                    "{} seed {}: outputs were not correct",
                    w.name(),
                    seed + i as u64
                ));
            }
            results.push(r);
        }
        for (name, bound) in &bounds {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let (q1, median, q3) =
                quartiles(&values).ok_or(format!("{name}: no values to summarize"))?;
            let spread = (q3 - q1) / median;
            println!(
                "| {} | {name} | {median:.4} | {q1:.4} | {q3:.4} | {spread:.4} | {bound} |",
                w.name()
            );
            if name != "setup_s" && spread > *bound {
                exceeded.push(format!("{}/{name}: {spread:.3} > {bound}", w.name()));
            }
        }
    }
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!("spread beyond bound: {}", exceeded.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_agree_with_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn manifest_lists_what_the_benchmark_prints() {
        // the manifest sits two levels up when the tests run from the package
        let Ok(text) = std::fs::read_to_string("../BENCHMARK.json") else {
            return; // a bare copy of the package: nothing to compare with
        };
        let manifest = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            listed(&manifest, key, None)
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        let of = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("end_to_end"), of(END_TO_END));
        assert_eq!(names("per_layer"), of(PER_LAYER));
        let workloads: Vec<String> = workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }
}
