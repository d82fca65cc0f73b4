//! Machine-readable join-engine performance report.
//!
//! ```text
//! cargo run -p mdtw-bench --bin bench_report --release -- \
//!     [--out PATH] [--sizes N,N,...] [--label LABEL] [--append] \
//!     [--fuel N] [--timeout-ms N] [--profiler-overhead] [--profile FILE.json]
//! ```
//!
//! Runs the linear-TC and `engine_linearity` workloads, the 3-stratum
//! `stratified_reach` negation chain and the `magic_point_query`
//! full-vs-demand ablation at fixed chain sizes through the semi-naive
//! and stratified engines and writes one labelled
//! record of rows (ns/eval, ns/derived-fact, work counters) to `--out` (default
//! `BENCH_joins.json`). With `--append`, the record is appended to the
//! records array of an existing report file, so before/after measurements
//! of the same workloads accumulate in one place. I/O problems — an
//! unwritable output path, or an `--append` target that is not a
//! bench_report records file — render an error and exit with code 2
//! (before the measurement runs, where possible) instead of clobbering
//! or silently rewriting data.
//!
//! The `budgeted_tc` row runs the linear-TC workload under an evaluation
//! budget. By default the budget is effectively unlimited (checkpoints
//! run, nothing trips), so the row measures pure governor overhead;
//! `--fuel N` / `--timeout-ms N` replace it with a real budget, and a
//! tripped evaluation records its partial result instead of hanging.
//!
//! `--profiler-overhead` measures the profiler ablation instead of the
//! standard workloads: `linear_tc` and `stratified_reach` at every
//! `ProfileDetail` level, with the level in the engine column
//! (`profile_off` / `profile_rules` / `profile_literals`).
//!
//! `--profile FILE.json` additionally runs both workloads once at full
//! literal detail (at the smallest requested size) and writes the
//! collected `EvalProfile`s to `FILE.json`, after validating that the
//! emitted JSON round-trips through the parser.

use std::process::ExitCode;

const USAGE: &str =
    "usage: bench_report [--out PATH] [--sizes N,N,...] [--label LABEL] [--append]\n\
    \x20                   [--fuel N] [--timeout-ms N] [--profiler-overhead]\n\
    \x20                   [--profile FILE.json]\n\
    \n\
    --out PATH      output file (default BENCH_joins.json)\n\
    --sizes N,N,..  comma-separated chain sizes (default 1000,2000,4000,8000)\n\
    --label LABEL   record label (default `current`)\n\
    --append        append the record to an existing report file\n\
    --fuel N        budget the governed `budgeted_tc` row to N units of work\n\
    --timeout-ms N  deadline for the governed `budgeted_tc` row\n\
    --profiler-overhead  measure the ProfileDetail ablation instead of the workloads\n\
    --profile FILE  write literal-detail EvalProfiles of the workloads to FILE (JSON)";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("bench_report: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// An I/O-level failure (unwritable output, corrupt `--append` target):
/// rendered to stderr, exit code 2 — distinguishable from a measurement
/// failure and safe to pattern-match in CI.
fn io_error(message: &str) -> ExitCode {
    eprintln!("bench_report: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_joins.json");
    let mut sizes: Vec<usize> = vec![1000, 2000, 4000, 8000];
    let mut label = String::from("current");
    let mut append = false;
    let mut fuel: Option<u64> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut profiler_overhead = false;
    let mut profile_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--append" => append = true,
            "--profiler-overhead" => profiler_overhead = true,
            "--profile" => match args.next() {
                Some(p) => profile_out = Some(p),
                None => return usage_error("--profile requires a path"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => return usage_error("--out requires a path"),
            },
            "--label" => match args.next() {
                Some(l) => label = l,
                None => return usage_error("--label requires a value"),
            },
            "--fuel" | "--timeout-ms" => {
                let flag = arg.clone();
                match args.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(v) if flag == "--fuel" => fuel = Some(v),
                    Some(v) => timeout_ms = Some(v),
                    None => return usage_error(&format!("{flag} requires a nonnegative integer")),
                }
            }
            "--sizes" => match args.next() {
                Some(list) => {
                    let parsed: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
                    match parsed {
                        Ok(v) if !v.is_empty() && v.iter().all(|&n| n >= 2) => sizes = v,
                        _ => return usage_error(&format!("malformed --sizes `{list}`")),
                    }
                }
                None => return usage_error("--sizes requires a list"),
            },
            s => return usage_error(&format!("unknown argument `{s}`")),
        }
    }

    // Fail fast if any inline workload program regressed: spanned MD0xx
    // diagnostics beat a panic (or a silently wrong fixpoint) mid-run.
    match mdtw_bench::preflight() {
        Err(diagnostics) => {
            eprintln!(
                "bench_report: workload program rejected by static analysis\n\n{diagnostics}"
            );
            return ExitCode::from(2);
        }
        Ok(warnings) => {
            for w in warnings {
                eprintln!("{w}\n");
            }
        }
    }

    // Resolve the output file *before* the measurement runs: a corrupt
    // `--append` target or an unreadable path should cost an error
    // message, not minutes of discarded bench work. A missing file is
    // fine — the record starts a fresh report.
    let existing = if append {
        match std::fs::read_to_string(&out_path) {
            Ok(text) => {
                if splice_record(&text, "{}").is_none() {
                    return io_error(&format!(
                        "`{out_path}` is not a bench_report records file; refusing to \
                         append (fix or remove the file, or drop --append to rewrite it)"
                    ));
                }
                Some(text)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return io_error(&format!("cannot read `{out_path}`: {e}")),
        }
    } else {
        None
    };

    let limits = if fuel.is_some() || timeout_ms.is_some() {
        let mut l = mdtw_datalog::EvalLimits::new();
        if let Some(f) = fuel {
            l = l.fuel(f);
        }
        if let Some(ms) = timeout_ms {
            l = l.deadline(std::time::Duration::from_millis(ms));
        }
        Some(l)
    } else {
        None
    };
    let rows = if profiler_overhead {
        eprintln!("bench_report: measuring profiler-overhead ablation at sizes {sizes:?}…");
        mdtw_bench::profiler_overhead_report(&sizes)
    } else {
        eprintln!("bench_report: measuring sizes {sizes:?}…");
        mdtw_bench::join_report(&sizes, limits.as_ref())
    };
    let record = mdtw_bench::render_join_record_json(&label, &rows);

    if let Some(profile_path) = &profile_out {
        let n = sizes.iter().copied().min().expect("sizes is non-empty");
        let rendered = mdtw_bench::profile_workloads_json(n);
        if let Err(e) = validate_profiles(&rendered) {
            eprintln!("bench_report: emitted profile JSON is invalid: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(profile_path, rendered + "\n") {
            return io_error(&format!("cannot write `{profile_path}`: {e}"));
        }
        eprintln!("bench_report: wrote workload profiles (n={n}) to {profile_path}");
    }

    let report = match &existing {
        Some(text) => splice_record(text, &record)
            .expect("append target validated before the measurement ran"),
        None => fresh_report(&record),
    };

    if let Err(e) = std::fs::write(&out_path, &report) {
        return io_error(&format!("cannot write `{out_path}`: {e}"));
    }
    for r in &rows {
        eprintln!(
            "  {:>16}/{:<8} n={:<6} facts={:<9} {:>10.1} ns/fact",
            r.workload, r.engine, r.n, r.facts, r.ns_per_fact
        );
    }
    eprintln!("bench_report: wrote {out_path}");
    ExitCode::SUCCESS
}

fn fresh_report(record: &str) -> String {
    format!("{{\"records\": [\n  {record}\n]}}\n")
}

/// Round-trip check of a `--profile` payload: the rendered text must
/// parse back through the dependency-free JSON parser, and each entry's
/// `profile` object must deserialize into an `EvalProfile`.
fn validate_profiles(rendered: &str) -> Result<(), String> {
    use mdtw_datalog::lint::json::{self, Json};
    let value = json::parse(rendered)?;
    let Json::Arr(items) = &value else {
        return Err("expected a JSON array of workload profiles".into());
    };
    for item in items {
        let profile = item
            .get("profile")
            .ok_or_else(|| "entry is missing its `profile` field".to_owned())?;
        mdtw_datalog::EvalProfile::from_json(profile)?;
    }
    Ok(())
}

/// Appends `record` to the records array of an existing report. The file
/// is always produced by this bin, so the splice point is the exact
/// closing text written by [`fresh_report`].
fn splice_record(existing: &str, record: &str) -> Option<String> {
    let trimmed = existing.trim_end();
    let body = trimmed.strip_suffix("\n]}")?;
    Some(format!("{body},\n  {record}\n]}}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_splices_into_records_array() {
        let first = fresh_report("{\"label\": \"a\", \"rows\": []}");
        let merged = splice_record(&first, "{\"label\": \"b\", \"rows\": []}").unwrap();
        assert_eq!(merged.matches("\"label\"").count(), 2);
        assert!(merged.trim_end().ends_with("]}"));
        // A third append still works on the merged output.
        let merged = splice_record(&merged, "{\"label\": \"c\", \"rows\": []}").unwrap();
        assert_eq!(merged.matches("\"label\"").count(), 3);
        // Arbitrary text is rejected rather than corrupted.
        assert!(splice_record("not a report", "{}").is_none());
    }
}
