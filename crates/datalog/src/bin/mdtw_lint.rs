//! `mdtw-lint` — lint `.dl` datalog programs.
//!
//! ```text
//! usage: mdtw-lint [--json] [--deny-warnings] [--explain] [--profile OUT.json]
//!                  [--fuel N] [--timeout-ms N] [--version] FILE.dl...
//! ```
//!
//! Every machine-readable envelope (`--json` per-file objects and the
//! `--profile` output file entries) carries a `schema_version` field
//! ([`JSON_SCHEMA_VERSION`]); `--version` prints the tool and schema
//! versions and exits.
//!
//! Parses each file leniently against a synthetic structure (extensional
//! predicates and output predicates come from `%! edb name/arity` and
//! `%! output name` pragmas, or are inferred — see the `lint` module of
//! `mdtw-datalog`), runs the full static-analysis battery, and reports
//! the `MD0xx` diagnostics with rustc-style carets (or as JSON with
//! `--json`). Linting walks the program and never evaluates it.
//!
//! `--explain` renders each file's compiled join plans — join order,
//! scan-vs-probe access paths, delta splits, and index key positions —
//! as chosen against a seeded dry-run structure; with `--json` it lands
//! in an `explain` field.
//!
//! `--profile FILE.json` runs a profiled dry-run evaluation of each
//! input (full literal-level detail, under a per-file budget), prints
//! the hottest rules and the per-stratum
//! timeline, and writes the collected profiles to `FILE.json` after
//! validating that they round-trip through the JSON layer; with
//! `--json` the same data also lands in a `profile` field.
//!
//! `--fuel N` and `--timeout-ms N` budget the `--profile` dry-run
//! evaluation (per file — each file gets a fresh meter). Without them a
//! built-in fuel ceiling applies, so profiling terminates even on
//! adversarial programs; a tripped budget is reported in the profile
//! (which then covers the partial run) and never changes the exit status
//! by itself.
//!
//! Exit status — the contract scripts can rely on:
//! * `0` — every file is clean (warnings allowed unless `--deny-warnings`);
//! * `1` — some file has error-level findings, fails to parse, or (with
//!   `--deny-warnings`) has warnings;
//! * `2` — usage problems, unreadable files, or malformed `%!` pragmas.

use mdtw_datalog::analysis::Severity;
use mdtw_datalog::lint::{
    explain_outcome_json, explain_source, file_json, json, json::Json, lint_source,
    profile_outcome_json, profile_source_with_limits, render_parse_error, render_pragma_error,
    ExplainOutcome, LintOutcome, ProfileOutcome, JSON_SCHEMA_VERSION,
};
use mdtw_datalog::{EvalLimits, EvalProfile, ProfileDetail};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: mdtw-lint [--json] [--deny-warnings] [--explain] \
                     [--profile OUT.json] [--fuel N] [--timeout-ms N] [--version] FILE.dl...";

fn print_help() {
    println!("{USAGE}");
    println!();
    println!("  --json            machine-readable output (one object per file)");
    println!("  --deny-warnings   treat warning-level findings as errors (exit 1)");
    println!("  --explain         render each file's compiled join plans");
    println!("  --profile OUT     profile a dry-run evaluation, write profiles to OUT (JSON)");
    println!("  --fuel N          budget the --profile evaluation to N units of work per file");
    println!("  --timeout-ms N    deadline for the --profile evaluation, per file");
    println!("  --version         print the tool version and JSON schema version");
    println!();
    println!("exit status:");
    println!("  0  every file is clean (warnings allowed unless --deny-warnings)");
    println!("  1  error-level findings, a parse failure, or warnings with --deny-warnings");
    println!("  2  usage problems, unreadable files, or malformed `%!` pragmas");
}

fn main() -> ExitCode {
    let mut json_mode = false;
    let mut deny_warnings = false;
    let mut explain = false;
    let mut profile_out: Option<String> = None;
    let mut fuel: Option<u64> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_mode = true,
            "--deny-warnings" => deny_warnings = true,
            "--explain" => explain = true,
            "--profile" => {
                let Some(value) = args.next() else {
                    eprintln!("mdtw-lint: `--profile` needs an output file argument");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                };
                profile_out = Some(value);
            }
            "--fuel" | "--timeout-ms" => {
                let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("mdtw-lint: `{arg}` needs a nonnegative integer argument");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                };
                if arg == "--fuel" {
                    fuel = Some(value);
                } else {
                    timeout_ms = Some(value);
                }
            }
            "-h" | "--help" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            "-V" | "--version" => {
                println!(
                    "mdtw-lint {} (json schema {JSON_SCHEMA_VERSION})",
                    env!("CARGO_PKG_VERSION")
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("mdtw-lint: unknown flag `{arg}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    // Fresh per file: tripping on one file must not starve the next.
    let file_limits = || -> Option<EvalLimits> {
        if fuel.is_none() && timeout_ms.is_none() {
            return None;
        }
        let mut limits = EvalLimits::new();
        if let Some(f) = fuel {
            limits = limits.fuel(f);
        }
        if let Some(ms) = timeout_ms {
            limits = limits.deadline(Duration::from_millis(ms));
        }
        Some(limits)
    };

    let mut failed = false;
    let mut json_files: Vec<Json> = Vec::new();
    let mut profile_entries: Vec<(String, ProfileOutcome)> = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mdtw-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let outcome = match lint_source(&source) {
            Ok(o) => o,
            Err(pragma) => {
                eprintln!("{}", render_pragma_error(&pragma, &source, path));
                return ExitCode::from(2);
            }
        };
        failed |= outcome.has_errors();
        if deny_warnings {
            failed |= outcome
                .report
                .as_ref()
                .is_some_and(|r| r.warning_count() > 0);
        }
        // Pragmas already validated above, so the dry-runs cannot fail.
        let explained =
            explain.then(|| explain_source(&source).expect("pragmas validated by lint_source"));
        let profiled = profile_out.is_some().then(|| {
            profile_source_with_limits(&source, ProfileDetail::Literals, file_limits().as_ref())
                .expect("pragmas validated by lint_source")
        });
        if json_mode {
            let mut obj = file_json(path, &outcome);
            if let Json::Obj(fields) = &mut obj {
                if let Some(exp) = &explained {
                    fields.push(("explain".into(), explain_outcome_json(exp)));
                }
                if let Some(prof) = &profiled {
                    fields.push(("profile".into(), profile_outcome_json(prof)));
                }
            }
            json_files.push(obj);
        } else {
            render_human(path, &source, &outcome);
            if let Some(exp) = &explained {
                render_explained(path, exp);
            }
            if let Some(prof) = &profiled {
                render_profiled(path, prof);
            }
        }
        if let Some(prof) = profiled {
            profile_entries.push((path.clone(), prof));
        }
    }
    if json_mode {
        println!("{}", Json::Arr(json_files).render());
    }
    if let Some(out_path) = &profile_out {
        if let Err(msg) = write_profiles(out_path, &profile_entries) {
            eprintln!("mdtw-lint: {out_path}: {msg}");
            return ExitCode::from(2);
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn render_human(path: &str, source: &str, outcome: &LintOutcome) {
    if let Some(err) = &outcome.parse_error {
        println!("{}\n", render_parse_error(err, source, path));
        println!("{path}: 1 error (parse failed before analysis)");
        return;
    }
    let report = outcome.report.as_ref().expect("no parse error => report");
    for d in &report.diagnostics {
        println!("{}\n", d.render(Some(source), path));
    }
    let notes = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Note)
        .count();
    println!(
        "{path}: {} errors, {} warnings, {} notes ({}, {} recursion)",
        report.error_count(),
        report.warning_count(),
        notes,
        if report.monadic {
            "monadic"
        } else {
            "non-monadic"
        },
        report.recursion,
    );
}

fn render_explained(path: &str, outcome: &ExplainOutcome) {
    match outcome {
        ExplainOutcome::Skipped(reason) => {
            println!("\n{path}: explain skipped: {reason}");
        }
        ExplainOutcome::Explained(explanation) => {
            println!("\n{path}: compiled plans ({} engine)", explanation.engine);
            for line in explanation.render_text().lines() {
                println!("  {line}");
            }
        }
    }
}

fn render_profiled(path: &str, outcome: &ProfileOutcome) {
    match outcome {
        ProfileOutcome::Skipped(reason) => {
            println!("\n{path}: profile skipped: {reason}");
        }
        ProfileOutcome::Profiled(dump) => {
            let total_us = dump.profile.total_nanos() as f64 / 1_000.0;
            println!(
                "\n{path}: dry-run profile: {} facts, {} rounds, {} strata, {total_us:.1} us",
                dump.stats.facts, dump.stats.rounds, dump.stats.strata,
            );
            if let Some(kind) = &dump.tripped {
                let stratum = dump
                    .profile
                    .trip_stratum
                    .map_or_else(String::new, |k| format!(" in stratum {k}"));
                println!("  budget tripped ({kind}){stratum}; profile covers the partial run");
            }
            for s in &dump.profile.strata {
                println!(
                    "  stratum {}: {} rounds, {} facts, {:.1} us",
                    s.index,
                    s.rounds,
                    s.facts,
                    s.nanos as f64 / 1_000.0,
                );
            }
            let hottest = dump.profile.hottest_rules();
            for rp in hottest.iter().take(3) {
                println!(
                    "  hot rule {} ({}): {} firings, {} tuples considered, {:.1} us",
                    rp.rule,
                    rp.head,
                    rp.firings,
                    rp.tuples_considered,
                    rp.nanos as f64 / 1_000.0,
                );
            }
        }
    }
}

/// Writes the collected per-file profiles to `out_path` as a JSON array
/// of `{"file", "profile"|"skipped", …}` objects, after checking that
/// the rendered text re-parses and that every profile object
/// deserializes back via [`EvalProfile::from_json`].
fn write_profiles(out_path: &str, entries: &[(String, ProfileOutcome)]) -> Result<(), String> {
    let arr = Json::Arr(
        entries
            .iter()
            .map(|(file, outcome)| {
                let mut fields = vec![
                    (
                        "schema_version".to_owned(),
                        Json::Num(JSON_SCHEMA_VERSION as f64),
                    ),
                    ("file".to_owned(), Json::Str(file.clone())),
                ];
                if let Json::Obj(rest) = profile_outcome_json(outcome) {
                    fields.extend(rest);
                }
                Json::Obj(fields)
            })
            .collect(),
    );
    let rendered = arr.render();
    let reparsed =
        json::parse(&rendered).map_err(|e| format!("emitted profile JSON does not parse: {e}"))?;
    if let Json::Arr(items) = &reparsed {
        for item in items {
            if let Some(profile) = item.get("profile") {
                EvalProfile::from_json(profile)
                    .map_err(|e| format!("emitted profile does not round-trip: {e}"))?;
            }
        }
    }
    std::fs::write(out_path, rendered + "\n").map_err(|e| e.to_string())
}
