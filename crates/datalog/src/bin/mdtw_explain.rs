//! `mdtw-explain` — explain and profile `.dl` datalog programs.
//!
//! ```text
//! usage: mdtw-explain [--explain] [--profile OUT.json] [--fuel N]
//!                     [--timeout-ms N] [--version] FILE.dl...
//! ```
//!
//! Each file is parsed against a synthetic structure (extensional
//! predicates and output predicates come from `%! edb name/arity` and
//! `%! output name` pragmas, or are inferred — see the `dry_run` module
//! of `mdtw-datalog`).
//!
//! `--explain` renders each file's compiled join plans — join order,
//! scan-vs-probe access paths, delta splits, and index key positions —
//! as chosen against a seeded dry-run structure.
//!
//! `--profile FILE.json` runs a profiled dry-run evaluation of each
//! input (for its `%! output` predicates, under a per-file budget),
//! prints the hottest rules and the per-stratum timeline, and writes the
//! collected profiles to `FILE.json`. Every entry of that file carries a
//! `schema_version` field ([`JSON_SCHEMA_VERSION`]); `--version` prints
//! the tool and schema versions and exits.
//!
//! `--fuel N` and `--timeout-ms N` budget the `--profile` dry-run
//! evaluation (per file — each file gets a fresh meter). Without them a
//! built-in fuel ceiling applies, so profiling terminates even on
//! adversarial programs; a tripped budget is reported in the profile
//! (which then covers the partial run) and never changes the exit status
//! by itself.
//!
//! Exit status — the contract scripts can rely on:
//! * `0` — every file was explained and/or profiled;
//! * `1` — some file was skipped for a parse or stratification failure,
//!   or (with `--profile`) for a `%! output` naming no intensional
//!   predicate;
//! * `2` — usage problems, unreadable files, or malformed `%!` pragmas.

use mdtw_datalog::dry_run::{
    explain_source, profile_outcome_json, profile_source_with_limits, ExplainOutcome,
    ProfileOutcome,
};
use mdtw_datalog::json::{Json, JSON_SCHEMA_VERSION};
use mdtw_datalog::EvalLimits;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: mdtw-explain [--explain] [--profile OUT.json] [--fuel N] \
                     [--timeout-ms N] [--version] FILE.dl...";

fn print_help() {
    println!("{USAGE}");
    println!();
    println!("  --explain         render each file's compiled join plans");
    println!("  --profile OUT     profile a dry-run evaluation, write profiles to OUT (JSON)");
    println!("  --fuel N          budget the --profile evaluation to N units of work per file");
    println!("  --timeout-ms N    deadline for the --profile evaluation, per file");
    println!("  --version         print the tool version and JSON schema version");
    println!();
    println!("exit status:");
    println!("  0  every file was explained and/or profiled");
    println!("  1  a file was skipped (parse or stratification failure, or a");
    println!("     `%! output` naming no intensional predicate)");
    println!("  2  usage problems, unreadable files, or malformed `%!` pragmas");
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("mdtw-explain: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut explain = false;
    let mut profile_out: Option<String> = None;
    let mut fuel: Option<u64> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => explain = true,
            "--profile" => {
                let Some(value) = args.next() else {
                    return usage_error("`--profile` needs an output file argument");
                };
                profile_out = Some(value);
            }
            "--fuel" | "--timeout-ms" => {
                let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage_error(&format!("`{arg}` needs a nonnegative integer argument"));
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
                    "mdtw-explain {} (json schema {JSON_SCHEMA_VERSION})",
                    env!("CARGO_PKG_VERSION")
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage_error(&format!("unknown flag `{arg}`")),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return usage_error("no input files");
    }
    if !explain && profile_out.is_none() {
        return usage_error("nothing to do: pass `--explain` and/or `--profile OUT.json`");
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

    let mut skipped = false;
    let mut profile_entries: Vec<(String, ProfileOutcome)> = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mdtw-explain: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if explain {
            match explain_source(&source) {
                Ok(outcome) => {
                    skipped |= matches!(outcome, ExplainOutcome::Skipped(_));
                    render_explained(path, &outcome);
                }
                Err(pragma) => {
                    eprintln!("{path}:{pragma}");
                    return ExitCode::from(2);
                }
            }
        }
        if profile_out.is_some() {
            let limits = file_limits();
            match profile_source_with_limits(&source, limits.as_ref()) {
                Ok(outcome) => {
                    skipped |= matches!(outcome, ProfileOutcome::Skipped(_));
                    render_profiled(path, &outcome);
                    profile_entries.push((path.clone(), outcome));
                }
                Err(pragma) => {
                    eprintln!("{path}:{pragma}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if let Some(out_path) = &profile_out {
        if let Err(e) = std::fs::write(out_path, profiles_json(&profile_entries) + "\n") {
            eprintln!("mdtw-explain: {out_path}: {e}");
            return ExitCode::from(2);
        }
    }
    if skipped {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn render_explained(path: &str, outcome: &ExplainOutcome) {
    match outcome {
        ExplainOutcome::Skipped(reason) => println!("{path}: explain skipped: {reason}\n"),
        ExplainOutcome::Explained(explanation) => {
            println!("{path}: compiled plans ({} engine)", explanation.engine);
            for line in explanation.render_text().lines() {
                println!("  {line}");
            }
            println!();
        }
    }
}

fn render_profiled(path: &str, outcome: &ProfileOutcome) {
    match outcome {
        ProfileOutcome::Skipped(reason) => println!("{path}: profile skipped: {reason}\n"),
        ProfileOutcome::Profiled(dump) => {
            let total_us = dump.profile.total_nanos() as f64 / 1_000.0;
            println!(
                "{path}: dry-run profile: {} facts, {} rounds, {} strata, {total_us:.1} us",
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
            println!();
        }
    }
}

/// Renders the collected per-file profiles as a JSON array of
/// `{"schema_version", "file", "profile"|"skipped", …}` objects.
fn profiles_json(entries: &[(String, ProfileOutcome)]) -> String {
    Json::Arr(
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
    )
    .render()
}
