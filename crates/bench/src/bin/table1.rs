//! Regenerates the paper's Table 1 (§6): PRIMALITY processing time,
//! monadic datalog vs MSO model checking (the MONA substitute).
//!
//! ```text
//! cargo run -p mdtw-bench --bin table1 --release [--json] [mona_rows]
//! ```
//!
//! `mona_rows` (default 4) caps how many rows the exponential baseline is
//! attempted on; rows beyond its budget print "-" like the paper's
//! out-of-memory entries. A malformed `mona_rows` is a usage error (exit
//! code 2), not a silent fallback to the default.
//!
//! `--json` emits the rows as a machine-readable JSON array (one object
//! per row) so the performance trajectory can be tracked across commits.

use std::process::ExitCode;

const USAGE: &str = "usage: table1 [--json] [mona_rows]\n\
    \n\
    mona_rows   non-negative integer (default 4): how many rows to\n\
    \x20           attempt the exponential MSO baseline on\n\
    --json      emit machine-readable JSON rows on stdout";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("table1: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            s if s.starts_with('-') => {
                return usage_error(&format!("unknown flag `{s}`"));
            }
            s => positional.push(s.to_owned()),
        }
    }
    if positional.len() > 1 {
        return usage_error(&format!(
            "expected at most one positional argument, got {}",
            positional.len()
        ));
    }
    let mona_rows: usize = match positional.first() {
        None => 4,
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                return usage_error(&format!("malformed mona_rows `{s}`"));
            }
        },
    };

    eprintln!("regenerating Table 1 (PRIMALITY, tw = 3); this runs the");
    eprintln!("exponential MSO baseline on the first {mona_rows} rows…");
    let rows = mdtw_bench::table1(mona_rows);
    if json {
        println!("{}", mdtw_bench::render_table1_json(&rows));
        return ExitCode::SUCCESS;
    }
    println!("{}", mdtw_bench::render_table1(&rows));
    let linear_check: Vec<f64> = rows.iter().map(|r| r.md_micros / r.n_tn as f64).collect();
    println!(
        "MD microseconds per tree node (flat ⇒ linear data complexity): {:?}",
        linear_check
            .iter()
            .map(|x| (x * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    ExitCode::SUCCESS
}
