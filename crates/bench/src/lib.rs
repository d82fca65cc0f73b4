//! The reproduction of the paper's evaluation (§6).
//!
//! The single measured artifact in the paper is **Table 1**: PRIMALITY
//! processing time at treewidth 3 for growing schemas, monadic datalog
//! ("MD") against MONA-style MSO model checking ("MONA", which runs out
//! of memory beyond the third row). [`table1`] reproduces the table with
//! our from-scratch substitutes: the Figure 6 solver for MD and the naive
//! MSO model checker (budgeted) for MONA.
//!
//! This crate only regenerates that table. Performance across commits is
//! measured by the repository benchmark in `perfbench/`.

use mdtw_core::{is_prime_fpt_with_td, PrimalityContext};
use mdtw_mso::{eval_unary, primality, Budget, IndVar, Mso};
use mdtw_schema::{block_tree_instance, GeneratedInstance, TABLE1_FD_COUNTS};
use std::time::Instant;

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Treewidth of the generated decomposition (always ≤ 3).
    pub tw: usize,
    /// Number of attributes.
    pub n_att: usize,
    /// Number of FDs.
    pub n_fd: usize,
    /// Number of (nice) decomposition tree nodes.
    pub n_tn: usize,
    /// Monadic-datalog decision time, microseconds.
    pub md_micros: f64,
    /// MSO model-checking time in microseconds, or `None` when the step
    /// budget (the stand-in for the paper's 512 MB) was exhausted — the
    /// "–" entries of the paper.
    pub mona_micros: Option<f64>,
}

/// The step budget granted to the MSO baseline per query. Calibrated so
/// the first rows finish and later rows exceed it, like MONA's
/// out-of-memory failures in the paper.
pub const MONA_STEP_BUDGET: u64 = 20_000_000;

/// Builds the workload of one row (`k` = number of FDs = blocks).
pub fn row_instance(k: usize) -> GeneratedInstance {
    block_tree_instance(k)
}

/// Timed MD decisions per row; the MD column reports their median.
const MD_REPETITIONS: usize = 5;

/// Measures one row. The queried attribute is `u0` (prime, so both
/// engines do full work: the certificate must be verified everywhere).
/// The MD column is the median of five timed decisions; the MONA column
/// is one budgeted run.
pub fn measure_row(k: usize, with_mona: bool) -> Table1Row {
    let inst = row_instance(k);
    let target = inst.schema.attr("u0").expect("u0 exists");

    // Monadic datalog (Figure 6) — decision, including the context setup
    // from the generated decomposition, as in the paper's measurements.
    let mut md_samples: Vec<f64> = (0..MD_REPETITIONS)
        .map(|_| {
            let md_start = Instant::now();
            let enc2 = mdtw_schema::encode_schema(&inst.schema);
            let is_prime = is_prime_fpt_with_td(enc2, inst.td.clone(), target);
            let micros = md_start.elapsed().as_secs_f64() * 1e6;
            assert!(is_prime, "u0 is prime by construction");
            micros
        })
        .collect();
    md_samples.sort_by(f64::total_cmp);
    let md_micros = md_samples[MD_REPETITIONS / 2];

    // Decomposition statistics for the #tn column.
    let ctx =
        PrimalityContext::from_parts(mdtw_schema::encode_schema(&inst.schema), inst.td.clone());
    let n_tn = ctx.nice.len();
    let tw = ctx.nice.width();

    let mona_micros = if with_mona {
        let phi: Mso = primality();
        let elem = inst.encoding.elem_of_attr(target);
        let mut budget = Budget::new(MONA_STEP_BUDGET);
        let mona_start = Instant::now();
        match eval_unary(&phi, IndVar(0), &inst.encoding.structure, elem, &mut budget) {
            Ok(answer) => {
                assert!(answer, "MSO and MD must agree");
                Some(mona_start.elapsed().as_secs_f64() * 1e6)
            }
            Err(_) => None,
        }
    } else {
        None
    };

    Table1Row {
        tw,
        n_att: inst.schema.attr_count(),
        n_fd: inst.schema.fd_count(),
        n_tn,
        md_micros,
        mona_micros,
    }
}

/// Regenerates all rows of Table 1. `mona_rows` limits how many rows the
/// exponential baseline is attempted on (it only ever completes the first
/// few, but attempting all of them costs the full budget each time).
pub fn table1(mona_rows: usize) -> Vec<Table1Row> {
    TABLE1_FD_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &k)| measure_row(k, i < mona_rows))
        .collect()
}

/// Renders rows in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("tw  #Att  #FD  #tn   MD(us)      MONA(us)\n");
    for r in rows {
        let mona = match r.mona_micros {
            Some(us) => format!("{us:.0}"),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<3} {:<5} {:<4} {:<5} {:<11.0} {}\n",
            r.tw, r.n_att, r.n_fd, r.n_tn, r.md_micros, mona
        ));
    }
    out
}

/// Renders rows as a machine-readable JSON array (hand-rolled: the build
/// environment has no serde). `mona_us` is `null` for budget-exhausted
/// rows. Consumed by cross-commit perf tracking of the `table1` bin's
/// `--json` mode.
pub fn render_table1_json(rows: &[Table1Row]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mona = match r.mona_micros {
            Some(us) => format!("{us:.1}"),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "\n  {{\"tw\": {}, \"n_att\": {}, \"n_fd\": {}, \"n_tn\": {}, \
             \"md_us\": {:.1}, \"mona_us\": {}}}",
            r.tw, r.n_att, r.n_fd, r.n_tn, r.md_micros, mona
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_measurement_smoke() {
        let row = measure_row(1, true);
        assert_eq!(row.n_att, 3);
        assert_eq!(row.n_fd, 1);
        assert!(row.tw <= 3);
        assert!(row.md_micros > 0.0);
        // Row 1 is tiny: the MSO baseline finishes.
        assert!(row.mona_micros.is_some());
    }

    #[test]
    fn render_is_well_formed() {
        let rows = vec![Table1Row {
            tw: 3,
            n_att: 3,
            n_fd: 1,
            n_tn: 10,
            md_micros: 42.0,
            mona_micros: None,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("MD(us)"));
        assert!(s.contains('-'));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let rows = vec![
            Table1Row {
                tw: 3,
                n_att: 3,
                n_fd: 1,
                n_tn: 10,
                md_micros: 42.25,
                mona_micros: Some(7.5),
            },
            Table1Row {
                tw: 3,
                n_att: 5,
                n_fd: 2,
                n_tn: 20,
                md_micros: 84.0,
                mona_micros: None,
            },
        ];
        let s = render_table1_json(&rows);
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("\"md_us\": 42.2") || s.contains("\"md_us\": 42.3"));
        assert!(s.contains("\"mona_us\": 7.5"));
        assert!(s.contains("\"mona_us\": null"));
        assert!(!s.contains("limit_checks") && !s.contains("fuel_spent"));
        assert_eq!(s.matches("{\"tw\"").count(), 2);
    }
}
