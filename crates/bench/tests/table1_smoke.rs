//! Smoke coverage for the §6 harness: `cargo test` exercises
//! [`mdtw_bench::measure_row`] on the first two Table 1 rows and
//! re-checks the decision they time.

use mdtw_bench::measure_row;
use mdtw_core::is_prime_fpt_with_td;
use mdtw_schema::{block_tree_instance, encode_schema, TABLE1_FD_COUNTS};

/// The first two rows of Table 1 measure something real: `u0` is decided
/// prime by the Figure 6 solver, widths stay ≤ 3, and sizes grow.
#[test]
fn first_two_rows_decide_u0_prime() {
    let mut prev_tn = 0usize;
    for &k in &TABLE1_FD_COUNTS[..2] {
        // Independent re-check of the decision measure_row times.
        let inst = block_tree_instance(k);
        let target = inst.schema.attr("u0").expect("u0 exists");
        assert!(
            is_prime_fpt_with_td(encode_schema(&inst.schema), inst.td.clone(), target),
            "u0 must be decided prime for Table 1 row k={k}"
        );

        let row = measure_row(k, false);
        assert!(row.tw <= 3, "Table 1 is the treewidth-3 workload");
        assert_eq!(row.n_fd, k);
        assert!(row.md_micros > 0.0);
        assert!(
            row.n_tn > prev_tn,
            "decomposition size must grow down the table"
        );
        prev_tn = row.n_tn;
    }
}

/// The MSO baseline still completes on row 1 and agrees with MD (the
/// agreement assertion lives inside `measure_row`).
#[test]
fn first_row_mona_baseline_completes() {
    let row = measure_row(TABLE1_FD_COUNTS[0], true);
    assert!(row.mona_micros.is_some(), "row 1 is tiny; no budget blowup");
}
