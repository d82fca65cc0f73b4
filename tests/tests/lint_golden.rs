//! Golden test for the lint pipeline: the checked-in
//! `tests/fixtures/lint_demo.dl` must produce exactly the expected
//! `MD0xx` diagnostics, at the expected source locations, and the JSON
//! encoding must round-trip. The code table of the README and of the
//! `LintCode` docs must list exactly the codes of `LintCode::ALL`.

use mdtw_datalog::analysis::{LintCode, Severity};
use mdtw_datalog::lint::{
    diagnostic_from_json, diagnostic_to_json, file_json, json, lint_source, render_pragma_error,
    scan_pragmas,
};

const FIXTURE: &str = include_str!("../fixtures/lint_demo.dl");

#[test]
fn fixture_produces_exactly_the_expected_diagnostics() {
    let outcome = lint_source(FIXTURE).expect("pragmas are well-formed");
    assert!(outcome.parse_error.is_none(), "{:?}", outcome.parse_error);
    assert_eq!(outcome.decls.outputs, vec!["odd".to_owned()]);
    let report = outcome.report.expect("lenient parse succeeds");

    // Code + line + column, in report order.
    let got: Vec<(LintCode, u32, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.code, d.span.line, d.span.col))
        .collect();
    assert_eq!(
        got,
        vec![
            // even(X) :- node(X), !odd(X).  — odd ¬→ even → odd
            (LintCode::NegativeCycle, 7, 1),
            // orphan is not reachable from the declared output `odd`…
            (LintCode::UnusedPredicate, 8, 1),
            // …so its defining rule is dead…
            (LintCode::DeadRule, 8, 1),
            // …and `Unused` occurs once, in the literal `e(X, Unused)`.
            (LintCode::SingletonVariable, 8, 23),
        ],
        "{:#?}",
        report.diagnostics
    );

    assert!(report.has_errors());
    assert_eq!(report.error_count(), 1);
    assert_eq!(report.warning_count(), 3);
    assert_eq!(report.strata, None, "unstratifiable: no stratum count");
    assert!(report.monadic);

    // The singleton-variable span covers exactly the offending literal.
    let singleton = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::SingletonVariable)
        .unwrap();
    assert_eq!(
        &FIXTURE[singleton.span.start as usize..singleton.span.end as usize],
        "e(X, Unused)"
    );
}

#[test]
fn fixture_diagnostics_round_trip_through_json() {
    let outcome = lint_source(FIXTURE).unwrap();
    let report = outcome.report.unwrap();
    for d in &report.diagnostics {
        let encoded = diagnostic_to_json(d).render();
        let value = json::parse(&encoded).expect("emitted JSON parses");
        let decoded = diagnostic_from_json(&value).expect("all fields survive");
        assert_eq!(&decoded, d);
    }
}

#[test]
fn fixture_renders_with_carets() {
    let outcome = lint_source(FIXTURE).unwrap();
    let report = outcome.report.unwrap();
    let error = report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
        .unwrap();
    let rendered = error.render(Some(FIXTURE), "lint_demo.dl");
    assert!(rendered.starts_with("error[MD003]"), "{rendered}");
    assert!(rendered.contains("--> lint_demo.dl:7:1"), "{rendered}");
    assert!(
        rendered.contains("7 | even(X) :- node(X), !odd(X)."),
        "{rendered}"
    );
    assert!(
        rendered.contains("^^^^^^^^^^^^^^^^^^^^^^^^^^^"),
        "{rendered}"
    );
}

#[test]
fn file_json_matches_the_documented_shape() {
    // The object `mdtw-lint --json` emits per file, validated field by
    // field so scripts can rely on it.
    let outcome = lint_source(FIXTURE).unwrap();
    let encoded = file_json("lint_demo.dl", &outcome).render();
    let value = json::parse(&encoded).expect("emitted JSON parses");
    assert_eq!(value.get("schema_version").unwrap().as_usize(), Some(1));
    assert_eq!(value.get("file").unwrap().as_str(), Some("lint_demo.dl"));
    let diags = value.get("diagnostics").unwrap().as_arr().unwrap();
    assert_eq!(diags.len(), 4);
    for d in diags {
        for key in ["code", "severity", "message", "line", "col", "start", "end"] {
            assert!(d.get(key).is_some(), "missing `{key}` in {d:?}");
        }
        assert!(diagnostic_from_json(d).is_some(), "round-trips: {d:?}");
    }
    let summary = value.get("summary").unwrap();
    assert_eq!(summary.get("errors").unwrap().as_usize(), Some(1));
    assert_eq!(summary.get("warnings").unwrap().as_usize(), Some(3));
    assert_eq!(summary.get("monadic").unwrap(), &json::Json::Bool(true));
    assert!(summary.get("recursion").unwrap().as_str().is_some());
    assert_eq!(summary.get("strata").unwrap(), &json::Json::Null);
    assert!(value.get("parse_error").is_none());
}

/// The `MDxxx` codes of the `| MDxxx |` table rows in `text`, in order.
fn table_codes(text: &str, row_prefix: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| line.trim_start().strip_prefix(row_prefix))
        .filter_map(|rest| rest.trim_start().strip_prefix("| MD"))
        .filter_map(|rest| rest.get(..3))
        .filter(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
        .map(|digits| format!("MD{digits}"))
        .collect()
}

#[test]
fn lint_code_tables_match_the_code_list() {
    let all: Vec<String> = LintCode::ALL.iter().map(|c| c.code().to_owned()).collect();
    for code in &all {
        assert_eq!(
            LintCode::from_code(code).map(LintCode::code),
            Some(code.as_str())
        );
    }
    // The codes of the retired semantic tier (containment redundancy,
    // proven boundedness, magic-set applicability) resolve to nothing.
    for retired in [17, 23, 40, 41].map(|n| format!("MD{n:03}")) {
        assert_eq!(LintCode::from_code(&retired), None, "{retired} is retired");
    }

    // README's lint table: one row per code of `ALL`, none for any other.
    let readme = include_str!("../../README.md");
    let mut documented = table_codes(readme, "");
    documented.sort();
    let mut expected = all.clone();
    expected.sort();
    assert_eq!(documented, expected, "README lint table drifted");

    // The `LintCode` doc table in analysis.rs: same codes, same order.
    let analysis = include_str!("../../crates/datalog/src/analysis.rs");
    assert_eq!(
        table_codes(analysis, "///"),
        all,
        "LintCode doc table drifted"
    );
}

#[test]
fn multi_line_rule_caret_clamps_to_the_first_line() {
    // A rule wrapped across three lines: the whole-rule span starts on
    // line 2, and the caret run must underline only the first line of
    // the rule, not bleed into the continuation lines.
    let source = "%! edb e/2\nodd(X) :-\n    e(Y, X),\n    even(Y).\neven(X) :- e(X, _Z), !odd(X).";
    let outcome = lint_source(source).unwrap();
    let report = outcome.report.unwrap();
    let error = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::NegativeCycle)
        .expect("negative cycle over the wrapped rule");
    let rendered = error.render(Some(source), "wrapped.dl");
    let caret_line = rendered.lines().last().unwrap();
    let source_line = rendered
        .lines()
        .find(|l| l.contains("| even(X)"))
        .unwrap_or_else(|| panic!("echoed source line missing:\n{rendered}"));
    assert!(
        caret_line
            .trim_start_matches([' ', '|'])
            .chars()
            .all(|c| c == '^'),
        "{rendered}"
    );
    // Caret run never longer than the echoed source line's content.
    let content_len = source_line.split(" | ").nth(1).unwrap().chars().count();
    let caret_len = caret_line.chars().filter(|&c| c == '^').count();
    assert!(caret_len <= content_len, "{rendered}");
    assert!(caret_len >= 1, "{rendered}");
}

#[test]
fn crlf_input_keeps_lines_columns_and_carets_accurate() {
    // The same program with Windows line endings: line/col of every
    // diagnostic must match the LF version, and the rendered snippet
    // must neither echo the `\r` nor misplace the caret run.
    let lf = "%! edb e/2\n%! edb node/1\nodd(X) :- e(Y, X), node(Y).\nflag(X) :- node(X), e(X, Unused).\n";
    let crlf = lf.replace('\n', "\r\n");
    let report_lf = lint_source(lf).unwrap().report.unwrap();
    let report_crlf = lint_source(&crlf).unwrap().report.unwrap();
    let locs = |r: &mdtw_datalog::ProgramReport| {
        r.diagnostics
            .iter()
            .map(|d| (d.code, d.span.line, d.span.col))
            .collect::<Vec<_>>()
    };
    assert_eq!(locs(&report_lf), locs(&report_crlf));

    let singleton = report_crlf
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::SingletonVariable)
        .expect("`Unused` is a singleton");
    assert_eq!((singleton.span.line, singleton.span.col), (4, 21));
    assert_eq!(
        &crlf[singleton.span.start as usize..singleton.span.end as usize],
        "e(X, Unused)"
    );
    let rendered = singleton.render(Some(&crlf), "crlf.dl");
    assert!(rendered.contains("--> crlf.dl:4:21"), "{rendered}");
    assert!(
        rendered.contains("4 | flag(X) :- node(X), e(X, Unused).\n"),
        "no stray carriage return in the echoed line: {rendered:?}"
    );
    assert!(
        rendered.ends_with(&format!("| {}{}", " ".repeat(20), "^".repeat(12))),
        "caret run exactly under the literal: {rendered}"
    );
}

#[test]
fn malformed_pragmas_render_with_carets() {
    let source = "% header\r\n  %! edb broken\r\nq(X) :- e(X, X).\r\n";
    let err = scan_pragmas(source).expect_err("missing arity");
    assert_eq!(err.line(), 2);
    assert_eq!(
        &source[err.span.start as usize..err.span.end as usize],
        "%! edb broken"
    );
    let rendered = render_pragma_error(&err, source, "broken.dl");
    assert!(
        rendered.starts_with("error: malformed pragma:"),
        "{rendered}"
    );
    assert!(rendered.contains("--> broken.dl:2:3"), "{rendered}");
    assert!(rendered.contains("2 |   %! edb broken\n"), "{rendered}");
    assert!(rendered.ends_with("|   ^^^^^^^^^^^^^"), "{rendered}");
}
