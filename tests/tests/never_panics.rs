//! Fuzz harness: the parser, the pragma scanner and the `mdtw-explain`
//! dry-run driver must never panic, whatever bytes they are fed —
//! malformed input surfaces as `ParseError` / `PragmaError` / a skipped
//! outcome, not as a process abort. Every span those paths report is
//! checked for sanity: in-bounds half-open byte ranges on char
//! boundaries, with the 1-based line/column actually matching the byte
//! offset.
//!
//! Two input families: raw byte soup (decoded lossily), and valid
//! programs put through random byte-level mutations (overwrite, insert,
//! delete, truncate) — the latter reach much deeper into the parser
//! before failing.

use mdtw_datalog::dry_run::{
    explain_source, profile_source_with_limits, scan_pragmas, ProfileOutcome,
};
use mdtw_datalog::{parse_program, EvalLimits, Span};
use mdtw_structure::{Domain, Signature, Structure};
use proptest::prelude::*;
use std::sync::Arc;

/// Work budget of each fuzzed dry-run evaluation: enough for the seed
/// programs to finish, small enough that a mutated program that blows
/// up trips it quickly.
const FUZZ_FUEL: u64 = 20_000;

/// The structure fuzz programs are parsed against: a few extensional
/// predicates over a tiny anonymous domain.
fn fuzz_structure() -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("node", 1), ("first", 1)]));
    Structure::new(sig, Domain::anonymous(4))
}

/// Asserts a reported span is sane w.r.t. the source it points into.
fn check_span(source: &str, span: Span, what: &str) {
    if !span.is_known() {
        // DUMMY spans are legal everywhere (program-global findings).
        return;
    }
    let (start, end) = (span.start as usize, span.end as usize);
    assert!(start <= end, "{what}: span start {start} > end {end}");
    assert!(
        end <= source.len(),
        "{what}: span end {end} past source len {}",
        source.len()
    );
    assert!(
        source.is_char_boundary(start) && source.is_char_boundary(end),
        "{what}: span {start}..{end} splits a UTF-8 character"
    );
    let newlines_before = source[..start].matches('\n').count();
    assert_eq!(
        span.line as usize,
        newlines_before + 1,
        "{what}: span claims line {} but {start} bytes in lie {} newlines deep",
        span.line,
        newlines_before
    );
    let line_start = source[..start].rfind('\n').map_or(0, |p| p + 1);
    let col = source[line_start..start].chars().count() + 1;
    assert_eq!(
        span.col as usize, col,
        "{what}: span claims column {} but the line offset says {col}",
        span.col
    );
}

/// Pushes one source text through every parse and dry-run entry point
/// reachable from text input, checking spans along the way. Nothing here
/// may panic.
fn exercise(source: &str) {
    let s = fuzz_structure();
    if let Err(e) = parse_program(source, &s) {
        check_span(source, e.span, "parse_program error");
    }
    let pragmas = scan_pragmas(source);
    if let Err(e) = &pragmas {
        check_span(source, e.span, "pragma error");
    }
    // The driver's surface (pragmas, synthetic structure, parse, plan
    // compilation, a budgeted profiled evaluation): must return, never
    // abort, and must agree with the pragma scan on whether it fails.
    match explain_source(source) {
        Ok(_) => assert!(pragmas.is_ok(), "explain ignored a pragma error"),
        Err(e) => assert_eq!(Err(e), pragmas, "explain pragma error"),
    }
    let limits = EvalLimits::new().fuel(FUZZ_FUEL);
    match profile_source_with_limits(source, Some(&limits)) {
        Ok(ProfileOutcome::Profiled(dump)) => {
            assert!(pragmas.is_ok(), "profile ignored a pragma error");
            if dump.tripped.is_none() {
                assert!(dump.stats.fuel_spent <= FUZZ_FUEL, "fuel overspent");
            }
        }
        Ok(ProfileOutcome::Skipped(_)) => assert!(pragmas.is_ok()),
        Err(e) => assert_eq!(Err(e), pragmas, "profile pragma error"),
    }
}

/// Valid seed programs the mutation family starts from — each exercises
/// a different surface: recursion, pragmas + outputs, negation, and
/// redundant shapes (a repeated body literal, symmetric closure).
const BASES: &[&str] = &[
    "reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).\n",
    "%! edb e/2\n%! output path\npath(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).\n",
    "q(X) :- e(X, Y), !marked(Y).\nmarked(X) :- e(X, X).\n",
    "%! edb e/2\n%! edb node/1\n%! output answer\nbig(X) :- node(X), node(X).\n\
     q(X, Y) :- e(X, Y).\nq(X, Y) :- q(Y, X).\nanswer(Y) :- q(Y, Y), big(Y).\n",
];

/// Applies byte-level mutations to a base program. Lossy decoding keeps
/// the result `str`-typed (the public API takes `&str`), while still
/// producing plenty of broken tokens, split identifiers and stray
/// replacement characters.
fn mutate(base: &str, ops: &[(u8, u16, u8)]) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for &(op, pos, byte) in ops {
        if bytes.is_empty() {
            break;
        }
        let pos = pos as usize % bytes.len();
        match op % 4 {
            0 => bytes[pos] = byte,
            1 => bytes.insert(pos, byte),
            2 => {
                bytes.remove(pos);
            }
            _ => bytes.truncate(pos),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        let source = String::from_utf8_lossy(&bytes).into_owned();
        exercise(&source);
    }

    #[test]
    fn mutated_programs_never_panic(
        base in 0usize..4,
        ops in proptest::collection::vec((0u8..4, 0u16..400, 0u8..=255), 1..12),
    ) {
        let source = mutate(BASES[base], &ops);
        exercise(&source);
    }
}

#[test]
fn hand_picked_adversarial_sources_never_panic() {
    // Regression corpus: shapes that historically break recursive-descent
    // parsers and span arithmetic — empty input, bare punctuation, CRLF,
    // multi-byte characters around token boundaries, unterminated rules,
    // pragma edge cases, and deep nesting.
    let corpus = [
        "",
        ".",
        ":-",
        ":- .",
        "p.",
        "p(",
        "p().",
        "p(X :- q(X).",
        "p(X) :- q(X)",
        "é(λ) :- ツ(λ).",
        "p(X) :-\r\n q(X).\r\n",
        "%! edb",
        "%! edb e/",
        "%! edb e/99999999999999999999",
        "%! output\n%! output\n",
        "%!",
        "p(X) :- !!q(X).",
        "p(X) :- q(X), , r(X).",
        &"p(X) :- ".repeat(200),
        &format!("p({}) :- e(X, X).", "X, ".repeat(300) + "X"),
        "\u{0}\u{1}\u{2}p(X).",
    ];
    for source in corpus {
        exercise(source);
    }
}
