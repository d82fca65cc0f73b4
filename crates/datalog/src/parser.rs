//! A small textual syntax for datalog programs.
//!
//! ```text
//! % transitive closure
//! path(X, Y) :- e(X, Y).
//! path(X, Z) :- path(X, Y), e(Y, Z).
//! far(X)     :- path(a, X), !e(a, X).
//! flag.
//! ```
//!
//! Conventions: identifiers starting with an upper-case letter (or `_`)
//! are variables; everything else is a constant or predicate name.
//! Negation is written `!atom`, `¬atom` or `not atom`; comments run from
//! `%` or `#` to end of line. Predicates named in the input structure's
//! signature are extensional; all others are intensional.
//!
//! Negation may be applied to intensional atoms as long as the program is
//! *stratified* (no predicate depends on its own negation); the parser
//! runs [`stratify`](crate::stratify::stratify()) and rejects programs with
//! a negative dependency cycle. Any parsed program evaluates through an
//! [`Evaluator`](crate::evaluator::Evaluator) session, which dispatches
//! multi-stratum programs to the stratified pipeline; programs whose
//! negation touches only extensional atoms remain valid inputs for the
//! semipositive engines.
//!
//! Every error carries a [`Span`] (byte range + line/col) into the source
//! text; rule-level errors (unsafe rules, negative dependency cycles)
//! point at the whole offending rule.

use crate::ast::{Atom, IdbId, Literal, PredRef, Program, Rule, Term, Var};
use crate::span::Span;
use crate::stratify::{stratify, StratificationError};
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::Structure;
use std::fmt;

/// What went wrong while parsing; every variant is reported with a
/// [`Span`] locating the offending source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(clippy::enum_variant_names)]
pub enum ParseErrorKind {
    /// Trailing statement without a terminating `.`.
    UnterminatedStatement,
    /// An atom with no text (e.g. a bare negation marker).
    EmptyAtom,
    /// `(` without a matching `)` at the end of the atom.
    MissingCloseParen,
    /// An empty argument between commas.
    EmptyArgument,
    /// A predicate or argument token with illegal characters.
    InvalidIdentifier,
    /// A constant argument not present in the structure's domain.
    UnknownConstant,
    /// A predicate used with two different arities (or against its
    /// declared extensional arity).
    ArityMismatch,
    /// An extensional predicate in a rule head.
    ExtensionalHead,
    /// A negation marker in front of a rule head.
    NegatedHead,
    /// An empty body literal between commas.
    EmptyLiteral,
    /// A rule violating the safety condition.
    UnsafeRule,
    /// The program has a negative dependency cycle.
    Unstratifiable,
}

/// A parse or resolution error with a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What kind of error this is.
    pub kind: ParseErrorKind,
    /// Where in the source it occurred.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
}

impl ParseError {
    /// 1-based line where the error occurred (0 = unknown).
    pub fn line(&self) -> usize {
        self.span.line as usize
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(f, "line {}: {}", self.span, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses `source` and resolves predicate/constant names against
/// `structure`. Returns a ready-to-evaluate [`Program`]; unsafe rules,
/// extensional heads and unstratifiable programs are rejected.
pub fn parse_program(source: &str, structure: &Structure) -> Result<Program, ParseError> {
    let map = SourceMap::new(source);
    let statements = split_statements(&map)?;
    let mut program = Program::default();
    // First pass: collect heads so intensional predicates are known even
    // when a body mentions them before their defining rule.
    for stmt in &statements {
        let (head_lo, head_hi) = head_range(stmt);
        let (negated, atom_lo) = strip_negation_range(&stmt.text, head_lo, head_hi);
        if negated {
            return Err(ParseError {
                kind: ParseErrorKind::NegatedHead,
                span: stmt.span(&map, head_lo, head_hi),
                message: format!("negated head atom `{}`", &stmt.text[atom_lo..head_hi]),
            });
        }
        let head = parse_atom(stmt, &map, atom_lo, head_hi)?;
        if structure.signature().lookup(&head.pred).is_some() {
            return Err(ParseError {
                kind: ParseErrorKind::ExtensionalHead,
                span: stmt.span(&map, head.range.0, head.range.1),
                message: format!("extensional predicate `{}` in rule head", head.pred),
            });
        }
        program
            .intern_idb(&head.pred, head.args.len())
            .map_err(|message| ParseError {
                kind: ParseErrorKind::ArityMismatch,
                span: stmt.span(&map, head.range.0, head.range.1),
                message,
            })?;
    }
    // The whole-rule spans, parallel to `program.rules`, for the
    // rule-level errors below.
    let mut rule_spans: Vec<Span> = Vec::with_capacity(statements.len());
    for stmt in &statements {
        let rule = parse_rule(stmt, &map, structure, &mut program)?;
        let span = stmt.whole_span(&map);
        if !rule.is_safe() {
            return Err(ParseError {
                kind: ParseErrorKind::UnsafeRule,
                span,
                message: "unsafe rule: every head variable and negated-literal variable \
                          must occur in a positive body literal"
                    .into(),
            });
        }
        program.rules.push(rule);
        rule_spans.push(span);
    }
    // Stratifiability is the program-level well-formedness condition (a
    // semipositive program is the single-stratum special case).
    stratify(&program).map_err(|e| {
        let (StratificationError::NegativeCycle { rule, .. }
        | StratificationError::EdbHead { rule }
        | StratificationError::UnsafeRule { rule }) = &e;
        ParseError {
            kind: ParseErrorKind::Unstratifiable,
            span: rule_spans[*rule],
            message: e.to_string(),
        }
    })?;
    Ok(program)
}

/// Byte-offset → line/col translation for one source text.
struct SourceMap<'a> {
    source: &'a str,
    /// Byte offset where each line begins; `line_starts[0] == 0`.
    line_starts: Vec<u32>,
}

impl<'a> SourceMap<'a> {
    fn new(source: &'a str) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in source.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            source,
            line_starts,
        }
    }

    /// Builds a [`Span`] for the source byte range `start..end`.
    fn span_at(&self, start: u32, end: u32) -> Span {
        let line_idx = self.line_starts.partition_point(|&s| s <= start) - 1;
        let line_start = self.line_starts[line_idx] as usize;
        let col = self.source[line_start..(start as usize).min(self.source.len())]
            .chars()
            .count() as u32
            + 1;
        Span {
            start,
            end,
            line: line_idx as u32 + 1,
            col,
        }
    }
}

/// A `.`-terminated statement: comment-stripped text with newlines
/// collapsed to spaces, plus the source byte offset of every byte of it.
struct Statement {
    text: String,
    offsets: Vec<u32>,
}

impl Statement {
    /// The span of the byte range `lo..hi` of [`Statement::text`] back in
    /// the original source (trimmed range must be non-empty; callers trim
    /// first and fall back to the whole statement for empty ranges).
    fn span(&self, map: &SourceMap<'_>, lo: usize, hi: usize) -> Span {
        let (lo, hi) = trim_range(&self.text, lo, hi);
        if lo >= hi {
            return self.whole_span(map);
        }
        map.span_at(self.offsets[lo], self.offsets[hi - 1] + 1)
    }

    fn whole_span(&self, map: &SourceMap<'_>) -> Span {
        if self.offsets.is_empty() {
            Span::DUMMY
        } else {
            map.span_at(self.offsets[0], self.offsets[self.offsets.len() - 1] + 1)
        }
    }
}

/// Narrows `lo..hi` to exclude leading/trailing whitespace of `text`.
fn trim_range(text: &str, lo: usize, hi: usize) -> (usize, usize) {
    let slice = &text[lo..hi];
    let trimmed_start = slice.len() - slice.trim_start().len();
    let trimmed = slice.trim();
    (lo + trimmed_start, lo + trimmed_start + trimmed.len())
}

/// Splits source into `.`-terminated statements, stripping comments and
/// recording the source offset of every retained byte.
fn split_statements(map: &SourceMap<'_>) -> Result<Vec<Statement>, ParseError> {
    let mut out = Vec::new();
    let mut text = String::new();
    let mut offsets: Vec<u32> = Vec::new();
    let mut flush = |text: &mut String, offsets: &mut Vec<u32>| {
        let (lo, hi) = trim_range(text, 0, text.len());
        if lo < hi {
            out.push(Statement {
                text: text[lo..hi].to_owned(),
                offsets: offsets[lo..hi].to_vec(),
            });
        }
        text.clear();
        offsets.clear();
    };
    let mut pos = 0usize; // source byte offset of the current line start
    for raw in map.source.split('\n') {
        let full_len = raw.len();
        let raw_line = raw.strip_suffix('\r').unwrap_or(raw);
        let line = match raw_line.find(['%', '#']) {
            Some(p) => &raw_line[..p],
            None => raw_line,
        };
        for (i, ch) in line.char_indices() {
            if ch == '.' {
                flush(&mut text, &mut offsets);
            } else {
                text.push(ch);
                for k in 0..ch.len_utf8() {
                    offsets.push((pos + i + k) as u32);
                }
            }
        }
        // Newlines separate tokens just like spaces do.
        text.push(' ');
        offsets.push((pos + line.len()) as u32);
        pos += full_len + 1;
    }
    if !text.trim().is_empty() {
        let leftover = Statement {
            text: std::mem::take(&mut text),
            offsets: std::mem::take(&mut offsets),
        };
        let (lo, hi) = trim_range(&leftover.text, 0, leftover.text.len());
        return Err(ParseError {
            kind: ParseErrorKind::UnterminatedStatement,
            span: leftover.span(map, lo, hi),
            message: format!(
                "statement not terminated by `.`: `{}`",
                &leftover.text[lo..hi]
            ),
        });
    }
    Ok(out)
}

/// The (untrimmed) range of the head: everything before `:-`, or the whole
/// statement for a fact.
fn head_range(stmt: &Statement) -> (usize, usize) {
    match stmt.text.find(":-") {
        Some(p) => (0, p),
        None => (0, stmt.text.len()),
    }
}

/// The range of the body (after `:-`), if any.
fn body_range(stmt: &Statement) -> Option<(usize, usize)> {
    stmt.text.find(":-").map(|p| (p + 2, stmt.text.len()))
}

/// Strips one leading negation marker (`!`, `¬`, or the `not` keyword
/// followed by whitespace) off `text[lo..hi]`; returns whether one was
/// present and the new start of the atom. `not` only counts as the
/// keyword when separated from the atom, so predicates named `not…` stay
/// parseable.
fn strip_negation_range(text: &str, lo: usize, hi: usize) -> (bool, usize) {
    let (lo, hi) = trim_range(text, lo, hi);
    let slice = &text[lo..hi];
    if let Some(rest) = slice.strip_prefix('!') {
        return (true, hi - rest.trim_start().len());
    }
    if let Some(rest) = slice.strip_prefix('¬') {
        return (true, hi - rest.trim_start().len());
    }
    if let Some(rest) = slice.strip_prefix("not") {
        if rest.starts_with(char::is_whitespace) {
            return (true, hi - rest.trim_start().len());
        }
    }
    (false, lo)
}

/// Raw, unresolved atom with the statement-text ranges of its pieces.
struct RawAtom {
    pred: String,
    args: Vec<(String, (usize, usize))>,
    /// Trimmed range of the whole atom in the statement text.
    range: (usize, usize),
}

fn parse_atom(
    stmt: &Statement,
    map: &SourceMap<'_>,
    lo: usize,
    hi: usize,
) -> Result<RawAtom, ParseError> {
    let (lo, hi) = trim_range(&stmt.text, lo, hi);
    if lo >= hi {
        return Err(ParseError {
            kind: ParseErrorKind::EmptyAtom,
            span: stmt.whole_span(map),
            message: "empty atom".into(),
        });
    }
    let text = &stmt.text[lo..hi];
    match text.find('(') {
        None => {
            validate_ident(stmt, map, lo, hi)?;
            Ok(RawAtom {
                pred: text.to_owned(),
                args: Vec::new(),
                range: (lo, hi),
            })
        }
        Some(open) => {
            if !text.ends_with(')') {
                return Err(ParseError {
                    kind: ParseErrorKind::MissingCloseParen,
                    span: stmt.span(map, lo, hi),
                    message: format!("missing `)` in `{text}`"),
                });
            }
            let open = lo + open;
            let (pred_lo, pred_hi) = trim_range(&stmt.text, lo, open);
            validate_ident(stmt, map, pred_lo, pred_hi)?;
            let mut args = Vec::new();
            for (arg_lo, arg_hi) in split_commas(&stmt.text, open + 1, hi - 1) {
                let (arg_lo, arg_hi) = trim_range(&stmt.text, arg_lo, arg_hi);
                if arg_lo >= arg_hi {
                    return Err(ParseError {
                        kind: ParseErrorKind::EmptyArgument,
                        span: stmt.span(map, lo, hi),
                        message: format!("empty argument in `{text}`"),
                    });
                }
                validate_ident(stmt, map, arg_lo, arg_hi)?;
                args.push((stmt.text[arg_lo..arg_hi].to_owned(), (arg_lo, arg_hi)));
            }
            Ok(RawAtom {
                pred: stmt.text[pred_lo..pred_hi].to_owned(),
                args,
                range: (lo, hi),
            })
        }
    }
}

fn validate_ident(
    stmt: &Statement,
    map: &SourceMap<'_>,
    lo: usize,
    hi: usize,
) -> Result<(), ParseError> {
    let s = &stmt.text[lo..hi];
    let ok = !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '\'');
    if ok {
        Ok(())
    } else {
        Err(ParseError {
            kind: ParseErrorKind::InvalidIdentifier,
            span: stmt.span(map, lo, hi),
            message: format!("invalid identifier `{s}`"),
        })
    }
}

pub(crate) fn is_variable(name: &str) -> bool {
    name.starts_with(|c: char| c.is_uppercase() || c == '_')
}

/// Splits `text[lo..hi]` on top-level commas (arguments contain commas
/// inside parentheses).
fn split_commas(text: &str, lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = lo;
    for (i, c) in text[lo..hi].char_indices() {
        let i = lo + i;
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push((start, hi));
    out
}

fn parse_rule(
    stmt: &Statement,
    map: &SourceMap<'_>,
    structure: &Structure,
    program: &mut Program,
) -> Result<Rule, ParseError> {
    let (head_lo, head_hi) = head_range(stmt);
    // Pass 1 already rejected negated heads; re-strip for the atom range.
    let (_, head_atom_lo) = strip_negation_range(&stmt.text, head_lo, head_hi);
    let head_raw = parse_atom(stmt, map, head_atom_lo, head_hi)?;

    let mut vars: FxHashMap<String, Var> = FxHashMap::default();
    let mut var_names: Vec<String> = Vec::new();
    let mut resolve_term = |name: &str, range: (usize, usize)| -> Result<Term, ParseError> {
        if is_variable(name) {
            let next = Var(vars.len() as u32);
            let v = *vars.entry(name.to_owned()).or_insert_with(|| {
                var_names.push(name.to_owned());
                next
            });
            Ok(Term::Var(v))
        } else {
            match structure.domain().lookup(name) {
                Some(c) => Ok(Term::Const(c)),
                None => Err(ParseError {
                    kind: ParseErrorKind::UnknownConstant,
                    span: stmt.span(map, range.0, range.1),
                    message: format!("unknown constant `{name}`"),
                }),
            }
        }
    };

    /// Maps an argument token and its byte range to a resolved term.
    type TermResolver<'a> = dyn FnMut(&str, (usize, usize)) -> Result<Term, ParseError> + 'a;

    let resolve_atom = |raw: &RawAtom,
                        program: &mut Program,
                        resolve_term: &mut TermResolver<'_>|
     -> Result<Atom, ParseError> {
        let terms: Result<Vec<Term>, ParseError> = raw
            .args
            .iter()
            .map(|(a, range)| resolve_term(a, *range))
            .collect();
        let terms = terms?;
        let pred = match structure.signature().lookup(&raw.pred) {
            Some(p) => {
                let arity = structure.signature().arity(p);
                if arity != terms.len() {
                    return Err(ParseError {
                        kind: ParseErrorKind::ArityMismatch,
                        span: stmt.span(map, raw.range.0, raw.range.1),
                        message: format!(
                            "`{}` has arity {arity}, used with {} arguments",
                            raw.pred,
                            terms.len()
                        ),
                    });
                }
                PredRef::Edb(p)
            }
            None => {
                let id: IdbId = program
                    .intern_idb(&raw.pred, terms.len())
                    .map_err(|message| ParseError {
                        kind: ParseErrorKind::ArityMismatch,
                        span: stmt.span(map, raw.range.0, raw.range.1),
                        message,
                    })?;
                PredRef::Idb(id)
            }
        };
        Ok(Atom { pred, terms })
    };

    let head = resolve_atom(&head_raw, program, &mut resolve_term)?;

    let mut body = Vec::new();
    if let Some((body_lo, body_hi)) = body_range(stmt) {
        for (lit_lo, lit_hi) in split_commas(&stmt.text, body_lo, body_hi) {
            let (lit_lo, lit_hi) = trim_range(&stmt.text, lit_lo, lit_hi);
            if lit_lo >= lit_hi {
                return Err(ParseError {
                    kind: ParseErrorKind::EmptyLiteral,
                    span: stmt.whole_span(map),
                    message: "empty body literal".into(),
                });
            }
            let (negated, atom_lo) = strip_negation_range(&stmt.text, lit_lo, lit_hi);
            let raw = parse_atom(stmt, map, atom_lo, lit_hi)?;
            let atom = resolve_atom(&raw, program, &mut resolve_term)?;
            body.push(Literal {
                atom,
                positive: !negated,
            });
        }
    }

    Ok(Rule {
        head,
        body,
        var_count: var_names.len() as u32,
        var_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdtw_structure::{Domain, ElemId, Signature};
    use std::sync::Arc;

    fn tiny_structure() -> Structure {
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let mut dom = Domain::new();
        let a = dom.insert("a");
        let b = dom.insert("b");
        let c = dom.insert("c");
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        s.insert(e, &[a, b]);
        s.insert(e, &[b, c]);
        s
    }

    /// The source text a span covers — the strongest check that byte
    /// offsets survived comment stripping and statement splitting.
    fn span_text(src: &str, span: Span) -> &str {
        &src[span.start as usize..span.end as usize]
    }

    #[test]
    fn parses_transitive_closure() {
        let s = tiny_structure();
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
            &s,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.idb_count(), 1);
        assert_eq!(p.rules[1].body.len(), 2);
        assert_eq!(p.rules[1].var_count, 3);
    }

    #[test]
    fn parses_negation_and_constants() {
        let s = tiny_structure();
        let p = parse_program("far(X) :- path(a, X), !e(a, X). path(X,Y) :- e(X,Y).", &s).unwrap();
        let rule = &p.rules[0];
        assert_eq!(rule.body.len(), 2);
        assert!(!rule.body[1].positive);
        assert!(matches!(rule.body[0].atom.terms[0], Term::Const(ElemId(0))));
    }

    #[test]
    fn parses_zero_ary_and_facts() {
        let s = tiny_structure();
        let p = parse_program("flag :- e(a, b). marked(a).", &s).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.idb("flag").is_some());
        assert!(p.rules[1].body.is_empty());
    }

    #[test]
    fn comments_and_multiline_statements() {
        let s = tiny_structure();
        let p = parse_program("% a comment\npath(X, Y) :-\n   e(X, Y). # trailing\n", &s).unwrap();
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn rejects_unknown_constant() {
        let src = "q(X) :- e(X, zz).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnknownConstant);
        assert!(err.message.contains("unknown constant"));
        assert_eq!(span_text(src, err.span), "zz");
        assert_eq!((err.span.line, err.span.col), (1, 14));
    }

    #[test]
    fn rejects_arity_mismatch_on_edb() {
        let src = "q(X) :- e(X).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::ArityMismatch);
        assert!(err.message.contains("arity"));
        assert_eq!(span_text(src, err.span), "e(X)");
    }

    #[test]
    fn rejects_arity_mismatch_on_idb() {
        let src = "r(X) :- e(X, Y).\nr(X, Y) :- e(X, Y).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::ArityMismatch);
        assert!(err.message.contains("arities"));
        // Reported at the second, conflicting head.
        assert_eq!(span_text(src, err.span), "r(X, Y)");
        assert_eq!((err.span.line, err.span.col), (2, 1));
    }

    #[test]
    fn rejects_extensional_head() {
        let src = "q(X) :- e(X, Y).\ne(X, Y) :- e(Y, X).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::ExtensionalHead);
        assert!(err.message.contains("extensional"));
        assert_eq!(span_text(src, err.span), "e(X, Y)");
        assert_eq!((err.span.line, err.span.col), (2, 1));
    }

    #[test]
    fn rejects_unterminated_statement() {
        let src = "q(X) :- e(X, Y)";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnterminatedStatement);
        assert!(err.message.contains("not terminated"));
        assert_eq!(span_text(src, err.span), "q(X) :- e(X, Y)");
        assert_eq!((err.span.line, err.span.col), (1, 1));
    }

    #[test]
    fn rejects_unsafe_rule() {
        let src = "p(X) :- e(X, Y).\nq(X, Y) :- e(X, X).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnsafeRule);
        assert!(err.message.contains("unsafe"));
        assert_eq!(span_text(src, err.span), "q(X, Y) :- e(X, X)");
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn multiline_rule_span_covers_both_lines() {
        // Comments are stripped and newlines collapsed while splitting
        // statements; the rule span must still cover the source bytes.
        let src = "% closure\np(X) :- e(X, Y).\nq(X, Y) :- % unsafe\n   e(X, X).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnsafeRule);
        assert_eq!(span_text(src, err.span), "q(X, Y) :- % unsafe\n   e(X, X)");
        assert_eq!((err.span.line, err.span.col), (3, 1));
    }

    #[test]
    fn rejects_empty_atom_after_negation() {
        let src = "q(X) :- e(X, Y), !.";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::EmptyAtom);
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn rejects_missing_close_paren() {
        let src = "q(X :- e(X, Y).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingCloseParen);
        assert_eq!(span_text(src, err.span), "q(X");
        assert_eq!((err.span.line, err.span.col), (1, 1));
    }

    #[test]
    fn rejects_empty_argument() {
        let src = "q(X) :- e(X, ).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::EmptyArgument);
        assert_eq!(span_text(src, err.span), "e(X, )");
        assert_eq!((err.span.line, err.span.col), (1, 9));
    }

    #[test]
    fn rejects_invalid_identifier() {
        let src = "q(X) :- e(X, a-b).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::InvalidIdentifier);
        assert_eq!(span_text(src, err.span), "a-b");
        assert_eq!((err.span.line, err.span.col), (1, 14));
    }

    #[test]
    fn rejects_empty_literal() {
        let src = "q(X) :- e(X, Y), , e(Y, X).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::EmptyLiteral);
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn accepts_stratified_negated_idb() {
        let s = tiny_structure();
        let p = parse_program("q(X) :- e(X, Y), !r(X). r(X) :- e(X, X).", &s).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(!p.rules[0].body[1].positive);
        assert!(matches!(
            p.rules[0].body[1].atom.pred,
            PredRef::Idb(IdbId(1))
        ));
        // Still not semipositive — the stratum-local invariant fails on
        // the whole program.
        assert!(p.check_semipositive().is_err());
    }

    #[test]
    fn rejects_negative_dependency_cycle() {
        let src = "p(X) :- e(X, Y), !q(X).\nq(X) :- e(X, Y), !p(X).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Unstratifiable);
        assert!(err.message.contains("recursive component"), "{err}");
        assert!(err.message.contains('p') && err.message.contains('q'));
        // The span points at the offending rule, not "line 0".
        assert!(err.span.is_known());
        assert!(span_text(src, err.span).starts_with("p(X)"));
    }

    #[test]
    fn crlf_input_keeps_error_lines_and_columns() {
        // Windows line endings: every error must report the line/column
        // of the LF version, and its span must still cover the same text.
        let s = tiny_structure();
        for lf in [
            "% c\np(X) :- e(X, Y).\nq(X) :- e(X, zz).\n",
            "p(X) :- e(X, Y).\n\nq(X, Y) :-\n  e(X, X).\n",
            "p(X) :- e(X, Y), !q(X).\nq(X) :- e(X, Y),\n  !p(X).\n",
        ] {
            let crlf = lf.replace('\n', "\r\n");
            let a = parse_program(lf, &s).unwrap_err();
            let b = parse_program(&crlf, &s).unwrap_err();
            assert_eq!(
                (a.kind, a.span.line, a.span.col),
                (b.kind, b.span.line, b.span.col)
            );
            assert_eq!(
                span_text(lf, a.span).replace('\n', ""),
                span_text(&crlf, b.span).replace("\r\n", ""),
            );
        }
    }

    #[test]
    fn unstratifiable_error_span_is_the_offending_rule() {
        // A stratified prefix, a comment, and a cycle whose first rule
        // spans two lines and sits after a multi-byte character.
        let src = "r(X) :- e(X, X).\n% café\nq(X) :- e(X, Y), !r(X). p(X) :-\n  e(X, Y), !p(X).";
        let s = tiny_structure();
        let err = parse_program(src, &s).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Unstratifiable);
        assert_eq!(span_text(src, err.span), "p(X) :-\n  e(X, Y), !p(X)");
        assert_eq!((err.span.line, err.span.col), (3, 25));
        assert_eq!(err.span.start as usize, src.find("p(X) :-").unwrap());
    }

    #[test]
    fn three_negation_spellings_parse_identically() {
        let s = tiny_structure();
        let base = "r(X) :- e(X, X). q(X) :- e(X, Y), {}r(X).";
        let programs: Vec<_> = ["!", "! ", "\u{ac}", "\u{ac} ", "not "]
            .iter()
            .map(|neg| parse_program(&base.replace("{}", neg), &s).unwrap())
            .collect();
        for p in &programs {
            assert_eq!(p.rules.len(), 2);
            assert_eq!(p.rules[1].body.len(), 2);
            assert!(!p.rules[1].body[1].positive);
            assert_eq!(p.rules[1].body[1].atom, programs[0].rules[1].body[1].atom);
        }
    }

    #[test]
    fn not_prefix_without_space_is_a_predicate_name() {
        let s = tiny_structure();
        // `notable` and `not_yet` are ordinary (positive) predicates.
        let p = parse_program("notable(X) :- e(X, Y). q(X) :- notable(X).", &s).unwrap();
        assert!(p.idb("notable").is_some());
        assert!(p.rules[1].body[0].positive);
    }

    #[test]
    fn rejects_negated_head_atom_with_span() {
        let s = tiny_structure();
        for neg in ["!", "\u{ac}", "not "] {
            let src = format!("q(X) :- e(X, Y).\n{neg}r(X) :- e(X, X).");
            let err = parse_program(&src, &s).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::NegatedHead, "spelling {neg:?}");
            assert_eq!(err.line(), 2, "spelling {neg:?}");
            assert_eq!(err.span.col, 1, "spelling {neg:?}");
            assert!(err.message.contains("negated head"), "{err}");
            assert_eq!(span_text(&src, err.span), format!("{neg}r(X)").trim_end());
        }
    }
}
