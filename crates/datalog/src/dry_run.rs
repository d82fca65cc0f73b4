//! Dry runs of standalone `.dl` program files — the library half of the
//! `mdtw-explain` binary.
//!
//! [`Evaluator::explain`] and a profiled [`Evaluator::evaluate`] need a
//! [`Structure`], but a driver has only the program text. This module
//! closes the gap: it scans the file for *pragmas*, infers a synthetic
//! extensional signature and constant domain, parses the program
//! against it, and runs the session over a seeded
//! [`dry_run_structure`]:
//!
//! * `%! edb name/arity` — declares an extensional predicate. Without
//!   declarations, every predicate that never appears in head position is
//!   inferred extensional, with its first-seen arity.
//! * `%! output name` — declares an output predicate; the profiled run
//!   then evaluates for those outputs only, dropping every rule none of
//!   them depends on ([`EvalOptions::outputs`]).
//!
//! Both pragmas sit inside `%` comments, so the same file feeds
//! [`parse_program`] unchanged.
//!
//! [`explain_source`] and [`profile_source_with_limits`] return an
//! outcome that [`explain_outcome_json`] / [`profile_outcome_json`]
//! serialize through the [`json`](crate::json) layer.

use crate::eval::EvalStats;
use crate::evaluator::{EvalError, EvalOptions, Evaluator};
use crate::json::{eval_stats_json, Json};
use crate::limits::EvalLimits;
use crate::parser::{is_variable, parse_program};
use crate::profile::{EvalProfile, Explanation};
use crate::span::Span;
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use std::fmt;
use std::sync::Arc;

/// The pragma declarations scanned from a `.dl` file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pragmas {
    /// `%! edb name/arity` declarations, in file order.
    pub edb: Vec<(String, usize)>,
    /// `%! output name` declarations, in file order.
    pub outputs: Vec<String>,
}

/// A malformed `%!` pragma line, located by a [`Span`] covering the
/// pragma text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// Where the malformed pragma sits in the source.
    pub span: Span,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for PragmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: malformed pragma: {}", self.span, self.message)
    }
}

/// Scans `%!` pragma lines. Only lines whose first non-whitespace
/// characters are `%!` are considered; anything else is a plain comment.
/// Byte offsets are tracked per raw line (CRLF included), so the spans on
/// errors stay accurate on Windows line endings.
pub fn scan_pragmas(source: &str) -> Result<Pragmas, PragmaError> {
    let mut decls = Pragmas::default();
    let mut offset = 0usize;
    for (idx, raw) in source.split_inclusive('\n').enumerate() {
        let line_start = offset;
        offset += raw.len();
        let content = raw.strip_suffix('\n').unwrap_or(raw);
        let content = content.strip_suffix('\r').unwrap_or(content);
        let trimmed = content.trim();
        let Some(body) = trimmed.strip_prefix("%!") else {
            continue;
        };
        let lead = content.len() - content.trim_start().len();
        let span = Span {
            start: (line_start + lead) as u32,
            end: (line_start + lead + trimmed.len()) as u32,
            line: idx as u32 + 1,
            col: content[..lead].chars().count() as u32 + 1,
        };
        let err = |message: String| PragmaError { span, message };
        let mut words = body.split_whitespace();
        match words.next() {
            Some("edb") => {
                let spec = words
                    .next()
                    .ok_or_else(|| err("`%! edb` needs a `name/arity` argument".into()))?;
                let (name, arity) = spec
                    .split_once('/')
                    .ok_or_else(|| err(format!("`%! edb {spec}`: expected `name/arity`")))?;
                let arity: usize = arity
                    .parse()
                    .map_err(|_| err(format!("`%! edb {spec}`: arity is not a number")))?;
                decls.edb.push((name.to_owned(), arity));
            }
            Some("output") => {
                let name = words
                    .next()
                    .ok_or_else(|| err("`%! output` needs a predicate name".into()))?;
                decls.outputs.push(name.to_owned());
            }
            Some(other) => {
                return Err(err(format!(
                    "unknown pragma `%! {other}` (expected `edb` or `output`)"
                )))
            }
            None => return Err(err("empty `%!` pragma".into())),
        }
        if let Some(extra) = words.next() {
            return Err(err(format!("trailing `{extra}` after pragma")));
        }
    }
    Ok(decls)
}

/// A syntactic scan of the comment-stripped file: which predicates appear
/// in head position, every predicate's first-seen arity, and every
/// lowercase argument (a constant). Deliberately forgiving — real
/// syntax errors are the parser's to report.
fn scan_atoms(source: &str) -> (Vec<(String, usize)>, Vec<String>, Vec<String>) {
    let mut stripped = String::with_capacity(source.len());
    for raw in source.lines() {
        let line = match raw.find(['%', '#']) {
            Some(p) => &raw[..p],
            None => raw,
        };
        stripped.push_str(line);
        stripped.push('\n');
    }
    let mut order: Vec<String> = Vec::new();
    let mut arity: FxHashMap<String, usize> = FxHashMap::default();
    let mut heads: Vec<String> = Vec::new();
    let mut constants: Vec<String> = Vec::new();
    let mut seen_const: FxHashMap<String, ()> = FxHashMap::default();
    for statement in stripped.split('.') {
        for (piece_idx, piece) in statement.split(":-").enumerate() {
            let bytes = piece.as_bytes();
            let mut i = 0usize;
            let mut head_seen = false;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if !(c.is_ascii_alphanumeric() || c == '_') {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < bytes.len() && {
                    let c = bytes[i] as char;
                    c.is_ascii_alphanumeric() || c == '_'
                } {
                    i += 1;
                }
                let ident = &piece[start..i];
                if ident == "not" {
                    continue;
                }
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
                let (args, after) = if j < bytes.len() && bytes[j] == b'(' {
                    let mut depth = 0usize;
                    let mut k = j;
                    while k < bytes.len() {
                        match bytes[k] {
                            b'(' => depth += 1,
                            b')' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if k >= bytes.len() {
                        // Unbalanced parens — leave it to the parser.
                        (Vec::new(), bytes.len())
                    } else {
                        let inner = piece[j + 1..k].trim();
                        let args: Vec<&str> = if inner.is_empty() {
                            Vec::new()
                        } else {
                            inner.split(',').map(str::trim).collect()
                        };
                        (args, k + 1)
                    }
                } else {
                    (Vec::new(), i)
                };
                if !arity.contains_key(ident) {
                    arity.insert(ident.to_owned(), args.len());
                    order.push(ident.to_owned());
                }
                if piece_idx == 0 && !head_seen {
                    heads.push(ident.to_owned());
                    head_seen = true;
                }
                for arg in args {
                    if !arg.is_empty() && !is_variable(arg) && !seen_const.contains_key(arg) {
                        seen_const.insert(arg.to_owned(), ());
                        constants.push(arg.to_owned());
                    }
                }
                i = after;
            }
        }
    }
    let preds = order
        .into_iter()
        .map(|name| {
            let a = arity[&name];
            (name, a)
        })
        .collect();
    (preds, heads, constants)
}

/// Builds the synthetic [`Structure`] a file is parsed against: the
/// declared (or inferred) extensional predicates as empty relations, and
/// every constant of the file in the domain.
pub fn synthetic_structure(source: &str, decls: &Pragmas) -> Structure {
    let (preds, heads, constants) = scan_atoms(source);
    let mut pairs: Vec<(String, usize)> = decls.edb.clone();
    if decls.edb.is_empty() {
        for (name, arity) in preds {
            if !heads.contains(&name) {
                pairs.push((name, arity));
            }
        }
    }
    // `Signature::from_pairs` is append-only and panics on duplicates.
    let mut dedup: Vec<(String, usize)> = Vec::new();
    for (name, arity) in pairs {
        if !dedup.iter().any(|(n, _)| *n == name) {
            dedup.push((name, arity));
        }
    }
    let sig = Arc::new(Signature::from_pairs(
        dedup.iter().map(|(n, a)| (n.as_str(), *a)),
    ));
    let mut domain = Domain::new();
    for c in constants {
        domain.insert(c);
    }
    Structure::new(sig, domain)
}

/// What `mdtw-explain --explain` produced for one file: either the
/// compiled-plan explanation or the reason it was skipped.
#[derive(Debug)]
pub enum ExplainOutcome {
    /// The program parsed, stratified, and its plans compiled.
    Explained(Box<Explanation>),
    /// Explanation could not run: parse or stratification failure.
    /// Carries a human-readable reason.
    Skipped(String),
}

/// Compiles and renders the join plans of a `.dl` file for
/// `mdtw-explain --explain`: pragmas → synthetic structure → parse →
/// [`Evaluator::explain`] against the seeded dry-run structure (see
/// [`dry_run_structure`]), so access-path choices reflect non-degenerate
/// relation statistics.
///
/// # Errors
/// A [`PragmaError`] when a `%!` pragma is malformed; parse and
/// stratification failures are reported as [`ExplainOutcome::Skipped`],
/// not errors.
pub fn explain_source(source: &str) -> Result<ExplainOutcome, PragmaError> {
    let decls = scan_pragmas(source)?;
    let structure = synthetic_structure(source, &decls);
    let program = match parse_program(source, &structure) {
        Ok(p) => p,
        Err(e) => {
            return Ok(ExplainOutcome::Skipped(format!(
                "parse error at {}: {}",
                e.span, e.message
            )))
        }
    };
    let evaluator = match Evaluator::new(program) {
        Ok(ev) => ev,
        Err(e) => return Ok(ExplainOutcome::Skipped(format!("evaluation setup: {e}"))),
    };
    Ok(ExplainOutcome::Explained(Box::new(
        evaluator.explain(&dry_run_structure(&structure)),
    )))
}

/// Default fuel budget for the `--profile` dry-run evaluation when no
/// explicit limits are given: generous for every reasonable program, but
/// it still guarantees termination on adversarial inputs.
const DEFAULT_PROFILE_FUEL: u64 = 20_000_000;

/// What `mdtw-explain --profile` produced for one file.
#[derive(Debug)]
pub enum ProfileOutcome {
    /// The program parsed and a profiled evaluation ran over the seeded
    /// dry-run structure.
    Profiled(Box<ProfileDump>),
    /// Profiling could not run: parse or stratification failure, or a
    /// `%! output` naming no intensional predicate. Carries a
    /// human-readable reason.
    Skipped(String),
}

/// A profiled dry-run evaluation, for display and JSON export.
#[derive(Debug)]
pub struct ProfileDump {
    /// The collected evaluation profile.
    pub profile: EvalProfile,
    /// The evaluation's work counters.
    pub stats: EvalStats,
    /// The limit kind that tripped the dry-run budget, if one did (the
    /// profile then covers the partial evaluation).
    pub tripped: Option<String>,
}

/// Runs a profiled dry-run evaluation of a `.dl` file for
/// `mdtw-explain --profile`: the program is evaluated with profiling on,
/// for its declared outputs, over the seeded [`dry_run_structure`] under
/// a fuel budget (`limits`, or a built-in default of 20 million units),
/// and the profile — per-stratum timeline, per-rule breakdown,
/// per-literal selectivities — is returned for rendering. The dry-run
/// data is synthetic; the numbers show *where* the program burns work on
/// cyclic EDB data, not production magnitudes.
///
/// # Errors
/// A [`PragmaError`] when a `%!` pragma is malformed; parse and
/// stratification failures, and a `%! output` naming no intensional
/// predicate, are reported as [`ProfileOutcome::Skipped`].
pub fn profile_source_with_limits(
    source: &str,
    limits: Option<&EvalLimits>,
) -> Result<ProfileOutcome, PragmaError> {
    let decls = scan_pragmas(source)?;
    let structure = synthetic_structure(source, &decls);
    let program = match parse_program(source, &structure) {
        Ok(p) => p,
        Err(e) => {
            return Ok(ProfileOutcome::Skipped(format!(
                "parse error at {}: {}",
                e.span, e.message
            )))
        }
    };
    // An output naming no intensional predicate would leave every rule
    // dead, and the run would profile nothing.
    if let Some(name) = decls.outputs.iter().find(|o| program.idb(o).is_none()) {
        return Ok(ProfileOutcome::Skipped(format!(
            "`%! output {name}` names no intensional predicate"
        )));
    }
    let budget = limits
        .cloned()
        .unwrap_or_else(|| EvalLimits::new().fuel(DEFAULT_PROFILE_FUEL));
    let mut options = EvalOptions::new().profile(true).limits(budget);
    if !decls.outputs.is_empty() {
        options = options.outputs(decls.outputs.iter().cloned());
    }
    let mut evaluator = match Evaluator::with_options(program, options) {
        Ok(ev) => ev,
        Err(e) => return Ok(ProfileOutcome::Skipped(format!("evaluation setup: {e}"))),
    };
    match evaluator.evaluate(&dry_run_structure(&structure)) {
        Ok(result) => Ok(ProfileOutcome::Profiled(Box::new(ProfileDump {
            profile: result.profile.map(|p| *p).unwrap_or_default(),
            stats: result.stats,
            tripped: None,
        }))),
        Err(EvalError::LimitExceeded {
            kind,
            stats,
            partial,
        }) => Ok(ProfileOutcome::Profiled(Box::new(ProfileDump {
            profile: partial
                .and_then(|p| p.profile)
                .map(|p| *p)
                .unwrap_or_default(),
            stats,
            tripped: Some(kind.as_str().to_owned()),
        }))),
        Err(e) => Ok(ProfileOutcome::Skipped(format!("evaluation: {e}"))),
    }
}

/// The structure the `--explain` / `--profile` dry-runs evaluate over:
/// the synthetic structure's signature and domain (padded to at least
/// four elements so seeding is possible for files without constants),
/// with every extensional relation seeded with a cyclic diagonal —
/// tuples `(i, i+1, …)` modulo the domain size, one per element. Cheap,
/// deterministic, and enough to make recursive rules actually iterate,
/// so profiles show real firings and selectivities instead of an empty
/// round 0.
pub fn dry_run_structure(synthetic: &Structure) -> Structure {
    let sig = Arc::clone(synthetic.signature());
    let mut domain = synthetic.domain().clone();
    let mut pad = 0usize;
    while domain.len() < 4 {
        let name = format!("_dry{pad}");
        if domain.lookup(&name).is_none() {
            domain.insert(name);
        }
        pad += 1;
    }
    let n = domain.len();
    let mut out = Structure::new(Arc::clone(&sig), domain);
    for p in 0..sig.len() {
        let pred = PredId(p as u32);
        let arity = sig.arity(pred);
        if arity == 0 {
            continue;
        }
        let mut tuple = vec![ElemId(0); arity];
        for i in 0..n {
            for (k, slot) in tuple.iter_mut().enumerate() {
                *slot = ElemId(((i + k) % n) as u32);
            }
            out.insert(pred, &tuple);
        }
    }
    out
}

/// Serializes an [`ExplainOutcome`]: either the [`Explanation::to_json`]
/// object or `{"skipped": reason}`.
pub fn explain_outcome_json(outcome: &ExplainOutcome) -> Json {
    match outcome {
        ExplainOutcome::Explained(explanation) => explanation.to_json(),
        ExplainOutcome::Skipped(reason) => {
            Json::Obj(vec![("skipped".into(), Json::Str(reason.clone()))])
        }
    }
}

/// Serializes a [`ProfileOutcome`]: `{"profile": …, "stats": …,
/// "tripped": …}` (see [`EvalProfile::to_json`] and [`eval_stats_json`])
/// or `{"skipped": reason}`.
pub fn profile_outcome_json(outcome: &ProfileOutcome) -> Json {
    match outcome {
        ProfileOutcome::Profiled(dump) => Json::Obj(vec![
            ("profile".into(), dump.profile.to_json()),
            ("stats".into(), eval_stats_json(&dump.stats)),
            (
                "tripped".into(),
                dump.tripped
                    .as_ref()
                    .map_or(Json::Null, |k| Json::Str(k.clone())),
            ),
        ]),
        ProfileOutcome::Skipped(reason) => {
            Json::Obj(vec![("skipped".into(), Json::Str(reason.clone()))])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragmas_scanned_and_validated() {
        let decls = scan_pragmas(
            "%! edb e/2\n%! edb node/1\n%! output reach\n% plain comment\nreach(X) :- node(X).",
        )
        .unwrap();
        assert_eq!(decls.edb, vec![("e".to_owned(), 2), ("node".to_owned(), 1)]);
        assert_eq!(decls.outputs, vec!["reach".to_owned()]);
        assert!(scan_pragmas("%! edb e").is_err());
        assert!(scan_pragmas("%! edb e/x").is_err());
        assert!(scan_pragmas("%! frobnicate y").is_err());
        assert!(scan_pragmas("%! output reach extra").is_err());
    }

    #[test]
    fn edb_inferred_from_non_head_predicates() {
        let s = synthetic_structure(
            "reach(X) :- start(X).\nreach(Y) :- reach(X), edge(X, Y).",
            &Pragmas::default(),
        );
        let sig = s.signature();
        assert!(sig.lookup("start").is_some());
        assert_eq!(sig.arity(sig.lookup("edge").unwrap()), 2);
        assert!(sig.lookup("reach").is_none(), "head predicates are IDB");
    }

    #[test]
    fn constants_populate_the_domain() {
        let s = synthetic_structure("flag(X) :- e(a, X), e(X, b_2).", &Pragmas::default());
        assert!(s.domain().lookup("a").is_some());
        assert!(s.domain().lookup("b_2").is_some());
        assert!(s.domain().lookup("X").is_none());
    }

    #[test]
    fn parse_errors_skip_the_file() {
        let explained = explain_outcome_json(&explain_source("q(X :- e(X, Y).").unwrap()).render();
        assert!(
            explained.starts_with(r#"{"skipped":"parse error at 1:1: "#),
            "{explained}"
        );
        let profiled = profile_source_with_limits("q(X :- e(X, Y).", None).unwrap();
        assert_eq!(profile_outcome_json(&profiled).render(), explained);
    }

    #[test]
    fn declared_edb_overrides_inference() {
        // `helper` has a rule head, but the explicit declaration wins, so
        // the parse rejects `helper(X) :- …` as an extensional head.
        let source = "%! edb e/2\n%! edb helper/1\nq(X) :- helper(X).\nhelper(X) :- e(X, X).";
        let s = synthetic_structure(source, &scan_pragmas(source).unwrap());
        assert!(s.signature().lookup("helper").is_some());
        let ExplainOutcome::Skipped(reason) = explain_source(source).unwrap() else {
            panic!("an extensional head cannot be explained");
        };
        assert!(
            reason.contains("extensional predicate `helper`"),
            "{reason}"
        );
    }

    #[test]
    fn profile_source_runs_for_the_declared_outputs() {
        let source = "%! output reach\n\
                      reach(X) :- start(X).\n\
                      reach(Y) :- reach(X), edge(X, Y).\n\
                      orphan(X) :- edge(X, Y).\n";
        let ProfileOutcome::Profiled(dump) = profile_source_with_limits(source, None).unwrap()
        else {
            panic!("the program parses");
        };
        assert_eq!(dump.tripped, None);
        // The seeded structure has 4 elements and `start` holds each of
        // them, so `reach` holds all 4; `orphan` feeds no output and is
        // not evaluated.
        assert_eq!(dump.stats.facts, 4);
        let heads: Vec<&str> = dump.profile.strata[0]
            .rules
            .iter()
            .map(|r| r.head.as_str())
            .collect();
        assert_eq!(heads, ["reach", "reach"]);
        let tight = EvalLimits::new().fuel(1);
        let ProfileOutcome::Profiled(dump) =
            profile_source_with_limits(source, Some(&tight)).unwrap()
        else {
            panic!("the program parses");
        };
        assert_eq!(dump.tripped.as_deref(), Some("fuel"));
    }

    /// `%! output` prunes: the same program without the pragma profiles
    /// the rule no output depends on, with it that rule is gone.
    #[test]
    fn declared_outputs_profile_fewer_rules() {
        let program = "reach(X) :- start(X).\n\
                       reach(Y) :- reach(X), edge(X, Y).\n\
                       orphan(X) :- edge(X, Y).\n";
        let profiled_rules = |source: &str| {
            let ProfileOutcome::Profiled(dump) = profile_source_with_limits(source, None).unwrap()
            else {
                panic!("the program parses");
            };
            dump.profile
                .strata
                .iter()
                .map(|s| s.rules.len())
                .sum::<usize>()
        };
        assert_eq!(profiled_rules(program), 3);
        assert_eq!(profiled_rules(&format!("%! output reach\n{program}")), 2);
        // A misspelled or extensional output would prune every rule.
        for output in ["rech", "edge"] {
            let source = format!("%! output {output}\n{program}");
            let ProfileOutcome::Skipped(reason) =
                profile_source_with_limits(&source, None).unwrap()
            else {
                panic!("`%! output {output}` must skip the file");
            };
            assert!(
                reason.contains("names no intensional predicate"),
                "{reason}"
            );
        }
    }

    #[test]
    fn pragma_errors_carry_real_spans() {
        let source = "% ok\n  %! edb broken\nq(X) :- e(X, X).";
        let err = scan_pragmas(source).unwrap_err();
        assert_eq!((err.span.line, err.span.col), (2, 3));
        assert_eq!(
            &source[err.span.start as usize..err.span.end as usize],
            "%! edb broken"
        );
        assert_eq!(
            err.to_string(),
            "2:3: malformed pragma: `%! edb broken`: expected `name/arity`"
        );
        assert_eq!(explain_source(source).unwrap_err(), err);
        assert_eq!(profile_source_with_limits(source, None).unwrap_err(), err);
    }

    #[test]
    fn pragma_spans_survive_crlf_line_endings() {
        let source = "% ok\r\n%! output\r\nq(X) :- e(X, X).\r\n";
        let err = scan_pragmas(source).unwrap_err();
        assert_eq!((err.span.line, err.span.col), (2, 1));
        assert_eq!(
            &source[err.span.start as usize..err.span.end as usize],
            "%! output"
        );
    }
}
