//! Standalone linting of `.dl` program files — the library half of the
//! `mdtw-lint` binary.
//!
//! The [`analysis`](crate::analysis) passes need a [`Structure`] to parse
//! against, but a lint driver has only the program text. This module
//! closes the gap: it scans the file for *pragmas* and infers a synthetic
//! extensional signature and constant domain, then runs the lenient
//! parser and the full analysis battery:
//!
//! * `%! edb name/arity` — declares an extensional predicate. Without
//!   declarations, every predicate that never appears in head position is
//!   inferred extensional, with its first-seen arity.
//! * `%! output name` — declares an output predicate, enabling the
//!   relevance passes (`MD010` unreachable predicate, `MD011` dead rule).
//!   Without output pragmas those passes are skipped.
//!
//! Both pragmas sit inside `%` comments, so the same file feeds
//! [`parse_program`] unchanged.
//!
//! [`lint_source`] returns a [`LintOutcome`]; [`diagnostic_to_json`] /
//! [`diagnostic_from_json`] and the [`json`] value type give the binary a
//! dependency-free `--json` mode that round-trips.

use crate::analysis::{analyze, AnalysisOptions, Diagnostic, LintCode, ProgramReport, Severity};
use crate::eval::EvalStats;
use crate::evaluator::{EvalError, EvalOptions, Evaluator};
use crate::limits::EvalLimits;
use crate::parser::{is_variable, parse_program, parse_program_lenient, ParseError};
use crate::profile::{EvalProfile, Explanation, ProfileDetail};
use crate::span::Span;
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use std::fmt;
use std::sync::Arc;

/// The pragma declarations scanned from a `.dl` file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintDecls {
    /// `%! edb name/arity` declarations, in file order.
    pub edb: Vec<(String, usize)>,
    /// `%! output name` declarations, in file order.
    pub outputs: Vec<String>,
}

/// What [`lint_source`] produced for one file.
#[derive(Debug)]
pub struct LintOutcome {
    /// The analysis report, when the file parsed (leniently).
    pub report: Option<ProgramReport>,
    /// The fatal parse error, when it did not.
    pub parse_error: Option<ParseError>,
    /// The pragmas found in the file.
    pub decls: LintDecls,
}

impl LintOutcome {
    /// True if the file has error-level findings (or failed to parse).
    pub fn has_errors(&self) -> bool {
        self.parse_error.is_some() || self.report.as_ref().is_some_and(ProgramReport::has_errors)
    }
}

/// A malformed `%!` pragma line, located by a real [`Span`] covering the
/// pragma text (so drivers can render it with carets — see
/// [`render_pragma_error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// Where the malformed pragma sits in the source.
    pub span: Span,
    /// What is wrong with it.
    pub message: String,
}

impl PragmaError {
    /// The 1-based source line of the pragma.
    pub fn line(&self) -> usize {
        self.span.line as usize
    }
}

impl fmt::Display for PragmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.span.line, self.message)
    }
}

/// Scans `%!` pragma lines. Only lines whose first non-whitespace
/// characters are `%!` are considered; anything else is a plain comment.
/// Byte offsets are tracked per raw line (CRLF included), so the spans on
/// errors stay caret-accurate on Windows line endings.
pub fn scan_pragmas(source: &str) -> Result<LintDecls, PragmaError> {
    let mut decls = LintDecls::default();
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
pub fn synthetic_structure(source: &str, decls: &LintDecls) -> Structure {
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

/// Lints one `.dl` source file: scans pragmas, builds the synthetic
/// structure, parses leniently (so analysis can report unsafe rules,
/// extensional heads and negative cycles as spanned `MD0xx` diagnostics
/// instead of dying on the first), and runs [`analyze`].
pub fn lint_source(source: &str) -> Result<LintOutcome, PragmaError> {
    let decls = scan_pragmas(source)?;
    let structure = synthetic_structure(source, &decls);
    match parse_program_lenient(source, &structure) {
        Err(e) => Ok(LintOutcome {
            report: None,
            parse_error: Some(e),
            decls,
        }),
        Ok(program) => {
            let mut options =
                AnalysisOptions::new().edb_signature(Arc::clone(structure.signature()));
            if !decls.outputs.is_empty() {
                options = options.outputs(decls.outputs.iter().cloned());
            }
            let report = analyze(&program, &options);
            Ok(LintOutcome {
                report: Some(report),
                parse_error: None,
                decls,
            })
        }
    }
}

/// Renders a fatal parse error rustc-style (mirrors
/// [`Diagnostic::render`], without a lint code).
pub fn render_parse_error(err: &ParseError, source: &str, path: &str) -> String {
    format!(
        "error: {}{}",
        err.message,
        crate::span::caret_snippet(err.span, Some(source), path)
    )
}

/// Renders a malformed-pragma error rustc-style, with a caret run under
/// the offending pragma line.
pub fn render_pragma_error(err: &PragmaError, source: &str, path: &str) -> String {
    format!(
        "error: malformed pragma: {}{}",
        err.message,
        crate::span::caret_snippet(err.span, Some(source), path)
    )
}

/// What `mdtw-lint --explain` produced for one file: either the
/// compiled-plan explanation or the reason it was skipped.
#[derive(Debug)]
pub enum ExplainOutcome {
    /// The program parsed strictly, stratified, and its plans compiled.
    Explained(Box<Explanation>),
    /// Explanation could not run: parse or stratification failure.
    /// Carries a human-readable reason.
    Skipped(String),
}

/// Compiles and renders the join plans of a `.dl` file for
/// `mdtw-lint --explain`: pragmas → synthetic structure → strict parse →
/// [`Evaluator::explain`] against the seeded dry-run structure (see
/// [`dry_run_structure`]), so access-path choices reflect non-degenerate
/// relation statistics.
///
/// # Errors
/// A [`PragmaError`] when a `%!` pragma is malformed (matching
/// [`lint_source`]); parse and stratification failures are reported as
/// [`ExplainOutcome::Skipped`], not errors.
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

/// What `mdtw-lint --profile` produced for one file.
#[derive(Debug)]
pub enum ProfileOutcome {
    /// The program parsed strictly and a profiled evaluation ran over the
    /// seeded dry-run structure.
    Profiled(Box<ProfileDump>),
    /// Profiling could not run: parse or stratification failure. Carries
    /// a human-readable reason.
    Skipped(String),
}

/// A profiled dry-run evaluation, for display and `--json` export.
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
/// `mdtw-lint --profile`: the program is evaluated at `detail` over the
/// seeded [`dry_run_structure`] under a fuel budget (`limits`, or a
/// built-in default of 20 million units), and the profile — per-stratum
/// timeline, per-rule breakdown, per-literal selectivities — is returned
/// for rendering. The dry-run data is synthetic; the numbers show *where* the
/// program burns work on cyclic EDB data, not production magnitudes.
///
/// # Errors
/// A [`PragmaError`] when a `%!` pragma is malformed; parse and
/// stratification failures are reported as [`ProfileOutcome::Skipped`].
pub fn profile_source_with_limits(
    source: &str,
    detail: ProfileDetail,
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
    let budget = limits
        .cloned()
        .unwrap_or_else(|| EvalLimits::new().fuel(DEFAULT_PROFILE_FUEL));
    let mut options = EvalOptions::new().profile(detail).limits(budget);
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

/// A minimal JSON value — parser and printer — so `--json` output
/// round-trips without external dependencies.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (parsed as `f64`).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object; key order is preserved.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field access.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as a string, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if it is a number.
        pub fn as_usize(&self) -> Option<usize> {
            match self {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
                _ => None,
            }
        }

        /// The array items, if it is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// Compact rendering (no insignificant whitespace).
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out);
            out
        }

        fn render_into(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(n) => {
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                }
                Json::Str(s) => render_string(s, out),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.render_into(out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render_string(k, out);
                        out.push(':');
                        v.render_into(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    fn render_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.ws();
        let value = p.value()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.bytes.get(self.pos) {
                None => Err("unexpected end of input".into()),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        self.ws();
                        items.push(self.value()?);
                        self.ws();
                        if self.eat(b']') {
                            return Ok(Json::Arr(items));
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected `,` or `]` at byte {}", self.pos));
                        }
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.ws();
                        if !self.eat(b':') {
                            return Err(format!("expected `:` at byte {}", self.pos));
                        }
                        self.ws();
                        fields.push((key, self.value()?));
                        self.ws();
                        if self.eat(b'}') {
                            return Ok(Json::Obj(fields));
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected `,` or `}}` at byte {}", self.pos));
                        }
                    }
                }
                Some(_) => self.number(),
            }
        }

        fn eat(&mut self, b: u8) -> bool {
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat(b'"') {
                return Err(format!("expected `\"` at byte {}", self.pos));
            }
            let mut out = String::new();
            loop {
                let Some(&b) = self.bytes.get(self.pos) else {
                    return Err("unterminated string".into());
                };
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(&esc) = self.bytes.get(self.pos) else {
                            return Err("unterminated escape".into());
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "invalid \\u escape")?;
                                self.pos += 4;
                                out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            }
                            _ => return Err(format!("invalid escape at byte {}", self.pos)),
                        }
                    }
                    _ => {
                        // Re-decode from the byte position: strings are
                        // UTF-8 in, UTF-8 out.
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len()
                            && self.bytes[end] != b'"'
                            && self.bytes[end] != b'\\'
                        {
                            end += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        out.push_str(chunk);
                        self.pos = end;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && matches!(
                    self.bytes[self.pos],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        }
    }
}

use json::Json;

/// Serializes a diagnostic for `--json` output. Inverse of
/// [`diagnostic_from_json`].
pub fn diagnostic_to_json(d: &Diagnostic) -> Json {
    Json::Obj(vec![
        ("code".into(), Json::Str(d.code.code().into())),
        ("severity".into(), Json::Str(d.severity.as_str().into())),
        ("message".into(), Json::Str(d.message.clone())),
        ("line".into(), Json::Num(d.span.line as f64)),
        ("col".into(), Json::Num(d.span.col as f64)),
        ("start".into(), Json::Num(d.span.start as f64)),
        ("end".into(), Json::Num(d.span.end as f64)),
        (
            "rule".into(),
            d.rule.map_or(Json::Null, |r| Json::Num(r as f64)),
        ),
    ])
}

/// Deserializes a diagnostic emitted by [`diagnostic_to_json`].
pub fn diagnostic_from_json(value: &Json) -> Option<Diagnostic> {
    let code = LintCode::from_code(value.get("code")?.as_str()?)?;
    let severity = Severity::from_str_opt(value.get("severity")?.as_str()?)?;
    let span = Span {
        start: value.get("start")?.as_usize()? as u32,
        end: value.get("end")?.as_usize()? as u32,
        line: value.get("line")?.as_usize()? as u32,
        col: value.get("col")?.as_usize()? as u32,
    };
    let rule = match value.get("rule")? {
        Json::Null => None,
        v => Some(v.as_usize()?),
    };
    Some(Diagnostic {
        code,
        severity,
        message: value.get("message")?.as_str()?.to_owned(),
        span,
        rule,
    })
}

/// Version stamp of every machine-readable envelope `mdtw-lint` emits
/// (`--json` per-file objects and the `--profile` output file). Bump it
/// when a field is renamed, removed, or changes meaning — additive
/// fields keep the version.
pub const JSON_SCHEMA_VERSION: u64 = 1;

/// The per-file object of `mdtw-lint --json`: `schema_version`
/// ([`JSON_SCHEMA_VERSION`]), `file`, `diagnostics` (via
/// [`diagnostic_to_json`]), and either a `parse_error` object or a
/// `summary` object.
pub fn file_json(path: &str, outcome: &LintOutcome) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        (
            "schema_version".into(),
            Json::Num(JSON_SCHEMA_VERSION as f64),
        ),
        ("file".into(), Json::Str(path.into())),
    ];
    if let Some(err) = &outcome.parse_error {
        fields.push((
            "parse_error".into(),
            Json::Obj(vec![
                ("message".into(), Json::Str(err.message.clone())),
                ("line".into(), Json::Num(f64::from(err.span.line))),
                ("col".into(), Json::Num(f64::from(err.span.col))),
            ]),
        ));
        fields.push(("diagnostics".into(), Json::Arr(Vec::new())));
        return Json::Obj(fields);
    }
    let report = outcome.report.as_ref().expect("no parse error => report");
    fields.push((
        "diagnostics".into(),
        Json::Arr(report.diagnostics.iter().map(diagnostic_to_json).collect()),
    ));
    fields.push((
        "summary".into(),
        Json::Obj(vec![
            ("errors".into(), Json::Num(report.error_count() as f64)),
            ("warnings".into(), Json::Num(report.warning_count() as f64)),
            ("monadic".into(), Json::Bool(report.monadic)),
            ("recursion".into(), Json::Str(report.recursion.to_string())),
            (
                "strata".into(),
                report.strata.map_or(Json::Null, |n| Json::Num(n as f64)),
            ),
        ]),
    ));
    Json::Obj(fields)
}

/// Serializes an [`EvalStats`] counter block for `--json` output; the
/// field names match the struct fields.
pub fn eval_stats_json(stats: &EvalStats) -> Json {
    Json::Obj(vec![
        ("firings".into(), Json::Num(stats.firings as f64)),
        ("facts".into(), Json::Num(stats.facts as f64)),
        ("rounds".into(), Json::Num(stats.rounds as f64)),
        ("index_probes".into(), Json::Num(stats.index_probes as f64)),
        ("full_scans".into(), Json::Num(stats.full_scans as f64)),
        (
            "tuples_considered".into(),
            Json::Num(stats.tuples_considered as f64),
        ),
        (
            "negative_checks".into(),
            Json::Num(stats.negative_checks as f64),
        ),
        ("strata".into(), Json::Num(stats.strata as f64)),
        ("limit_checks".into(), Json::Num(stats.limit_checks as f64)),
        ("fuel_spent".into(), Json::Num(stats.fuel_spent as f64)),
    ])
}

/// Serializes an [`ExplainOutcome`] for `mdtw-lint --explain --json`:
/// either the [`Explanation::to_json`] object or `{"skipped": reason}`.
pub fn explain_outcome_json(outcome: &ExplainOutcome) -> Json {
    match outcome {
        ExplainOutcome::Explained(explanation) => explanation.to_json(),
        ExplainOutcome::Skipped(reason) => {
            Json::Obj(vec![("skipped".into(), Json::Str(reason.clone()))])
        }
    }
}

/// Serializes a [`ProfileOutcome`] for `mdtw-lint --profile --json`:
/// `{"profile": …, "stats": …, "tripped": …}` (see
/// [`EvalProfile::to_json`] and [`eval_stats_json`]) or
/// `{"skipped": reason}`.
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
            &LintDecls::default(),
        );
        let sig = s.signature();
        assert!(sig.lookup("start").is_some());
        assert_eq!(sig.arity(sig.lookup("edge").unwrap()), 2);
        assert!(sig.lookup("reach").is_none(), "head predicates are IDB");
    }

    #[test]
    fn constants_populate_the_domain() {
        let s = synthetic_structure("flag(X) :- e(a, X), e(X, b_2).", &LintDecls::default());
        assert!(s.domain().lookup("a").is_some());
        assert!(s.domain().lookup("b_2").is_some());
        assert!(s.domain().lookup("X").is_none());
    }

    #[test]
    fn lint_source_end_to_end() {
        let out = lint_source(
            "%! output reach\n\
             reach(X) :- start(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             orphan(X) :- edge(X, Unused).\n",
        )
        .unwrap();
        let report = out.report.expect("parses");
        assert!(!report.has_errors());
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code.code()).collect();
        assert!(codes.contains(&"MD010"), "{codes:?}");
        assert!(codes.contains(&"MD011"), "{codes:?}");
        assert!(codes.contains(&"MD013"), "{codes:?}");
    }

    #[test]
    fn lint_source_reports_parse_errors() {
        let out = lint_source("q(X :- e(X, Y).").unwrap();
        assert!(out.report.is_none());
        let err = out.parse_error.expect("fatal parse error");
        let rendered = render_parse_error(&err, "q(X :- e(X, Y).", "bad.dl");
        assert!(rendered.contains("--> bad.dl:1:1"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn declared_edb_overrides_inference() {
        // `helper` has a rule head, but the explicit declaration wins;
        // lenient parsing then treats `helper(X) :- …` as an
        // extensional-head error the analysis reports as MD002.
        let out =
            lint_source("%! edb e/2\n%! edb helper/1\nq(X) :- helper(X).\nhelper(X) :- e(X, X).")
                .unwrap();
        let report = out.report.expect("lenient parse survives");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ExtensionalHead));
    }

    #[test]
    fn pragma_errors_carry_real_spans() {
        let source = "% ok\n  %! edb broken\nq(X) :- e(X, X).";
        let err = scan_pragmas(source).unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.span.line, 2);
        assert_eq!(err.span.col, 3);
        assert_eq!(
            &source[err.span.start as usize..err.span.end as usize],
            "%! edb broken"
        );
        let rendered = render_pragma_error(&err, source, "p.dl");
        assert!(rendered.contains("--> p.dl:2:3"), "{rendered}");
        assert!(rendered.contains("^^^^^^^^^^^^^"), "{rendered}");
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
        let rendered = render_pragma_error(&err, source, "p.dl");
        // The caret line must sit under the pragma, not drift by the
        // stripped `\r` bytes, and the echoed source line must not
        // carry the `\r`.
        assert!(rendered.contains("2 | %! output\n"), "{rendered}");
        assert!(rendered.ends_with("| ^^^^^^^^^"), "{rendered}");
    }

    #[test]
    fn json_round_trips_diagnostics() {
        let out =
            lint_source("%! output reach\nreach(X) :- start(X).\ndead(X) :- start(X).").unwrap();
        let report = out.report.unwrap();
        assert!(!report.diagnostics.is_empty());
        for d in &report.diagnostics {
            let encoded = diagnostic_to_json(d).render();
            let decoded = diagnostic_from_json(&json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(&decoded, d);
        }
    }

    #[test]
    fn json_value_round_trips() {
        let value = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\\c\nd\u{1f600}".into())),
            ("n".into(), Json::Num(42.0)),
            ("f".into(), Json::Num(1.5)),
            (
                "a".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            ("o".into(), Json::Obj(vec![])),
        ]);
        let text = value.render();
        assert_eq!(json::parse(&text).unwrap(), value);
        assert!(json::parse("{\"x\":").is_err());
        assert!(json::parse("[1,2,]").is_err());
        assert!(json::parse("01x").is_err());
    }
}
