//! Static analysis & lint diagnostics over datalog [`Program`]s.
//!
//! The paper's pipeline rests on *static* properties of programs —
//! monadicity, (quasi-)guardedness, safety, stratifiability. This module
//! unifies those checks (previously scattered across the parser,
//! [`stratify`](mod@crate::stratify) and the quasi-guard analyzer) with a
//! battery of lint passes behind one diagnostic framework:
//!
//! * stable codes (`MD001`, `MD010`, …) — see [`LintCode`] for the table;
//! * three severities ([`Severity::Error`] / `Warning` / `Note`);
//! * source locations ([`Span`]) whenever the program was parsed from
//!   text (hand-built programs report dummy spans).
//!
//! [`analyze`] runs every pass and returns a [`ProgramReport`]:
//! diagnostics plus the classification facts other layers consume —
//! monadicity, linear-vs-nonlinear recursion with a conservative
//! boundedness verdict, stratum count, per-rule relevance w.r.t. declared
//! output predicates and the possibly-nonempty fixpoint. The relevance
//! bitmap also drives the opt-in dead-rule pruning of
//! [`EvalOptions::prune_dead_rules`](crate::evaluator::EvalOptions::prune_dead_rules),
//! and the `mdtw-lint` driver (see [`lint`](crate::lint)) renders the
//! diagnostics with rustc-style carets.

use crate::ast::{IdbId, Literal, PredRef, Program, Rule, Term};
use crate::ground::{check_quasi_guarded, FdCatalog, QgError};
use crate::span::Span;
use crate::stratify::{stratify, StratificationError};
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::Signature;
use std::fmt;
use std::sync::Arc;

/// How serious a [`Diagnostic`] is. Ordered `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational classification (e.g. "this program is not monadic").
    Note,
    /// Probably a mistake, but the program is still evaluable.
    Warning,
    /// The program cannot be evaluated as written.
    Error,
}

impl Severity {
    /// The lowercase rustc-style label (`error` / `warning` / `note`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses the label produced by [`Severity::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The stable lint codes. Every diagnostic carries one; codes never
/// change meaning across versions (new codes are appended).
///
/// | Code  | Severity | Meaning |
/// |-------|----------|---------|
/// | MD001 | error    | unsafe rule (violates range restriction) |
/// | MD002 | error    | extensional predicate in a rule head |
/// | MD003 | error    | negation inside a recursive component (unstratifiable) |
/// | MD010 | warning  | predicate unreachable from the declared outputs |
/// | MD011 | warning  | rule irrelevant to the declared outputs (dead rule) |
/// | MD012 | warning  | intensional predicate can never derive a fact |
/// | MD013 | warning  | variable occurs only once in its rule |
/// | MD014 | warning  | intensional predicate shadows an extensional one |
/// | MD015 | warning  | rule duplicates an earlier rule |
/// | MD016 | warning  | rule subsumed by an earlier rule with fewer body literals |
/// | MD020 | note     | program is not monadic |
/// | MD021 | note     | nonlinear recursion (≥ 2 recursive body literals) |
/// | MD022 | note     | linear recursion provably bounded |
/// | MD030 | warning  | rule has no quasi-guard under the declared FDs |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// `MD001`: the rule violates the safety (range restriction)
    /// condition.
    UnsafeRule,
    /// `MD002`: an extensional predicate appears in a rule head.
    ExtensionalHead,
    /// `MD003`: a predicate is negated inside its own recursive
    /// component — the program has no stratified semantics.
    NegativeCycle,
    /// `MD010`: an intensional predicate is unreachable from the declared
    /// output predicates.
    UnusedPredicate,
    /// `MD011`: a rule derives only predicates irrelevant to the declared
    /// outputs (a *dead rule*; dropped by
    /// [`prune_dead_rules`](crate::evaluator::EvalOptions::prune_dead_rules)).
    DeadRule,
    /// `MD012`: an intensional predicate can never derive a fact (no
    /// rules, or every rule depends on an always-empty predicate).
    AlwaysEmptyPredicate,
    /// `MD013`: a variable occurs exactly once in its rule (prefix the
    /// name with `_` to mark it intentional).
    SingletonVariable,
    /// `MD014`: an intensional predicate shares its name with an
    /// extensional predicate of the input signature (only possible in
    /// hand-built programs — the parser resolves such names to the EDB).
    ShadowedPredicate,
    /// `MD015`: the rule duplicates an earlier rule (same head, same body
    /// literals up to reordering).
    DuplicateRule,
    /// `MD016`: the rule is subsumed by an earlier rule with the same
    /// head whose body literals form a strict subset of this rule's.
    SubsumedRule,
    /// `MD020`: the program is not monadic — some intensional predicate
    /// has arity ≠ 1 (the paper's tractability results are for the
    /// monadic fragment).
    NonMonadic,
    /// `MD021`: a rule has two or more recursive body literals (nonlinear
    /// recursion).
    NonLinearRecursion,
    /// `MD022`: a linear-recursive rule is conservatively provably
    /// bounded — its recursive literal repeats the head, so it derives
    /// nothing new.
    BoundedRecursion,
    /// `MD030`: a rule has no quasi-guard under the declared functional
    /// dependencies (the Theorem 4.4 pipeline would reject it).
    NoQuasiGuard,
}

impl LintCode {
    /// Every code, in numeric order.
    pub const ALL: [LintCode; 14] = [
        LintCode::UnsafeRule,
        LintCode::ExtensionalHead,
        LintCode::NegativeCycle,
        LintCode::UnusedPredicate,
        LintCode::DeadRule,
        LintCode::AlwaysEmptyPredicate,
        LintCode::SingletonVariable,
        LintCode::ShadowedPredicate,
        LintCode::DuplicateRule,
        LintCode::SubsumedRule,
        LintCode::NonMonadic,
        LintCode::NonLinearRecursion,
        LintCode::BoundedRecursion,
        LintCode::NoQuasiGuard,
    ];

    /// The stable code string, e.g. `"MD001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnsafeRule => "MD001",
            LintCode::ExtensionalHead => "MD002",
            LintCode::NegativeCycle => "MD003",
            LintCode::UnusedPredicate => "MD010",
            LintCode::DeadRule => "MD011",
            LintCode::AlwaysEmptyPredicate => "MD012",
            LintCode::SingletonVariable => "MD013",
            LintCode::ShadowedPredicate => "MD014",
            LintCode::DuplicateRule => "MD015",
            LintCode::SubsumedRule => "MD016",
            LintCode::NonMonadic => "MD020",
            LintCode::NonLinearRecursion => "MD021",
            LintCode::BoundedRecursion => "MD022",
            LintCode::NoQuasiGuard => "MD030",
        }
    }

    /// Resolves a code string (as produced by [`LintCode::code`]).
    pub fn from_code(code: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.code() == code)
    }

    /// The severity diagnostics with this code carry.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::UnsafeRule | LintCode::ExtensionalHead | LintCode::NegativeCycle => {
                Severity::Error
            }
            LintCode::UnusedPredicate
            | LintCode::DeadRule
            | LintCode::AlwaysEmptyPredicate
            | LintCode::SingletonVariable
            | LintCode::ShadowedPredicate
            | LintCode::DuplicateRule
            | LintCode::SubsumedRule
            | LintCode::NoQuasiGuard => Severity::Warning,
            LintCode::NonMonadic | LintCode::NonLinearRecursion | LintCode::BoundedRecursion => {
                Severity::Note
            }
        }
    }

    /// A one-line description of the condition the code flags.
    pub fn description(self) -> &'static str {
        match self {
            LintCode::UnsafeRule => "rule violates the safety (range restriction) condition",
            LintCode::ExtensionalHead => "extensional predicate in a rule head",
            LintCode::NegativeCycle => "negation inside a recursive component (unstratifiable)",
            LintCode::UnusedPredicate => "predicate unreachable from the declared outputs",
            LintCode::DeadRule => "rule irrelevant to the declared outputs",
            LintCode::AlwaysEmptyPredicate => "intensional predicate can never derive a fact",
            LintCode::SingletonVariable => "variable occurs only once in its rule",
            LintCode::ShadowedPredicate => "intensional predicate shadows an extensional one",
            LintCode::DuplicateRule => "rule duplicates an earlier rule",
            LintCode::SubsumedRule => "rule subsumed by an earlier rule",
            LintCode::NonMonadic => "program is not monadic",
            LintCode::NonLinearRecursion => "nonlinear recursion",
            LintCode::BoundedRecursion => "linear recursion provably bounded",
            LintCode::NoQuasiGuard => "rule has no quasi-guard under the declared FDs",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One analysis finding: a coded, located, human-readable condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// Severity (always [`LintCode::severity`] of `code`).
    pub severity: Severity,
    /// Human-readable message (no location — that is in `span`).
    pub message: String,
    /// Source location; [`Span::DUMMY`] for program-global findings or
    /// hand-built programs.
    pub span: Span,
    /// The rule (index into [`Program::rules`]) the finding anchors to,
    /// if any.
    pub rule: Option<usize>,
}

impl Diagnostic {
    fn new(code: LintCode, message: String, span: Span, rule: Option<usize>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message,
            span,
            rule,
        }
    }

    /// Renders the diagnostic rustc-style. With `source` available and a
    /// known span, includes the offending line with a caret underline:
    ///
    /// ```text
    /// warning[MD013]: variable `Y` occurs only once in the rule
    ///   --> prog.dl:3:9
    ///    |
    ///  3 | far(X) :- e(X, Y).
    ///    |           ^^^^^^^
    /// ```
    pub fn render(&self, source: Option<&str>, path: &str) -> String {
        format!(
            "{}[{}]: {}{}",
            self.severity,
            self.code,
            self.message,
            crate::span::caret_snippet(self.span, source, path)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(
                f,
                "{}[{}] at {}: {}",
                self.severity, self.code, self.span, self.message
            )
        } else {
            write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
        }
    }
}

/// Recursion shape of a program (over its positive dependency SCCs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecursionClass {
    /// No rule depends on its own strongly connected component.
    NonRecursive,
    /// Recursion present, every recursive rule has exactly one recursive
    /// body literal.
    Linear,
    /// Some rule has two or more recursive body literals.
    NonLinear,
}

impl fmt::Display for RecursionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecursionClass::NonRecursive => "non-recursive",
            RecursionClass::Linear => "linear",
            RecursionClass::NonLinear => "nonlinear",
        })
    }
}

/// What [`analyze`] should know beyond the program itself. All fields are
/// optional; passes needing an absent input are skipped.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    outputs: Option<Vec<String>>,
    edb_signature: Option<Arc<Signature>>,
    fd_catalog: Option<FdCatalog>,
}

impl AnalysisOptions {
    /// No outputs, no signature, no FD catalog: relevance (`MD010`/
    /// `MD011`), shadowing (`MD014`) and quasi-guard (`MD030`) passes are
    /// skipped.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the *output* predicates — what the program is evaluated
    /// for. Enables the relevance passes (`MD010` unreachable predicate,
    /// `MD011` dead rule). Names not naming an intensional predicate of
    /// the program are ignored.
    pub fn outputs<I, S>(mut self, outputs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.outputs = Some(outputs.into_iter().map(Into::into).collect());
        self
    }

    /// Provides the extensional signature the program will run against,
    /// enabling the shadowed-predicate pass (`MD014`).
    pub fn edb_signature(mut self, sig: Arc<Signature>) -> Self {
        self.edb_signature = Some(sig);
        self
    }

    /// Provides a functional-dependency catalog, enabling the
    /// quasi-guard pass (`MD030`, the static half of Theorem 4.4).
    pub fn fd_catalog(mut self, catalog: FdCatalog) -> Self {
        self.fd_catalog = Some(catalog);
        self
    }
}

/// Everything [`analyze`] learned about a program: the diagnostics plus
/// the classification facts other layers consume.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// All findings, in source order (unknown-span findings last).
    pub diagnostics: Vec<Diagnostic>,
    /// True iff every intensional predicate has arity 1 (the paper's
    /// monadic fragment).
    pub monadic: bool,
    /// Linear / nonlinear / non-recursive classification.
    pub recursion: RecursionClass,
    /// True if the program is conservatively *provably bounded*: it has
    /// no recursion, or every recursive rule's recursive literal repeats
    /// its head (so recursion derives nothing new). `false` means
    /// "possibly unbounded", not "proven unbounded".
    pub bounded: bool,
    /// Stratum count, when the program stratifies (`None` when `MD001`/
    /// `MD002`/`MD003` errors prevent stratification).
    pub strata: Option<usize>,
    /// Per-rule relevance w.r.t. the declared outputs (all `true` when no
    /// outputs were declared). `false` entries are exactly the rules
    /// [`prune_dead_rules`](crate::evaluator::EvalOptions::prune_dead_rules)
    /// drops.
    pub relevant_rules: Vec<bool>,
    /// Per-IDB-predicate verdict of the emptiness fixpoint: `false`
    /// means the predicate provably derives no fact on any structure.
    pub possibly_nonempty: Vec<bool>,
}

impl ProgramReport {
    /// True if any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning diagnostics.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The diagnostics carrying `code`, in report order.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }
}

/// The span of rule `i`, when the program was parsed from text.
fn rule_span(program: &Program, i: usize) -> Span {
    program.rule_spans(i).map_or(Span::DUMMY, |s| s.rule)
}

/// The head span of rule `i`.
fn head_span(program: &Program, i: usize) -> Span {
    program.rule_spans(i).map_or(Span::DUMMY, |s| s.head)
}

/// Per-rule relevance w.r.t. `outputs`: the backward closure from the
/// output predicates over positive *and* negative body dependencies (a
/// negated predicate must be fully materialized before the negation is
/// decidable, so it is just as relevant). A rule is relevant iff its head
/// predicate is; rules with extensional heads (invalid, flagged `MD002`)
/// are conservatively kept. Dropping every irrelevant rule of a
/// stratified program leaves the derived facts of all relevant
/// predicates — in particular of every output — unchanged.
pub fn relevant_rules(program: &Program, outputs: &[IdbId]) -> Vec<bool> {
    let n = program.idb_count();
    let mut relevant = vec![false; n];
    let mut queue: Vec<IdbId> = Vec::new();
    for &o in outputs {
        if o.index() < n && !relevant[o.index()] {
            relevant[o.index()] = true;
            queue.push(o);
        }
    }
    // head → body-IDB edges, walked backwards from the outputs.
    let mut deps: Vec<Vec<IdbId>> = vec![Vec::new(); n];
    for rule in &program.rules {
        if let PredRef::Idb(h) = rule.head.pred {
            for lit in &rule.body {
                if let PredRef::Idb(b) = lit.atom.pred {
                    deps[h.index()].push(b);
                }
            }
        }
    }
    while let Some(p) = queue.pop() {
        for &b in &deps[p.index()] {
            if !relevant[b.index()] {
                relevant[b.index()] = true;
                queue.push(b);
            }
        }
    }
    program
        .rules
        .iter()
        .map(|rule| match rule.head.pred {
            PredRef::Idb(h) => relevant[h.index()],
            PredRef::Edb(_) => true,
        })
        .collect()
}

/// The emptiness fixpoint: `possibly_nonempty[p]` is `false` iff `p`
/// provably derives no fact on *any* structure — it has no rules, or
/// every rule has a positive body literal on an always-empty intensional
/// predicate. Extensional relations are conservatively assumed
/// nonempty, as are negated literals.
pub fn possibly_nonempty(program: &Program) -> Vec<bool> {
    let n = program.idb_count();
    let mut nonempty = vec![false; n];
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let PredRef::Idb(h) = rule.head.pred else {
                continue;
            };
            if nonempty[h.index()] {
                continue;
            }
            let feasible = rule.body.iter().all(|lit| {
                !lit.positive
                    || match lit.atom.pred {
                        PredRef::Edb(_) => true,
                        PredRef::Idb(b) => nonempty[b.index()],
                    }
            });
            if feasible {
                nonempty[h.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    nonempty
}

/// Runs every analysis pass over `program`. See the [module docs](self)
/// for the pass battery and [`LintCode`] for the code table.
pub fn analyze(program: &Program, options: &AnalysisOptions) -> ProgramReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let n = program.idb_count();

    // --- MD001 / MD002: per-rule validity -------------------------------
    for (i, rule) in program.rules.iter().enumerate() {
        if let PredRef::Edb(p) = rule.head.pred {
            let name = options
                .edb_signature
                .as_ref()
                .map_or_else(|| format!("{p}"), |sig| sig.name(p).to_owned());
            diags.push(Diagnostic::new(
                LintCode::ExtensionalHead,
                format!("extensional predicate `{name}` in rule head"),
                head_span(program, i),
                Some(i),
            ));
        }
        if !rule.is_safe() {
            diags.push(Diagnostic::new(
                LintCode::UnsafeRule,
                "unsafe rule: every head variable and negated-literal variable must occur \
                 in a positive body literal"
                    .into(),
                rule_span(program, i),
                Some(i),
            ));
        }
    }

    // --- MD003 / stratum count ------------------------------------------
    let strata = if diags.iter().any(|d| d.severity == Severity::Error) {
        // stratify() would re-report the per-rule failures; skip it.
        None
    } else {
        match stratify(program) {
            Ok(s) => Some(s.stratum_count()),
            Err(StratificationError::NegativeCycle {
                rule,
                negated,
                cycle,
            }) => {
                diags.push(Diagnostic::new(
                    LintCode::NegativeCycle,
                    format!(
                        "negation of `{negated}` inside a recursive component (cycle: {} \
                         \u{ac}\u{2192} {})",
                        cycle.join(" \u{2192} "),
                        cycle.first().map_or("?", String::as_str),
                    ),
                    rule_span(program, rule),
                    Some(rule),
                ));
                None
            }
            Err(_) => None, // EdbHead/UnsafeRule already reported above
        }
    };

    // --- recursion classification (MD021/MD022) over positive SCCs ------
    let scc_of = idb_sccs(program);
    let mut scc_recursive = vec![false; n];
    {
        let mut scc_size: FxHashMap<usize, usize> = FxHashMap::default();
        for &scc in &scc_of {
            *scc_size.entry(scc).or_insert(0) += 1;
        }
        for rule in &program.rules {
            if let PredRef::Idb(h) = rule.head.pred {
                for lit in &rule.body {
                    if let PredRef::Idb(b) = lit.atom.pred {
                        if b == h {
                            scc_recursive[h.index()] = true;
                        }
                    }
                }
            }
        }
        for (p, scc) in scc_of.iter().enumerate() {
            if scc_size[scc] > 1 {
                scc_recursive[p] = true;
            }
        }
    }
    let mut recursion = RecursionClass::NonRecursive;
    let mut bounded = true;
    for (i, rule) in program.rules.iter().enumerate() {
        let PredRef::Idb(h) = rule.head.pred else {
            continue;
        };
        if !scc_recursive[h.index()] {
            continue;
        }
        let recursive_lits: Vec<&Literal> = rule
            .body
            .iter()
            .filter(|lit| match lit.atom.pred {
                PredRef::Idb(b) => scc_of[b.index()] == scc_of[h.index()],
                PredRef::Edb(_) => false,
            })
            .collect();
        match recursive_lits.len() {
            0 => {} // base case of a recursive predicate
            1 => {
                if recursion == RecursionClass::NonRecursive {
                    recursion = RecursionClass::Linear;
                }
                // Conservative boundedness: a recursive literal identical
                // to the head derives nothing the head doesn't already
                // state.
                if recursive_lits[0].positive && recursive_lits[0].atom == rule.head {
                    diags.push(Diagnostic::new(
                        LintCode::BoundedRecursion,
                        format!(
                            "recursive literal repeats the head `{}`; the rule derives \
                             nothing new (bounded)",
                            program.idb_names[h.index()]
                        ),
                        rule_span(program, i),
                        Some(i),
                    ));
                } else {
                    bounded = false;
                }
            }
            k => {
                recursion = RecursionClass::NonLinear;
                bounded = false;
                diags.push(Diagnostic::new(
                    LintCode::NonLinearRecursion,
                    format!(
                        "nonlinear recursion: {k} body literals recurse into the component of `{}`",
                        program.idb_names[h.index()]
                    ),
                    rule_span(program, i),
                    Some(i),
                ));
            }
        }
    }

    // --- MD020: monadicity ----------------------------------------------
    let monadic = program.idb_arities.iter().all(|&a| a == 1);
    if !monadic {
        let offenders: Vec<String> = program
            .idb_names
            .iter()
            .zip(&program.idb_arities)
            .filter(|&(_, &a)| a != 1)
            .map(|(name, a)| format!("{name}/{a}"))
            .collect();
        let span = program
            .rules
            .iter()
            .position(
                |r| matches!(r.head.pred, PredRef::Idb(h) if program.idb_arities[h.index()] != 1),
            )
            .map_or(Span::DUMMY, |i| head_span(program, i));
        diags.push(Diagnostic::new(
            LintCode::NonMonadic,
            format!(
                "program is not monadic: intensional predicates of arity \u{2260} 1: {}",
                offenders.join(", ")
            ),
            span,
            None,
        ));
    }

    // --- MD010 / MD011: relevance w.r.t. declared outputs ----------------
    let output_ids: Vec<IdbId> = options
        .outputs
        .as_ref()
        .map(|names| names.iter().filter_map(|s| program.idb(s)).collect())
        .unwrap_or_default();
    let relevant = if options.outputs.is_some() {
        let relevant = relevant_rules(program, &output_ids);
        let mut pred_relevant = vec![false; n];
        for &o in &output_ids {
            pred_relevant[o.index()] = true;
        }
        for (i, rule) in program.rules.iter().enumerate() {
            if relevant[i] {
                if let PredRef::Idb(h) = rule.head.pred {
                    pred_relevant[h.index()] = true;
                }
                for lit in &rule.body {
                    if let PredRef::Idb(b) = lit.atom.pred {
                        pred_relevant[b.index()] = true;
                    }
                }
            }
        }
        // Predicates absent from every rule (vestigial name-table
        // entries, e.g. after pruning) are invisible, not unreachable.
        let mut mentioned = vec![false; n];
        for rule in &program.rules {
            if let PredRef::Idb(h) = rule.head.pred {
                mentioned[h.index()] = true;
            }
            for lit in &rule.body {
                if let PredRef::Idb(b) = lit.atom.pred {
                    mentioned[b.index()] = true;
                }
            }
        }
        for p in 0..n {
            if !pred_relevant[p] && mentioned[p] {
                let span = program
                    .rules
                    .iter()
                    .position(|r| matches!(r.head.pred, PredRef::Idb(h) if h.index() == p))
                    .map_or(Span::DUMMY, |i| head_span(program, i));
                diags.push(Diagnostic::new(
                    LintCode::UnusedPredicate,
                    format!(
                        "predicate `{}` is unreachable from the declared outputs",
                        program.idb_names[p]
                    ),
                    span,
                    None,
                ));
            }
        }
        for (i, rule) in program.rules.iter().enumerate() {
            if !relevant[i] {
                let head = match rule.head.pred {
                    PredRef::Idb(h) => program.idb_names[h.index()].as_str(),
                    PredRef::Edb(_) => "?",
                };
                diags.push(Diagnostic::new(
                    LintCode::DeadRule,
                    format!(
                        "dead rule: `{head}` is irrelevant to the declared outputs \
                         (prunable with EvalOptions::prune_dead_rules)"
                    ),
                    rule_span(program, i),
                    Some(i),
                ));
            }
        }
        relevant
    } else {
        vec![true; program.rules.len()]
    };

    // --- MD012: always-empty predicates ----------------------------------
    let nonempty = possibly_nonempty(program);
    for (p, &ne) in nonempty.iter().enumerate() {
        if ne {
            continue;
        }
        // Irrelevant predicates were already reported as MD010.
        if options.outputs.is_some() {
            let referenced_by_relevant = program.rules.iter().enumerate().any(|(i, rule)| {
                relevant[i]
                    && rule
                        .body
                        .iter()
                        .any(|l| matches!(l.atom.pred, PredRef::Idb(b) if b.index() == p))
            });
            let is_output = output_ids.iter().any(|o| o.index() == p);
            if !referenced_by_relevant && !is_output {
                continue;
            }
        }
        let defining = program
            .rules
            .iter()
            .position(|r| matches!(r.head.pred, PredRef::Idb(h) if h.index() == p));
        let (span, detail) = match defining {
            Some(i) => (
                head_span(program, i),
                "every rule depends on an always-empty predicate",
            ),
            None => {
                let span = program
                    .rules
                    .iter()
                    .enumerate()
                    .find_map(|(i, rule)| {
                        rule.body
                            .iter()
                            .position(|l| matches!(l.atom.pred, PredRef::Idb(b) if b.index() == p))
                            .map(|j| {
                                program
                                    .rule_spans(i)
                                    .and_then(|s| s.literals.get(j).copied())
                                    .unwrap_or(Span::DUMMY)
                            })
                    })
                    .unwrap_or(Span::DUMMY);
                (span, "no rule defines it")
            }
        };
        diags.push(Diagnostic::new(
            LintCode::AlwaysEmptyPredicate,
            format!(
                "predicate `{}` can never derive a fact ({detail})",
                program.idb_names[p]
            ),
            span,
            None,
        ));
    }

    // --- MD013: singleton variables --------------------------------------
    for (i, rule) in program.rules.iter().enumerate() {
        let mut counts = vec![0usize; rule.var_count as usize];
        let tally = |counts: &mut Vec<usize>, terms: &[Term]| {
            for t in terms {
                if let Term::Var(v) = t {
                    counts[v.index()] += 1;
                }
            }
        };
        tally(&mut counts, &rule.head.terms);
        for lit in &rule.body {
            tally(&mut counts, &lit.atom.terms);
        }
        for (v, &count) in counts.iter().enumerate() {
            if count != 1 {
                continue;
            }
            let name = rule
                .var_names
                .get(v)
                .cloned()
                .unwrap_or_else(|| format!("V{v}"));
            if name.starts_with('_') {
                continue;
            }
            let span = singleton_span(program, rule, i, v);
            diags.push(Diagnostic::new(
                LintCode::SingletonVariable,
                format!(
                    "variable `{name}` occurs only once in the rule \
                     (prefix it with `_` if intentional)"
                ),
                span,
                Some(i),
            ));
        }
    }

    // --- MD014: shadowed predicates --------------------------------------
    if let Some(sig) = &options.edb_signature {
        for (p, name) in program.idb_names.iter().enumerate() {
            if sig.lookup(name).is_some() {
                let span = program
                    .rules
                    .iter()
                    .position(|r| matches!(r.head.pred, PredRef::Idb(h) if h.index() == p))
                    .map_or(Span::DUMMY, |i| head_span(program, i));
                diags.push(Diagnostic::new(
                    LintCode::ShadowedPredicate,
                    format!(
                        "intensional predicate `{name}` shadows the extensional predicate \
                         of the same name"
                    ),
                    span,
                    None,
                ));
            }
        }
    }

    // --- MD015 / MD016: duplicate and subsumed rules ---------------------
    duplicate_and_subsumed(program, &mut diags);

    // --- MD030: quasi-guard analysis -------------------------------------
    if let Some(catalog) = &options.fd_catalog {
        if !diags.iter().any(|d| d.severity == Severity::Error) {
            if let Err(QgError::NotQuasiGuarded { rule }) = check_quasi_guarded(program, catalog) {
                diags.push(Diagnostic::new(
                    LintCode::NoQuasiGuard,
                    "rule has no quasi-guard under the declared functional dependencies \
                     (the Theorem 4.4 pipeline rejects it)"
                        .into(),
                    rule_span(program, rule),
                    Some(rule),
                ));
            }
        }
    }

    // Source order, unknown spans last; ties broken by code then rule.
    diags.sort_by_key(|d| {
        (
            if d.span.is_known() {
                d.span.start
            } else {
                u32::MAX
            },
            d.code,
            d.rule,
        )
    });

    ProgramReport {
        diagnostics: diags,
        monadic,
        recursion,
        bounded,
        strata,
        relevant_rules: relevant,
        possibly_nonempty: nonempty,
    }
}

/// The span of variable `v`'s single occurrence in `rule`: the head span
/// if it occurs there, else the span of the body literal containing it.
fn singleton_span(program: &Program, rule: &Rule, rule_idx: usize, v: usize) -> Span {
    let contains = |terms: &[Term]| {
        terms
            .iter()
            .any(|t| matches!(t, Term::Var(var) if var.index() == v))
    };
    let Some(spans) = program.rule_spans(rule_idx) else {
        return Span::DUMMY;
    };
    if contains(&rule.head.terms) {
        return spans.head;
    }
    rule.body
        .iter()
        .position(|lit| contains(&lit.atom.terms))
        .and_then(|j| spans.literals.get(j).copied())
        .unwrap_or(spans.rule)
}

/// A canonical, order-insensitive key for a body literal (used by the
/// duplicate/subsumption passes). Variables keep their rule-local ids, so
/// two rules match only when their variable numbering agrees — a
/// conservative (syntactic) notion of equality.
type LitKey = (bool, bool, u32, Vec<(bool, u32)>);

fn lit_key(lit: &Literal) -> LitKey {
    let (is_idb, pred) = match lit.atom.pred {
        PredRef::Edb(p) => (false, p.0),
        PredRef::Idb(i) => (true, i.0),
    };
    let terms = lit
        .atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Var(v) => (true, v.0),
            Term::Const(c) => (false, c.0),
        })
        .collect();
    (lit.positive, is_idb, pred, terms)
}

fn duplicate_and_subsumed(program: &Program, diags: &mut Vec<Diagnostic>) {
    let keys: Vec<(LitKey, Vec<LitKey>)> = program
        .rules
        .iter()
        .map(|rule| {
            let head = lit_key(&Literal {
                atom: rule.head.clone(),
                positive: true,
            });
            let mut body: Vec<LitKey> = rule.body.iter().map(lit_key).collect();
            body.sort_unstable();
            (head, body)
        })
        .collect();

    let mut duplicate = vec![false; keys.len()];
    for j in 0..keys.len() {
        for i in 0..j {
            if duplicate[i] {
                continue;
            }
            if keys[i].0 != keys[j].0 {
                continue;
            }
            if keys[i].1 == keys[j].1 {
                duplicate[j] = true;
                diags.push(Diagnostic::new(
                    LintCode::DuplicateRule,
                    format!("rule duplicates {}", describe_rule(program, i)),
                    rule_span(program, j),
                    Some(j),
                ));
                break;
            }
        }
    }
    // Subsumption: same head, the other rule's body is a strict
    // sub-multiset — every model satisfying the wider rule's body
    // satisfies the narrower one, so the wider rule derives nothing extra.
    for j in 0..keys.len() {
        if duplicate[j] {
            continue;
        }
        for i in 0..keys.len() {
            if i == j || duplicate[i] || keys[i].0 != keys[j].0 {
                continue;
            }
            if keys[i].1.len() < keys[j].1.len() && is_sub_multiset(&keys[i].1, &keys[j].1) {
                diags.push(Diagnostic::new(
                    LintCode::SubsumedRule,
                    format!(
                        "rule is subsumed by {} (same head, body superset)",
                        describe_rule(program, i)
                    ),
                    rule_span(program, j),
                    Some(j),
                ));
                break;
            }
        }
    }
}

/// "the rule at line N" when spans are available, "rule N" otherwise.
fn describe_rule(program: &Program, i: usize) -> String {
    let span = rule_span(program, i);
    if span.is_known() {
        format!("the rule at line {}", span.line)
    } else {
        format!("rule {i}")
    }
}

/// `a ⊆ b` as multisets; both slices are sorted.
fn is_sub_multiset(a: &[LitKey], b: &[LitKey]) -> bool {
    let mut bi = 0;
    'outer: for x in a {
        while bi < b.len() {
            match b[bi].cmp(x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// SCC ids of the intensional predicates over the (positive and negative)
/// dependency graph; iterative Tarjan, ids arbitrary but consistent.
fn idb_sccs(program: &Program) -> Vec<usize> {
    let n = program.idb_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for rule in &program.rules {
        if let PredRef::Idb(h) = rule.head.pred {
            for lit in &rule.body {
                if let PredRef::Idb(b) = lit.atom.pred {
                    adj[b.index()].push(h.index());
                }
            }
        }
    }
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut scc_count = 0usize;
    let mut next = 0u32;
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        frames.push((start, 0));
        while let Some(&mut (v, ref mut slot)) = frames.last_mut() {
            if let Some(&w) = adj[v].get(*slot) {
                *slot += 1;
                if index[w] == UNVISITED {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("root on stack");
                        on_stack[w] = false;
                        scc_of[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    scc_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_program_lenient};
    use mdtw_structure::{Domain, Signature, Structure};
    use std::sync::Arc;

    fn tiny_structure() -> Structure {
        let sig = Arc::new(Signature::from_pairs([("e", 2), ("node", 1)]));
        let mut dom = Domain::new();
        let a = dom.insert("a");
        let b = dom.insert("b");
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        let node = s.signature().lookup("node").unwrap();
        s.insert(e, &[a, b]);
        s.insert(node, &[a]);
        s.insert(node, &[b]);
        s
    }

    fn codes(report: &ProgramReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let s = tiny_structure();
        let p = parse_program("reach(X) :- node(X).\nreach(Y) :- reach(X), e(X, Y).", &s).unwrap();
        let report = analyze(&p, &AnalysisOptions::new().outputs(["reach"]));
        assert_eq!(codes(&report), Vec::<&str>::new());
        assert!(report.monadic);
        assert_eq!(report.recursion, RecursionClass::Linear);
        assert!(!report.bounded);
        assert_eq!(report.strata, Some(1));
        assert_eq!(report.relevant_rules, vec![true, true]);
        assert_eq!(report.possibly_nonempty, vec![true]);
    }

    #[test]
    fn relevance_flags_unreachable_predicate_and_dead_rule() {
        let s = tiny_structure();
        let p = parse_program("out(X) :- node(X).\naux(X) :- e(X, Y), node(Y).", &s).unwrap();
        let report = analyze(&p, &AnalysisOptions::new().outputs(["out"]));
        // aux gets MD010, its rule MD011, plus Y is a singleton… no: Y
        // occurs in e(X, Y) and node(Y) — twice. X occurs twice too.
        assert_eq!(codes(&report), vec!["MD010", "MD011"]);
        assert_eq!(report.relevant_rules, vec![true, false]);
        // Without outputs the pass is skipped.
        let no_outputs = analyze(&p, &AnalysisOptions::new());
        assert_eq!(codes(&no_outputs), Vec::<&str>::new());
        assert_eq!(no_outputs.relevant_rules, vec![true, true]);
    }

    #[test]
    fn always_empty_detected_through_dependency_chain() {
        let s = tiny_structure();
        // ghost has no rules; phantom depends on ghost; out is fine.
        let p = parse_program(
            "out(X) :- node(X).\nphantom(X) :- node(X), ghost(X).\nout(X) :- phantom(X).",
            &s,
        )
        .unwrap();
        let report = analyze(&p, &AnalysisOptions::new().outputs(["out"]));
        let md012: Vec<_> = report
            .with_code(LintCode::AlwaysEmptyPredicate)
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(md012.len(), 2, "{md012:?}");
        assert!(md012.iter().any(|m| m.contains("`ghost`")));
        assert!(md012.iter().any(|m| m.contains("`phantom`")));
        assert_eq!(report.possibly_nonempty, vec![true, false, false]);
    }

    #[test]
    fn singleton_variable_flagged_with_underscore_escape() {
        let s = tiny_structure();
        let src = "q(X) :- e(X, Y).\nr(X) :- e(X, _Z).";
        let p = parse_program(src, &s).unwrap();
        let report = analyze(&p, &AnalysisOptions::new());
        assert_eq!(codes(&report), vec!["MD013"]);
        let d = &report.diagnostics[0];
        assert!(d.message.contains("`Y`"));
        assert_eq!(d.rule, Some(0));
        assert_eq!(&src[d.span.start as usize..d.span.end as usize], "e(X, Y)");
    }

    #[test]
    fn duplicate_and_subsumed_rules_flagged() {
        let s = tiny_structure();
        let p = parse_program(
            "q(X) :- e(X, Y), node(Y).\n\
             q(X) :- node(Y), e(X, Y).\n\
             q(X) :- e(X, Y), node(Y), node(X).",
            &s,
        )
        .unwrap();
        let report = analyze(&p, &AnalysisOptions::new());
        assert_eq!(codes(&report), vec!["MD015", "MD016"]);
        assert_eq!(report.diagnostics[0].rule, Some(1));
        assert!(report.diagnostics[0].message.contains("line 1"));
        assert_eq!(report.diagnostics[1].rule, Some(2));
    }

    #[test]
    fn lenient_errors_resurface_as_diagnostics() {
        let s = tiny_structure();
        let p = parse_program_lenient(
            "q(X, Y) :- e(X, X).\ne(X, Y) :- e(Y, X).\n\
             p(X) :- node(X), !w(X).\nw(X) :- node(X), !p(X).",
            &s,
        )
        .unwrap();
        let report = analyze(
            &p,
            &AnalysisOptions::new().edb_signature(Arc::clone(s.signature())),
        );
        let got = codes(&report);
        assert!(got.contains(&"MD001"), "{got:?}");
        assert!(got.contains(&"MD002"), "{got:?}");
        assert!(report.has_errors());
        assert_eq!(report.strata, None);
        // The negative cycle is only reported once MD001/MD002 are fixed.
        let p2 =
            parse_program_lenient("p(X) :- node(X), !w(X).\nw(X) :- node(X), !p(X).", &s).unwrap();
        let report2 = analyze(&p2, &AnalysisOptions::new());
        assert_eq!(codes(&report2), vec!["MD003"]);
        assert_eq!(report2.strata, None);
    }

    #[test]
    fn monadicity_and_nonlinear_recursion_notes() {
        let s = tiny_structure();
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
            &s,
        )
        .unwrap();
        let report = analyze(&p, &AnalysisOptions::new());
        assert!(!report.monadic);
        assert_eq!(report.recursion, RecursionClass::NonLinear);
        assert!(!report.bounded);
        let got = codes(&report);
        assert!(got.contains(&"MD020"), "{got:?}");
        assert!(got.contains(&"MD021"), "{got:?}");
    }

    #[test]
    fn trivially_bounded_recursion_noted() {
        let s = tiny_structure();
        let p = parse_program("q(X) :- node(X).\nq(X) :- q(X), node(X).", &s).unwrap();
        let report = analyze(&p, &AnalysisOptions::new());
        assert_eq!(report.recursion, RecursionClass::Linear);
        assert!(report.bounded);
        // The bounded rule is also subsumed by the base case — both
        // findings anchor to rule 1.
        assert_eq!(codes(&report), vec!["MD016", "MD022"]);
        assert!(report.diagnostics.iter().all(|d| d.rule == Some(1)));
    }

    #[test]
    fn shadowed_predicate_needs_signature() {
        // Hand-built: IDB named like the EDB relation `node`.
        let mut p = Program::default();
        let node = p.intern_idb("node", 1).unwrap();
        p.rules.push(Rule {
            head: crate::ast::Atom {
                pred: PredRef::Idb(node),
                terms: vec![Term::Var(crate::ast::Var(0))],
            },
            body: vec![Literal {
                atom: crate::ast::Atom {
                    pred: PredRef::Edb(mdtw_structure::PredId(0)),
                    terms: vec![Term::Var(crate::ast::Var(0))],
                },
                positive: true,
            }],
            var_count: 1,
            var_names: vec!["X".into()],
        });
        let sig = Arc::new(Signature::from_pairs([("node", 1)]));
        let with_sig = analyze(&p, &AnalysisOptions::new().edb_signature(sig));
        assert_eq!(codes(&with_sig), vec!["MD014"]);
        assert!(!with_sig.diagnostics[0].span.is_known());
        let without = analyze(&p, &AnalysisOptions::new());
        assert_eq!(codes(&without), Vec::<&str>::new());
    }

    #[test]
    fn quasi_guard_pass_flags_unguarded_rule() {
        let s = tiny_structure();
        let p = parse_program("pair(X, Y) :- node(X), node(Y).", &s).unwrap();
        let report = analyze(
            &p,
            &AnalysisOptions::new().fd_catalog(crate::ground::FdCatalog::new()),
        );
        let got = codes(&report);
        assert!(got.contains(&"MD030"), "{got:?}");
        // Without a catalog the pass is skipped.
        let skipped = analyze(&p, &AnalysisOptions::new());
        assert!(!codes(&skipped).contains(&"MD030"));
    }

    #[test]
    fn diagnostics_sorted_by_source_position() {
        let s = tiny_structure();
        let src = "dead(X) :- e(X, Y), node(Y).\nout(X) :- node(X).";
        let p = parse_program(src, &s).unwrap();
        let report = analyze(&p, &AnalysisOptions::new().outputs(["out"]));
        let starts: Vec<u32> = report
            .diagnostics
            .iter()
            .filter(|d| d.span.is_known())
            .map(|d| d.span.start)
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn render_draws_rustc_style_carets() {
        let s = tiny_structure();
        let src = "q(X) :- e(X, Y).";
        let p = parse_program(src, &s).unwrap();
        let report = analyze(&p, &AnalysisOptions::new());
        assert_eq!(codes(&report), vec!["MD013"]);
        let rendered = report.diagnostics[0].render(Some(src), "prog.dl");
        assert!(rendered.contains("warning[MD013]"), "{rendered}");
        assert!(rendered.contains("--> prog.dl:1:9"), "{rendered}");
        assert!(rendered.contains("1 | q(X) :- e(X, Y)."), "{rendered}");
        assert!(rendered.contains("|         ^^^^^^^"), "{rendered}");
    }

    #[test]
    fn code_table_is_stable_and_round_trips() {
        for code in LintCode::ALL {
            assert_eq!(LintCode::from_code(code.code()), Some(code));
            assert!(!code.description().is_empty());
        }
        assert_eq!(LintCode::from_code("MD999"), None);
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
        for sev in [Severity::Note, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::from_str_opt(sev.as_str()), Some(sev));
        }
    }
}
