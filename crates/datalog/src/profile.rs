//! Evaluation profiling and plan explanation — the observability layer.
//!
//! [`EvalStats`] answers "how much work did the evaluation do"; this
//! module answers *where*: which stratum, which rule, which body literal.
//! Two surfaces live here:
//!
//! * **Profiles.** [`EvalOptions::profile`](crate::EvalOptions::profile)
//!   switches profiling on; the engines then thread an
//!   `Option<&mut Profiler>` through their hot loops (the same
//!   zero-cost-when-off shape as the resource governor: off costs one
//!   `Option` branch per rule pass and nothing per tuple) and the
//!   evaluation returns a structured [`EvalProfile`] on
//!   [`EvalResult`](crate::EvalResult) — and on the partial result of an
//!   [`EvalError::LimitExceeded`](crate::EvalError::LimitExceeded) trip,
//!   so a blown budget says where it blew. A profile holds the
//!   per-stratum timeline, a per-rule breakdown and, per positive body
//!   literal, the *observed selectivity* (tuples enumerated vs. tuples
//!   surviving the join position), the feedstock a feedback-directed
//!   re-planner needs.
//! * **Explanations.** [`Evaluator::explain`](crate::Evaluator::explain)
//!   renders the compiled join plans — join order, scan-vs-probe access
//!   paths, chosen key positions, delta splits — as an [`Explanation`]
//!   with human-text and JSON renderings (`mdtw-explain --explain`).
//!
//! Both serialize through the dependency-free, write-only
//! [`json`](crate::json) layer.

use crate::ast::{PredRef, Program};
use crate::eval::EvalStats;
use crate::json::Json;
use crate::plan::{Access, JoinPlan, RulePlans};
use crate::stratify::Stratification;
use mdtw_structure::Structure;
use std::time::Instant;

/// Observed selectivity of one positive body literal of one rule: of the
/// `tuples_in` candidate tuples enumerated at this join position,
/// `tuples_out` unified with the current bindings and survived the
/// negative checks scheduled at the position — i.e. led to deeper join
/// work. `tuples_out / tuples_in` is the literal's observed selectivity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiteralProfile {
    /// Index of the literal in the rule body.
    pub literal: usize,
    /// Candidate tuples enumerated (scanned or probed) at this position.
    pub tuples_in: u64,
    /// Candidates that unified and passed the position's negative checks.
    pub tuples_out: u64,
}

/// Per-rule profile within one stratum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// Index of the rule in the session's program.
    pub rule: usize,
    /// The rule's head predicate name.
    pub head: String,
    /// Successful instantiations (including re-derivations).
    pub firings: usize,
    /// Candidate tuples enumerated across the rule's literal accesses.
    pub tuples_considered: usize,
    /// Secondary-index probes the rule's plans performed.
    pub index_probes: usize,
    /// Unindexed full-relation enumerations the rule's plans performed.
    pub full_scans: usize,
    /// Wall time spent in the rule's passes, in nanoseconds. Sampled:
    /// beyond a per-stratum warmup, only a fixed fraction of a rule's
    /// passes read the clock and the total is scaled by the true pass
    /// count, keeping profiling overhead flat on round-heavy fixpoints
    /// where clock reads would otherwise dominate. Counters are exact;
    /// treat `nanos` as an estimate.
    pub nanos: u64,
    /// Per-literal selectivities, one entry per *positive* body literal,
    /// in body order.
    pub literals: Vec<LiteralProfile>,
}

/// One stratum's slice of the evaluation timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StratumProfile {
    /// The stratum index in the session's stratification. Empty strata
    /// are skipped, so indices may have gaps.
    pub index: usize,
    /// Wall time spent evaluating the stratum, in nanoseconds.
    pub nanos: u64,
    /// Fixpoint rounds the stratum ran.
    pub rounds: usize,
    /// Facts the stratum derived.
    pub facts: usize,
    /// Per-rule breakdown (empty for the quasi-guarded engine, which has
    /// no per-rule pass structure).
    pub rules: Vec<RuleProfile>,
}

/// A structured evaluation profile (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalProfile {
    /// Per-stratum timeline, in evaluation order.
    pub strata: Vec<StratumProfile>,
    /// The stratum a resource limit tripped in, when the evaluation ended
    /// in [`EvalError::LimitExceeded`](crate::EvalError::LimitExceeded).
    pub trip_stratum: Option<usize>,
}

impl EvalProfile {
    /// Total wall time across strata, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.strata.iter().map(|s| s.nanos).sum()
    }

    /// The rule profiles of every stratum flattened, sorted hottest
    /// (most wall time) first — the "which rule burned the time" view.
    pub fn hottest_rules(&self) -> Vec<&RuleProfile> {
        let mut rules: Vec<&RuleProfile> =
            self.strata.iter().flat_map(|s| s.rules.iter()).collect();
        rules.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.rule.cmp(&b.rule)));
        rules
    }

    /// Serializes the profile through the dependency-free JSON layer.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "trip_stratum".into(),
                match self.trip_stratum {
                    Some(k) => Json::Num(k as f64),
                    None => Json::Null,
                },
            ),
            (
                "strata".into(),
                Json::Arr(self.strata.iter().map(stratum_to_json).collect()),
            ),
        ])
    }
}

fn stratum_to_json(s: &StratumProfile) -> Json {
    Json::Obj(vec![
        ("index".into(), Json::Num(s.index as f64)),
        ("nanos".into(), Json::Num(s.nanos as f64)),
        ("rounds".into(), Json::Num(s.rounds as f64)),
        ("facts".into(), Json::Num(s.facts as f64)),
        (
            "rules".into(),
            Json::Arr(s.rules.iter().map(rule_to_json).collect()),
        ),
    ])
}

fn rule_to_json(r: &RuleProfile) -> Json {
    Json::Obj(vec![
        ("rule".into(), Json::Num(r.rule as f64)),
        ("head".into(), Json::Str(r.head.clone())),
        ("firings".into(), Json::Num(r.firings as f64)),
        (
            "tuples_considered".into(),
            Json::Num(r.tuples_considered as f64),
        ),
        ("index_probes".into(), Json::Num(r.index_probes as f64)),
        ("full_scans".into(), Json::Num(r.full_scans as f64)),
        ("nanos".into(), Json::Num(r.nanos as f64)),
        (
            "literals".into(),
            Json::Arr(
                r.literals
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("literal".into(), Json::Num(l.literal as f64)),
                            ("tuples_in".into(), Json::Num(l.tuples_in as f64)),
                            ("tuples_out".into(), Json::Num(l.tuples_out as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// The collector threaded through the engines
// ---------------------------------------------------------------------------

/// Per-literal counters accumulated during one rule pass (the trace slice
/// the join recursion writes into, indexed by body-literal index).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LitCount {
    pub(crate) tuples_in: u64,
    pub(crate) tuples_out: u64,
}

/// One rule's accumulating counters within the current stratum.
#[derive(Debug)]
struct RuleAcc {
    rule: usize,
    head: String,
    firings: usize,
    tuples_considered: usize,
    index_probes: usize,
    full_scans: usize,
    /// Sampled wall time: the sum over the `timed` passes only —
    /// [`Profiler::end_stratum`] scales it by `passes / timed`.
    nanos: u64,
    passes: u64,
    timed: u64,
    lits: Vec<LitCount>,
    positive: Vec<bool>,
}

/// Every pass of a rule within a stratum is timed until it has run this
/// many times...
const TIMED_WARMUP: u64 = 64;

/// ...after which only one pass in this many reads the clock; the
/// sampled total is scaled back up by the true pass count when the
/// stratum closes. Clock reads cost ~30–70 ns in a VM, which dominates
/// profiling overhead on round-heavy fixpoints (thousands of one-tuple
/// passes), so per-rule wall time is a *sampled estimate* — all the
/// counters (firings, tuples, probes, selectivities) remain exact.
const TIMED_STRIDE: u64 = 8;

/// Extrapolates a sampled nano total over all `passes` of a rule.
fn scale_sampled(sampled: u64, passes: u64, timed: u64) -> u64 {
    if timed == 0 {
        0
    } else {
        (u128::from(sampled) * u128::from(passes) / u128::from(timed)) as u64
    }
}

/// The profile collector the engines thread as `Option<&mut Profiler>`.
/// `None` is the zero-cost off state; a live profiler is driven by the
/// stratum / pass hooks below and folded into an [`EvalProfile`] by
/// [`Profiler::finish`].
#[derive(Debug)]
pub(crate) struct Profiler {
    strata: Vec<StratumProfile>,
    trip_stratum: Option<usize>,
    cur_index: usize,
    cur_start: Option<Instant>,
    cur_rules: Vec<RuleAcc>,
    trace_buf: Vec<LitCount>,
}

impl Profiler {
    pub(crate) fn new() -> Self {
        Profiler {
            strata: Vec::new(),
            trip_stratum: None,
            cur_index: 0,
            cur_start: None,
            cur_rules: Vec::new(),
            trace_buf: Vec::new(),
        }
    }

    /// Opens stratum `index`, preparing one accumulator per rule of the
    /// (sub-)program about to be evaluated. `rule_ids` maps sub-program
    /// rule positions back to session-program rule indices (`None` =
    /// identity, for single-stratum runs over the full program).
    pub(crate) fn begin_stratum(
        &mut self,
        index: usize,
        program: &Program,
        rule_ids: Option<&[usize]>,
    ) {
        self.cur_index = index;
        self.cur_start = Some(Instant::now());
        self.cur_rules.clear();
        for (ri, rule) in program.rules.iter().enumerate() {
            let head = match rule.head.pred {
                PredRef::Idb(id) => program.idb_names[id.index()].clone(),
                PredRef::Edb(_) => unreachable!("stratify rejects EDB heads"),
            };
            self.cur_rules.push(RuleAcc {
                rule: rule_ids.map_or(ri, |ids| ids[ri]),
                head,
                firings: 0,
                tuples_considered: 0,
                index_probes: 0,
                full_scans: 0,
                nanos: 0,
                passes: 0,
                timed: 0,
                lits: vec![LitCount::default(); rule.body.len()],
                positive: rule.body.iter().map(|l| l.positive).collect(),
            });
        }
    }

    /// Opens stratum `index` with timeline-only accounting (no per-rule
    /// accumulators) — used by the quasi-guarded engine, which has no
    /// per-rule pass structure.
    pub(crate) fn begin_stratum_bare(&mut self, index: usize) {
        self.cur_index = index;
        self.cur_start = Some(Instant::now());
        self.cur_rules.clear();
    }

    /// Opens one rule pass and decides whether to read the clock for it:
    /// all of the first [`TIMED_WARMUP`] passes of rule `ri` in this
    /// stratum, then one in [`TIMED_STRIDE`]. The caller stops the
    /// returned timer around the pass and hands the reading to
    /// [`Profiler::end_pass`].
    pub(crate) fn pass_timer(&mut self, ri: usize) -> Option<Instant> {
        let acc = &mut self.cur_rules[ri];
        acc.passes += 1;
        if acc.passes <= TIMED_WARMUP || acc.passes.is_multiple_of(TIMED_STRIDE) {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Prepares the per-literal trace buffer for one rule pass.
    pub(crate) fn begin_pass(&mut self, body_len: usize) {
        self.trace_buf.clear();
        self.trace_buf.resize(body_len, LitCount::default());
    }

    /// The trace slice the join recursion writes per-literal counters
    /// into.
    #[inline]
    pub(crate) fn trace(&mut self) -> &mut [LitCount] {
        &mut self.trace_buf
    }

    /// Closes one rule pass: folds the [`EvalStats`] delta between
    /// `before` and `after`, the pass wall time (when this pass was one
    /// of the sampled ones — see [`Profiler::pass_timer`]), and the trace
    /// buffer into rule `ri`'s accumulator.
    pub(crate) fn end_pass(
        &mut self,
        ri: usize,
        before: &EvalStats,
        after: &EvalStats,
        nanos: Option<u64>,
    ) {
        let acc = &mut self.cur_rules[ri];
        acc.firings += after.firings - before.firings;
        acc.tuples_considered += after.tuples_considered - before.tuples_considered;
        acc.index_probes += after.index_probes - before.index_probes;
        acc.full_scans += after.full_scans - before.full_scans;
        if let Some(n) = nanos {
            acc.nanos += n;
            acc.timed += 1;
        }
        for (a, t) in acc.lits.iter_mut().zip(&self.trace_buf) {
            a.tuples_in += t.tuples_in;
            a.tuples_out += t.tuples_out;
        }
    }

    /// Closes the current stratum with its round/fact totals; `tripped`
    /// records that a resource limit tripped in it.
    pub(crate) fn end_stratum(&mut self, rounds: usize, facts: usize, tripped: bool) {
        if tripped {
            self.trip_stratum = Some(self.cur_index);
        }
        let nanos = self
            .cur_start
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        let rules = self
            .cur_rules
            .drain(..)
            .map(|acc| RuleProfile {
                rule: acc.rule,
                head: acc.head,
                firings: acc.firings,
                tuples_considered: acc.tuples_considered,
                index_probes: acc.index_probes,
                full_scans: acc.full_scans,
                nanos: scale_sampled(acc.nanos, acc.passes, acc.timed),
                literals: acc
                    .lits
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| acc.positive[i])
                    .map(|(i, l)| LiteralProfile {
                        literal: i,
                        tuples_in: l.tuples_in,
                        tuples_out: l.tuples_out,
                    })
                    .collect(),
            })
            .collect();
        self.strata.push(StratumProfile {
            index: self.cur_index,
            nanos,
            rounds,
            facts,
            rules,
        });
    }

    /// The collected profile.
    pub(crate) fn finish(self) -> EvalProfile {
        EvalProfile {
            strata: self.strata,
            trip_stratum: self.trip_stratum,
        }
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN: compiled-plan rendering
// ---------------------------------------------------------------------------

/// One step of an explained join plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepExplanation {
    /// Index of the positive literal in the rule body.
    pub literal: usize,
    /// The literal's predicate name.
    pub pred: String,
    /// `"scan"` or `"probe"`.
    pub access: String,
    /// The probed key positions (empty for scans).
    pub key_positions: Vec<usize>,
    /// Negative body literals checked right after this step matches.
    pub negatives_after: Vec<usize>,
}

/// An explained join plan: execution-ordered steps plus the variable-free
/// negative literals checked before any step runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplanation {
    /// Steps in execution order.
    pub steps: Vec<StepExplanation>,
    /// Negative literals without variables, checked up front.
    pub ground_negatives: Vec<usize>,
}

/// One rule's explained plans: the round-0 base plan and one delta split
/// per positive intensional body literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleExplanation {
    /// Index of the rule in the session's program.
    pub rule: usize,
    /// The rule rendered back to datalog text.
    pub text: String,
    /// The unconstrained round-0 plan.
    pub base: PlanExplanation,
    /// `(delta body-literal index, plan)` pairs — the semi-naive splits.
    pub delta: Vec<(usize, PlanExplanation)>,
}

/// A program's compiled evaluation strategy, grouped by stratum (see
/// [`Evaluator::explain`](crate::Evaluator::explain)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// The engine the session dispatches to (display form).
    pub engine: String,
    /// Per-stratum rule plans, in evaluation order.
    pub strata: Vec<StratumExplanation>,
}

/// The rules (with plans) evaluated in one stratum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumExplanation {
    /// The stratum index.
    pub index: usize,
    /// The stratum's rules with their compiled plans.
    pub rules: Vec<RuleExplanation>,
}

impl Explanation {
    /// Renders the explanation as human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "engine: {}", self.engine);
        for stratum in &self.strata {
            let _ = writeln!(out, "stratum {}:", stratum.index);
            for rule in &stratum.rules {
                let _ = writeln!(out, "  rule {}: {}", rule.rule, rule.text);
                let _ = writeln!(out, "    base:  {}", render_plan(&rule.base));
                for (dpos, plan) in &rule.delta {
                    let _ = writeln!(out, "    delta@{dpos}: {}", render_plan(plan));
                }
            }
        }
        out
    }

    /// Serializes the explanation through the dependency-free JSON layer.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::Str(self.engine.clone())),
            (
                "strata".into(),
                Json::Arr(
                    self.strata
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("index".into(), Json::Num(s.index as f64)),
                                (
                                    "rules".into(),
                                    Json::Arr(s.rules.iter().map(rule_explanation_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn render_plan(plan: &PlanExplanation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if !plan.ground_negatives.is_empty() {
        let _ = write!(out, "check ground !{:?}; ", plan.ground_negatives);
    }
    for (i, step) in plan.steps.iter().enumerate() {
        if i > 0 {
            out.push_str(" -> ");
        }
        if step.access == "probe" {
            let _ = write!(out, "probe {}[{:?}]", step.pred, step.key_positions);
        } else {
            let _ = write!(out, "scan {}", step.pred);
        }
        if !step.negatives_after.is_empty() {
            let _ = write!(out, " then !{:?}", step.negatives_after);
        }
    }
    if plan.steps.is_empty() {
        out.push_str("(fact: no body steps)");
    }
    out
}

fn rule_explanation_json(rule: &RuleExplanation) -> Json {
    Json::Obj(vec![
        ("rule".into(), Json::Num(rule.rule as f64)),
        ("text".into(), Json::Str(rule.text.clone())),
        ("base".into(), plan_explanation_json(&rule.base)),
        (
            "delta".into(),
            Json::Arr(
                rule.delta
                    .iter()
                    .map(|(dpos, plan)| {
                        Json::Obj(vec![
                            ("delta_literal".into(), Json::Num(*dpos as f64)),
                            ("plan".into(), plan_explanation_json(plan)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn plan_explanation_json(plan: &PlanExplanation) -> Json {
    let nums = |v: &[usize]| Json::Arr(v.iter().map(|&n| Json::Num(n as f64)).collect());
    Json::Obj(vec![
        (
            "steps".into(),
            Json::Arr(
                plan.steps
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("literal".into(), Json::Num(s.literal as f64)),
                            ("pred".into(), Json::Str(s.pred.clone())),
                            ("access".into(), Json::Str(s.access.clone())),
                            ("key_positions".into(), nums(&s.key_positions)),
                            ("negatives_after".into(), nums(&s.negatives_after)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ground_negatives".into(), nums(&plan.ground_negatives)),
    ])
}

/// Builds an [`Explanation`] from compiled plans. Plans are compiled
/// against the *base* program and structure statistics; in multi-stratum
/// evaluation, lower strata are materialized as extensional relations
/// with real cardinalities before the higher strata plan, which can shift
/// greedy tie-breaks — the explanation shows the structure-statistics
/// baseline.
pub(crate) fn explain_plans(
    program: &Program,
    strat: &Stratification,
    structure: &Structure,
    plans: &[RulePlans],
    engine: String,
) -> Explanation {
    let pred_name = |pred: PredRef| -> String {
        match pred {
            PredRef::Edb(p) => structure.signature().name(p).to_owned(),
            PredRef::Idb(id) => program.idb_names[id.index()].clone(),
        }
    };
    let explain_plan = |rule_idx: usize, plan: &JoinPlan| -> PlanExplanation {
        let rule = &program.rules[rule_idx];
        PlanExplanation {
            steps: plan
                .steps
                .iter()
                .map(|step| {
                    let (access, key_positions) = match &step.access {
                        Access::Scan => ("scan".to_owned(), Vec::new()),
                        Access::Probe { positions } => ("probe".to_owned(), positions.clone()),
                    };
                    StepExplanation {
                        literal: step.literal,
                        pred: pred_name(rule.body[step.literal].atom.pred),
                        access,
                        key_positions,
                        negatives_after: step.negatives_after.clone(),
                    }
                })
                .collect(),
            ground_negatives: plan.ground_negatives.clone(),
        }
    };
    let strata = strat
        .strata()
        .iter()
        .enumerate()
        .filter(|(_, rules)| !rules.is_empty())
        .map(|(index, rules)| StratumExplanation {
            index,
            rules: rules
                .iter()
                .map(|&ri| RuleExplanation {
                    rule: ri,
                    text: program.render_rule(&program.rules[ri], structure),
                    base: explain_plan(ri, &plans[ri].base),
                    delta: plans[ri]
                        .delta
                        .iter()
                        .map(|(dpos, plan)| (*dpos, explain_plan(ri, plan)))
                        .collect(),
                })
                .collect(),
        })
        .collect();
    Explanation { engine, strata }
}

/// Per-stratum breakdown of one incremental maintenance pass
/// ([`MaterializedView::apply`](crate::incremental::MaterializedView::apply)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStratumProfile {
    /// The stratum index.
    pub stratum: usize,
    /// Facts the DRed overdeletion phase removed pending re-derivation.
    pub overdeleted: usize,
    /// Overdeleted facts that survived — re-derived from an alternative
    /// support and restored.
    pub rederived: usize,
    /// Facts genuinely added to this stratum by the update.
    pub inserted: usize,
    /// Facts genuinely removed from this stratum by the update
    /// (overdeleted and not re-derived).
    pub deleted: usize,
    /// Wall-clock nanoseconds spent maintaining this stratum.
    pub nanos: u64,
    /// Nanoseconds of the overdeletion phase: finding every stored fact
    /// some rule derives from a changed tuple.
    pub overdelete_nanos: u64,
    /// Nanoseconds spent removing the overdeleted facts from the store.
    pub remove_nanos: u64,
    /// Nanoseconds of the re-derivation phase: seeding back overdeleted
    /// facts with an alternative derivation.
    pub rederive_nanos: u64,
    /// Nanoseconds of the insertion phase: the frontier of the changed
    /// tuples and the delta rounds to fixpoint.
    pub insert_nanos: u64,
    /// Nanoseconds spent netting the stratum out: classifying its facts
    /// as rederived, deleted or inserted and passing the net change up.
    /// The five phases run back to back inside [`nanos`](Self::nanos),
    /// so they sum to at most it.
    pub net_nanos: u64,
}

/// What one [`MaterializedView::apply`](crate::incremental::MaterializedView::apply)
/// did: the normalized base delta, the DRed work, the net change to the
/// view, per-stratum timings, and whether resource limits forced a
/// fall-back to full re-evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateProfile {
    /// Base facts actually inserted (requested inserts minus those
    /// already present).
    pub base_inserted: usize,
    /// Base facts actually retracted (requested retracts intersected
    /// with the present facts, minus same-batch re-inserts).
    pub base_retracted: usize,
    /// Total derived facts overdeleted across strata.
    pub overdeleted: usize,
    /// Total overdeleted facts re-derived (restored).
    pub rederived: usize,
    /// Net derived facts added to the view.
    pub inserted: usize,
    /// Net derived facts removed from the view.
    pub deleted: usize,
    /// Per-stratum breakdown, bottom-up. Empty when the update was a
    /// no-op or the maintenance fell back before any stratum completed.
    pub strata: Vec<UpdateStratumProfile>,
    /// `Some(kind)` when a resource limit tripped mid-maintenance and
    /// the view fell back to an ungoverned full re-evaluation (the view
    /// is still exact; the incremental path was abandoned).
    pub fell_back: Option<crate::limits::LimitKind>,
    /// Wall-clock nanoseconds for the whole `apply`, fall-back included.
    pub total_nanos: u64,
}

impl UpdateProfile {
    /// Serializes the update profile as JSON (the maintenance twin of
    /// [`EvalProfile::to_json`]).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("base_inserted".into(), Json::Num(self.base_inserted as f64)),
            (
                "base_retracted".into(),
                Json::Num(self.base_retracted as f64),
            ),
            ("overdeleted".into(), Json::Num(self.overdeleted as f64)),
            ("rederived".into(), Json::Num(self.rederived as f64)),
            ("inserted".into(), Json::Num(self.inserted as f64)),
            ("deleted".into(), Json::Num(self.deleted as f64)),
            (
                "strata".into(),
                Json::Arr(
                    self.strata
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("stratum".into(), Json::Num(s.stratum as f64)),
                                ("overdeleted".into(), Json::Num(s.overdeleted as f64)),
                                ("rederived".into(), Json::Num(s.rederived as f64)),
                                ("inserted".into(), Json::Num(s.inserted as f64)),
                                ("deleted".into(), Json::Num(s.deleted as f64)),
                                ("nanos".into(), Json::Num(s.nanos as f64)),
                                (
                                    "overdelete_nanos".into(),
                                    Json::Num(s.overdelete_nanos as f64),
                                ),
                                ("remove_nanos".into(), Json::Num(s.remove_nanos as f64)),
                                ("rederive_nanos".into(), Json::Num(s.rederive_nanos as f64)),
                                ("insert_nanos".into(), Json::Num(s.insert_nanos as f64)),
                                ("net_nanos".into(), Json::Num(s.net_nanos as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fell_back".into(),
                match self.fell_back {
                    Some(kind) => Json::Str(kind.as_str().into()),
                    None => Json::Null,
                },
            ),
            ("total_nanos".into(), Json::Num(self.total_nanos as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profile JSON is write-only, so its exact bytes are the
    /// contract: key order, number rendering and string escaping.
    #[test]
    fn profile_json_renders_golden_bytes() {
        let profile = EvalProfile {
            strata: vec![StratumProfile {
                index: 1,
                nanos: 12345,
                rounds: 7,
                facts: 42,
                rules: vec![RuleProfile {
                    rule: 3,
                    head: "p\"a\\th\u{1}".into(),
                    firings: 9,
                    tuples_considered: 20,
                    index_probes: 5,
                    full_scans: 1,
                    nanos: 999,
                    literals: vec![LiteralProfile {
                        literal: 0,
                        tuples_in: 20,
                        tuples_out: 9,
                    }],
                }],
            }],
            trip_stratum: Some(1),
        };
        assert_eq!(
            profile.to_json().render(),
            r#"{"trip_stratum":1,"strata":[{"index":1,"nanos":12345,"rounds":7,"facts":42,"rules":[{"rule":3,"head":"p\"a\\th\u0001","firings":9,"tuples_considered":20,"index_probes":5,"full_scans":1,"nanos":999,"literals":[{"literal":0,"tuples_in":20,"tuples_out":9}]}]}]}"#
        );
    }

    #[test]
    fn hottest_rules_sorts_by_time() {
        let mk = |rule: usize, nanos: u64| RuleProfile {
            rule,
            nanos,
            ..RuleProfile::default()
        };
        let profile = EvalProfile {
            strata: vec![
                StratumProfile {
                    index: 0,
                    nanos: 310,
                    rules: vec![mk(0, 10), mk(1, 300)],
                    ..StratumProfile::default()
                },
                StratumProfile {
                    index: 1,
                    nanos: 200,
                    rules: vec![mk(2, 200)],
                    ..StratumProfile::default()
                },
            ],
            trip_stratum: None,
        };
        let order: Vec<usize> = profile.hottest_rules().iter().map(|r| r.rule).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(profile.total_nanos(), 510);
    }
}
