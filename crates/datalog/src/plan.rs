//! Join planning for the indexed evaluation engine.
//!
//! Per rule, the planner orders the positive body literals greedily and
//! records, for every literal, which secondary index
//! ([`mdtw_structure::PosIndex`]) it probes: the key positions are
//! exactly the argument positions held by a constant or by a variable
//! bound at an earlier step. Negative literals are scheduled at the first
//! step after which all their variables are bound, so failing branches are
//! pruned as early as possible.
//!
//! The next literal is the one expected to enumerate the fewest rows.
//! Probes come before full scans, whatever their estimates, so a join
//! never starts a cross product while a bound literal is left. Among
//! probes (and, failing those, among scans) the estimated rows decide:
//! a [`CardEstimator`] supplies relation sizes ([`Relation::len`]) and
//! probe selectivities (relation size over [`PosIndex::key_count`]). A
//! probe whose key covers every position is a membership test and costs
//! 0. In the *base* plan (executed only in round 0, where every
//! intensional relation is still empty) intensional literals cost 0 as
//! well, so recursive rules short-circuit on an empty relation instead of
//! enumerating their extensional atoms first. Unknown estimates sort
//! last; the bound-argument count breaks ties, then body order.
//! [`plan_program`] plans without statistics ([`NoEstimates`]: after the
//! zero-cost literals, most bound first, then body order);
//! [`plan_program_with`] takes real statistics,
//! usually [`StructureStats`] wrapping the structure under evaluation,
//! and memoizes its probe estimates for the one call.
//!
//! For semi-naive evaluation the planner additionally produces one *delta
//! plan* per positive intensional body literal: that literal is forced to
//! the front of the join order (the delta is the smallest relation in the
//! round) and the evaluator reads it as the store rows the previous round
//! appended; a probe step cuts its key's bucket at the round boundary.
//!
//! The stratified pipeline plans each stratum after rewriting
//! lower-stratum predicates to materialized extensional relations, so
//! those literals — including the negated ones — arrive here as ordinary
//! EDB atoms with real [`StructureStats`] cardinalities behind them.
//!
//! [`Relation::len`]: mdtw_structure::Relation::len
//! [`PosIndex::key_count`]: mdtw_structure::PosIndex::key_count

use crate::ast::{PredRef, Program, Rule, Term};
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::Structure;
use std::cell::RefCell;
use std::cmp::Reverse;

/// How a positive body literal is matched at its step of the join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// No argument position is bound when the literal runs: enumerate the
    /// whole relation.
    Scan,
    /// Probe the secondary index on `positions` (the argument positions
    /// bound by constants or by variables of earlier steps). When every
    /// position is bound the evaluator answers the probe with a
    /// membership test of the relation instead of building an index.
    Probe {
        /// Indexed argument positions, in key order.
        positions: Vec<usize>,
    },
}

/// One step of a rule's join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// Index of the positive literal in the rule body.
    pub literal: usize,
    /// Access path used to enumerate candidate tuples.
    pub access: Access,
    /// Negative body literals whose variables are all bound once this
    /// step's atom is matched; checked immediately after the match.
    pub negatives_after: Vec<usize>,
}

/// A compiled join plan for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Steps over the positive body literals, in execution order.
    pub steps: Vec<JoinStep>,
    /// Negative body literals bound before the first step (no variables,
    /// or only variables the plan starts with bound), checked before any
    /// step.
    pub ground_negatives: Vec<usize>,
}

/// All plans of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePlans {
    /// The unconstrained plan (round 0 of semi-naive evaluation).
    pub base: JoinPlan,
    /// One `(body literal index, plan)` pair per positive intensional body
    /// literal; the plan joins that literal first, reading only its
    /// delta rows.
    pub delta: Vec<(usize, JoinPlan)>,
}

/// Cardinality and selectivity estimates ranking the planner's
/// candidates. `None` means "unknown"; an unknown literal sorts after
/// every literal of its kind (probe or scan) with a known estimate.
pub trait CardEstimator {
    /// Estimated number of tuples of `pred`'s relation.
    fn relation_len(&self, pred: PredRef) -> Option<usize>;

    /// Estimated number of rows a probe of `pred` on the index over
    /// `positions` returns.
    fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize>;
}

/// The statistics-free estimator: everything is unknown, so after the
/// zero-cost literals (membership tests, and intensional literals in the
/// base plan) the greedy order is most bound first, then body order (the
/// deterministic default of [`plan_program`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEstimates;

impl CardEstimator for NoEstimates {
    fn relation_len(&self, _pred: PredRef) -> Option<usize> {
        None
    }
    fn probe_len(&self, _pred: PredRef, _positions: &[usize]) -> Option<usize> {
        None
    }
}

/// Real statistics from the structure under evaluation: extensional
/// cardinalities come from [`Relation::len`] and probe selectivities from
/// `len / distinct keys` at the probed positions
/// ([`Relation::distinct_key_count`]: the cached index's exact
/// [`PosIndex::key_count`] when evaluation already built it, otherwise a
/// one-shot count that leaves no index behind for access paths the
/// planner ends up rejecting). Intensional relations are unknown — their
/// size varies by round.
///
/// [`Relation::len`]: mdtw_structure::Relation::len
/// [`Relation::distinct_key_count`]: mdtw_structure::Relation::distinct_key_count
/// [`PosIndex::key_count`]: mdtw_structure::PosIndex::key_count
#[derive(Debug, Clone, Copy)]
pub struct StructureStats<'a> {
    structure: &'a Structure,
}

impl<'a> StructureStats<'a> {
    /// Wraps the structure the program will be evaluated over.
    pub fn new(structure: &'a Structure) -> Self {
        Self { structure }
    }
}

impl CardEstimator for StructureStats<'_> {
    fn relation_len(&self, pred: PredRef) -> Option<usize> {
        match pred {
            PredRef::Edb(p) => Some(self.structure.relation(p).len()),
            PredRef::Idb(_) => None,
        }
    }

    fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize> {
        match pred {
            PredRef::Edb(p) => {
                let rel = self.structure.relation(p);
                if rel.is_empty() {
                    return Some(0);
                }
                let keys = rel.distinct_key_count(positions).max(1);
                Some(rel.len().div_ceil(keys))
            }
            PredRef::Idb(_) => None,
        }
    }
}

/// Plans every rule of `program` without cardinality statistics.
pub fn plan_program(program: &Program) -> Vec<RulePlans> {
    plan_program_with(program, &NoEstimates)
}

/// Plans every rule of `program`, ranking join steps by `est`'s
/// estimates. Probe estimates are memoized per `(pred, positions)` for
/// the call.
pub fn plan_program_with(program: &Program, est: &dyn CardEstimator) -> Vec<RulePlans> {
    let est = Memo::new(est);
    program
        .rules
        .iter()
        .map(|r| plan_rule_with(r, &est))
        .collect()
}

/// Per predicate: `(positions, estimate)` for every probe asked so far.
type ProbeMemo = FxHashMap<PredRef, Vec<(Vec<usize>, Option<usize>)>>;

/// Memoizes an estimator's probe estimates for one planning call. The
/// greedy loop asks for the same probes at every step of every rule, and
/// [`StructureStats`] answers a probe on positions without a cached index
/// with a full pass over the relation.
struct Memo<'a> {
    est: &'a dyn CardEstimator,
    probes: RefCell<ProbeMemo>,
}

impl<'a> Memo<'a> {
    fn new(est: &'a dyn CardEstimator) -> Self {
        Self {
            est,
            probes: RefCell::default(),
        }
    }
}

impl CardEstimator for Memo<'_> {
    fn relation_len(&self, pred: PredRef) -> Option<usize> {
        self.est.relation_len(pred)
    }

    fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize> {
        let mut probes = self.probes.borrow_mut();
        let known = probes.entry(pred).or_default();
        if let Some((_, len)) = known.iter().find(|(p, _)| p == positions) {
            return *len;
        }
        let len = self.est.probe_len(pred, positions);
        known.push((positions.to_vec(), len));
        len
    }
}

/// Plans a single rule without cardinality statistics.
pub fn plan_rule(rule: &Rule) -> RulePlans {
    plan_rule_with(rule, &NoEstimates)
}

/// Plans a single rule: the base plan plus one delta plan per positive
/// intensional body literal.
pub fn plan_rule_with(rule: &Rule, est: &dyn CardEstimator) -> RulePlans {
    let idb_positions: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| l.positive && matches!(l.atom.pred, PredRef::Idb(_)))
        .map(|(i, _)| i)
        .collect();
    RulePlans {
        base: plan_with_first(rule, None, false, est),
        delta: idb_positions
            .into_iter()
            .map(|pos| (pos, plan_with_first(rule, Some(pos), false, est)))
            .collect(),
    }
}

/// Plans the incremental seed passes of every rule: one
/// `(body literal index, plan)` pair per *extensional* body literal,
/// with that literal forced to the front of the join order — the EDB
/// twin of [`RulePlans::delta`], used by incremental maintenance to join
/// a batch's changed base tuples first (the delta is the smallest
/// relation of the pass). A negated literal is planned *flipped*: it
/// runs as a positive first step and is not checked as a negation, so
/// the pass enumerates the rule instantiations a change under the
/// negation affects.
pub(crate) fn plan_edb_deltas(
    program: &Program,
    est: &dyn CardEstimator,
) -> Vec<Vec<(usize, JoinPlan)>> {
    let est = &Memo::new(est);
    program
        .rules
        .iter()
        .map(|rule| {
            rule.body
                .iter()
                .enumerate()
                .filter(|(_, l)| matches!(l.atom.pred, PredRef::Edb(_)))
                .map(|(i, _)| (i, plan_with_first(rule, Some(i), false, est)))
                .collect()
        })
        .collect()
}

/// Plans every rule with its head variables bound before the first step
/// — the re-derivation check of incremental maintenance, which asks
/// whether one given head fact still has a derivation.
pub(crate) fn plan_head_bound(program: &Program, est: &dyn CardEstimator) -> Vec<JoinPlan> {
    let est = &Memo::new(est);
    program
        .rules
        .iter()
        .map(|rule| plan_with_first(rule, None, true, est))
        .collect()
}

/// The estimated number of tuples enumerating literal `li` would yield
/// with the positions in `bp` bound. A probe on every position is a
/// membership test and costs 0. In the base plan (nothing forced first,
/// nothing bound), intensional relations are empty by definition of
/// round 0, so their cost is 0 regardless of the estimator; everywhere
/// else unknown estimates sort last (`usize::MAX`).
fn candidate_cost(
    rule: &Rule,
    li: usize,
    bp: &[usize],
    base_plan: bool,
    est: &dyn CardEstimator,
) -> usize {
    let atom = &rule.body[li].atom;
    let membership = !bp.is_empty() && bp.len() == atom.terms.len();
    if membership || (base_plan && matches!(atom.pred, PredRef::Idb(_))) {
        return 0;
    }
    let pred = atom.pred;
    let cost = if bp.is_empty() {
        est.relation_len(pred)
    } else {
        est.probe_len(pred, bp)
    };
    cost.unwrap_or(usize::MAX)
}

/// Greedy planner. `first`, if set, forces that body literal to the front
/// (delta literals; a negated literal forced first runs flipped, as a
/// positive step). `head_bound` binds the head's variables before the
/// first step.
fn plan_with_first(
    rule: &Rule,
    first: Option<usize>,
    head_bound: bool,
    est: &dyn CardEstimator,
) -> JoinPlan {
    let nvars = rule.var_count as usize;
    let mut bound = vec![false; nvars];
    if head_bound {
        for v in rule.head.vars() {
            bound[v.index()] = true;
        }
    }

    let mut remaining: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(i, l)| l.positive && Some(*i) != first)
        .map(|(i, _)| i)
        .collect();
    let negatives: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(i, l)| !l.positive && Some(*i) != first)
        .map(|(i, _)| i)
        .collect();

    let mut neg_emitted = vec![false; rule.body.len()];
    let mut ground_negatives = Vec::new();
    for &ni in &negatives {
        if rule.body[ni].atom.vars().all(|v| bound[v.index()]) {
            ground_negatives.push(ni);
            neg_emitted[ni] = true;
        }
    }

    let mut steps = Vec::new();
    let mut push_step = |li: usize, bound: &mut Vec<bool>, neg_emitted: &mut Vec<bool>| {
        let access = access_for(rule, li, bound);
        for v in rule.body[li].atom.vars() {
            bound[v.index()] = true;
        }
        let negatives_after: Vec<usize> = negatives
            .iter()
            .copied()
            .filter(|&ni| !neg_emitted[ni] && rule.body[ni].atom.vars().all(|v| bound[v.index()]))
            .collect();
        for &ni in &negatives_after {
            neg_emitted[ni] = true;
        }
        steps.push(JoinStep {
            literal: li,
            access,
            negatives_after,
        });
    };

    let base_plan = first.is_none() && !head_bound;
    if let Some(li) = first {
        push_step(li, &mut bound, &mut neg_emitted);
    }
    while !remaining.is_empty() {
        // Greedy: probes before scans, then the fewest estimated rows;
        // ties broken by the most bound argument positions, then by body
        // order (stable ordering for reproducibility).
        let (slot, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(slot, &li)| {
                let bp = bound_positions(rule, li, &bound);
                let cost = candidate_cost(rule, li, &bp, base_plan, est);
                (bp.is_empty(), cost, Reverse(bp.len()), slot)
            })
            .expect("remaining non-empty");
        let li = remaining.remove(slot);
        push_step(li, &mut bound, &mut neg_emitted);
    }

    // Every negative literal must have been scheduled (safety: all its
    // variables occur in positive literals, which are all bound by now).
    // Failing loudly here keeps hand-built unsafe programs from being
    // silently evaluated as if the unschedulable negation were absent.
    assert!(
        negatives.iter().all(|&ni| neg_emitted[ni]),
        "unsafe rule: a negative literal's variable occurs in no positive body literal"
    );

    JoinPlan {
        steps,
        ground_negatives,
    }
}

/// The argument positions of body literal `li` that are bound under
/// `bound`: constants, plus variables already bound by earlier steps.
fn bound_positions(rule: &Rule, li: usize, bound: &[bool]) -> Vec<usize> {
    rule.body[li]
        .atom
        .terms
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound[v.index()],
        })
        .map(|(p, _)| p)
        .collect()
}

fn access_for(rule: &Rule, li: usize, bound: &[bool]) -> Access {
    let positions = bound_positions(rule, li, bound);
    if positions.is_empty() {
        Access::Scan
    } else {
        Access::Probe { positions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use mdtw_structure::{Domain, ElemId, Signature, Structure};
    use std::sync::Arc;

    fn edge_structure() -> Structure {
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(4);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        s.insert(e, &[ElemId(0), ElemId(1)]);
        s
    }

    #[test]
    fn linear_rule_probes_on_join_variable() {
        let s = edge_structure();
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
            &s,
        )
        .unwrap();
        let plans = plan_program(&p);
        // Recursive rule, delta plan for the `path` literal (body index 0):
        // `path` first (scan of the delta), then `e` probed on position 0
        // (its first argument Y is bound by the delta literal).
        let (pos, plan) = &plans[1].delta[0];
        assert_eq!(*pos, 0);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].literal, 0);
        assert_eq!(plan.steps[0].access, Access::Scan);
        assert_eq!(plan.steps[1].literal, 1);
        assert_eq!(plan.steps[1].access, Access::Probe { positions: vec![0] });
    }

    #[test]
    fn greedy_order_prefers_most_bound() {
        let s = edge_structure();
        // Base plan (= round 0, where intensional relations are empty by
        // definition): sg(X,Y) costs 0 and goes first, its empty scan
        // short-circuiting the round-0 pass; then e(X,Y) (two bound
        // positions) before the unbound literals.
        let p = parse_program(
            "sg(X, Y) :- e(X, Y).\nq(X) :- e(X, Y), e(Z, W), sg(X, Y), sg(Z, W).",
            &s,
        )
        .unwrap();
        let rule = p.rules.last().unwrap();
        let plans = plan_rule(rule);
        let order: Vec<usize> = plans.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(order, vec![2, 0, 3, 1]);
        assert_eq!(
            plans.base.steps[1].access,
            Access::Probe {
                positions: vec![0, 1]
            }
        );
    }

    #[test]
    fn cardinality_estimates_break_ties() {
        use mdtw_structure::{Domain, Signature};
        // big/2 has 9 tuples, small/2 has 1; at equal bound count the
        // statistics-aware planner starts from the smaller relation,
        // while the statistics-free planner keeps body order.
        let sig = Arc::new(Signature::from_pairs([("big", 2), ("small", 2)]));
        let dom = Domain::anonymous(10);
        let mut s = Structure::new(sig, dom);
        let big = s.signature().lookup("big").unwrap();
        let small = s.signature().lookup("small").unwrap();
        for i in 0..9u32 {
            s.insert(big, &[ElemId(i), ElemId(i + 1)]);
        }
        s.insert(small, &[ElemId(0), ElemId(1)]);
        let p = parse_program("q(X) :- big(X, Y), small(Y, Z).", &s).unwrap();

        let blind = plan_rule(&p.rules[0]);
        let blind_order: Vec<usize> = blind.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(blind_order, vec![0, 1]);

        let plans = plan_rule_with(&p.rules[0], &StructureStats::new(&s));
        let order: Vec<usize> = plans.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(order, vec![1, 0], "smaller relation joins first");
        assert_eq!(
            plans.base.steps[1].access,
            Access::Probe { positions: vec![1] }
        );
    }

    #[test]
    fn probe_selectivity_prefers_more_distinct_keys() {
        use mdtw_structure::{Domain, Signature};
        // Both relations have 8 tuples; `sel`'s first column has 8
        // distinct keys (probe yields ~1 row), `dup`'s only 1 (probe
        // yields all 8). With X bound, the planner probes `sel` first.
        let sig = Arc::new(Signature::from_pairs([("dup", 2), ("sel", 2), ("u", 1)]));
        let dom = Domain::anonymous(10);
        let mut s = Structure::new(sig, dom);
        let dup = s.signature().lookup("dup").unwrap();
        let sel = s.signature().lookup("sel").unwrap();
        let u = s.signature().lookup("u").unwrap();
        for i in 0..8u32 {
            s.insert(dup, &[ElemId(0), ElemId(i)]);
            s.insert(sel, &[ElemId(i), ElemId(i)]);
        }
        s.insert(u, &[ElemId(0)]);
        let p = parse_program("q(X) :- u(X), dup(X, Y), sel(X, Z).", &s).unwrap();
        let plans = plan_rule_with(&p.rules[0], &StructureStats::new(&s));
        let order: Vec<usize> = plans.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(order, vec![0, 2, 1], "selective probe scheduled first");
    }

    /// The literal order of `plan`.
    fn order(plan: &JoinPlan) -> Vec<usize> {
        plan.steps.iter().map(|st| st.literal).collect()
    }

    #[test]
    fn tau_td_delta_plan_probes_child_before_repeated_bag() {
        // τ_td-shaped: every node's bag holds the same two elements, so
        // `bag` probed on its element positions returns every node, while
        // `child2` probed on the child returns its one parent. With V, X0
        // and X1 bound, the parent is found through `child2` first; its
        // bag is then a membership test.
        let sig = Arc::new(Signature::from_pairs([("bag", 3), ("child2", 2)]));
        let mut s = Structure::new(sig, Domain::anonymous(32));
        let bag = s.signature().lookup("bag").unwrap();
        let child2 = s.signature().lookup("child2").unwrap();
        for v in 0..30u32 {
            s.insert(bag, &[ElemId(v), ElemId(30), ElemId(31)]);
            if v > 0 {
                s.insert(child2, &[ElemId(v - 1), ElemId(v)]);
            }
        }
        let p = parse_program(
            "q(V) :- bag(V, X0, X1).\n\
             q(V2) :- q(V), bag(V, X0, X1), child2(V2, V), bag(V2, X0, X1).",
            &s,
        )
        .unwrap();
        let plans = plan_rule_with(&p.rules[1], &StructureStats::new(&s));
        let (pos, plan) = &plans.delta[0];
        assert_eq!(*pos, 0);
        assert_eq!(order(plan), vec![0, 1, 2, 3]);
        assert_eq!(plan.steps[2].access, Access::Probe { positions: vec![1] });
        assert_eq!(
            plan.steps[3].access,
            Access::Probe {
                positions: vec![0, 1, 2]
            }
        );
    }

    #[test]
    fn unknown_probe_precedes_known_full_scan() {
        // After the delta literal `d(X)`, the intensional `r(X, Y)` is a
        // probe of unknown size and `one(Z)` a scan of one tuple: the
        // probe still runs first, so no cross product starts early.
        let sig = Arc::new(Signature::from_pairs([("e", 2), ("one", 1)]));
        let mut s = Structure::new(sig, Domain::anonymous(4));
        let e = s.signature().lookup("e").unwrap();
        let one = s.signature().lookup("one").unwrap();
        s.insert(e, &[ElemId(0), ElemId(1)]);
        s.insert(one, &[ElemId(2)]);
        let p = parse_program(
            "d(X) :- e(X, Y).\nr(X, Y) :- e(X, Y).\n\
             out(Y, Z) :- d(X), one(Z), r(X, Y).",
            &s,
        )
        .unwrap();
        let plans = plan_rule_with(&p.rules[2], &StructureStats::new(&s));
        let (_, plan) = &plans.delta[0];
        assert_eq!(order(plan), vec![0, 2, 1]);
        assert_eq!(plan.steps[1].access, Access::Probe { positions: vec![0] });
        assert_eq!(plan.steps[2].access, Access::Scan);
    }

    #[test]
    fn membership_test_is_the_first_probe() {
        // After `s(X, Y, W)`, `t(X, Y, Z)` is probed on two positions and
        // returns one row; `m(X)` is fully bound, a membership test that
        // costs nothing, and runs first although fewer positions are bound.
        let sig = Arc::new(Signature::from_pairs([("s", 3), ("t", 3), ("m", 1)]));
        let mut st = Structure::new(sig, Domain::anonymous(8));
        let s_rel = st.signature().lookup("s").unwrap();
        let t = st.signature().lookup("t").unwrap();
        let m = st.signature().lookup("m").unwrap();
        st.insert(s_rel, &[ElemId(0), ElemId(1), ElemId(2)]);
        for i in 0..4u32 {
            st.insert(t, &[ElemId(i), ElemId(i + 1), ElemId(i + 2)]);
            st.insert(m, &[ElemId(i)]);
        }
        let p = parse_program("q(Z) :- s(X, Y, W), t(X, Y, Z), m(X).", &st).unwrap();
        let plan = plan_rule_with(&p.rules[0], &StructureStats::new(&st)).base;
        assert_eq!(order(&plan), vec![0, 2, 1]);
        assert_eq!(plan.steps[1].access, Access::Probe { positions: vec![0] });
        assert_eq!(
            plan.steps[2].access,
            Access::Probe {
                positions: vec![0, 1]
            }
        );
    }

    /// Counts the probe estimates asked of the wrapped estimator.
    struct CountingStats<'a> {
        stats: StructureStats<'a>,
        probes: std::cell::Cell<usize>,
    }

    impl CardEstimator for CountingStats<'_> {
        fn relation_len(&self, pred: PredRef) -> Option<usize> {
            self.stats.relation_len(pred)
        }
        fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize> {
            self.probes.set(self.probes.get() + 1);
            self.stats.probe_len(pred, positions)
        }
    }

    #[test]
    fn memoized_planning_matches_unmemoized_plans() {
        // `plan_program_with` asks each distinct probe once; planning rule
        // by rule through the bare estimator asks again at every step and
        // must still produce the same plans.
        let sig = Arc::new(Signature::from_pairs([("e", 2), ("f", 2), ("u", 1)]));
        let mut s = Structure::new(sig, Domain::anonymous(12));
        let e = s.signature().lookup("e").unwrap();
        let f = s.signature().lookup("f").unwrap();
        let u = s.signature().lookup("u").unwrap();
        for i in 0..11u32 {
            s.insert(e, &[ElemId(i), ElemId(i + 1)]);
            s.insert(f, &[ElemId(i % 3), ElemId(i)]);
        }
        s.insert(u, &[ElemId(0)]);
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\n\
             path(X, Z) :- path(X, Y), e(Y, Z), f(W, Z).\n\
             path(X, Z) :- path(X, Y), path(Y, Z), !f(X, Z).\n\
             q(X) :- u(X), f(X, Y), e(Y, Z), f(W, Z), path(Z, W).\n\
             r(X) :- q(X), e(X, Y), f(Z, Y), u(Z).",
            &s,
        )
        .unwrap();
        let memoized = CountingStats {
            stats: StructureStats::new(&s),
            probes: Default::default(),
        };
        let bare = CountingStats {
            stats: StructureStats::new(&s),
            probes: Default::default(),
        };
        let plans = plan_program_with(&p, &memoized);
        let reference: Vec<RulePlans> = p.rules.iter().map(|r| plan_rule_with(r, &bare)).collect();
        assert_eq!(plans, reference);
        assert!(
            memoized.probes.get() < bare.probes.get(),
            "{} memoized vs {} bare probe estimates",
            memoized.probes.get(),
            bare.probes.get()
        );
    }

    #[test]
    fn constants_are_bound_from_the_start() {
        let s = edge_structure();
        let p = parse_program("from_start(Y) :- e(x0, Y).", &s).unwrap();
        let plans = plan_rule(&p.rules[0]);
        assert_eq!(
            plans.base.steps[0].access,
            Access::Probe { positions: vec![0] }
        );
    }

    #[test]
    fn negatives_scheduled_at_earliest_bound_step() {
        let s = edge_structure();
        let p = parse_program("q(X) :- e(X, Y), e(Y, Z), !e(X, Y), !e(X, Z).", &s).unwrap();
        let plans = plan_rule(&p.rules[0]);
        // !e(X,Y) is fully bound after step 0; !e(X,Z) only after step 1.
        assert_eq!(plans.base.steps[0].negatives_after, vec![2]);
        assert_eq!(plans.base.steps[1].negatives_after, vec![3]);
        assert!(plans.base.ground_negatives.is_empty());
    }

    #[test]
    fn fact_rule_has_empty_plan() {
        let s = edge_structure();
        let p = parse_program("mark(x1).", &s).unwrap();
        let plans = plan_rule(&p.rules[0]);
        assert!(plans.base.steps.is_empty());
        assert!(plans.delta.is_empty());
    }

    #[test]
    #[should_panic(expected = "unsafe rule")]
    fn unsafe_negative_literal_is_rejected_loudly() {
        use crate::ast::{Atom, Literal, PredRef, Program, Rule, Term, Var};
        let s = edge_structure();
        let e = s.signature().lookup("e").unwrap();
        let mut p = Program::default();
        let q = p.intern_idb("q", 1).unwrap();
        // q(X) :- e(X, Y), !e(Z, Z).  — Z occurs in no positive literal;
        // the parser rejects this, but hand-built programs must not have
        // the negation silently dropped.
        let rule = Rule {
            head: Atom {
                pred: PredRef::Idb(q),
                terms: vec![Term::Var(Var(0))],
            },
            body: vec![
                Literal {
                    atom: Atom {
                        pred: PredRef::Edb(e),
                        terms: vec![Term::Var(Var(0)), Term::Var(Var(1))],
                    },
                    positive: true,
                },
                Literal {
                    atom: Atom {
                        pred: PredRef::Edb(e),
                        terms: vec![Term::Var(Var(2)), Term::Var(Var(2))],
                    },
                    positive: false,
                },
            ],
            var_count: 3,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        };
        assert!(!rule.is_safe());
        let _ = plan_rule(&rule);
    }

    #[test]
    fn maintenance_plans_flip_negations_and_bind_heads() {
        let s = edge_structure();
        let p = parse_program("q(X) :- e(X, Y), q(Y), !e(Y, X).", &s).unwrap();
        // One seed plan per extensional literal; the negated one runs
        // first as a positive step and is not also checked as a negation.
        let seeds = plan_edb_deltas(&p, &NoEstimates);
        let positions: Vec<usize> = seeds[0].iter().map(|(i, _)| *i).collect();
        assert_eq!(positions, vec![0, 2]);
        let (_, flipped) = &seeds[0][1];
        assert_eq!(flipped.steps[0].literal, 2);
        assert!(flipped.steps.iter().all(|st| st.negatives_after.is_empty()));
        // Head-bound: X is bound before the first step, so `e(X, Y)` is
        // probed on position 0 and the negation is checked once Y is bound.
        let plan = &plan_head_bound(&p, &NoEstimates)[0];
        assert_eq!(plan.steps[0].literal, 0);
        assert_eq!(plan.steps[0].access, Access::Probe { positions: vec![0] });
        assert_eq!(plan.steps[0].negatives_after, vec![2]);
        // A negation over head variables only is checked before any step.
        let p = parse_program("r(X, Y) :- e(X, Y), !e(Y, X).", &s).unwrap();
        assert_eq!(
            plan_head_bound(&p, &NoEstimates)[0].ground_negatives,
            vec![1]
        );
    }

    #[test]
    fn one_delta_plan_per_idb_literal() {
        let s = edge_structure();
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
            &s,
        )
        .unwrap();
        let plans = plan_rule(&p.rules[1]);
        let positions: Vec<usize> = plans.delta.iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![0, 1]);
        // Second delta plan: path(Y,Z) from the delta first, then path(X,Y)
        // probed on position 1 (Y bound).
        let (_, dp) = &plans.delta[1];
        assert_eq!(dp.steps[0].literal, 1);
        assert_eq!(dp.steps[1].literal, 0);
        assert_eq!(dp.steps[1].access, Access::Probe { positions: vec![1] });
    }
}
