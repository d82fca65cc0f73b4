//! Property tests pinning the production engines to ground truth. The
//! indexed semi-naive engine computes the least fixpoint of the naive
//! oracle ([`mdtw_tests::naive_model`]) on randomly generated
//! semipositive programs over randomly generated structures, and fires
//! each rule instantiation exactly once: its firing count equals the
//! oracle's instantiation count. A *reused* session agrees with the oracle
//! cache cold and warm. Random quasi-guarded programs whose rules share
//! extensional skeletons pin the grouped quasi-guarded grounding to the
//! indexed engine, its instance solver to the least model of the expanded
//! ground program, and that program's size to a brute-force count.

use mdtw_datalog::{
    ground, Atom, Engine, EvalOptions, EvalStats, Evaluator, IdbId, IdbStore, Literal, PredRef,
    Program, Rule, Term, Var,
};
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use mdtw_tests::naive_model;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Raw material for one body literal: `(kind, arg, arg)`.
type RawLit = (u8, u8, u8);
/// Raw material for one rule:
/// `(head pick, (head arg, head arg), positive body, negative pick)`.
type RawRule = (u8, (u8, u8), Vec<RawLit>, RawLit);

const NVARS: u8 = 3;

fn build_structure(n: usize, edges: &[(u8, u8)], marks: &[u8]) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("m", 1)]));
    let dom = Domain::anonymous(n);
    let mut s = Structure::new(sig, dom);
    let e = s.signature().lookup("e").unwrap();
    let m = s.signature().lookup("m").unwrap();
    for &(a, b) in edges {
        s.insert(
            e,
            &[ElemId(a as u32 % n as u32), ElemId(b as u32 % n as u32)],
        );
    }
    for &a in marks {
        s.insert(m, &[ElemId(a as u32 % n as u32)]);
    }
    s
}

/// One evaluation of `p` over `s` by a fresh default session.
fn eval(p: &Program, s: &Structure) -> (IdbStore, EvalStats) {
    let result = Evaluator::new(p.clone()).unwrap().evaluate(s).unwrap();
    (result.store, result.stats)
}

fn var(i: u8) -> Term {
    Term::Var(Var((i % NVARS) as u32))
}

/// Builds a positive body literal from raw ints. Kinds: e/2, m/1, q0/1,
/// q1/2 (IDB ids 0 and 1).
fn positive_literal(raw: RawLit, e: PredId, m: PredId) -> Literal {
    let (kind, a, b) = raw;
    let atom = match kind % 4 {
        0 => Atom {
            pred: PredRef::Edb(e),
            terms: vec![var(a), var(b)],
        },
        1 => Atom {
            pred: PredRef::Edb(m),
            terms: vec![var(a)],
        },
        2 => Atom {
            pred: PredRef::Idb(IdbId(0)),
            terms: vec![var(a)],
        },
        _ => Atom {
            pred: PredRef::Idb(IdbId(1)),
            terms: vec![var(a), var(b)],
        },
    };
    Literal {
        atom,
        positive: true,
    }
}

/// Builds a random but always-safe semipositive program: head variables
/// and negative-literal variables are drawn from the variables of the
/// positive body (never empty: the generator emits 1–3 positive literals,
/// each with at least one variable), so `Rule::is_safe` holds by
/// construction.
fn build_program(raw_rules: &[RawRule], structure: &Structure) -> Program {
    let e = structure.signature().lookup("e").unwrap();
    let m = structure.signature().lookup("m").unwrap();
    let mut program = Program::default();
    program.intern_idb("q0", 1).unwrap();
    program.intern_idb("q1", 2).unwrap();

    for (head_pick, (h1, h2), body_raw, neg_raw) in raw_rules {
        let body: Vec<Literal> = body_raw
            .iter()
            .map(|&raw| positive_literal(raw, e, m))
            .collect();
        let mut pos_vars: Vec<Var> = body
            .iter()
            .flat_map(|l| l.atom.vars().collect::<Vec<_>>())
            .collect();
        pos_vars.sort();
        pos_vars.dedup();
        debug_assert!(!pos_vars.is_empty(), "every positive literal has a var");
        let pick = |sel: u8| Term::Var(pos_vars[sel as usize % pos_vars.len()]);

        let head = if head_pick % 2 == 0 {
            Atom {
                pred: PredRef::Idb(IdbId(0)),
                terms: vec![pick(*h1)],
            }
        } else {
            Atom {
                pred: PredRef::Idb(IdbId(1)),
                terms: vec![pick(*h1), pick(*h2)],
            }
        };

        let mut body = body;
        let (nkind, na, nb) = *neg_raw;
        // Negation only on EDB atoms (semipositive fragment), with
        // variables from the positive body (safety).
        match nkind % 3 {
            0 => {}
            1 => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(e),
                    terms: vec![pick(na), pick(nb)],
                },
                positive: false,
            }),
            _ => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(m),
                    terms: vec![pick(na)],
                },
                positive: false,
            }),
        }

        let rule = Rule {
            head,
            body,
            var_count: NVARS as u32,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        };
        assert!(rule.is_safe(), "generator must only build safe rules");
        program.rules.push(rule);
    }
    program
        .check_semipositive()
        .expect("generator must only build semipositive programs");
    program
}

/// Deterministic pin of indexed-vs-oracle agreement on a program whose
/// joins carry multi-position index keys over a ternary relation: the
/// recursive rule binds two of `t`'s argument positions before the probe,
/// and the projection rule probes `t` on all three. Exercises the packed
/// multi-`ElemId` key path of [`mdtw_structure::PosIndex`], which the
/// random generator above (arities ≤ 2) cannot reach.
#[test]
fn multi_position_keys_agree_across_engines_arity_3() {
    use mdtw_datalog::parse_program;

    let sig = Arc::new(Signature::from_pairs([("t", 3)]));
    let n = 9u32;
    let dom = Domain::anonymous(n as usize);
    let mut s = Structure::new(sig, dom);
    let t = s.signature().lookup("t").unwrap();
    for i in 0..n {
        s.insert(t, &[ElemId(i), ElemId((i + 1) % n), ElemId((i + 2) % n)]);
        s.insert(t, &[ElemId(i), ElemId(i), ElemId((i * i) % n)]);
    }
    let p = parse_program(
        "tri(X, Y, Z) :- t(X, Y, Z).\n\
         tri(X, W, Z) :- tri(X, Y, W), t(Y, W, Z).\n\
         pin(X, Z) :- tri(X, Y, Z), t(X, Y, Z).",
        &s,
    )
    .unwrap();

    let naive = naive_model(&p, &s);
    let (indexed, stats) = eval(&p, &s);
    for name in ["tri", "pin"] {
        let id = p.idb(name).unwrap();
        let model = &naive.relations[id.index()];
        assert!(!model.is_empty(), "{name} must derive facts");
        assert_eq!(model, &indexed.tuples(id), "indexed vs oracle: {name}");
    }
    assert_eq!(stats.facts, indexed.fact_count());
    assert_eq!(stats.firings, naive.instantiations);
    assert!(
        stats.index_probes > 0,
        "multi-position joins must probe, not scan"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The indexed store equals the oracle model, and the rule split fires
    /// each instantiation exactly once: `firings` equals the oracle's
    /// instantiation count.
    #[test]
    fn engines_compute_identical_fixpoints(
        n in 2usize..6,
        edges in vec((0u8..8, 0u8..8), 0..10),
        marks in vec(0u8..8, 0..4),
        raw_rules in vec(
            (
                0u8..4,
                (0u8..8, 0u8..8),
                vec((0u8..8, 0u8..8, 0u8..8), 1..4),
                (0u8..6, 0u8..8, 0u8..8),
            ),
            1..5,
        ),
    ) {
        let s = build_structure(n, &edges, &marks);
        let p = build_program(&raw_rules, &s);
        let naive = naive_model(&p, &s);
        let (indexed, stats) = eval(&p, &s);
        for (idb, model) in naive.relations.iter().enumerate() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(model, &indexed.tuples(id), "indexed vs oracle, idb {}", idb);
        }
        prop_assert_eq!(stats.facts, indexed.fact_count());
        prop_assert_eq!(stats.firings, naive.instantiations);
    }

    /// The same random program/structure matrix through ONE reused
    /// `Evaluator` — cache cold (first call) *and* warm (second call) —
    /// asserting bit-identical `IdbStore`s against the oracle, identical
    /// work counters cold and warm, and `plan_cache_hits > 0` on the
    /// second evaluation. (`Engine::QuasiGuarded` needs declared
    /// functional dependencies the random matrix does not have; it is
    /// pinned by `quasi_guarded_session_matches_indexed_session` and by
    /// the grouping differential at the end of this file.)
    #[test]
    fn reused_sessions_bit_identical_cold_and_warm(
        n in 2usize..6,
        edges in vec((0u8..8, 0u8..8), 0..10),
        marks in vec(0u8..8, 0..4),
        raw_rules in vec(
            (
                0u8..4,
                (0u8..8, 0u8..8),
                vec((0u8..8, 0u8..8, 0u8..8), 1..4),
                (0u8..6, 0u8..8, 0u8..8),
            ),
            1..5,
        ),
    ) {
        let s = build_structure(n, &edges, &marks);
        let p = build_program(&raw_rules, &s);
        let naive = naive_model(&p, &s);
        let mut session = Evaluator::new(p.clone()).unwrap();
        let cold = session.evaluate(&s).unwrap();
        let warm = session.evaluate(&s).unwrap();
        for (idb, model) in naive.relations.iter().enumerate() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(model, &cold.store.tuples(id), "cold vs oracle, idb {}", idb);
            prop_assert_eq!(model, &warm.store.tuples(id), "warm vs oracle, idb {}", idb);
        }
        prop_assert_eq!(cold.stats.facts, warm.stats.facts);
        prop_assert_eq!(cold.stats.firings, warm.stats.firings);
        prop_assert_eq!(cold.stats.plan_cache_hits, 0, "session cache starts cold");
        prop_assert!(
            warm.stats.plan_cache_hits > 0,
            "reused session must reuse compiled plans"
        );
    }
}

/// Deterministic `Engine::QuasiGuarded` leg of the reused-session matrix:
/// the random generator cannot produce quasi-guarded programs (it
/// declares no functional dependencies), so the equivalence with the
/// indexed engine is pinned on the chain-reachability workload of
/// Theorem 4.4, cache cold and warm.
#[test]
fn quasi_guarded_session_matches_indexed_session() {
    use mdtw_datalog::{parse_program, FdCatalog};

    let sig = Arc::new(Signature::from_pairs([("next", 2), ("first", 1)]));
    let n = 40usize;
    let dom = Domain::anonymous(n);
    let mut s = Structure::new(sig, dom);
    let next = s.signature().lookup("next").unwrap();
    let first = s.signature().lookup("first").unwrap();
    s.insert(first, &[ElemId(0)]);
    for i in 0..n - 1 {
        s.insert(next, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
    }
    let p = parse_program(
        "reach(X) :- first(X).\nreach(Y) :- reach(X), next(X, Y).\n\
         inner(X) :- reach(X), next(X, Y), !first(X).",
        &s,
    )
    .unwrap();
    let mut catalog = FdCatalog::new();
    catalog.declare(next, vec![0], vec![1]);
    catalog.declare(next, vec![1], vec![0]);

    let (indexed, _) = eval(&p, &s);
    let mut session =
        Evaluator::with_options(p.clone(), EvalOptions::new().fd_catalog(catalog)).unwrap();
    assert_eq!(session.engine(), Engine::QuasiGuarded);
    let cold = session.evaluate(&s).unwrap();
    let warm = session.evaluate(&s).unwrap();
    for name in ["reach", "inner"] {
        let id = p.idb(name).unwrap();
        assert_eq!(indexed.tuples(id), cold.store.tuples(id), "{name} cold");
        assert_eq!(indexed.tuples(id), warm.store.tuples(id), "{name} warm");
    }
    let (cold_qg, warm_qg) = (cold.qg.unwrap(), warm.qg.unwrap());
    assert!(cold_qg.ground_rules > 0);
    assert_eq!(cold_qg.ground_rules, warm_qg.ground_rules);
    assert_eq!(cold_qg.ground_atoms, warm_qg.ground_atoms);
}

// ---------------------------------------------------------------------------
// Quasi-guarded grouping differential
// ---------------------------------------------------------------------------

/// Raw material for one extensional skeleton: `(guard kind, lookup steps
/// (kind, from), residual literals (kind, arg, arg))`.
type RawSkeleton = (u8, Vec<(u8, u8)>, Vec<(u8, u8, u8)>);
/// Raw material for one rule over a skeleton: `(skeleton pick, (head
/// kind, arg, arg), intensional body literals (kind, arg, arg), repeat)`;
/// an odd `repeat` appends the first intensional body literal again.
type RawMember = (u8, (u8, u8, u8), Vec<(u8, u8, u8)>, u8);

/// A structure over `f/2` (a partial injection: functional both ways),
/// `g/2` (a partial function) and `m/1`, plus the catalog declaring those
/// dependencies. The `shared` pair goes into both `f` and `g`; other
/// pairs that would break a dependency are dropped.
fn fd_structure(
    n: usize,
    shared: (u8, u8),
    f_pairs: &[(u8, u8)],
    g_pairs: &[(u8, u8)],
    marks: &[u8],
) -> (Structure, mdtw_datalog::FdCatalog) {
    let sig = Arc::new(Signature::from_pairs([("f", 2), ("g", 2), ("m", 1)]));
    let mut s = Structure::new(sig, Domain::anonymous(n));
    let [f, g, m] = ["f", "g", "m"].map(|p| s.signature().lookup(p).unwrap());
    let elem = |a: u8| ElemId(a as u32 % n as u32);
    for pred in [f, g] {
        s.insert(pred, &[elem(shared.0), elem(shared.1)]);
    }
    for &(a, b) in f_pairs {
        let (a, b) = (elem(a), elem(b));
        if s.relation(f).iter().all(|t| t[0] != a && t[1] != b) {
            s.insert(f, &[a, b]);
        }
    }
    for &(a, b) in g_pairs {
        let (a, b) = (elem(a), elem(b));
        if s.relation(g).iter().all(|t| t[0] != a) {
            s.insert(g, &[a, b]);
        }
    }
    for &a in marks {
        s.insert(m, &[elem(a)]);
    }
    let mut catalog = mdtw_datalog::FdCatalog::new();
    catalog.declare(f, vec![0], vec![1]);
    catalog.declare(f, vec![1], vec![0]);
    catalog.declare(g, vec![0], vec![1]);
    (s, catalog)
}

fn literal(pred: PredRef, terms: Vec<Term>, positive: bool) -> Literal {
    Literal {
        atom: Atom { pred, terms },
        positive,
    }
}

/// A quasi-guarded skeleton `(var_count, extensional literals)`: a guard
/// binding `X0` (and `X1` for binary guards; with a repeated variable or
/// a constant for some kinds), a chain of lookups each binding one new
/// variable through a declared dependency from a bound one, and residual
/// literals — positive or negated, over bound variables and constants.
fn build_skeleton(raw: &RawSkeleton, s: &Structure) -> (u32, Vec<Literal>) {
    let [f, g, m] = ["f", "g", "m"].map(|p| PredRef::Edb(s.signature().lookup(p).unwrap()));
    let n = s.domain().len() as u32;
    let c = |k: u8| Term::Const(ElemId(k as u32 % n));
    let v = |i: u32| Term::Var(Var(i));
    let (guard, steps, residual) = raw;
    let mut edb = Vec::new();
    let mut vars = match guard % 5 {
        0 => {
            edb.push(literal(m, vec![v(0)], true));
            1
        }
        1 => {
            edb.push(literal(f, vec![v(0), v(1)], true));
            2
        }
        2 => {
            edb.push(literal(g, vec![v(0), v(1)], true));
            2
        }
        3 => {
            edb.push(literal(f, vec![v(0), v(0)], true));
            1
        }
        _ => {
            edb.push(literal(g, vec![v(0), c(guard / 5)], true));
            1
        }
    };
    for &(kind, from) in steps {
        let (bound, new) = (v(from as u32 % vars), v(vars));
        edb.push(match kind % 3 {
            0 => literal(f, vec![bound, new], true),
            1 => literal(f, vec![new, bound], true),
            _ => literal(g, vec![bound, new], true),
        });
        vars += 1;
    }
    let term = |x: u8| {
        if x % 4 == 3 {
            c(x / 4)
        } else {
            v(x as u32 % vars)
        }
    };
    for &(kind, a, b) in residual {
        let (pred, terms) = match kind % 3 {
            0 => (m, vec![term(a)]),
            1 => (f, vec![term(a), term(b)]),
            _ => (g, vec![term(a), term(b)]),
        };
        edb.push(literal(pred, terms, kind % 2 == 0));
    }
    (vars, edb)
}

/// An intensional atom over `p0/1`, `p1/1`, `p2/2` or the 0-ary `z`;
/// `term` maps a raw argument to a variable or a constant.
fn idb_atom(kind: u8, a: u8, b: u8, term: &dyn Fn(u8) -> Term) -> Atom {
    let (pred, terms) = match kind % 4 {
        0 => (0, vec![term(a)]),
        1 => (1, vec![term(a)]),
        2 => (2, vec![term(a), term(b)]),
        _ => (3, vec![]),
    };
    Atom {
        pred: PredRef::Idb(IdbId(pred)),
        terms,
    }
}

/// Several rules per skeleton, differing only in intensional body atoms
/// (some repeating one) and heads, plus a rule whose two intensional body
/// atoms are one ground atom wherever `f` and `g` share a pair, and one
/// variable-free rule.
fn build_grouped_program(
    skeletons: &[RawSkeleton],
    members: &[RawMember],
    var_free: (u8, u8, u8),
    s: &Structure,
) -> Program {
    let mut program = Program::default();
    for (name, arity) in [("p0", 1), ("p1", 1), ("p2", 2), ("z", 0)] {
        program.intern_idb(name, arity).unwrap();
    }
    let n = s.domain().len() as u32;
    let c = |k: u8| Term::Const(ElemId(k as u32 % n));
    let skeletons: Vec<_> = skeletons.iter().map(|r| build_skeleton(r, s)).collect();
    for (pick, (hk, ha, hb), body_raw, repeat) in members {
        let (vars, edb) = &skeletons[*pick as usize % skeletons.len()];
        let term = |x: u8| {
            if x % 5 == 4 {
                c(x / 5)
            } else {
                Term::Var(Var(x as u32 % vars))
            }
        };
        let mut idb: Vec<Literal> = body_raw
            .iter()
            .map(|&(k, a, b)| Literal {
                atom: idb_atom(k, a, b, &term),
                positive: true,
            })
            .collect();
        if repeat % 2 == 1 {
            if let Some(first) = idb.first().cloned() {
                idb.push(first);
            }
        }
        // Where the intensional literals sit must not matter.
        let body = if hk / 4 % 2 == 0 {
            [idb, edb.clone()].concat()
        } else {
            [edb.clone(), idb].concat()
        };
        program.rules.push(Rule {
            head: idb_atom(*hk, *ha, *hb, &term),
            body,
            var_count: *vars,
            var_names: (0..*vars).map(|i| format!("X{i}")).collect(),
        });
    }
    let [f, g, m] = ["f", "g", "m"].map(|p| PredRef::Edb(s.signature().lookup(p).unwrap()));
    // p2(X1, X2) :- f(X0, X1), g(X0, X2), p0(X1), p0(X2): the guard binds
    // X1 and the lookup X2, two slots that bind one element (and so one
    // atom id) on the shared pair.
    let v = |i: u32| Term::Var(Var(i));
    let p0 = |x: Term| Literal {
        atom: Atom {
            pred: PredRef::Idb(IdbId(0)),
            terms: vec![x],
        },
        positive: true,
    };
    program.rules.push(Rule {
        head: Atom {
            pred: PredRef::Idb(IdbId(2)),
            terms: vec![v(1), v(2)],
        },
        body: vec![
            literal(f, vec![v(0), v(1)], true),
            literal(g, vec![v(0), v(2)], true),
            p0(v(1)),
            p0(v(2)),
        ],
        var_count: 3,
        var_names: (0..3).map(|i| format!("X{i}")).collect(),
    });
    let (kind, a, b) = var_free;
    program.rules.push(Rule {
        head: idb_atom(kind / 2, b, a, &c),
        body: vec![
            literal(m, vec![c(a)], kind % 2 == 0),
            literal(f, vec![c(a), c(b)], kind % 3 != 0),
            Literal {
                atom: idb_atom(kind, b, a, &c),
                positive: true,
            },
        ],
        var_count: 0,
        var_names: Vec::new(),
    });
    for rule in &program.rules {
        assert!(rule.is_safe(), "generator must only build safe rules");
    }
    program
}

/// The size of `P′` by brute force: every variable assignment of a rule
/// satisfying all its extensional literals is one ground rule, and the
/// distinct intensional atoms those assignments instantiate are the
/// ground atoms.
fn brute_force_grounding(p: &Program, s: &Structure) -> (usize, usize) {
    let n = s.domain().len();
    let mut rules = 0;
    let mut atoms = std::collections::HashSet::new();
    for rule in &p.rules {
        let k = rule.var_count;
        for code in 0..n.pow(k) {
            let value = |t: &Term| match *t {
                Term::Const(e) => e,
                Term::Var(v) => ElemId((code / n.pow(v.0) % n) as u32),
            };
            let args = |a: &Atom| a.terms.iter().map(value).collect::<Vec<_>>();
            let holds = rule.body.iter().all(|l| match l.atom.pred {
                PredRef::Edb(pred) => s.holds(pred, &args(&l.atom)) == l.positive,
                PredRef::Idb(_) => true,
            });
            if !holds {
                continue;
            }
            rules += 1;
            let idb_atoms = std::iter::once(&rule.head).chain(
                rule.body
                    .iter()
                    .map(|l| &l.atom)
                    .filter(|a| matches!(a.pred, PredRef::Idb(_))),
            );
            for a in idb_atoms {
                atoms.insert((a.pred, args(a)));
            }
        }
    }
    (rules, atoms.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Rules sharing extensional skeletons, grounded group by group by the
    /// quasi-guarded session: the store is bit-identical to the indexed
    /// engine's (cold and warm) and to the decoded least model of the
    /// expanded ground program `ground` returns, so solving the instances
    /// without expanding them derives exactly `P′`'s model, repeated body
    /// atoms and atoms two slots share included. `|P′|` — ground rules
    /// and ground atoms — equals the brute-force count, so the grouping
    /// changes how `P′` is built, not `P′` itself.
    #[test]
    fn quasi_guarded_grouping_matches_indexed_and_brute_force_counts(
        n in 2usize..6,
        shared in (0u8..8, 0u8..8),
        f_pairs in vec((0u8..8, 0u8..8), 0..8),
        g_pairs in vec((0u8..8, 0u8..8), 0..8),
        marks in vec(0u8..8, 0..5),
        (skeletons, members, var_free) in (
            vec(
                (
                    0u8..10,
                    vec((0u8..3, 0u8..4), 0..3),
                    vec((0u8..6, 0u8..16, 0u8..16), 0..3),
                ),
                1..4,
            ),
            vec(
                (
                    0u8..8,
                    (0u8..8, 0u8..16, 0u8..16),
                    vec((0u8..4, 0u8..16, 0u8..16), 0..3),
                    0u8..4,
                ),
                2..9,
            ),
            (0u8..6, 0u8..8, 0u8..8),
        ),
    ) {
        let (s, catalog) = fd_structure(n, shared, &f_pairs, &g_pairs, &marks);
        let p = build_grouped_program(&skeletons, &members, var_free, &s);
        let (indexed, _) = eval(&p, &s);
        let grounding = ground(&p, &s, &catalog).unwrap();
        let model = grounding.horn.least_model();
        let mut session =
            Evaluator::with_options(p.clone(), EvalOptions::new().fd_catalog(catalog)).unwrap();
        prop_assert_eq!(session.engine(), Engine::QuasiGuarded);
        let cold = session.evaluate(&s).unwrap();
        let warm = session.evaluate(&s).unwrap();
        for idb in 0..p.idb_count() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(indexed.tuples(id), cold.store.tuples(id), "cold, idb {}", idb);
            prop_assert_eq!(indexed.tuples(id), warm.store.tuples(id), "warm, idb {}", idb);
            for tuple in cold.store.tuples(id) {
                let atom = grounding.atom_id(id, &tuple).expect("derived atoms are ground atoms");
                prop_assert!(model[atom as usize], "idb {} {:?} not in the oracle", idb, tuple);
            }
        }
        let oracle_facts = model.iter().filter(|&&t| t).count();
        prop_assert_eq!(cold.store.fact_count(), oracle_facts, "facts of the expanded oracle");
        let stats = cold.qg.unwrap();
        prop_assert_eq!(Some(stats), warm.qg);
        prop_assert_eq!(stats, grounding.stats);
        prop_assert_eq!(stats.ground_rules, grounding.horn.rule_count());
        let (rules, atoms) = brute_force_grounding(&p, &s);
        prop_assert_eq!(stats.ground_rules, rules, "ground rules");
        prop_assert_eq!(stats.ground_atoms, atoms, "ground atoms");
        // One guard pass per distinct skeleton, not per rule.
        let distinct: std::collections::HashSet<_> = p
            .rules
            .iter()
            .map(|r| {
                let edb: Vec<&Literal> =
                    r.body.iter().filter(|l| matches!(l.atom.pred, PredRef::Edb(_))).collect();
                (r.var_count, edb)
            })
            .collect();
        let largest = s.signature().preds().map(|p| s.relation(p).len()).max().unwrap_or(0);
        prop_assert!(stats.guard_instantiations <= distinct.len() * largest.max(1));
    }
}
