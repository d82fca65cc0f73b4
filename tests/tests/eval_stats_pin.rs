//! Exact [`EvalStats`] of the semi-naive engine on five fixed workloads.
//!
//! The counters are the engine's observable work: how many rule
//! instantiations fired, how many facts and duplicates they produced, and
//! how many candidate tuples, index probes, scans and negation checks the
//! joins cost. A change to the fixpoint's storage (how a round's delta is
//! read, where derived heads are deduplicated) must leave every one of
//! them as it is; a change to the join order or the rule split shows up
//! here first. Every derived head is either a new fact or a duplicate, so
//! `interned_hits + facts == firings` on each workload.
//!
//! The workloads: linear and nonlinear transitive closure on chains, the
//! Theorem 4.5 `has_neighbor` program over the τ_td encoding of one
//! seeded random forest, single-source reachability on a layered diamond
//! DAG, where every vertex past the first layer is derived once per
//! predecessor in the same round, and a rule whose delta literal carries
//! a constant, so its delta is read through an index probe.

use mdtw_datalog::{parse_program, Engine, EvalOptions, EvalStats, Evaluator, Program};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TupleTd};
use mdtw_graph::{encode_graph, graph_signature, Graph};
use mdtw_mso::{compile::compile_unary_filtered, has_neighbor, CompileLimits, IndVar};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The pinned counters, in the order `firings, facts, interned_hits,
/// rounds, tuples_considered, index_probes, full_scans, negative_checks`.
type Pinned = [usize; 8];

fn pinned(stats: &EvalStats) -> Pinned {
    [
        stats.firings,
        stats.facts,
        stats.interned_hits,
        stats.rounds,
        stats.tuples_considered,
        stats.index_probes,
        stats.full_scans,
        stats.negative_checks,
    ]
}

/// Evaluates `program` over `s` in a fresh session with `options` and
/// checks the counters against `expected`.
fn assert_stats(program: Program, options: EvalOptions, s: &Structure, expected: Pinned) {
    let stats = Evaluator::with_options(program, options)
        .unwrap()
        .evaluate(s)
        .unwrap()
        .stats;
    assert_eq!(
        stats.interned_hits + stats.facts,
        stats.firings,
        "every derived head is a new fact or a duplicate"
    );
    assert_eq!(
        pinned(&stats),
        expected,
        "[firings, facts, interned_hits, rounds, tuples_considered, \
         index_probes, full_scans, negative_checks]"
    );
}

fn chain(n: usize) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2)]));
    let mut s = Structure::new(sig, Domain::anonymous(n));
    let e = s.signature().lookup("e").unwrap();
    for i in 0..n as u32 - 1 {
        s.insert(e, &[ElemId(i), ElemId(i + 1)]);
    }
    s
}

#[test]
fn linear_tc_on_chain_60() {
    let s = chain(60);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
        &s,
    )
    .unwrap();
    assert_stats(
        p,
        EvalOptions::new(),
        &s,
        [1770, 1770, 0, 60, 3540, 1770, 2, 0],
    );
}

#[test]
fn nonlinear_tc_on_chain_30() {
    let s = chain(30);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
        &s,
    )
    .unwrap();
    assert_stats(
        p,
        EvalOptions::new(),
        &s,
        [4089, 435, 3654, 7, 4959, 870, 2, 0],
    );
}

/// A delta literal with a constant: `from0`'s delta pass reads `path`'s
/// frontier through an index probe keyed by `x0`, so it cuts a bucket at
/// the round boundary instead of scanning the delta rows.
#[test]
fn delta_probe_with_a_constant_on_chain_40() {
    let s = chain(40);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).\n\
         from0(Y) :- path(x0, Y).",
        &s,
    )
    .unwrap();
    assert_stats(
        p,
        EvalOptions::new(),
        &s,
        [819, 819, 0, 41, 1599, 820, 2, 0],
    );
}

/// The symmetric irreflexive edge relations `has_neighbor` is compiled for.
fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("graph signature has e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

#[test]
fn has_neighbor_on_a_seeded_tau_td_forest() {
    let n = 120;
    let mut rng = SmallRng::seed_from_u64(2107);
    let mut g = Graph::new(n);
    for v in 1..n as u32 {
        if rng.random::<f64>() < 0.7 {
            g.add_edge(rng.random_range(0..v), v);
        }
    }
    let graph = encode_graph(&g);
    let td = decompose(&graph, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, n, 1).expect("forests have width 1");
    let s = encode_tuple_td(&graph, &tuple_td).structure;
    let compiled = compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &Arc::new(graph_signature()),
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits");
    let options = EvalOptions::new().engine(Engine::SemiNaiveIndexed);
    assert_stats(
        compiled.program,
        options,
        &s,
        [1321, 742, 579, 74, 60000, 57851, 812, 4124],
    );
}

/// `layers` layers of `width` vertices after a single source, with an
/// edge from every vertex of a layer to every vertex of the next.
fn layered_diamond(layers: u32, width: u32) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("src", 1)]));
    let mut s = Structure::new(sig, Domain::anonymous((1 + layers * width) as usize));
    let e = s.signature().lookup("e").unwrap();
    let src = s.signature().lookup("src").unwrap();
    s.insert(src, &[ElemId(0)]);
    let layer = |l: u32| (0..width).map(move |i| ElemId(1 + l * width + i));
    for v in layer(0) {
        s.insert(e, &[ElemId(0), v]);
    }
    for l in 1..layers {
        for u in layer(l - 1) {
            for v in layer(l) {
                s.insert(e, &[u, v]);
            }
        }
    }
    s
}

#[test]
fn reach_on_a_layered_diamond_dag() {
    let s = layered_diamond(6, 4);
    let p = parse_program("reach(X) :- src(X).\nreach(Y) :- reach(X), e(X, Y).", &s).unwrap();
    assert_stats(p, EvalOptions::new(), &s, [85, 25, 60, 8, 110, 25, 2, 0]);
}
