//! A corpus of classical datalog programs exercising the engine beyond
//! the paper's fragment: non-linear recursion, mutual recursion,
//! same-generation, negation — each checked against hand-computed
//! results and across evaluation strategies.

use mdtw_datalog::{parse_program, Evaluator};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use mdtw_tests::naive_model;
use std::sync::Arc;

/// A small directed graph with a parent relation for same-generation.
fn family() -> Structure {
    let sig = Arc::new(Signature::from_pairs([("parent", 2)]));
    let mut dom = Domain::new();
    let names = ["alice", "bob", "carol", "dave", "eve", "frank"];
    let ids: Vec<ElemId> = names.iter().map(|n| dom.insert(*n)).collect();
    let mut s = Structure::new(sig, dom);
    let p = s.signature().lookup("parent").unwrap();
    // alice's children are carol and dave (siblings); eve and frank are
    // grandchildren through carol and dave respectively; bob is isolated.
    for (a, b) in [(0, 2), (0, 3), (2, 4), (3, 5)] {
        s.insert(p, &[ids[a], ids[b]]);
    }
    s
}

#[test]
fn same_generation() {
    let s = family();
    let program = "sg(X, X) :- parent(X, Y).\n\
                   sg(X, X) :- parent(Y, X).\n\
                   sg(X, Y) :- parent(Xp, X), parent(Yp, Y), sg(Xp, Yp).";
    let p = parse_program(program, &s).unwrap();
    let mut session = Evaluator::new(p).unwrap();
    let store = session.evaluate(&s).unwrap().store;
    let p = session.program();
    let sg = p.idb("sg").unwrap();
    let carol = s.domain().lookup("carol").unwrap();
    let dave = s.domain().lookup("dave").unwrap();
    let eve = s.domain().lookup("eve").unwrap();
    let frank = s.domain().lookup("frank").unwrap();
    assert!(store.holds(sg, &[carol, dave]));
    assert!(store.holds(sg, &[eve, frank]));
    assert!(!store.holds(sg, &[carol, eve]));
}

#[test]
fn mutual_recursion_even_odd() {
    let sig = Arc::new(Signature::from_pairs([("succ", 2), ("zero", 1)]));
    let dom = Domain::anonymous(6);
    let mut s = Structure::new(sig, dom);
    let succ = s.signature().lookup("succ").unwrap();
    let zero = s.signature().lookup("zero").unwrap();
    s.insert(zero, &[ElemId(0)]);
    for i in 0..5u32 {
        s.insert(succ, &[ElemId(i), ElemId(i + 1)]);
    }
    let program = "even(X) :- zero(X).\n\
                   odd(Y) :- even(X), succ(X, Y).\n\
                   even(Y) :- odd(X), succ(X, Y).";
    let p = parse_program(program, &s).unwrap();
    let mut session = Evaluator::new(p).unwrap();
    let store = session.evaluate(&s).unwrap().store;
    let p = session.program();
    let even = p.idb("even").unwrap();
    let odd = p.idb("odd").unwrap();
    assert_eq!(store.unary(even), vec![ElemId(0), ElemId(2), ElemId(4)]);
    assert_eq!(store.unary(odd), vec![ElemId(1), ElemId(3), ElemId(5)]);
}

#[test]
fn nonlinear_transitive_closure() {
    // path(X,Z) :- path(X,Y), path(Y,Z): quadratic rule, same fixpoint.
    let sig = Arc::new(Signature::from_pairs([("e", 2)]));
    let dom = Domain::anonymous(8);
    let mut s = Structure::new(sig, dom);
    let e = s.signature().lookup("e").unwrap();
    for i in 0..7u32 {
        s.insert(e, &[ElemId(i), ElemId(i + 1)]);
    }
    let linear = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
        &s,
    )
    .unwrap();
    let nonlinear = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
        &s,
    )
    .unwrap();
    let pa = linear.idb("path").unwrap();
    let pb = nonlinear.idb("path").unwrap();
    let a = Evaluator::new(linear).unwrap().evaluate(&s).unwrap().store;
    let b = Evaluator::new(nonlinear)
        .unwrap()
        .evaluate(&s)
        .unwrap()
        .store;
    assert_eq!(a.tuples(pa), b.tuples(pb));
    assert_eq!(a.tuples(pa).len(), 7 + 6 + 5 + 4 + 3 + 2 + 1);
}

#[test]
fn semipositive_negation_complement() {
    // Unreachable vertices = all vertices minus reachable ones.
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("v", 1), ("start", 1)]));
    let dom = Domain::anonymous(6);
    let mut s = Structure::new(sig, dom);
    let e = s.signature().lookup("e").unwrap();
    let v = s.signature().lookup("v").unwrap();
    let start = s.signature().lookup("start").unwrap();
    for i in 0..6u32 {
        s.insert(v, &[ElemId(i)]);
    }
    s.insert(start, &[ElemId(0)]);
    s.insert(e, &[ElemId(0), ElemId(1)]);
    s.insert(e, &[ElemId(1), ElemId(2)]);
    s.insert(e, &[ElemId(3), ElemId(4)]); // disconnected component
    let p = parse_program(
        "reach(X) :- start(X).\nreach(Y) :- reach(X), e(X, Y).\n\
         dead(X) :- v(X), !start(X), !e(x0, X), !e(x1, X), !e(x3, X).",
        &s,
    )
    .unwrap();
    let mut session = Evaluator::new(p).unwrap();
    let store = session.evaluate(&s).unwrap().store;
    let p = session.program();
    let reach = p.idb("reach").unwrap();
    assert_eq!(store.unary(reach), vec![ElemId(0), ElemId(1), ElemId(2)]);
    let dead = p.idb("dead").unwrap();
    // 3 and 5 have no incoming edges from 0,1,3 and are not the start:
    // 3 qualifies (no incoming at all), 5 qualifies, 4 has e(3,4).
    assert_eq!(store.unary(dead), vec![ElemId(3), ElemId(5)]);
}

#[test]
fn naive_and_seminaive_agree_on_corpus() {
    let s = family();
    let programs = [
        "anc(X, Y) :- parent(X, Y).\nanc(X, Z) :- anc(X, Y), parent(Y, Z).",
        "sg(X, X) :- parent(X, Y).\nsg(X, X) :- parent(Y, X).\n\
         sg(X, Y) :- parent(Xp, X), parent(Yp, Y), sg(Xp, Yp).",
        "proud(X) :- parent(X, Y), !parent(Y, X).",
    ];
    for (i, src) in programs.iter().enumerate() {
        let p = parse_program(src, &s).unwrap();
        let naive = naive_model(&p, &s);
        let result = Evaluator::new(p.clone()).unwrap().evaluate(&s).unwrap();
        for (idb, model) in naive.relations.iter().enumerate() {
            let id = mdtw_datalog::IdbId(idb as u32);
            assert_eq!(&result.store.tuples(id), model, "program {i}, idb {idb}");
        }
        assert_eq!(result.stats.firings, naive.instantiations, "program {i}");
    }
}
