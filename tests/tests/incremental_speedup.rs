//! The incremental-maintenance speed gate: on a segmented linear-TC
//! chain of 1000 nodes, a [`MaterializedView`] must absorb a mixed batch
//! touching ≈1 % of the base facts at least 5× faster than a warm
//! session re-evaluates the mutated structure from scratch.
//!
//! The view is first checked once against a fresh evaluation (store
//! equality, relation by relation). Then maintain and recompute samples
//! are timed interleaved, so a slow phase of the machine hits both
//! sides, and the gate compares their medians.

use mdtw_datalog::{parse_program, Evaluator, IdbId, MaterializedView, Program, Update};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use std::sync::Arc;
use std::time::Instant;

const LINEAR_TC_PROGRAM: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";

/// Segment length of the [`incremental_tc_workload`] chain: edges never
/// cross segment boundaries, so the TC fixpoint is Θ(n·L) rather than
/// Θ(n²).
const INCREMENTAL_SEGMENT: usize = 100;

/// Chain length of the gated workload.
const GATE_N: usize = 1000;

/// Timed samples per side (odd, so the median is one sample).
const SAMPLES: usize = 11;

/// Required ratio of the recompute median to the maintain median.
const MIN_SPEEDUP: f64 = 5.0;

/// A segmented chain materialized once as a view, then maintained under
/// two complementary mixed batches.
struct IncrementalTcWorkload {
    /// The initial base structure (odd segments carry their flip edge,
    /// even segments start without theirs).
    structure: Structure,
    /// The base structure after [`Self::batch_a`]: what the recompute
    /// side evaluates from scratch.
    mutated: Structure,
    /// [`LINEAR_TC_PROGRAM`] parsed against the workload signature.
    program: Program,
    /// The forward batch: inserts even-segment flip edges, retracts
    /// odd-segment ones, half inserts and half retracts.
    batch_a: Update,
    /// The exact inverse of [`Self::batch_a`]; applying A then B returns
    /// the view to its initial state, so batches can alternate forever.
    batch_b: Update,
    /// Edges toggled per batch.
    flips: usize,
    /// Base facts in the initial structure.
    base_facts: usize,
}

/// Builds the workload: a chain of `n` nodes cut into
/// [`INCREMENTAL_SEGMENT`]-node segments (no edges across boundaries),
/// with one *flip* edge near the end of each segment, present initially
/// only in odd segments. Each batch toggles the flip edges of the first
/// `flips` segments (capped at 1 % of the base facts), so one batch mixes
/// inserts and retracts and each toggle moves Θ(L) derived TC facts.
fn incremental_tc_workload(n: usize) -> IncrementalTcWorkload {
    assert!(n >= 4, "the segmented chain needs at least 4 elements");
    let seg = n.min(INCREMENTAL_SEGMENT);
    let segments = n / seg;
    let sig = Arc::new(Signature::from_pairs([("e", 2)]));
    let mut s = Structure::new(sig, Domain::anonymous(n));
    let e = s.signature().lookup("e").unwrap();
    let flip_edge = |k: usize| {
        let p = (k * seg + seg - 2) as u32;
        [ElemId(p), ElemId(p + 1)]
    };
    for i in 0..n - 1 {
        if (i + 1) % seg == 0 {
            continue; // no edges across segment boundaries
        }
        if i % seg == seg - 2 && (i / seg).is_multiple_of(2) && i / seg < segments {
            continue; // even segments start without their flip edge
        }
        s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
    }
    let base_facts = s.relation(e).len();
    let flips = segments.min((base_facts / 100).max(1));
    let (mut batch_a, mut batch_b) = (Update::new(), Update::new());
    let mut mutated = s.clone();
    for k in 0..flips {
        let t = flip_edge(k);
        if k.is_multiple_of(2) {
            batch_a.push_insert(e, &t);
            batch_b.push_retract(e, &t);
            mutated.insert(e, &t);
        } else {
            batch_a.push_retract(e, &t);
            batch_b.push_insert(e, &t);
            mutated.retract(e, &t);
        }
    }
    let program = parse_program(LINEAR_TC_PROGRAM, &s).unwrap();
    IncrementalTcWorkload {
        structure: s,
        mutated,
        program,
        batch_a,
        batch_b,
        flips,
        base_facts,
    }
}

fn materialize(w: &IncrementalTcWorkload) -> MaterializedView {
    Evaluator::new(w.program.clone())
        .expect("semipositive")
        .materialize(&w.structure)
        .expect("indexed engine")
}

/// Asserts that the view's store equals a fresh evaluation of
/// `expected`, relation by relation.
fn assert_matches_scratch(view: &MaterializedView, expected: &Structure, ctx: &str) {
    let fresh = Evaluator::new(view.program().clone())
        .unwrap()
        .evaluate(expected)
        .unwrap();
    for i in 0..view.program().idb_count() {
        let id = IdbId(i as u32);
        assert_eq!(
            view.store().tuples(id),
            fresh.store.tuples(id),
            "{ctx}: `{}` diverged from scratch evaluation",
            view.program().idb_names[i]
        );
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
fn incremental_workload_batches_are_small_and_invertible() {
    let w = incremental_tc_workload(800);
    assert!(w.flips >= 2, "a mixed batch needs inserts and retracts");
    assert_eq!(w.batch_a.len(), w.flips);
    assert_eq!(w.batch_b.len(), w.flips);
    // The small-batch contract: ≤ 1 % of the base facts per batch.
    assert!(
        w.flips * 100 <= w.base_facts,
        "{} flips exceed 1 % of {} base facts",
        w.flips,
        w.base_facts
    );
    // Applying the forward batch moves the fixpoint; applying its
    // inverse restores it exactly: the oscillation the timed maintain
    // side relies on.
    let mut view = materialize(&w);
    let initial = view.store().fact_count();
    view.apply(&w.batch_a);
    assert_ne!(view.store().fact_count(), initial);
    assert_matches_scratch(&view, &w.mutated, "after batch_a");
    view.apply(&w.batch_b);
    assert_eq!(view.store().fact_count(), initial);
}

#[test]
fn maintenance_beats_recompute_fivefold() {
    let w = incremental_tc_workload(GATE_N);
    let mut view = materialize(&w);
    view.apply(&w.batch_a);
    assert_matches_scratch(&view, &w.mutated, "after batch_a");
    view.apply(&w.batch_b);
    assert_matches_scratch(&view, &w.structure, "after batch_b");

    let mut session = Evaluator::new(w.program.clone()).expect("semipositive");
    let recompute_facts = session.evaluate(&w.mutated).unwrap().store.fact_count();
    let (mut maintain, mut recompute) = (Vec::new(), Vec::new());
    for i in 0..SAMPLES {
        let batch = if i % 2 == 0 { &w.batch_a } else { &w.batch_b };
        let start = Instant::now();
        view.apply(batch);
        maintain.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let facts = session.evaluate(&w.mutated).unwrap().store.fact_count();
        recompute.push(start.elapsed().as_secs_f64());
        assert_eq!(facts, recompute_facts);
    }
    let (maintain, recompute) = (median(maintain), median(recompute));
    let speedup = recompute / maintain;
    eprintln!(
        "incremental_tc n={GATE_N}: maintain {:.3} ms, recompute {:.3} ms, {speedup:.1}x",
        maintain * 1e3,
        recompute * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "maintenance speedup {speedup:.1}x < {MIN_SPEEDUP}x \
         (median maintain {maintain:.6} s, median recompute {recompute:.6} s)"
    );
}
