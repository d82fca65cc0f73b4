//! Shared harness code for regenerating the paper's evaluation (§6).
//!
//! The single measured artifact in the paper is **Table 1**: PRIMALITY
//! processing time at treewidth 3 for growing schemas, monadic datalog
//! ("MD") against MONA-style MSO model checking ("MONA", which runs out
//! of memory beyond the third row). [`table1`] reproduces the table with
//! our from-scratch substitutes: the Figure 6 solver for MD and the naive
//! MSO model checker (budgeted) for MONA.

use mdtw_core::{is_prime_fpt_with_td, PrimalityContext};
use mdtw_mso::{eval_unary, primality, Budget, IndVar, Mso};
use mdtw_schema::{block_tree_instance, GeneratedInstance, TABLE1_FD_COUNTS};
use std::time::Instant;

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Treewidth of the generated decomposition (always ≤ 3).
    pub tw: usize,
    /// Number of attributes.
    pub n_att: usize,
    /// Number of FDs.
    pub n_fd: usize,
    /// Number of (nice) decomposition tree nodes.
    pub n_tn: usize,
    /// Monadic-datalog decision time, microseconds.
    pub md_micros: f64,
    /// MSO model-checking time in microseconds, or `None` when the step
    /// budget (the stand-in for the paper's 512 MB) was exhausted — the
    /// "–" entries of the paper.
    pub mona_micros: Option<f64>,
}

/// The step budget granted to the MSO baseline per query. Calibrated so
/// the first rows finish and later rows exceed it, like MONA's
/// out-of-memory failures in the paper.
pub const MONA_STEP_BUDGET: u64 = 20_000_000;

/// Builds the workload of one row (`k` = number of FDs = blocks).
pub fn row_instance(k: usize) -> GeneratedInstance {
    block_tree_instance(k)
}

/// Measures one row. The queried attribute is `u0` (prime, so both
/// engines do full work: the certificate must be verified everywhere).
pub fn measure_row(k: usize, with_mona: bool) -> Table1Row {
    let inst = row_instance(k);
    let target = inst.schema.attr("u0").expect("u0 exists");

    // Monadic datalog (Figure 6) — decision, including the context setup
    // from the generated decomposition, as in the paper's measurements.
    let md_start = Instant::now();
    let enc2 = mdtw_schema::encode_schema(&inst.schema);
    let is_prime = is_prime_fpt_with_td(enc2, inst.td.clone(), target);
    let md_micros = md_start.elapsed().as_secs_f64() * 1e6;
    assert!(is_prime, "u0 is prime by construction");

    // Decomposition statistics for the #tn column.
    let ctx =
        PrimalityContext::from_parts(mdtw_schema::encode_schema(&inst.schema), inst.td.clone());
    let n_tn = ctx.nice.len();
    let tw = ctx.nice.width();

    let mona_micros = if with_mona {
        let phi: Mso = primality();
        let elem = inst.encoding.elem_of_attr(target);
        let mut budget = Budget::new(MONA_STEP_BUDGET);
        let mona_start = Instant::now();
        match eval_unary(&phi, IndVar(0), &inst.encoding.structure, elem, &mut budget) {
            Ok(answer) => {
                assert!(answer, "MSO and MD must agree");
                Some(mona_start.elapsed().as_secs_f64() * 1e6)
            }
            Err(_) => None,
        }
    } else {
        None
    };

    Table1Row {
        tw,
        n_att: inst.schema.attr_count(),
        n_fd: inst.schema.fd_count(),
        n_tn,
        md_micros,
        mona_micros,
    }
}

/// Regenerates all rows of Table 1. `mona_rows` limits how many rows the
/// exponential baseline is attempted on (it only ever completes the first
/// few, but attempting all of them costs the full budget each time).
pub fn table1(mona_rows: usize) -> Vec<Table1Row> {
    TABLE1_FD_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &k)| measure_row(k, i < mona_rows))
        .collect()
}

/// Renders rows in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("tw  #Att  #FD  #tn   MD(us)      MONA(us)\n");
    for r in rows {
        let mona = match r.mona_micros {
            Some(us) => format!("{us:.0}"),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<3} {:<5} {:<4} {:<5} {:<11.0} {}\n",
            r.tw, r.n_att, r.n_fd, r.n_tn, r.md_micros, mona
        ));
    }
    out
}

/// Renders rows as a machine-readable JSON array (hand-rolled: the build
/// environment has no serde). `mona_us` is `null` for budget-exhausted
/// rows. Consumed by cross-commit perf tracking of the `table1` bin's
/// `--json` mode.
pub fn render_table1_json(rows: &[Table1Row]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mona = match r.mona_micros {
            Some(us) => format!("{us:.1}"),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "\n  {{\"tw\": {}, \"n_att\": {}, \"n_fd\": {}, \"n_tn\": {}, \
             \"md_us\": {:.1}, \"mona_us\": {}}}",
            r.tw, r.n_att, r.n_fd, r.n_tn, r.md_micros, mona
        ));
    }
    out.push_str("\n]");
    out
}

// ---------------------------------------------------------------------------
// Join-engine perf report (`bench_report` bin)
// ---------------------------------------------------------------------------

/// One measured row of the join-engine performance report: a workload at a
/// fixed size, evaluated by one engine, with wall-clock and work counters.
/// Written to `BENCH_joins.json` by the `bench_report` bin so the perf
/// trajectory of the semi-naive engine is recorded across PRs.
#[derive(Debug, Clone)]
pub struct JoinBenchRow {
    /// Workload name (`linear_tc`, `budgeted_tc`, `reach_linearity`,
    /// `stratified_reach`, `magic_point_query` or `per_candidate`).
    pub workload: String,
    /// Engine name (`indexed`, `governed`, `stratified`, `full`,
    /// `magic`, `session` or `per_call`).
    pub engine: String,
    /// Structure size (chain length).
    pub n: usize,
    /// Distinct facts derived by the evaluation.
    pub facts: usize,
    /// Mean nanoseconds per full evaluation.
    pub nanos_per_eval: f64,
    /// Mean nanoseconds per derived fact (the headline metric).
    pub ns_per_fact: f64,
    /// Work counters of one evaluation.
    pub stats: mdtw_datalog::EvalStats,
}

fn chain_structure_for_bench(n: usize, preds: &[(&str, usize)]) -> mdtw_structure::Structure {
    use mdtw_structure::{Domain, Signature, Structure};
    let sig = std::sync::Arc::new(Signature::from_pairs(preds.iter().copied()));
    let dom = Domain::anonymous(n);
    Structure::new(sig, dom)
}

/// Inline program of the `linear_tc` workload.
pub const LINEAR_TC_PROGRAM: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";

/// Inline program of the `reach_linearity` workload (`_Y` marks the
/// intentionally-unused join variable for the singleton-variable lint).
pub const REACH_PROGRAM: &str = "reach(X) :- first(X).\nreach(Y) :- reach(X), next(X, Y).\n\
     inner(X) :- reach(X), next(X, _Y), !first(X).";

/// Inline program of the `stratified_reach` and `per_candidate`
/// workloads: a 3-stratum negation chain.
pub const STRATIFIED_PROGRAM: &str = "reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).\n\
     unreach(X) :- node(X), !reach(X).\n\
     settled(X) :- node(X), !unreach(X), !first(X).";

/// Inline program of the `magic_point_query` workload: transitive closure
/// probed from a single source — the shape the magic-set demand
/// transformation is built for.
pub const POINT_QUERY_PROGRAM: &str = "path(X, Y) :- e(X, Y).\n\
     path(X, Z) :- path(X, Y), e(Y, Z).\n\
     answer(Y) :- source(X), path(X, Y).";

/// The point-query workload: a chain of `n` edges with a single `source`
/// fact at element 0, asking for everything reachable from it. The full
/// engine materializes all Θ(n²) `path` facts; the magic rewrite only
/// the Θ(n) demanded ones.
pub fn point_query_workload(n: usize) -> (mdtw_structure::Structure, mdtw_datalog::Program) {
    use mdtw_structure::ElemId;
    let mut s = chain_structure_for_bench(n, &[("e", 2), ("source", 1)]);
    let e = s.signature().lookup("e").unwrap();
    let source = s.signature().lookup("source").unwrap();
    s.insert(source, &[ElemId(0)]);
    for i in 0..n - 1 {
        s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
    }
    let p = mdtw_datalog::parse_program(POINT_QUERY_PROGRAM, &s).unwrap();
    (s, p)
}

fn linear_tc_workload(n: usize) -> (mdtw_structure::Structure, mdtw_datalog::Program) {
    use mdtw_structure::ElemId;
    let mut s = chain_structure_for_bench(n, &[("e", 2)]);
    let e = s.signature().lookup("e").unwrap();
    for i in 0..n - 1 {
        s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
    }
    let p = mdtw_datalog::parse_program(LINEAR_TC_PROGRAM, &s).unwrap();
    (s, p)
}

fn reach_workload(n: usize) -> (mdtw_structure::Structure, mdtw_datalog::Program) {
    use mdtw_structure::ElemId;
    let mut s = chain_structure_for_bench(n, &[("next", 2), ("first", 1)]);
    let next = s.signature().lookup("next").unwrap();
    let first = s.signature().lookup("first").unwrap();
    s.insert(first, &[ElemId(0)]);
    for i in 0..n - 1 {
        s.insert(next, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
    }
    let p = mdtw_datalog::parse_program(REACH_PROGRAM, &s).unwrap();
    (s, p)
}

/// The stratified workload: reachability from a mid-chain source, its
/// complement through negation, and a third stratum negating the
/// complement — a 3-stratum negation chain with Θ(n) facts per stratum.
pub fn stratified_workload(n: usize) -> (mdtw_structure::Structure, mdtw_datalog::Program) {
    use mdtw_structure::ElemId;
    let mut s = chain_structure_for_bench(n, &[("e", 2), ("node", 1), ("first", 1)]);
    let e = s.signature().lookup("e").unwrap();
    let node = s.signature().lookup("node").unwrap();
    let first = s.signature().lookup("first").unwrap();
    for i in 0..n {
        s.insert(node, &[ElemId(i as u32)]);
    }
    for i in 0..n - 1 {
        s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
    }
    s.insert(first, &[ElemId(n as u32 / 2)]);
    let p = mdtw_datalog::parse_program(STRATIFIED_PROGRAM, &s).unwrap();
    (s, p)
}

/// Segment length of the [`incremental_tc_workload`] chain: edges never
/// cross segment boundaries, so the TC fixpoint is Θ(n·L) rather than
/// Θ(n²) and the workload stays measurable at n = 8000.
pub const INCREMENTAL_SEGMENT: usize = 100;

/// The incremental-maintenance workload, built by
/// [`incremental_tc_workload`]: a segmented chain materialized once as a
/// [`MaterializedView`](mdtw_datalog::MaterializedView), then maintained
/// under the two complementary mixed batches.
#[derive(Debug, Clone)]
pub struct IncrementalTcWorkload {
    /// The initial base structure (odd segments carry their flip edge,
    /// even segments start without theirs).
    pub structure: mdtw_structure::Structure,
    /// The base structure after [`Self::batch_a`] — what the `recompute`
    /// baseline evaluates from scratch.
    pub mutated: mdtw_structure::Structure,
    /// [`LINEAR_TC_PROGRAM`] parsed against the workload signature.
    pub program: mdtw_datalog::Program,
    /// The forward batch: inserts even-segment flip edges, retracts
    /// odd-segment ones — ≈1 % of the base facts, half inserts, half
    /// retracts.
    pub batch_a: mdtw_datalog::Update,
    /// The exact inverse of [`Self::batch_a`]; applying A then B returns
    /// the view to its initial state, so batches can alternate forever.
    pub batch_b: mdtw_datalog::Update,
    /// Edges toggled per batch.
    pub flips: usize,
    /// Base facts in the initial structure.
    pub base_facts: usize,
}

/// Builds the `incremental_tc` workload: a chain of `n` nodes cut into
/// [`INCREMENTAL_SEGMENT`]-node segments (no edges across boundaries),
/// with one *flip* edge near the end of each segment — present initially
/// only in odd segments. Each batch toggles the flip edges of the first
/// `flips` segments (capped at 1 % of the base facts), so one batch mixes
/// inserts and retracts and each toggle moves Θ(L) derived TC facts.
pub fn incremental_tc_workload(n: usize) -> IncrementalTcWorkload {
    use mdtw_datalog::Update;
    use mdtw_structure::ElemId;
    assert!(n >= 4, "the segmented chain needs at least 4 elements");
    let seg = n.min(INCREMENTAL_SEGMENT);
    let segments = n / seg;
    let mut s = chain_structure_for_bench(n, &[("e", 2)]);
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
    let program = mdtw_datalog::parse_program(LINEAR_TC_PROGRAM, &s).unwrap();
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

/// Fail-fast static analysis of every inline workload program, run by the
/// `table1` and `bench_report` bins before they measure anything.
///
/// Each program is parsed by its workload builder (so the spans refer to
/// the `*_PROGRAM` consts) and pushed through the
/// [`analyze`](mdtw_datalog::analyze) battery. Error-level findings
/// (unsafe rules, unstratifiable negation, …) abort with the rendered
/// rustc-style diagnostics; warnings are returned for the caller to print
/// without blocking the run (notes — e.g. the expected non-monadicity of
/// `path/2` — are dropped).
pub fn preflight() -> Result<Vec<String>, String> {
    use mdtw_datalog::{analyze, AnalysisOptions, Severity};
    type Build = fn(usize) -> (mdtw_structure::Structure, mdtw_datalog::Program);
    let checks: [(&str, &str, Build); 4] = [
        ("linear_tc", LINEAR_TC_PROGRAM, linear_tc_workload),
        ("reach_linearity", REACH_PROGRAM, reach_workload),
        ("stratified_reach", STRATIFIED_PROGRAM, stratified_workload),
        (
            "magic_point_query",
            POINT_QUERY_PROGRAM,
            point_query_workload,
        ),
    ];
    let mut notes = Vec::new();
    for (name, source, build) in checks {
        let (s, program) = build(6);
        let report = analyze(
            &program,
            &AnalysisOptions::new().edb_signature(std::sync::Arc::clone(s.signature())),
        );
        let mut errors = Vec::new();
        for d in &report.diagnostics {
            match d.severity {
                Severity::Error => errors.push(d.render(Some(source), name)),
                Severity::Warning => notes.push(d.render(Some(source), name)),
                Severity::Note => {}
            }
        }
        if !errors.is_empty() {
            return Err(errors.join("\n\n"));
        }
    }
    Ok(notes)
}

/// Times `eval` until at least ~200 ms or 50 iterations have elapsed
/// (after one warm-up run) and returns mean nanoseconds per evaluation.
fn time_eval(mut eval: impl FnMut() -> usize) -> f64 {
    let _ = eval(); // warm-up (builds lazy indexes, faults pages)
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < 50 && (iters < 3 || start.elapsed() < budget) {
        std::hint::black_box(eval());
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Candidate count of the `per_candidate` workload.
pub const PER_CANDIDATE_K: usize = 8;

/// The per-candidate workload: `PER_CANDIDATE_K` copies of the 3-stratum
/// reachability chain, each with its `first` source at a different
/// position — the shape of the §5 solvers, which evaluate one program
/// against many candidate structures. Returns the candidate structures
/// and the (shared) program.
pub fn per_candidate_workload(n: usize) -> (Vec<mdtw_structure::Structure>, mdtw_datalog::Program) {
    use mdtw_structure::ElemId;
    let mut structures = Vec::with_capacity(PER_CANDIDATE_K);
    let mut program = None;
    for k in 0..PER_CANDIDATE_K {
        let mut s = chain_structure_for_bench(n, &[("e", 2), ("node", 1), ("first", 1)]);
        let e = s.signature().lookup("e").unwrap();
        let node = s.signature().lookup("node").unwrap();
        let first = s.signature().lookup("first").unwrap();
        for i in 0..n {
            s.insert(node, &[ElemId(i as u32)]);
        }
        for i in 0..n - 1 {
            s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
        }
        s.insert(first, &[ElemId((k * n / PER_CANDIDATE_K) as u32)]);
        if program.is_none() {
            program = Some(mdtw_datalog::parse_program(STRATIFIED_PROGRAM, &s).unwrap());
        }
        structures.push(s);
    }
    (structures, program.expect("at least one candidate"))
}

/// Field-wise sum of two stat sets for multi-candidate rows: the additive
/// counters via [`mdtw_datalog::EvalStats::merge_counters`], `strata` kept
/// as the per-evaluation stratum count rather than summed.
fn add_stats(total: &mut mdtw_datalog::EvalStats, part: &mdtw_datalog::EvalStats) {
    total.merge_counters(part);
    total.strata = part.strata;
}

/// Measures the join/linearity workloads at the given chain sizes, each
/// through a reused [`Evaluator`](mdtw_datalog::Evaluator) session.
///
/// `limits` budgets the `budgeted_tc` row's governor (from
/// `bench_report --fuel` / `--timeout-ms`). `None` grants an effectively
/// unlimited fuel budget, so every checkpoint runs but never trips — the
/// row then measures the pure overhead of governance against the
/// ungoverned `linear_tc`/`indexed` row. A budget that *does* trip records
/// the partial result's fact count instead (each size gets a fresh meter).
/// The `per_candidate` workload contrasts one session reused across
/// [`PER_CANDIDATE_K`] candidate structures (`session`) with a fresh
/// session per candidate (`per_call`) — the setup cost the session API
/// amortizes.
pub fn join_report(
    sizes: &[usize],
    limits: Option<&mdtw_datalog::EvalLimits>,
) -> Vec<JoinBenchRow> {
    use mdtw_datalog::{EvalError, EvalLimits, EvalOptions, EvalStats, Evaluator};
    let mut rows = Vec::new();
    let measure = |workload: &str,
                   engine: &str,
                   n: usize,
                   rows: &mut Vec<JoinBenchRow>,
                   eval: &mut dyn FnMut() -> (usize, EvalStats)| {
        // Stats come from a *second* evaluation so the recorded counters
        // reflect steady state (e.g. `plan_cache_hits` = 1 once warm).
        let (facts, _) = eval();
        let (_, stats) = eval();
        let nanos = time_eval(|| eval().0);
        rows.push(JoinBenchRow {
            workload: workload.into(),
            engine: engine.into(),
            n,
            facts,
            nanos_per_eval: nanos,
            ns_per_fact: nanos / facts.max(1) as f64,
            stats,
        });
    };
    for &n in sizes {
        let (s, p) = linear_tc_workload(n);
        let mut session = Evaluator::new(p).expect("semipositive");
        measure("linear_tc", "indexed", n, &mut rows, &mut || {
            let r = session.evaluate(&s).expect("semipositive");
            (r.store.fact_count(), r.stats)
        });

        // Governor-overhead ablation: the same linear TC under an
        // evaluation budget. The default (no --fuel/--timeout-ms) budget
        // is effectively unlimited, so every amortized checkpoint runs
        // but never trips — comparing this row's ns/eval against the
        // ungoverned `linear_tc`/`indexed` row above isolates the cost
        // of governance itself.
        let (s, p) = linear_tc_workload(n);
        let budget =
            limits.map_or_else(|| EvalLimits::new().fuel(u64::MAX >> 1), EvalLimits::fresh);
        let mut session =
            Evaluator::with_options(p, EvalOptions::new().limits(budget)).expect("semipositive");
        measure(
            "budgeted_tc",
            "governed",
            n,
            &mut rows,
            &mut || match session.evaluate(&s) {
                Ok(r) => (r.store.fact_count(), r.stats),
                Err(EvalError::LimitExceeded { stats, partial, .. }) => (
                    partial.as_ref().map_or(0, |p| p.store.fact_count()).max(1),
                    stats,
                ),
                Err(e) => panic!("budgeted_tc: unexpected evaluation error: {e}"),
            },
        );

        let (s, p) = reach_workload(n);
        let mut session = Evaluator::new(p).expect("semipositive");
        measure("reach_linearity", "indexed", n, &mut rows, &mut || {
            let r = session.evaluate(&s).expect("semipositive");
            (r.store.fact_count(), r.stats)
        });

        let (s, p) = stratified_workload(n);
        let mut session = Evaluator::new(p).expect("stratifiable");
        measure("stratified_reach", "stratified", n, &mut rows, &mut || {
            let r = session.evaluate(&s).expect("stratifiable");
            (r.store.fact_count(), r.stats)
        });

        // Magic-set ablation: the same point query with full
        // materialization vs. the demand-transformed program.
        let (s, p) = point_query_workload(n);
        let mut session =
            Evaluator::with_options(p.clone(), EvalOptions::new().outputs(["answer"]))
                .expect("semipositive");
        measure("magic_point_query", "full", n, &mut rows, &mut || {
            let r = session.evaluate(&s).expect("semipositive");
            (r.store.fact_count(), r.stats)
        });
        let mut session =
            Evaluator::with_options(p, EvalOptions::new().outputs(["answer"]).magic_sets(true))
                .expect("semipositive");
        measure("magic_point_query", "magic", n, &mut rows, &mut || {
            let r = session.evaluate(&s).expect("semipositive");
            (r.store.fact_count(), r.stats)
        });

        // Incremental maintenance vs. full recomputation: the segmented
        // chain is materialized once, then each "evaluation" absorbs one
        // mixed batch (≈1 % of the base facts, half inserts half
        // retracts, alternating the forward batch and its inverse so the
        // view oscillates between two states). The `recompute` baseline
        // evaluates the post-batch structure from scratch through a warm
        // session; the ratio of the two rows' ns_per_eval is the
        // maintenance speedup.
        let w = incremental_tc_workload(n);
        let mut view = Evaluator::new(w.program.clone())
            .expect("semipositive")
            .materialize(&w.structure)
            .expect("indexed engine");
        let mut forward = true;
        measure("incremental_tc", "maintain", n, &mut rows, &mut || {
            let batch = if forward { &w.batch_a } else { &w.batch_b };
            forward = !forward;
            view.apply(batch);
            (view.store().fact_count(), EvalStats::default())
        });
        let mut session = Evaluator::new(w.program.clone()).expect("semipositive");
        measure("incremental_tc", "recompute", n, &mut rows, &mut || {
            let r = session.evaluate(&w.mutated).expect("semipositive");
            (r.store.fact_count(), r.stats)
        });

        // Per-candidate ablation: one evaluation = all K candidates.
        let (candidates, p) = per_candidate_workload(n);
        measure("per_candidate", "session", n, &mut rows, &mut || {
            let mut session = Evaluator::new(p.clone()).expect("stratifiable");
            let (mut facts, mut total) = (0usize, EvalStats::default());
            for s in &candidates {
                let r = session.evaluate(s).expect("stratifiable");
                facts += r.store.fact_count();
                add_stats(&mut total, &r.stats);
            }
            (facts, total)
        });
        measure("per_candidate", "per_call", n, &mut rows, &mut || {
            let (mut facts, mut total) = (0usize, EvalStats::default());
            for s in &candidates {
                let mut session = Evaluator::new(p.clone()).expect("stratifiable");
                let r = session.evaluate(s).expect("stratifiable");
                facts += r.store.fact_count();
                add_stats(&mut total, &r.stats);
            }
            (facts, total)
        });
    }
    rows
}

/// The profiler-overhead ablation (`bench_report --profiler-overhead`):
/// `linear_tc` and `stratified_reach`, each evaluated at
/// [`ProfileDetail`](mdtw_datalog::ProfileDetail) `Off`, `Rules`, and
/// `Literals`, with the detail level recorded in the engine column
/// (`profile_off`, `profile_rules`, `profile_literals`). The `Off` rows
/// must sit at parity with the plain `indexed`/`stratified` rows of
/// [`join_report`] — profiling disabled is a single `Option` test — and
/// the `Literals` rows bound the cost of full selectivity tracing.
pub fn profiler_overhead_report(sizes: &[usize]) -> Vec<JoinBenchRow> {
    use mdtw_datalog::{EvalOptions, Evaluator, ProfileDetail};
    let mut rows = Vec::new();
    for &n in sizes {
        for detail in [
            ProfileDetail::Off,
            ProfileDetail::Rules,
            ProfileDetail::Literals,
        ] {
            let engine = format!("profile_{}", detail.as_str());
            for (workload, (s, p)) in [
                ("linear_tc", linear_tc_workload(n)),
                ("stratified_reach", stratified_workload(n)),
            ] {
                let mut session = Evaluator::with_options(p, EvalOptions::new().profile(detail))
                    .expect("stratifiable");
                let mut eval = || {
                    let r = session.evaluate(&s).expect("stratifiable");
                    (r.store.fact_count(), r.stats)
                };
                let (facts, _) = eval();
                let (_, stats) = eval();
                let nanos = time_eval(|| eval().0);
                rows.push(JoinBenchRow {
                    workload: workload.into(),
                    engine: engine.clone(),
                    n,
                    facts,
                    nanos_per_eval: nanos,
                    ns_per_fact: nanos / facts.max(1) as f64,
                    stats,
                });
            }
        }
    }
    rows
}

/// Profiled evaluations of the `linear_tc` and `stratified_reach`
/// workloads at full literal detail, rendered as a JSON array of
/// `{"workload", "n", "profile", "stats"}` objects — the payload of
/// `bench_report --profile <file.json>`. Serializes through the
/// dependency-free JSON layer of `mdtw_datalog::lint`, so the emitted
/// profiles round-trip through
/// [`EvalProfile::from_json`](mdtw_datalog::EvalProfile::from_json).
pub fn profile_workloads_json(n: usize) -> String {
    use mdtw_datalog::lint::{eval_stats_json, json::Json};
    use mdtw_datalog::{EvalOptions, Evaluator, ProfileDetail};
    let mut items = Vec::new();
    for (workload, (s, p)) in [
        ("linear_tc", linear_tc_workload(n)),
        ("stratified_reach", stratified_workload(n)),
    ] {
        let mut session =
            Evaluator::with_options(p, EvalOptions::new().profile(ProfileDetail::Literals))
                .expect("stratifiable");
        let r = session.evaluate(&s).expect("stratifiable");
        let profile = r.profile.expect("profiling enabled");
        items.push(Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("n".into(), Json::Num(n as f64)),
            ("profile".into(), profile.to_json()),
            ("stats".into(), eval_stats_json(&r.stats)),
        ]));
    }
    Json::Arr(items).render()
}

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). The workload/engine fields are
/// internal constants, but the record label comes from the command line.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one labelled record of join-bench rows as JSON (hand-rolled:
/// no serde in the build environment).
pub fn render_join_record_json(label: &str, rows: &[JoinBenchRow]) -> String {
    let mut out = format!("{{\"label\": \"{}\", \"rows\": [", escape_json(label));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"workload\": \"{}\", \"engine\": \"{}\", \"n\": {}, \
             \"facts\": {}, \"ns_per_eval\": {:.0}, \"ns_per_fact\": {:.1}, \
             \"firings\": {}, \"index_probes\": {}, \"full_scans\": {}, \
             \"tuples_considered\": {}, \"interned_hits\": {}, \
             \"plan_cache_hits\": {}, \"negative_checks\": {}, \"strata\": {}, \
             \"limit_checks\": {}, \"fuel_spent\": {}}}",
            r.workload,
            r.engine,
            r.n,
            r.facts,
            r.nanos_per_eval,
            r.ns_per_fact,
            r.stats.firings,
            r.stats.index_probes,
            r.stats.full_scans,
            r.stats.tuples_considered,
            r.stats.interned_hits,
            r.stats.plan_cache_hits,
            r.stats.negative_checks,
            r.stats.strata,
            r.stats.limit_checks,
            r.stats.fuel_spent,
        ));
    }
    out.push_str("\n  ]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preflight_accepts_the_shipped_workloads() {
        let warnings = preflight().expect("inline workload programs are clean");
        assert!(
            warnings.is_empty(),
            "shipped programs must be warning-free: {warnings:#?}"
        );
    }

    #[test]
    fn row_measurement_smoke() {
        let row = measure_row(1, true);
        assert_eq!(row.n_att, 3);
        assert_eq!(row.n_fd, 1);
        assert!(row.tw <= 3);
        assert!(row.md_micros > 0.0);
        // Row 1 is tiny: the MSO baseline finishes.
        assert!(row.mona_micros.is_some());
    }

    #[test]
    fn render_is_well_formed() {
        let rows = vec![Table1Row {
            tw: 3,
            n_att: 3,
            n_fd: 1,
            n_tn: 10,
            md_micros: 42.0,
            mona_micros: None,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("MD(us)"));
        assert!(s.contains('-'));
    }

    #[test]
    fn join_report_smoke_and_json_shape() {
        let rows = join_report(&[40], None);
        // indexed on linear_tc, governed on budgeted_tc, indexed
        // on reach_linearity, stratified on stratified_reach, full +
        // magic on magic_point_query, maintain + recompute on
        // incremental_tc, session + per_call on per_candidate.
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.facts > 0);
            assert!(r.ns_per_fact > 0.0);
        }
        // Steady-state stats: the indexed rows ran against their session's
        // warm plan cache.
        assert!(rows
            .iter()
            .filter(|r| r.engine == "indexed")
            .all(|r| r.stats.plan_cache_hits == 1));
        // The stratified workload really crosses three strata and checks
        // its negations (and hits the session cache once per stratum).
        let strat = rows
            .iter()
            .find(|r| r.engine == "stratified")
            .expect("stratified row");
        assert_eq!(strat.stats.strata, 3);
        assert!(strat.stats.negative_checks > 0);
        assert_eq!(strat.stats.plan_cache_hits, 3);
        // Per-candidate: the reused session hits its cache from the
        // second candidate on — always for stratum 0 (the base structures
        // share a cardinality shape), and for higher strata whenever the
        // materialized lower-stratum sizes land in the same power-of-two
        // bucket. A fresh session per candidate never hits.
        let session = rows
            .iter()
            .find(|r| r.engine == "session")
            .expect("session row");
        assert!(
            session.stats.plan_cache_hits >= PER_CANDIDATE_K - 1,
            "warm candidates must reuse at least the stratum-0 plans, got {} hits",
            session.stats.plan_cache_hits
        );
        let per_call = rows
            .iter()
            .find(|r| r.engine == "per_call")
            .expect("per_call row");
        assert_eq!(per_call.stats.plan_cache_hits, 0);
        assert_eq!(session.facts, per_call.facts, "same fixpoints either way");
        // The demand transformation must strictly shrink the fixpoint on
        // the point query (Θ(n²) path facts down to Θ(n) demanded ones).
        let full = rows
            .iter()
            .find(|r| r.workload == "magic_point_query" && r.engine == "full")
            .expect("full row");
        let magic = rows
            .iter()
            .find(|r| r.workload == "magic_point_query" && r.engine == "magic")
            .expect("magic row");
        assert!(
            magic.stats.facts * 2 < full.stats.facts,
            "magic must at least halve derived facts: {} vs {}",
            magic.stats.facts,
            full.stats.facts
        );
        // The maintained view and the from-scratch recomputation agree on
        // the post-batch fixpoint size (both rows report the state after
        // the forward batch).
        let maintain = rows
            .iter()
            .find(|r| r.workload == "incremental_tc" && r.engine == "maintain")
            .expect("maintain row");
        let recompute = rows
            .iter()
            .find(|r| r.workload == "incremental_tc" && r.engine == "recompute")
            .expect("recompute row");
        assert_eq!(maintain.facts, recompute.facts, "view diverged");
        let json = render_join_record_json("test", &rows);
        assert!(json.starts_with("{\"label\": \"test\""));
        // Hostile labels are escaped, not interpolated raw.
        let hostile = render_join_record_json("a\"b\\c\n", &rows);
        assert!(hostile.starts_with("{\"label\": \"a\\\"b\\\\c\\u000a\""));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"workload\"").count(), 10);
        // The governed row derives the same fixpoint as the ungoverned
        // linear TC — an unlimited budget never changes the answer.
        let tc = rows
            .iter()
            .find(|r| r.workload == "linear_tc" && r.engine == "indexed")
            .expect("linear_tc row");
        let governed = rows
            .iter()
            .find(|r| r.engine == "governed")
            .expect("governed row");
        assert_eq!(governed.facts, tc.facts);
        assert!(json.contains("\"plan_cache_hits\": 1"));
        assert!(json.contains("\"negative_checks\""));
        assert!(json.contains("\"strata\": 3"));
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
        // inverse restores it exactly — the oscillation the measured
        // `maintain` row relies on.
        let mut view = mdtw_datalog::Evaluator::new(w.program.clone())
            .expect("semipositive")
            .materialize(&w.structure)
            .expect("indexed engine");
        let initial = view.store().fact_count();
        view.apply(&w.batch_a);
        assert_ne!(view.store().fact_count(), initial);
        let mut recompute = mdtw_datalog::Evaluator::new(w.program.clone()).unwrap();
        assert_eq!(
            view.store().fact_count(),
            recompute.evaluate(&w.mutated).unwrap().store.fact_count(),
            "maintained fixpoint diverged from scratch evaluation"
        );
        view.apply(&w.batch_b);
        assert_eq!(view.store().fact_count(), initial);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let rows = vec![
            Table1Row {
                tw: 3,
                n_att: 3,
                n_fd: 1,
                n_tn: 10,
                md_micros: 42.25,
                mona_micros: Some(7.5),
            },
            Table1Row {
                tw: 3,
                n_att: 5,
                n_fd: 2,
                n_tn: 20,
                md_micros: 84.0,
                mona_micros: None,
            },
        ];
        let s = render_table1_json(&rows);
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("\"md_us\": 42.2") || s.contains("\"md_us\": 42.3"));
        assert!(s.contains("\"mona_us\": 7.5"));
        assert!(s.contains("\"mona_us\": null"));
        assert!(!s.contains("limit_checks") && !s.contains("fuel_spent"));
        assert_eq!(s.matches("{\"tw\"").count(), 2);
    }

    #[test]
    fn profiler_overhead_rows_are_identical_across_detail_levels() {
        let rows = profiler_overhead_report(&[60]);
        // 2 workloads × 3 detail levels.
        assert_eq!(rows.len(), 6);
        for workload in ["linear_tc", "stratified_reach"] {
            let per_level: Vec<&JoinBenchRow> =
                rows.iter().filter(|r| r.workload == workload).collect();
            assert_eq!(per_level.len(), 3);
            let off = per_level
                .iter()
                .find(|r| r.engine == "profile_off")
                .expect("off row");
            for r in &per_level {
                // Profiling must never change the fixpoint or the work
                // counters — only observe them.
                assert_eq!(r.facts, off.facts, "{workload}/{}", r.engine);
                assert_eq!(r.stats, off.stats, "{workload}/{}", r.engine);
            }
        }
        let json = render_join_record_json("overhead", &rows);
        assert!(json.contains("\"engine\": \"profile_literals\""));
        assert!(json.contains("\"limit_checks\": 0"));
    }

    #[test]
    fn workload_profiles_round_trip_through_json() {
        use mdtw_datalog::lint::json::{self, Json};
        let rendered = profile_workloads_json(24);
        let value = json::parse(&rendered).expect("emitted profile JSON parses");
        let Json::Arr(items) = &value else {
            panic!("expected an array of workload profiles");
        };
        assert_eq!(items.len(), 2);
        for item in items {
            let profile =
                mdtw_datalog::EvalProfile::from_json(item.get("profile").expect("profile field"))
                    .expect("profile round-trips");
            assert!(!profile.strata.is_empty());
            // Literal detail: every recorded rule carries selectivity
            // observations.
            for s in &profile.strata {
                for r in &s.rules {
                    if r.firings > 0 {
                        assert!(!r.literals.is_empty(), "rule {} has no literals", r.rule);
                    }
                }
            }
        }
    }
}
