//! `tau_td_forest`: the Theorem 4.5 pipeline over τ_td.
//!
//! Set-up: `compile_unary_filtered(has_neighbor, width 1)`, one session
//! per engine (quasi-guarded with the τ_td FD catalogue, and
//! `SemiNaiveIndexed`), and each session's first evaluation on a warm-up
//! forest, which is timed apart from the steady state. Each measured
//! instance is a random forest taken, once per engine, through
//! `TupleTd::from_td_with_width` → `encode_tuple_td` →
//! `Evaluator::evaluate`; each engine gets its own freshly encoded
//! structure. Primary operation: the quasi-guarded engine; secondary:
//! the indexed engine.
//!
//! Oracle: both engines' answer sets are equal, and both equal "vertex
//! has degree > 0" computed from the generated edge list.

use crate::calibrate::Kernel;
use crate::stats::ms_since;
use crate::trace::Tracer;
use crate::{timed, Config, Recorder, Scale, Workload};
use mdtw_datalog::{Engine, EvalOptions, EvalResult, Evaluator, FdCatalog, IdbId};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TreeDecomposition, TupleTd};
use mdtw_graph::{encode_graph, graph_signature, Graph};
use mdtw_mso::compile::compile_unary_filtered;
use mdtw_mso::{has_neighbor, CompileLimits, IndVar};
use mdtw_structure::{ElemId, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Probability that a vertex gets a parent edge (else it starts a tree).
const ATTACH: f64 = 0.7;

/// A generated forest with its decomposition and expected answers.
struct Instance {
    structure: Structure,
    td: TreeDecomposition,
    vertices: usize,
    /// Vertices with degree > 0, ascending.
    expected: Vec<ElemId>,
}

fn random_forest(rng: &mut SmallRng, n: usize) -> Instance {
    let mut g = Graph::new(n);
    let mut degree = vec![0usize; n];
    for v in 1..n as u32 {
        if rng.random::<f64>() < ATTACH {
            let parent = rng.random_range(0..v);
            g.add_edge(parent, v);
            degree[parent as usize] += 1;
            degree[v as usize] += 1;
        }
    }
    let expected = (0..n as u32)
        .filter(|&v| degree[v as usize] > 0)
        .map(ElemId)
        .collect();
    let structure = encode_graph(&g);
    let td = decompose(&structure, Heuristic::MinDegree);
    Instance {
        structure,
        td,
        vertices: n,
        expected,
    }
}

/// The symmetric irreflexive edge relations: the class the query is
/// compiled for.
fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("graph signature has e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

struct Sessions {
    qg: Evaluator,
    indexed: Evaluator,
    phi: IdbId,
}

/// The workload state.
pub struct TauTd {
    seed: u64,
    /// Forest sizes the instances cycle through, so every run has the
    /// same size mix and the percentiles reflect the sizes.
    ladder: &'static [usize],
    rng: SmallRng,
    generated: usize,
    warmup: Instance,
    sessions: Option<Sessions>,
}

impl TauTd {
    /// A workload over `cfg`'s seed and scale.
    pub fn new(cfg: &Config) -> Self {
        let ladder: &[usize] = match cfg.scale {
            Scale::Full => &[100, 150, 200, 250, 300],
            Scale::Tiny => &[20, 30, 40],
        };
        let warm = ladder[ladder.len() / 2];
        let mut setup_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x05ee_d0f7_a07d);
        Self {
            seed: cfg.seed,
            ladder,
            rng: SmallRng::seed_from_u64(cfg.seed),
            generated: 0,
            warmup: random_forest(&mut setup_rng, warm),
            sessions: None,
        }
    }
}

/// Tuple normal form and τ_td encoding of `inst`: the structure one
/// engine evaluates.
fn encode(tr: &mut Tracer, inst: &Instance) -> Result<Structure, String> {
    let tuple_td = tr
        .span("decomp.tuple_normal_ms", || {
            TupleTd::from_td_with_width(&inst.td, inst.vertices, 1)
        })
        .map_err(|e| format!("tuple normal form: {e:?}"))?;
    let enc = tr.span("decomp.encode_tau_td_ms", || {
        encode_tuple_td(&inst.structure, &tuple_td)
    });
    Ok(enc.structure)
}

/// The vertices the program answered `phi` for, ascending.
fn answers(result: &EvalResult, phi: IdbId, vertices: usize) -> Vec<ElemId> {
    let mut out: Vec<ElemId> = result
        .store
        .unary(phi)
        .into_iter()
        .filter(|e| e.index() < vertices)
        .collect();
    out.sort_unstable();
    out
}

impl Workload for TauTd {
    fn labels(&self) -> (&'static str, &'static str) {
        (
            "quasi-guarded engine (tuple normal form, encode, evaluate)",
            "indexed engine (tuple normal form, encode, evaluate)",
        )
    }

    fn kernel(&self) -> Kernel {
        Kernel::Memory
    }

    fn setup(&mut self, tr: &mut Tracer, rec: &mut Recorder) -> Result<f64, String> {
        self.sessions = None;
        // Input preparation, kept out of the set-up time and the trace.
        let mut untraced = Tracer::new(false);
        let warm_qg = encode(&mut untraced, &self.warmup)?;
        let warm_indexed = encode(&mut untraced, &self.warmup)?;
        let t0 = Instant::now();
        let sig = Arc::new(graph_signature());
        let compiled = tr
            .span("mso.compile_ms", || {
                compile_unary_filtered(
                    &has_neighbor(),
                    IndVar(0),
                    &sig,
                    1,
                    CompileLimits::default(),
                    &undirected,
                )
            })
            .map_err(|e| format!("compile: {e}"))?;
        let qg = tr
            .span("datalog.session_ms", || {
                let catalog = FdCatalog::for_td_signature(&warm_qg);
                Evaluator::with_options(
                    compiled.program.clone(),
                    EvalOptions::new().fd_catalog(catalog),
                )
            })
            .map_err(|e| format!("quasi-guarded session: {e}"))?;
        let indexed = tr
            .span("datalog.session_ms", || {
                Evaluator::with_options(
                    compiled.program,
                    EvalOptions::new().engine(Engine::SemiNaiveIndexed),
                )
            })
            .map_err(|e| format!("indexed session: {e}"))?;
        let mut s = Sessions {
            qg,
            indexed,
            phi: compiled.phi,
        };
        let first_qg = tr.span("datalog.first_eval_ms", || s.qg.evaluate(&warm_qg));
        let first_indexed = tr.span("datalog.first_eval_ms", || {
            s.indexed.evaluate(&warm_indexed)
        });
        let secs = t0.elapsed().as_secs_f64();
        let (vertices, expected) = (self.warmup.vertices, &self.warmup.expected);
        for (engine, result) in [("quasi-guarded", first_qg), ("indexed", first_indexed)] {
            match result {
                Ok(r) => rec.check(&answers(&r, s.phi, vertices) == expected, || {
                    format!("warm-up forest: {engine} answers differ from degree > 0")
                }),
                Err(e) => rec.fail(format!("warm-up forest, {engine}: {e}")),
            }
        }
        self.sessions = Some(s);
        Ok(secs)
    }

    fn restart(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.generated = 0;
    }

    fn step(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        let n = self.ladder[self.generated % self.ladder.len()];
        self.generated += 1;
        let inst = random_forest(&mut self.rng, n);
        let s = self.sessions.as_mut().expect("set up before measuring");

        let t0 = Instant::now();
        let qg = encode(tr, &inst).and_then(|enc| {
            tr.span("datalog.qg.evaluate_ms", || s.qg.evaluate(&enc))
                .map_err(|e| e.to_string())
        });
        rec.primary.push(ms_since(t0));
        let qg = match qg {
            Ok(r) => r,
            Err(e) => {
                rec.fail(format!("{n}-vertex forest, quasi-guarded: {e}"));
                return;
            }
        };
        if let Some(g) = &qg.qg {
            tr.count("datalog.qg.ground_rules", g.ground_rules as f64);
            tr.count("datalog.qg.ground_atoms", g.ground_atoms as f64);
            tr.count(
                "datalog.qg.guard_instantiations",
                g.guard_instantiations as f64,
            );
            tr.count("datalog.qg.facts", qg.stats.facts as f64);
        }
        let qg_answers = answers(&qg, s.phi, n);
        drop(qg);
        rec.check(qg_answers == inst.expected, || {
            format!("{n}-vertex forest: quasi-guarded answers differ from degree > 0")
        });

        let (indexed, ms) = timed(|| {
            encode(tr, &inst).and_then(|enc| {
                tr.span("datalog.indexed.evaluate_ms", || s.indexed.evaluate(&enc))
                    .map_err(|e| e.to_string())
            })
        });
        rec.secondary.push(ms);
        match indexed {
            Ok(r) => {
                let indexed_answers = answers(&r, s.phi, n);
                rec.check(
                    indexed_answers == inst.expected && indexed_answers == qg_answers,
                    || format!("{n}-vertex forest: indexed answers differ"),
                );
            }
            Err(e) => rec.fail(format!("{n}-vertex forest, indexed: {e}")),
        }
    }
}
