//! `tc_view`: a materialized linear-TC view over a segmented chain,
//! shaped like the `incremental_tc` rows of `BENCH_joins.json`.
//!
//! Set-up: `parse_program` → `Evaluator::new` → `materialize`. The closed
//! loop alternates a forward batch and its inverse (about 1% of the base
//! edges, inserts plus retracts) through `MaterializedView::apply`
//! (primary operation), with sampled `holds` reads after each batch.
//! Warm-session `evaluate` runs of the post-batch structure (secondary
//! operation) are interleaved with the batches.
//!
//! Oracle: the view is consistent with the base states it moves between,
//! whose transitive closure is known in closed form: after every
//! batch the view's fact count and the sampled `holds` reads must match
//! it, and so must every from-scratch `evaluate` of the same state.

use crate::calibrate::Kernel;
use crate::stats::ms_since;
use crate::trace::Tracer;
use crate::{timed, Config, Recorder, Scale, Workload};
use mdtw_datalog::{parse_program, Evaluator, MaterializedView, Update};
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// The view's program: linear transitive closure.
pub const PROGRAM: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";

/// Batch sizes, in thousandths of the base edges (about 1% on average).
/// The loop applies each size's forward batch and then its inverse, in
/// turn, so the apply percentiles reflect the sizes.
const BATCH_PERMILLE: [usize; 4] = [5, 8, 11, 14];

/// One warm `evaluate` per this many batches, starting after the first
/// batch of each measured phase (odd, so evaluations alternate between a
/// toggled and the initial state).
const BATCHES_PER_EVALUATE: usize = 15;

/// Sampled `holds` reads after each batch.
const READS: usize = 64;

/// A base state the view moves through, with its closed-form closure.
struct State {
    structure: Structure,
    facts: usize,
    reads: Vec<bool>,
}

/// The workload state.
pub struct TcView {
    /// The initial state, then the state after each forward batch.
    states: Vec<State>,
    /// Per batch size: the forward batch and its inverse.
    batches: Vec<[Update; 2]>,
    reads: Vec<[ElemId; 2]>,
    view: Option<MaterializedView>,
    session: Option<Evaluator>,
    /// Which of `states` the view holds.
    at: usize,
    applied: usize,
}

/// The segmented chain: `cut.len()` runs of `len` nodes, with node
/// `i → i+1` edges inside a run and none across. `cut[s]` is the offset
/// of segment `s`'s flip edge; a base state says which flip edges exist.
struct Chain {
    len: usize,
    cut: Vec<usize>,
}

impl Chain {
    fn flip_edge(&self, s: usize) -> [ElemId; 2] {
        let src = (s * self.len + self.cut[s]) as u32;
        [ElemId(src), ElemId(src + 1)]
    }

    fn build(&self, sig: &Arc<Signature>, edge: PredId, present: &[bool]) -> Structure {
        let mut s = Structure::new(
            Arc::clone(sig),
            Domain::anonymous(self.len * self.cut.len()),
        );
        for (seg, &flip) in present.iter().enumerate() {
            for off in 0..self.len - 1 {
                if off != self.cut[seg] || flip {
                    let src = (seg * self.len + off) as u32;
                    s.insert(edge, &[ElemId(src), ElemId(src + 1)]);
                }
            }
        }
        s
    }

    /// Number of `path` facts: `k(k-1)/2` per run of `k` connected nodes.
    fn closure_size(&self, present: &[bool]) -> usize {
        let pairs = |k: usize| k * (k - 1) / 2;
        present
            .iter()
            .enumerate()
            .map(|(seg, &flip)| {
                if flip {
                    pairs(self.len)
                } else {
                    let a = self.cut[seg] + 1;
                    pairs(a) + pairs(self.len - a)
                }
            })
            .sum()
    }

    /// Whether `path(x, y)` holds.
    fn reaches(&self, present: &[bool], x: usize, y: usize) -> bool {
        let seg = x / self.len;
        if y / self.len != seg || y <= x {
            return false;
        }
        let cut = seg * self.len + self.cut[seg];
        present[seg] || !(x <= cut && cut < y)
    }
}

impl TcView {
    /// A workload over `cfg`'s seed and scale.
    pub fn new(cfg: &Config) -> Self {
        let (segments, len) = match cfg.scale {
            Scale::Full => (400, 70),
            Scale::Tiny => (12, 10),
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Flip edges sit near the end of their segment, so one toggle
        // moves Θ(len) derived facts.
        let chain = Chain {
            len,
            cut: (0..segments)
                .map(|_| len - 2 - rng.random_range(0..4.min(len - 2)))
                .collect(),
        };
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let edge = sig.lookup("e").expect("declared");
        let initial: Vec<bool> = (0..segments).map(|s| s % 2 == 1).collect();
        let base_edges = segments * (len - 1) - initial.iter().filter(|&&p| !p).count();
        let shuffled = |rng: &mut SmallRng| {
            let mut order: Vec<usize> = (0..segments).collect();
            for i in (1..segments).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            order
        };
        // One forward batch per size: a seeded choice of distinct segments
        // whose flip edges it toggles. Its inverse restores `initial`.
        let mut presents = vec![initial.clone()];
        let mut batches = Vec::with_capacity(BATCH_PERMILLE.len());
        for permille in BATCH_PERMILLE {
            let flips = segments.min((base_edges * permille / 1000).max(2));
            let mut toggled = initial.clone();
            let (mut forward, mut inverse) = (Update::new(), Update::new());
            for &seg in &shuffled(&mut rng)[..flips] {
                let t = chain.flip_edge(seg);
                if initial[seg] {
                    forward.push_retract(edge, &t);
                    inverse.push_insert(edge, &t);
                } else {
                    forward.push_insert(edge, &t);
                    inverse.push_retract(edge, &t);
                }
                toggled[seg] = !initial[seg];
            }
            presents.push(toggled);
            batches.push([forward, inverse]);
        }
        // Reads: mostly pairs straddling a flip edge (their answer changes
        // when a batch toggles it), the rest uniform.
        let n = segments * len;
        let reads: Vec<[ElemId; 2]> = (0..READS)
            .map(|i| {
                let (x, y) = if i % 4 == 3 {
                    (rng.random_range(0..n), rng.random_range(0..n))
                } else {
                    let seg = rng.random_range(0..segments);
                    let cut = seg * len + chain.cut[seg];
                    (
                        rng.random_range(seg * len..=cut),
                        rng.random_range(cut + 1..(seg + 1) * len),
                    )
                };
                [ElemId(x as u32), ElemId(y as u32)]
            })
            .collect();
        let states = presents
            .iter()
            .map(|present| State {
                structure: chain.build(&sig, edge, present),
                facts: chain.closure_size(present),
                reads: reads
                    .iter()
                    .map(|[x, y]| chain.reaches(present, x.index(), y.index()))
                    .collect(),
            })
            .collect();
        Self {
            states,
            batches,
            reads,
            view: None,
            session: None,
            at: 0,
            applied: 0,
        }
    }

    /// Checks the view against the state it should hold.
    fn check_view(&self, rec: &mut Recorder) {
        let view = self.view.as_ref().expect("set up before measuring");
        let state = &self.states[self.at];
        let facts = view.store().fact_count();
        let reads_ok = self
            .reads
            .iter()
            .zip(&state.reads)
            .all(|(t, &expected)| view.holds("path", t) == expected);
        rec.check(facts == state.facts && reads_ok, || {
            format!(
                "view after {} batches: {facts} facts (expected {}), reads match: {reads_ok}",
                self.applied, state.facts
            )
        });
    }

    /// One warm evaluation of the current state, checked against it.
    fn evaluate(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        let session = self.session.as_mut().expect("session built in restart");
        let state = &self.states[self.at];
        let (result, ms) =
            timed(|| tr.span("datalog.evaluate_ms", || session.evaluate(&state.structure)));
        rec.secondary.push(ms);
        match result {
            Ok(r) => {
                tr.count("datalog.firings", r.stats.firings as f64);
                tr.count("datalog.facts", r.stats.facts as f64);
                tr.count("datalog.interned_hits", r.stats.interned_hits as f64);
                tr.count("datalog.index_probes", r.stats.index_probes as f64);
                tr.count(
                    "datalog.tuples_considered",
                    r.stats.tuples_considered as f64,
                );
                let facts = r.store.fact_count();
                rec.check(facts == state.facts, || {
                    format!("evaluate: {facts} facts, expected {}", state.facts)
                });
            }
            Err(e) => rec.fail(format!("evaluate: {e}")),
        }
    }
}

impl Workload for TcView {
    fn labels(&self) -> (&'static str, &'static str) {
        (
            "MaterializedView::apply of one mixed batch",
            "warm-session evaluate of the post-batch structure",
        )
    }

    fn kernel(&self) -> Kernel {
        Kernel::Memory
    }

    fn setup(&mut self, tr: &mut Tracer, rec: &mut Recorder) -> Result<f64, String> {
        self.view = None;
        let base = &self.states[0].structure;
        let t0 = Instant::now();
        let program = tr
            .span("datalog.parse_ms", || parse_program(PROGRAM, base))
            .map_err(|e| format!("parse: {e:?}"))?;
        let session = tr
            .span("datalog.session_ms", || Evaluator::new(program))
            .map_err(|e| format!("session: {e}"))?;
        let view = tr
            .span("datalog.materialize_ms", || session.materialize(base))
            .map_err(|e| format!("materialize: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        self.view = Some(view);
        self.at = 0;
        self.check_view(rec);
        Ok(secs)
    }

    fn restart(&mut self) {
        // Bring the view back to the initial state, so every measured
        // phase sees the same sequence of batches.
        if self.at > 0 {
            if let Some(view) = self.view.as_mut() {
                view.apply(&self.batches[self.at - 1][1]);
                self.at = 0;
            }
        }
        self.applied = 0;
        if self.session.is_none() {
            let base = &self.states[0].structure;
            self.session = parse_program(PROGRAM, base)
                .ok()
                .and_then(|p| Evaluator::new(p).ok());
            if let Some(s) = self.session.as_mut() {
                // Warm the session's plan cache and scratch arenas.
                let _ = s.evaluate(base);
            }
        }
    }

    fn step(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        if self.session.is_none() {
            rec.fail("evaluation session could not be built".into());
            return;
        }
        let view = self.view.as_mut().expect("set up before measuring");
        // Forward batch of the next size from the initial state, else the
        // inverse of the batch that left it.
        let (size, next) = if self.at == 0 {
            let size = (self.applied / 2) % self.batches.len();
            (size, size + 1)
        } else {
            (self.at - 1, 0)
        };
        let batch = &self.batches[size][usize::from(next == 0)];
        let t0 = Instant::now();
        let profile = tr.span("datalog.incremental.apply_ms", || view.apply(batch));
        rec.primary.push(ms_since(t0));
        self.at = next;
        self.applied += 1;
        tr.count(
            "datalog.incremental.overdeleted",
            profile.overdeleted as f64,
        );
        tr.count("datalog.incremental.rederived", profile.rederived as f64);
        tr.count(
            "datalog.incremental.fallbacks",
            f64::from(u8::from(profile.fell_back.is_some())),
        );
        if profile.fell_back.is_some() {
            rec.retried += 1;
        }
        self.check_view(rec);
        if self.applied % BATCHES_PER_EVALUATE == 1 {
            self.evaluate(tr, rec);
        }
    }
}
