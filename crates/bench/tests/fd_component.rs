//! The governed datalog cross-check of the Table 1 instances: the
//! connected component of the queried attribute in the FD incidence graph
//! of a row's τ-structure encoding (`lh`/`rh` edges between attribute and
//! FD elements). Attributes outside this component can never influence
//! the target's primality, so a full-domain component certifies that the
//! generated instance exercises the whole schema. The evaluation runs
//! under an [`EvalLimits`] budget, so it also checks that the governor's
//! meter readbacks scale with the encoded instance.
//!
//! The paper does not measure this program, so it lives here rather than
//! on the timed Table 1 path.

use mdtw_bench::row_instance;
use mdtw_datalog::{parse_program, EvalLimits, EvalOptions, Evaluator};
use mdtw_structure::{ElemId, Structure};

const FD_COMPONENT_PROGRAM: &str = "touched(A) :- target(A).\n\
     touched(F) :- touched(A), lh(F, A).\n\
     touched(F) :- touched(A), rh(F, A).\n\
     touched(A) :- touched(F), lh(F, A).\n\
     touched(A) :- touched(F), rh(F, A).";

/// Evaluates [`FD_COMPONENT_PROGRAM`] (governed, effectively unlimited
/// fuel) over `structure` extended with a `target/1` relation holding
/// `target`, and returns `(component_size, limit_checks, fuel_spent)`.
fn fd_component_readbacks(structure: &Structure, target: ElemId) -> (usize, usize, u64) {
    let (mut s, _) = structure.extended([("target", 1)]);
    let target_p = s.signature().lookup("target").expect("just declared");
    s.insert(target_p, &[target]);
    let program = parse_program(FD_COMPONENT_PROGRAM, &s).expect("inline program");
    let budget = EvalLimits::new().fuel(u64::MAX >> 1);
    let mut session = Evaluator::with_options(program, EvalOptions::new().limits(budget))
        .expect("semipositive program");
    let r = session.evaluate(&s).expect("budget never trips");
    (
        r.store.fact_count(),
        r.stats.limit_checks,
        r.stats.fuel_spent,
    )
}

#[test]
fn fd_component_covers_block_tree_instances() {
    // The generated block-tree schemas are FD-connected from the queried
    // attribute, and the governed cross-check really spends fuel and runs
    // checkpoints.
    let inst = row_instance(2);
    let target = inst.schema.attr("u0").expect("u0 exists");
    let (component, limit_checks, fuel_spent) =
        fd_component_readbacks(&inst.encoding.structure, inst.encoding.elem_of_attr(target));
    assert_eq!(
        component,
        inst.schema.attr_count() + inst.schema.fd_count(),
        "every attribute and FD element is FD-connected to u0"
    );
    assert!(limit_checks > 0);
    assert!(fuel_spent > 0);
}
