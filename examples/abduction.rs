//! Propositional abduction over definite Horn theories (paper §7): the
//! relevance problem as a primality problem in disguise.
//!
//! ```text
//! cargo run --example abduction
//! ```

use mdtw_core::instance_from_clauses;

fn main() {
    // A small device-diagnosis theory:
    //   broken_pump ∧ power  → no_water
    //   clogged_pipe         → no_water
    //   power                → lights_on
    //   tripped_fuse         → lights_off (never observed here)
    let inst = instance_from_clauses(
        &[
            "broken_pump",
            "power",
            "clogged_pipe",
            "tripped_fuse",
            "no_water",
            "lights_on",
            "lights_off",
        ],
        &[
            (&["broken_pump", "power"], "no_water"),
            (&["clogged_pipe"], "no_water"),
            (&["power"], "lights_on"),
            (&["tripped_fuse"], "lights_off"),
        ],
        &["broken_pump", "power", "clogged_pipe", "tripped_fuse"],
        &["no_water", "lights_on"],
    );

    println!("theory (as a schema):\n{}", inst.schema);
    println!(
        "observed manifestations: {:?}",
        inst.manifestations
            .iter()
            .map(|&m| inst.schema.attr_name(m))
            .collect::<Vec<_>>()
    );

    println!("\nminimal explanations:");
    for e in inst.minimal_explanations() {
        let names: Vec<&str> = e.iter().map(|&a| inst.schema.attr_name(a)).collect();
        println!("  {{{}}}", names.join(", "));
    }

    println!("\nhypothesis relevance (∈ some minimal explanation):");
    for &h in &inst.hypotheses {
        println!(
            "  {:<13} relevant = {}",
            inst.schema.attr_name(h),
            inst.relevant(h)
        );
    }
}
