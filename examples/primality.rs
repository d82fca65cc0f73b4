//! PRIMALITY of relational schemas (paper §2.1, §5.2, §5.3) on the
//! running example 2.1 and on generated workloads.
//!
//! ```text
//! cargo run --example primality
//! ```

use mdtw_core::{enumerate_primes, is_prime_fpt, prime_attributes_fpt, PrimalityContext};
use mdtw_decomp::exact_treewidth;
use mdtw_decomp::PrimalGraph;
use mdtw_schema::{block_tree_instance, example_2_1, example_2_2};

fn main() {
    // The running example: R = abcdeg, F = {ab→c, c→b, cd→e, de→g, g→e}.
    let schema = example_2_1();
    println!("schema (Example 2.1):\n{schema}");

    // Classical baseline: enumerate keys (Lucchesi–Osborn).
    let keys = schema.keys();
    let rendered: Vec<String> = keys.iter().map(|k| schema.render_set(k)).collect();
    println!("keys: {rendered:?}  (paper: abd and acd)");

    // The τ-structure encoding and its treewidth (Example 2.2: tw = 2).
    let (enc, td) = example_2_2();
    let g = PrimalGraph::of(&enc.structure);
    println!(
        "encoded as τ-structure: |A| = {}, treewidth = {} (decomposition width {})",
        enc.structure.domain().len(),
        exact_treewidth(&g),
        td.width()
    );

    // Decision problem (Figure 6) for every attribute.
    print!("prime attributes via Figure 6 decisions: ");
    for a in schema.attrs() {
        if is_prime_fpt(&schema, a) {
            print!("{}", schema.attr_name(a));
        }
    }
    println!("  (paper: abcd)");

    // Enumeration problem (§5.3): one bottom-up + one top-down pass.
    let primes = prime_attributes_fpt(&schema);
    println!(
        "prime attributes via solve↓ enumeration:    {}",
        schema.render_set(&primes)
    );

    // A large generated instance (the Table 1 workload family).
    let inst = block_tree_instance(31);
    println!(
        "\ngenerated block-tree schema: {} attributes, {} FDs, width-{} decomposition",
        inst.schema.attr_count(),
        inst.schema.fd_count(),
        inst.td.width()
    );
    let ctx = PrimalityContext::from_parts(inst.encoding, inst.td);
    let start = std::time::Instant::now();
    let (prime_elems, stats) = enumerate_primes(&ctx);
    println!(
        "  {} primes found in {:.2} ms ({} solve facts over {} nodes)",
        prime_elems.len(),
        start.elapsed().as_secs_f64() * 1e3,
        stats.up_facts + stats.down_facts,
        stats.nodes
    );
    let expected: Vec<_> = inst
        .expected_primes
        .iter()
        .map(|&a| ctx.encoding.elem_of_attr(a))
        .collect();
    assert_eq!(prime_elems, expected, "analytic ground truth holds");
    println!("  matches the analytically known prime set");
}
