//! Quickstart: compile a regex formula with capture variables, evaluate it over
//! a document with the constant-delay pipeline, and inspect the results.
//!
//! Run with: `cargo run --example quickstart`

use spanners::core::Document;
use spanners::regex::compile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The document of Figure 1 in the paper.
    let doc = Document::from("John xj@g.bey, Jane x555-12y");

    // The extraction rule of Example 2.1: a capitalised name followed by either
    // an e-mail address or a phone number enclosed in x…y delimiters.
    let pattern = ".*!name{[A-Z][a-z]+} x(!email{[a-z.@]+}|!phone{[0-9-]+})y.*";
    let spanner = compile(pattern)?;

    println!("document : {doc}");
    println!("pattern  : {pattern}");
    println!();

    // Phase 1 (Algorithm 1): linear-time preprocessing builds the mapping DAG.
    let dag = spanner.evaluate(&doc);
    println!(
        "preprocessing: {} DAG nodes, {} list cells, {} outputs",
        dag.num_nodes(),
        dag.num_cells(),
        dag.count_paths().unwrap()
    );

    // Phase 2 (Algorithm 2): constant-delay enumeration of the output mappings.
    for (i, mapping) in dag.iter().enumerate() {
        println!("µ{}: {}", i + 1, mapping.display(spanner.registry()));
        for (name, text) in mapping.texts(spanner.registry(), &doc) {
            println!("      {name:<6} = {:?}", String::from_utf8_lossy(text));
        }
    }

    // Counting without enumerating (Algorithm 3 / Theorem 5.1).
    let count = spanner.count_u64(&doc)?;
    println!("\ncount via Algorithm 3: {count}");
    assert_eq!(count as usize, dag.collect_mappings().len());

    Ok(())
}
