//! Contact extraction at scale: the Example 2.1 workload on a synthetic
//! directory, streaming results with constant delay instead of materializing
//! the whole output.
//!
//! Run with: `cargo run --release --example contact_extraction [entries]`

use std::time::Instant;

use spanners::core::Evaluator;
use spanners::regex::compile;
use spanners::workloads::{contact_directory, contact_pattern};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let entries: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);

    let (doc, expected) = contact_directory(0xC0FFEE, entries);
    println!("synthetic directory: {} entries, {} bytes", expected, doc.len());

    let compile_start = Instant::now();
    let spanner = compile(contact_pattern())?;
    println!(
        "compiled pattern into a deterministic sequential eVA with {} states in {:?}",
        spanner.try_automaton().expect("eager engine").num_states(),
        compile_start.elapsed()
    );

    // Phase 1: linear preprocessing.
    let pre_start = Instant::now();
    let dag = spanner.evaluate(&doc);
    let pre_time = pre_start.elapsed();
    println!(
        "preprocessing: {:?} ({:.1} MB/s), DAG: {} nodes / {} cells",
        pre_time,
        doc.len() as f64 / 1e6 / pre_time.as_secs_f64(),
        dag.view().num_nodes(),
        dag.view().num_cells(),
    );

    // Phase 2: stream the output; report the first few mappings and the delay
    // distribution over the rest.
    let mut delays_ns: Vec<u128> = Vec::new();
    let mut last = Instant::now();
    let mut shown = 0usize;
    let mut total = 0usize;
    for mapping in dag.iter() {
        delays_ns.push(last.elapsed().as_nanos());
        last = Instant::now();
        total += 1;
        if shown < 3 {
            let texts = mapping.texts(spanner.registry(), &doc);
            let name = texts.get("name").map(|t| String::from_utf8_lossy(t).to_string());
            let contact = texts
                .get("email")
                .or_else(|| texts.get("phone"))
                .map(|t| String::from_utf8_lossy(t).to_string());
            println!("  extracted: {name:?} -> {contact:?}");
            shown += 1;
        }
    }
    delays_ns.sort_unstable();
    if delays_ns.is_empty() {
        println!("enumerated 0 mappings (document has no contacts)");
    } else {
        let pct = |p: f64| delays_ns[((delays_ns.len() - 1) as f64 * p) as usize];
        println!(
            "enumerated {total} mappings; per-output delay p50 = {} ns, p99 = {} ns, max = {} ns",
            pct(0.50),
            pct(0.99),
            delays_ns.last().copied().unwrap_or(0)
        );
    }
    assert_eq!(total, expected);

    // Counting alone is cheaper still (no DAG needed).
    let count_start = Instant::now();
    let count = spanner.count_u64(&doc)?;
    println!("count via Algorithm 3: {count} in {:?}", count_start.elapsed());

    // Serving mode: evaluate a stream of per-user directories with one
    // reusable Evaluator — after the first document the DAG arenas are warm
    // and evaluation allocates nothing.
    let batch: Vec<_> = (0..32u64).map(|s| contact_directory(s, entries / 32 + 1).0).collect();
    let mut evaluator = Evaluator::new();
    let mut served_bytes = 0usize;
    let mut served_mappings = 0usize;
    let serve_start = Instant::now();
    for doc in &batch {
        let dag = spanner.evaluate_with(&mut evaluator, doc);
        served_bytes += doc.len();
        served_mappings += dag.iter().count();
    }
    let serve_time = serve_start.elapsed();
    println!(
        "served {} documents ({} bytes, {} mappings) in {:?} ({:.1} MB/s) — arenas: {} nodes / {} cells retained",
        batch.len(),
        served_bytes,
        served_mappings,
        serve_time,
        served_bytes as f64 / 1e6 / serve_time.as_secs_f64(),
        evaluator.node_capacity(),
        evaluator.cell_capacity(),
    );

    Ok(())
}
