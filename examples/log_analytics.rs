//! Log analytics with the spanner algebra: extract IPv4 addresses and HTTP
//! status codes from synthetic access logs with two independent rules, then
//! combine them with the `{π, ∪, ⋈}` algebra of the paper (the join produces
//! every compatible (ip, status) pair found in the document).
//!
//! Run with: `cargo run --release --example log_analytics [lines]`

use std::collections::BTreeMap;
use std::time::Instant;

use spanners::algebra::{AlgebraExpr, CompileStrategy};
use spanners::automata::CompileOptions;
use spanners::workloads::log_lines;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lines: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let doc = log_lines(7, lines);
    println!("synthetic access log: {lines} lines, {} bytes", doc.len());

    // Two atomic extraction rules over the same line structure:
    //   ip     – the client address at the start of a line
    //   status – the HTTP status code between the quoted request and the size
    let ip = AlgebraExpr::regex(
        "(.|\\n)*\\n?!ip{[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}} - -(.|\\n)*",
    )?;
    let status = AlgebraExpr::regex("(.|\\n)*\" !status{[0-9]{3}} (.|\\n)*")?;

    // Join them: every pair of an extracted ip and an extracted status.
    let expr = ip.join(status);
    let compile_start = Instant::now();
    let spanner = expr.compile(CompileOptions::default(), CompileStrategy::DeterminizeLate)?;
    println!(
        "compiled algebra expression ({} atoms+operators) into {} states in {:?}",
        expr.size(),
        spanner.try_automaton().expect("eager engine").num_states(),
        compile_start.elapsed()
    );

    let eval_start = Instant::now();
    let dag = spanner.evaluate(&doc);
    println!(
        "preprocessing in {:?}; {} (ip, status) pairs",
        eval_start.elapsed(),
        dag.count_paths().unwrap()
    );

    // Aggregate: status histogram of the extracted pairs (streaming, no
    // materialization of the full output).
    let status_var = spanner.registry().get("status").expect("status variable exists");
    let mut histogram: BTreeMap<String, u64> = BTreeMap::new();
    for mapping in dag.iter() {
        if let Some(span) = mapping.get(status_var) {
            let code = String::from_utf8_lossy(doc.span_bytes(span)).to_string();
            *histogram.entry(code).or_insert(0) += 1;
        }
    }
    println!("status histogram over extracted pairs:");
    for (code, n) in &histogram {
        println!("  {code}: {n}");
    }

    Ok(())
}
