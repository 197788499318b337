//! # spanners-baselines
//!
//! Baseline evaluation algorithms that the paper's constant-delay algorithm is
//! compared against in the benchmark harness:
//!
//! * [`naive_enumerate`] — backtrack over **all runs** and deduplicate with a
//!   hash set (the strawman of the introduction; exponential for
//!   non-deterministic automata, output must be fully materialized);
//! * [`materialize_enumerate`] — one pass over the document keeping the **set
//!   of partial mappings** per state (linear number of passes, but
//!   output-sized intermediate memory and no delay guarantee);
//! * [`PolyDelayEnumerator`] — enumeration over the trimmed
//!   automaton × position product with reachability pruning, giving
//!   **polynomial delay** per output in the spirit of
//!   Freydenberger–Kimelfeld–Peterfreund (\[13\] in the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod materialize;
pub mod naive;
pub mod polydelay;

pub use materialize::materialize_enumerate;
pub use naive::{naive_enumerate, NaiveStats};
pub use polydelay::PolyDelayEnumerator;
