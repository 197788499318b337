//! # spanners-regex
//!
//! **Regex formulas** (RGX) with capture variables: the concrete syntax, the
//! reference semantics of Table 1, and compilation into variable-set automata
//! feeding the constant-delay evaluation pipeline of the paper.
//!
//! Quick start:
//!
//! ```
//! use spanners_regex::compile;
//! use spanners_core::Document;
//!
//! // Extract key/value pairs: a lowercase key, an '=', a numeric value.
//! let spanner = compile(".*!key{[a-z]+}=!value{[0-9]+}.*").unwrap();
//! let doc = Document::from("retries=3 timeout=250");
//! let results = spanner.mappings(&doc);
//! assert_eq!(spanner.count_u64(&doc).unwrap() as usize, results.len());
//! let key = spanner.registry().get("key").unwrap();
//! assert!(results.iter().any(|m| doc.span_bytes(m.get(key).unwrap()) == b"retries"));
//! ```
//!
//! * [`parse`] — concrete syntax → [`RegexAst`];
//! * [`eval_regex`] — Table 1 reference semantics (test oracle);
//! * [`regex_to_va`] — linear translation to a classical VA;
//! * [`compile()`] — the whole pipeline to a [`spanners_core::CompiledSpanner`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod compile;
pub mod parser;
pub mod semantics;

pub use ast::RegexAst;
pub use compile::{compile, compile_ast, compile_with_options, regex_to_va};
pub use parser::parse;
pub use semantics::{eval_regex, eval_rel};
