//! A broad consistency matrix: realistic extraction patterns × synthetic
//! workload documents × every evaluation path the library offers.
//!
//! For every (pattern, document) pair we require that
//!
//! 1. the constant-delay enumeration (Algorithms 1+2) produces no duplicates,
//! 2. its cardinality equals Algorithm 3's count and the DAG path count,
//! 3. the materializing and polynomial-delay baselines produce the same set,
//! 4. every mapping is well-formed (spans fit the document, captured text
//!    matches the sub-pattern's character classes where that is easy to state),
//! 5. `is_match` is consistent with the count.
//!
//! The point is wide, cheap coverage of realistic rule shapes — the precise
//! semantics of each pattern is already covered by the differential tests
//! against Table 1.

use spanners::baselines::{materialize_enumerate, PolyDelayEnumerator};
use spanners::core::{dedup_mappings, Document, Mapping};
use spanners::regex::compile;
use spanners::workloads as w;

/// The pattern zoo: realistic rule shapes from information-extraction practice.
fn patterns() -> Vec<(&'static str, String)> {
    vec![
        ("digit runs", w::digit_runs_pattern().to_string()),
        ("contacts (Example 2.1)", w::contact_pattern().to_string()),
        ("nested captures depth 2", w::nested_captures_pattern(2)),
        ("keyword dictionary", w::keyword_dictionary_pattern(&["GET", "POST", "404", "500"])),
        ("key=value pairs", ".*!key{[a-z_]+}=!value{[A-Za-z0-9.]+}.*".to_string()),
        ("quoted strings", ".*\"!quoted{[^\"]*}\".*".to_string()),
        ("dna motif with context", ".*!left{[ACGT]{0,3}}TATA!right{[ACGT]{0,3}}.*".to_string()),
        ("word before digits", ".*!word{[a-z]+} !num{[0-9]+}.*".to_string()),
        (
            "email or phone union",
            ".*(!email{[a-z]+@[a-z.]+}|!phone{[0-9]{3}-[0-9]{2}}).*".to_string(),
        ),
    ]
}

/// The document zoo: one representative of each generator family, small enough
/// that even the quadratic-output patterns stay enumerable.
fn documents() -> Vec<(&'static str, Document)> {
    vec![
        ("figure 1", w::figure1_document()),
        ("contact directory", w::contact_directory(11, 30).0),
        ("log lines", w::log_lines(12, 8)),
        ("random words", w::random_words(13, 300)),
        ("dna", w::dna(14, 200)),
        ("random ab text", w::random_text(15, 150, b"ab")),
        ("empty", Document::empty()),
        ("key=value config", Document::from("retries=3 timeout=2.5 name=Alpha mode=fast")),
        ("quoted", Document::from("say \"hello\" then \"bye\"")),
    ]
}

#[test]
fn every_pattern_on_every_document_is_internally_consistent() {
    // Cap on outputs we are willing to fully materialize per cell.
    const MAX_MATERIALIZE: u64 = 300_000;

    for (pname, pattern) in patterns() {
        let spanner = compile(&pattern)
            .unwrap_or_else(|e| panic!("pattern {pname:?} ({pattern}) failed to compile: {e}"));
        for (dname, doc) in documents() {
            let count = spanner
                .count_u64(&doc)
                .unwrap_or_else(|e| panic!("count overflow for {pname} on {dname}: {e}"));
            let dag = spanner.evaluate(&doc);
            assert_eq!(dag.count_paths().unwrap(), count as u128, "{pname} on {dname}: DAG paths");
            assert_eq!(spanner.is_match(&doc), count > 0, "{pname} on {dname}: is_match");

            if count > MAX_MATERIALIZE {
                // Still stream a bounded prefix and check it is duplicate-free.
                let prefix: Vec<Mapping> = dag.iter().take(10_000).collect();
                let mut dedup = prefix.clone();
                dedup_mappings(&mut dedup);
                assert_eq!(prefix.len(), dedup.len(), "{pname} on {dname}: prefix duplicates");
                continue;
            }

            let enumerated = dag.collect_mappings();
            assert_eq!(enumerated.len() as u64, count, "{pname} on {dname}: enumeration count");
            let mut sorted = enumerated.clone();
            dedup_mappings(&mut sorted);
            assert_eq!(sorted.len(), enumerated.len(), "{pname} on {dname}: duplicates");

            // Baselines agree.
            let mut materialized =
                materialize_enumerate(spanner.try_automaton().expect("eager engine"), &doc);
            dedup_mappings(&mut materialized);
            assert_eq!(materialized, sorted, "{pname} on {dname}: materialize baseline");
            let mut poly =
                PolyDelayEnumerator::new(spanner.try_automaton().expect("eager engine"), &doc)
                    .collect();
            dedup_mappings(&mut poly);
            assert_eq!(poly, sorted, "{pname} on {dname}: poly-delay baseline");

            // Well-formedness of every mapping.
            for m in &sorted {
                for (var, span) in m.iter() {
                    assert!(var.index() < spanner.registry().len(), "{pname} on {dname}");
                    assert!(span.fits(doc.len()), "{pname} on {dname}: span out of bounds");
                }
            }
        }
    }
}

#[test]
fn captured_text_matches_the_expected_character_classes() {
    // Spot-check semantic plausibility of captures on real-ish documents.
    let digits = compile(w::digit_runs_pattern()).unwrap();
    let doc = w::log_lines(21, 5);
    let num = digits.registry().get("num").unwrap();
    for m in digits.evaluate(&doc).iter() {
        let text = doc.span_bytes(m.get(num).unwrap());
        assert!(!text.is_empty());
        assert!(text.iter().all(u8::is_ascii_digit), "capture {text:?} is all digits");
    }

    let kv = compile(".*!key{[a-z_]+}=!value{[A-Za-z0-9.]+}.*").unwrap();
    let doc = Document::from("retries=3 timeout=2.5 name=Alpha");
    let key = kv.registry().get("key").unwrap();
    let value = kv.registry().get("value").unwrap();
    let mut pairs: Vec<(String, String)> = kv
        .evaluate(&doc)
        .iter()
        .map(|m| {
            (
                String::from_utf8_lossy(doc.span_bytes(m.get(key).unwrap())).to_string(),
                String::from_utf8_lossy(doc.span_bytes(m.get(value).unwrap())).to_string(),
            )
        })
        .collect();
    pairs.sort();
    pairs.dedup();
    // The maximal, intended pairs are all present (among sub-matches).
    for expected in [("retries", "3"), ("timeout", "2.5"), ("name", "Alpha")] {
        assert!(
            pairs.iter().any(|(k, v)| k == expected.0 && v == expected.1),
            "missing pair {expected:?} in {pairs:?}"
        );
    }
    // And the key/value classes are respected everywhere.
    for (k, v) in &pairs {
        assert!(k.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'));
        assert!(v.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.'));
    }
}

#[test]
fn contact_directories_of_varied_sizes_count_exactly() {
    let spanner = compile(w::contact_pattern()).unwrap();
    for (seed, entries) in [(1u64, 1usize), (2, 7), (3, 64), (4, 333)] {
        let (doc, n) = w::contact_directory(seed, entries);
        assert_eq!(spanner.count_u64(&doc).unwrap() as usize, n, "seed {seed}");
        // Every extracted name is one of the generator's first names.
        let name = spanner.registry().get("name").unwrap();
        for m in spanner.evaluate(&doc).iter().take(50) {
            let text = String::from_utf8_lossy(doc.span_bytes(m.get(name).unwrap())).to_string();
            assert!(text.chars().next().unwrap().is_ascii_uppercase(), "name {text:?}");
        }
    }
}
