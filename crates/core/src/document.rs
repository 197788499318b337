//! Documents: the input strings from which spanners extract information.
//!
//! A document is a finite string over a fixed finite alphabet Σ. We use raw
//! bytes as the alphabet, which covers ASCII/UTF-8 text, CSV, logs, JSON, and
//! binary formats alike. Positions and spans are always measured in bytes.

use crate::span::Span;
use std::fmt;
use std::sync::Arc;

/// An input document: an immutable byte string with span-aware accessors.
///
/// The bytes live in one shared, immutable buffer. Building a document from
/// an owned `Vec<u8>` or `String` moves that allocation in without copying a
/// byte, and `clone()` bumps a reference count, so a caller can keep a handle
/// to read spans while a server evaluates the same buffer. Equality, hashing
/// and formatting go by content, never by buffer identity.
///
/// ```
/// use spanners_core::{Document, Span};
/// let d = Document::from("John and Jane");
/// assert_eq!(d.len(), 13);
/// assert_eq!(d.span_bytes(Span::new(0, 4).unwrap()), b"John");
/// assert_eq!(d.span_str(Span::new(9, 13).unwrap()).unwrap(), "Jane");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Document {
    bytes: Arc<Vec<u8>>,
}

impl Document {
    /// Creates a document from raw bytes. An owned `Vec<u8>` or `String` is
    /// moved in as is; borrowed bytes are copied once.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        Document { bytes: Arc::new(bytes.into()) }
    }

    /// The empty document ε.
    pub fn empty() -> Self {
        Document::new(Vec::new())
    }

    /// Length of the document in bytes (`|d|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the document is the empty string.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The document's raw bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The byte at 0-based position `pos`, if any.
    #[inline]
    pub fn byte_at(&self, pos: usize) -> Option<u8> {
        self.bytes.get(pos).copied()
    }

    /// Content of the given span, i.e. the paper's `d(s)`.
    ///
    /// # Panics
    /// Panics if the span does not fit the document.
    #[inline]
    pub fn span_bytes(&self, span: Span) -> &[u8] {
        &self.bytes[span.range()]
    }

    /// Content of the given span as UTF-8 text, if it is valid UTF-8.
    pub fn span_str(&self, span: Span) -> Option<&str> {
        std::str::from_utf8(self.span_bytes(span)).ok()
    }

    /// Content of the span delimited by the paper's 1-based positions `⟨i, j⟩`,
    /// i.e. the paper's `d(i, j)`.
    pub fn paper_content(&self, i: usize, j: usize) -> Option<&[u8]> {
        let span = Span::from_paper(i, j).ok()?;
        if span.fits(self.len()) {
            Some(self.span_bytes(span))
        } else {
            None
        }
    }

    /// The span covering the whole document, `[0, |d|⟩` (paper: `⟨1, |d|+1⟩`).
    pub fn full_span(&self) -> Span {
        Span::new_unchecked(0, self.len())
    }

    /// Whether a span fits this document.
    #[inline]
    pub fn accommodates(&self, span: Span) -> bool {
        span.fits(self.len())
    }

    /// The distinct bytes occurring in the document (its effective alphabet).
    pub fn alphabet(&self) -> Vec<u8> {
        let mut seen = [false; 256];
        for &b in self.bytes() {
            seen[b as usize] = true;
        }
        (0u16..256).filter(|&b| seen[b as usize]).map(|b| b as u8).collect()
    }
}

impl From<&str> for Document {
    fn from(s: &str) -> Self {
        Document::new(s.as_bytes().to_vec())
    }
}

impl From<String> for Document {
    fn from(s: String) -> Self {
        Document::new(s.into_bytes())
    }
}

impl From<&[u8]> for Document {
    fn from(b: &[u8]) -> Self {
        Document::new(b.to_vec())
    }
}

impl From<Vec<u8>> for Document {
    fn from(b: Vec<u8>) -> Self {
        Document::new(b)
    }
}

impl AsRef<[u8]> for Document {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(self.bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The document of Figure 1 in the paper.
    fn figure1() -> Document {
        Document::from("John xj@g.bey, Jane x555-12y")
    }

    #[test]
    fn figure1_length_and_content() {
        let d = figure1();
        assert_eq!(d.len(), 28);
        // d(1,5) = John
        assert_eq!(d.paper_content(1, 5).unwrap(), b"John");
        // d(7,13) = j@g.be
        assert_eq!(d.paper_content(7, 13).unwrap(), b"j@g.be");
        // d(16,20) = Jane
        assert_eq!(d.paper_content(16, 20).unwrap(), b"Jane");
        // d(22,28) = 555-12
        assert_eq!(d.paper_content(22, 28).unwrap(), b"555-12");
    }

    #[test]
    fn empty_document() {
        let d = Document::empty();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.full_span(), Span::new(0, 0).unwrap());
        assert_eq!(d.paper_content(1, 1).unwrap(), b"");
        assert_eq!(d.paper_content(1, 2), None);
    }

    #[test]
    fn empty_span_content_is_empty() {
        let d = figure1();
        assert_eq!(d.paper_content(3, 3).unwrap(), b"");
        assert_eq!(d.span_bytes(Span::empty_at(5)), b"");
    }

    #[test]
    fn span_str_utf8() {
        let d = Document::from("héllo");
        assert_eq!(d.len(), 6); // é is two bytes
        assert_eq!(d.span_str(d.full_span()).unwrap(), "héllo");
        // slicing through the middle of é is not valid UTF-8
        assert!(d.span_str(Span::new(1, 2).unwrap()).is_none());
    }

    #[test]
    fn byte_at_and_accommodates() {
        let d = Document::from("abc");
        assert_eq!(d.byte_at(0), Some(b'a'));
        assert_eq!(d.byte_at(2), Some(b'c'));
        assert_eq!(d.byte_at(3), None);
        assert!(d.accommodates(Span::new(0, 3).unwrap()));
        assert!(!d.accommodates(Span::new(0, 4).unwrap()));
    }

    #[test]
    fn alphabet_is_sorted_and_distinct() {
        let d = Document::from("abacabad");
        assert_eq!(d.alphabet(), vec![b'a', b'b', b'c', b'd']);
        assert!(Document::empty().alphabet().is_empty());
    }

    #[test]
    fn conversions() {
        let a = Document::from("xy");
        let b = Document::from(String::from("xy"));
        let c = Document::from(&b"xy"[..]);
        let d = Document::from(vec![b'x', b'y']);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(c, d);
        assert_eq!(a.as_ref(), b"xy");
        assert_eq!(a.to_string(), "xy");
    }

    #[test]
    fn clone_shares_the_buffer() {
        let d = figure1();
        let c = d.clone();
        assert_eq!(c.bytes().as_ptr(), d.bytes().as_ptr());
        assert_eq!(c, d);
        drop(d);
        assert_eq!(c.paper_content(1, 5).unwrap(), b"John");
    }

    #[test]
    fn owned_bytes_move_in_without_a_copy() {
        let v = b"abc".to_vec();
        let ptr = v.as_ptr();
        assert_eq!(Document::from(v).bytes().as_ptr(), ptr);
        let s = String::from("abc");
        let ptr = s.as_ptr();
        assert_eq!(Document::from(s).bytes().as_ptr(), ptr);
    }

    #[test]
    fn equality_hash_and_formatting_go_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash(d: &Document) -> u64 {
            let mut h = DefaultHasher::new();
            d.hash(&mut h);
            h.finish()
        }
        let d = Document::from("ab");
        let clone = d.clone();
        let separate = Document::from(vec![b'a', b'b']);
        assert_ne!(separate.bytes().as_ptr(), d.bytes().as_ptr());
        assert_eq!(clone, d);
        assert_eq!(separate, d);
        assert_eq!(hash(&clone), hash(&d));
        assert_eq!(hash(&separate), hash(&d));
        assert_ne!(Document::from("ba"), d);
        assert_eq!(format!("{d:?}"), "Document { bytes: [97, 98] }");
        assert_eq!(format!("{:?}", Document::empty()), "Document { bytes: [] }");
        assert_eq!(d.to_string(), "ab");
        assert_eq!(separate.to_string(), clone.to_string());
    }
}
