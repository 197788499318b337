//! Byte classes: sets of alphabet symbols labelling letter transitions.
//!
//! A letter transition of an automaton rarely matches a single byte; realistic
//! extraction rules use classes such as `[a-z]`, `\d`, or `Σ` (any byte).
//! [`ByteClass`] is a 256-bit set of bytes, and [`AlphabetPartition`] computes
//! the coarsest partition of the byte alphabet such that every class used by
//! an automaton is a union of partition blocks — the standard trick that lets
//! determinization and dense transition tables work over a handful of
//! equivalence classes instead of all 256 bytes.

use std::fmt;

/// A set of bytes, represented as a 256-bit bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteClass {
    bits: [u64; 4],
}

impl Default for ByteClass {
    fn default() -> Self {
        ByteClass::empty()
    }
}

impl ByteClass {
    /// The empty byte class.
    #[inline]
    pub const fn empty() -> Self {
        ByteClass { bits: [0; 4] }
    }

    /// The class of all 256 bytes (the paper's `Σ`).
    #[inline]
    pub const fn any() -> Self {
        ByteClass { bits: [u64::MAX; 4] }
    }

    /// A class containing a single byte.
    #[inline]
    pub fn singleton(b: u8) -> Self {
        let mut c = ByteClass::empty();
        c.insert(b);
        c
    }

    /// A class containing every byte in the inclusive range `lo..=hi`.
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut c = ByteClass::empty();
        if lo <= hi {
            for b in lo..=hi {
                c.insert(b);
            }
        }
        c
    }

    /// A class containing every byte of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut c = ByteClass::empty();
        for &b in bytes {
            c.insert(b);
        }
        c
    }

    /// ASCII decimal digits `[0-9]`.
    pub fn ascii_digits() -> Self {
        ByteClass::range(b'0', b'9')
    }

    /// ASCII letters `[A-Za-z]`.
    pub fn ascii_alpha() -> Self {
        ByteClass::range(b'a', b'z').union(&ByteClass::range(b'A', b'Z'))
    }

    /// ASCII alphanumerics plus underscore (`\w`).
    pub fn ascii_word() -> Self {
        ByteClass::ascii_alpha()
            .union(&ByteClass::ascii_digits())
            .union(&ByteClass::singleton(b'_'))
    }

    /// ASCII whitespace (`\s`): space, tab, newline, carriage return, form feed, vertical tab.
    pub fn ascii_space() -> Self {
        ByteClass::from_bytes(b" \t\n\r\x0c\x0b")
    }

    /// Whether the class contains byte `b`.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Inserts byte `b`.
    #[inline]
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Removes byte `b`.
    #[inline]
    pub fn remove(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] &= !(1u64 << (b & 63));
    }

    /// Number of bytes in the class.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the class is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Set union.
    pub fn union(&self, other: &ByteClass) -> ByteClass {
        let mut bits = [0u64; 4];
        for (i, w) in bits.iter_mut().enumerate() {
            *w = self.bits[i] | other.bits[i];
        }
        ByteClass { bits }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ByteClass) -> ByteClass {
        let mut bits = [0u64; 4];
        for (i, w) in bits.iter_mut().enumerate() {
            *w = self.bits[i] & other.bits[i];
        }
        ByteClass { bits }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &ByteClass) -> ByteClass {
        let mut bits = [0u64; 4];
        for (i, w) in bits.iter_mut().enumerate() {
            *w = self.bits[i] & !other.bits[i];
        }
        ByteClass { bits }
    }

    /// Complement with respect to the full byte alphabet.
    pub fn complement(&self) -> ByteClass {
        let mut bits = [0u64; 4];
        for (i, w) in bits.iter_mut().enumerate() {
            *w = !self.bits[i];
        }
        ByteClass { bits }
    }

    /// Whether the classes share at least one byte.
    pub fn intersects(&self, other: &ByteClass) -> bool {
        (0..4).any(|i| self.bits[i] & other.bits[i] != 0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &ByteClass) -> bool {
        (0..4).all(|i| self.bits[i] & !other.bits[i] == 0)
    }

    /// Iterates over the bytes in the class in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..256).map(|b| b as u8).filter(move |&b| self.contains(b))
    }

    /// An arbitrary representative byte of the class, if non-empty.
    pub fn first(&self) -> Option<u8> {
        self.iter().next()
    }
}

impl fmt::Display for ByteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ByteClass::any() {
            return write!(f, "Σ");
        }
        if self.len() == 1 {
            let b = self.first().unwrap();
            return if b.is_ascii_graphic() {
                write!(f, "{}", b as char)
            } else {
                write!(f, "\\x{b:02x}")
            };
        }
        // Render as compact ranges.
        write!(f, "[")?;
        let mut b = 0usize;
        while b < 256 {
            if self.contains(b as u8) {
                let start = b;
                while b + 1 < 256 && self.contains((b + 1) as u8) {
                    b += 1;
                }
                let render = |f: &mut fmt::Formatter<'_>, x: u8| -> fmt::Result {
                    if x.is_ascii_graphic() {
                        write!(f, "{}", x as char)
                    } else {
                        write!(f, "\\x{x:02x}")
                    }
                };
                render(f, start as u8)?;
                if b > start {
                    write!(f, "-")?;
                    render(f, b as u8)?;
                }
            }
            b += 1;
        }
        write!(f, "]")
    }
}

/// A set of alphabet equivalence-class indices, as a 256-bit bitmap.
///
/// Class indices never exceed 255 (an [`AlphabetPartition`] maps bytes
/// through a `u8` table), so four `u64` words cover every possible partition.
/// The evaluation engines use one `ClassMask` per automaton state to record
/// which classes are *skippable* for that state, and intersect the masks of
/// the live states into the active set's skippable-class set — one AND per
/// surviving state instead of a per-run predicate test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassMask {
    words: [u64; 4],
}

impl ClassMask {
    /// The empty mask (no class skippable).
    #[inline]
    pub const fn empty() -> Self {
        ClassMask { words: [0; 4] }
    }

    /// The full mask (every possible class index). Intersecting it with the
    /// per-state masks of the live states is how the engines seed the
    /// active-set mask — an empty active set vacuously skips everything.
    #[inline]
    pub const fn all() -> Self {
        ClassMask { words: [u64::MAX; 4] }
    }

    /// Inserts class index `cls`.
    #[inline]
    pub fn insert(&mut self, cls: usize) {
        debug_assert!(cls < 256, "class indices are at most 255");
        self.words[(cls >> 6) & 3] |= 1u64 << (cls & 63);
    }

    /// Removes class index `cls`.
    #[inline]
    pub fn remove(&mut self, cls: usize) {
        debug_assert!(cls < 256, "class indices are at most 255");
        self.words[(cls >> 6) & 3] &= !(1u64 << (cls & 63));
    }

    /// Whether the mask contains class index `cls`.
    #[inline]
    pub fn contains(&self, cls: usize) -> bool {
        debug_assert!(cls < 256, "class indices are at most 255");
        self.words[(cls >> 6) & 3] & (1u64 << (cls & 63)) != 0
    }

    /// Intersects this mask with `other` in place (the per-state AND of the
    /// active-set mask maintenance).
    #[inline]
    pub fn intersect_with(&mut self, other: &ClassMask) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
    }

    /// Whether no class is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of classes in the mask.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The byte-level *interest* table derived from a skippable-class
/// [`ClassMask`]: byte `b` is **interesting** when its equivalence class is
/// not wholly skippable for the current active set, i.e. the evaluation loop
/// cannot jump over it and must execute a `(Capturing; Reading)` step there.
///
/// Stored as a flat 256-entry 0/1 table so [`find_next_interesting`] can OR
/// sixteen lookups per iteration, a chunked-LUT shape that autovectorizes
/// with no unsafe code. Build one with [`AlphabetPartition::interest_mask_into`].
#[derive(Debug, Clone)]
pub struct InterestMask {
    lut: [u8; 256],
}

impl Default for InterestMask {
    /// Defaults to *every* byte interesting — the conservative direction: a
    /// mask used before being derived from a real [`ClassMask`] makes the
    /// scanner stop at once instead of skipping work it must not skip.
    fn default() -> Self {
        InterestMask { lut: [1; 256] }
    }
}

impl InterestMask {
    /// Whether byte `b` is interesting under this mask.
    #[inline]
    pub fn is_interesting(&self, b: u8) -> bool {
        self.lut[b as usize] != 0
    }

    /// Number of interesting bytes (diagnostics).
    pub fn count_interesting(&self) -> usize {
        self.lut.iter().filter(|&&v| v != 0).count()
    }
}

/// Finds the next *interesting* document position at or after `from`: the
/// first `i >= from` with `interest.is_interesting(doc[i])`, or `None` when
/// the rest of the document is wholly skippable.
///
/// This is the scanning core of the skip-mask fast path
/// ([`crate::EngineMode::SkipScan`]): instead of testing every position, the
/// engine jumps straight from one interesting byte to the next. The loop
/// reads 16-byte chunks over a flat 256-entry table, ORed into a single "any interesting?"
/// accumulator, so LLVM unrolls and vectorises the common all-skippable
/// chunks into a handful of vector ops (memchr-style throughput without
/// unsafe code or explicit SIMD).
pub fn find_next_interesting(doc: &[u8], from: usize, interest: &InterestMask) -> Option<usize> {
    // A 64-byte outer stride of four independent 16-byte accumulators: the
    // four OR chains have no dependencies between them, so the loop keeps
    // multiple loads in flight per cycle (and vectorises where the target
    // supports it). 16 stays the LUT-chunk granularity of the position scan.
    const CHUNK: usize = 16;
    const STRIDE: usize = 4 * CHUNK;
    let start = from.min(doc.len());
    let lut = &interest.lut;
    let mut offset = start;
    let mut strides = doc[start..].chunks_exact(STRIDE);
    for s in &mut strides {
        let mut any = [0u8; 4];
        for lane in 0..4 {
            let c = &s[lane * CHUNK..(lane + 1) * CHUNK];
            for &b in c {
                any[lane] |= lut[b as usize];
            }
        }
        if any.iter().any(|&a| a != 0) {
            let j = s
                .iter()
                .position(|&b| lut[b as usize] != 0)
                .expect("an accumulator saw an interesting byte in this stride");
            return Some(offset + j);
        }
        offset += STRIDE;
    }
    // Tail: one 16-byte-chunked pass over the last < 64 bytes.
    let mut chunks = strides.remainder().chunks_exact(CHUNK);
    for c in &mut chunks {
        let mut any = 0u8;
        for &b in c {
            any |= lut[b as usize];
        }
        if any != 0 {
            let j = c
                .iter()
                .position(|&b| lut[b as usize] != 0)
                .expect("the accumulator saw an interesting byte in this chunk");
            return Some(offset + j);
        }
        offset += CHUNK;
    }
    chunks.remainder().iter().position(|&b| lut[b as usize] != 0).map(|j| offset + j)
}

/// A partition of the 256-byte alphabet into equivalence classes.
///
/// Two bytes are equivalent when no byte class of the automaton distinguishes
/// them. Deterministic automata store one dense transition entry per
/// equivalence class instead of per byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlphabetPartition {
    /// Maps each byte to its equivalence-class index.
    class_of: [u8; 256],
    /// Number of equivalence classes.
    num_classes: usize,
    /// A representative byte for each class.
    representatives: Vec<u8>,
    /// The byte membership of each class (one 256-bit set per class) — the
    /// table [`AlphabetPartition::interest_mask_into`] unions to turn a
    /// skippable-class mask into a byte-level interest table.
    class_bytes: Vec<ByteClass>,
}

impl AlphabetPartition {
    /// The trivial partition with a single class containing every byte.
    pub fn trivial() -> Self {
        AlphabetPartition {
            class_of: [0; 256],
            num_classes: 1,
            representatives: vec![0],
            class_bytes: vec![ByteClass::any()],
        }
    }

    /// Computes the coarsest partition refining all the given byte classes.
    ///
    /// Every byte class in `classes` is a union of blocks of the returned
    /// partition. The construction assigns each byte a signature — the set of
    /// input classes it belongs to — and groups bytes by signature.
    pub fn from_classes<'a, I>(classes: I) -> Self
    where
        I: IntoIterator<Item = &'a ByteClass>,
    {
        let classes: Vec<&ByteClass> = classes.into_iter().collect();
        // Signature of byte b = bitmask over `classes` membership. With more
        // than 128 distinct classes we fall back to a vector signature.
        let mut signatures: Vec<Vec<u64>> = vec![vec![0u64; classes.len().div_ceil(64)]; 256];
        for (ci, c) in classes.iter().enumerate() {
            for (b, sig) in signatures.iter_mut().enumerate() {
                if c.contains(b as u8) {
                    sig[ci / 64] |= 1u64 << (ci % 64);
                }
            }
        }
        let mut class_of = [0u8; 256];
        let mut seen: Vec<(&Vec<u64>, u8)> = Vec::new();
        let mut representatives = Vec::new();
        for b in 0..256usize {
            let sig = &signatures[b];
            match seen.iter().find(|(s, _)| *s == sig) {
                Some(&(_, idx)) => class_of[b] = idx,
                None => {
                    let idx = seen.len() as u8;
                    seen.push((sig, idx));
                    representatives.push(b as u8);
                    class_of[b] = idx;
                }
            }
        }
        let mut class_bytes = vec![ByteClass::empty(); seen.len()];
        for b in 0..256usize {
            class_bytes[class_of[b] as usize].insert(b as u8);
        }
        AlphabetPartition { class_of, num_classes: seen.len(), representatives, class_bytes }
    }

    /// The equivalence-class index of byte `b`.
    #[inline]
    pub fn class_of(&self, b: u8) -> usize {
        self.class_of[b as usize] as usize
    }

    /// Number of equivalence classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// A representative byte for equivalence class `idx`.
    pub fn representative(&self, idx: usize) -> u8 {
        self.representatives[idx]
    }

    /// The full byte membership of equivalence class `idx` (a 256-bit set).
    #[inline]
    pub fn class_members(&self, idx: usize) -> &ByteClass {
        &self.class_bytes[idx]
    }

    /// Derives the byte-level interest table of a skippable-class mask: byte
    /// `b` becomes *interesting* exactly when its equivalence class is **not**
    /// in `skippable`. Writes into the caller-provided `out` so the hot loop
    /// performs no allocation (an `InterestMask` is a flat inline table).
    ///
    /// The scanning engines rebuild this only when the active set's
    /// intersected [`ClassMask`] changes — dense regions that churn the
    /// active set every byte never pay for it, because the rebuild is
    /// deferred until a skippable position is actually reached.
    pub fn interest_mask_into(&self, skippable: &ClassMask, out: &mut InterestMask) {
        let mut interesting = ByteClass::empty();
        for cls in 0..self.num_classes {
            if !skippable.contains(cls) {
                interesting = interesting.union(&self.class_bytes[cls]);
            }
        }
        for (b, slot) in out.lut.iter_mut().enumerate() {
            *slot = interesting.contains(b as u8) as u8;
        }
    }

    /// All equivalence-class indices that intersect the given byte class.
    pub fn classes_intersecting(&self, c: &ByteClass) -> Vec<usize> {
        let mut out = Vec::new();
        self.classes_intersecting_into(c, &mut out);
        out
    }

    /// Like [`AlphabetPartition::classes_intersecting`], but writing the
    /// (ascending) class indices into a caller-provided buffer so bulk
    /// transition-table construction — e.g. the per-(state, class) target
    /// lists of the lazy determinizer — performs one allocation total instead
    /// of one per transition.
    pub fn classes_intersecting_into(&self, c: &ByteClass, out: &mut Vec<usize>) {
        out.clear();
        // At most 256 classes exist, so a stack bitmap avoids heap traffic.
        let mut seen = [false; 256];
        for b in c.iter() {
            seen[self.class_of(b)] = true;
        }
        out.extend((0..self.num_classes).filter(|&i| seen[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_any_singleton() {
        assert!(ByteClass::empty().is_empty());
        assert_eq!(ByteClass::empty().len(), 0);
        assert_eq!(ByteClass::any().len(), 256);
        let c = ByteClass::singleton(b'a');
        assert_eq!(c.len(), 1);
        assert!(c.contains(b'a'));
        assert!(!c.contains(b'b'));
    }

    #[test]
    fn range_and_from_bytes() {
        let c = ByteClass::range(b'a', b'c');
        assert_eq!(c.len(), 3);
        assert!(c.contains(b'b'));
        assert!(ByteClass::range(b'z', b'a').is_empty());
        let d = ByteClass::from_bytes(b"xyz");
        assert_eq!(d.len(), 3);
        assert!(d.contains(b'y'));
    }

    #[test]
    fn predefined_classes() {
        assert_eq!(ByteClass::ascii_digits().len(), 10);
        assert_eq!(ByteClass::ascii_alpha().len(), 52);
        assert_eq!(ByteClass::ascii_word().len(), 63);
        assert!(ByteClass::ascii_space().contains(b' '));
        assert!(ByteClass::ascii_space().contains(b'\n'));
        assert!(!ByteClass::ascii_space().contains(b'a'));
    }

    #[test]
    fn set_operations() {
        let a = ByteClass::range(b'a', b'f');
        let b = ByteClass::range(b'd', b'k');
        assert_eq!(a.union(&b).len(), 11);
        assert_eq!(a.intersection(&b).len(), 3);
        assert_eq!(a.difference(&b).len(), 3);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&ByteClass::range(b'x', b'z')));
        assert!(a.intersection(&b).is_subset(&a));
        assert_eq!(a.complement().len(), 250);
        assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn insert_remove_boundary_bytes() {
        let mut c = ByteClass::empty();
        c.insert(0);
        c.insert(63);
        c.insert(64);
        c.insert(255);
        assert_eq!(c.len(), 4);
        assert!(c.contains(0) && c.contains(63) && c.contains(64) && c.contains(255));
        c.remove(64);
        assert!(!c.contains(64));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn iter_and_first() {
        let c = ByteClass::from_bytes(b"cab");
        let bytes: Vec<u8> = c.iter().collect();
        assert_eq!(bytes, vec![b'a', b'b', b'c']);
        assert_eq!(c.first(), Some(b'a'));
        assert_eq!(ByteClass::empty().first(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ByteClass::any().to_string(), "Σ");
        assert_eq!(ByteClass::singleton(b'a').to_string(), "a");
        assert_eq!(ByteClass::singleton(0x01).to_string(), "\\x01");
        assert_eq!(ByteClass::range(b'a', b'd').to_string(), "[a-d]");
        let two = ByteClass::singleton(b'a').union(&ByteClass::singleton(b'z'));
        assert_eq!(two.to_string(), "[az]");
    }

    #[test]
    fn partition_trivial() {
        let p = AlphabetPartition::trivial();
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.class_of(b'a'), p.class_of(b'!'));
    }

    #[test]
    fn partition_from_classes() {
        let digits = ByteClass::ascii_digits();
        let alpha = ByteClass::ascii_alpha();
        let at = ByteClass::singleton(b'@');
        let p = AlphabetPartition::from_classes([&digits, &alpha, &at]);
        // Blocks: digits, alpha, '@', everything else => 4 classes.
        assert_eq!(p.num_classes(), 4);
        assert_eq!(p.class_of(b'0'), p.class_of(b'9'));
        assert_eq!(p.class_of(b'a'), p.class_of(b'Z'));
        assert_ne!(p.class_of(b'0'), p.class_of(b'a'));
        assert_ne!(p.class_of(b'@'), p.class_of(b'#'));
        assert_eq!(p.class_of(b'#'), p.class_of(b' '));
        // Every input class is a union of blocks: all members share the class index set.
        for c in [&digits, &alpha, &at] {
            let ids: std::collections::HashSet<_> = c.iter().map(|b| p.class_of(b)).collect();
            for b in 0..=255u8 {
                if ids.contains(&p.class_of(b)) {
                    assert!(c.contains(b), "byte {b} in same block but not in class");
                }
            }
        }
    }

    #[test]
    fn partition_overlapping_classes() {
        let a = ByteClass::range(b'a', b'f');
        let b = ByteClass::range(b'd', b'k');
        let p = AlphabetPartition::from_classes([&a, &b]);
        // Blocks: a-only (a..c), both (d..f), b-only (g..k), neither => 4.
        assert_eq!(p.num_classes(), 4);
        assert_eq!(p.class_of(b'a'), p.class_of(b'c'));
        assert_eq!(p.class_of(b'd'), p.class_of(b'f'));
        assert_eq!(p.class_of(b'g'), p.class_of(b'k'));
        assert_ne!(p.class_of(b'a'), p.class_of(b'd'));
        assert_ne!(p.class_of(b'd'), p.class_of(b'g'));
    }

    #[test]
    fn partition_representatives_and_intersections() {
        let digits = ByteClass::ascii_digits();
        let p = AlphabetPartition::from_classes([&digits]);
        assert_eq!(p.num_classes(), 2);
        for idx in 0..p.num_classes() {
            let rep = p.representative(idx);
            assert_eq!(p.class_of(rep), idx);
        }
        let hit = p.classes_intersecting(&ByteClass::singleton(b'5'));
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0], p.class_of(b'5'));
        let all = p.classes_intersecting(&ByteClass::any());
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn classes_intersecting_into_matches_allocating_form() {
        let digits = ByteClass::ascii_digits();
        let alpha = ByteClass::ascii_alpha();
        let p = AlphabetPartition::from_classes([&digits, &alpha]);
        let mut buf = Vec::new();
        for probe in [
            ByteClass::any(),
            ByteClass::empty(),
            ByteClass::singleton(b'5'),
            ByteClass::range(b'0', b'z'),
            ByteClass::from_bytes(b"a0!"),
        ] {
            p.classes_intersecting_into(&probe, &mut buf);
            assert_eq!(buf, p.classes_intersecting(&probe), "probe {probe}");
        }
    }

    #[test]
    fn partition_no_classes() {
        let p = AlphabetPartition::from_classes(std::iter::empty());
        assert_eq!(p.num_classes(), 1);
    }

    #[test]
    fn class_mask_set_operations() {
        let mut m = ClassMask::empty();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        m.insert(0);
        m.insert(63);
        m.insert(64);
        m.insert(255);
        assert_eq!(m.len(), 4);
        assert!(m.contains(0) && m.contains(63) && m.contains(64) && m.contains(255));
        assert!(!m.contains(1));
        m.remove(64);
        assert!(!m.contains(64));
        assert_eq!(m.len(), 3);
        let full = ClassMask::all();
        assert_eq!(full.len(), 256);
        let mut and = full;
        and.intersect_with(&m);
        assert_eq!(and, m);
        let mut none = m;
        none.intersect_with(&ClassMask::empty());
        assert!(none.is_empty());
    }

    #[test]
    fn class_members_partition_the_alphabet() {
        let digits = ByteClass::ascii_digits();
        let alpha = ByteClass::ascii_alpha();
        let p = AlphabetPartition::from_classes([&digits, &alpha]);
        let mut total = 0;
        for cls in 0..p.num_classes() {
            let members = p.class_members(cls);
            total += members.len();
            for b in members.iter() {
                assert_eq!(p.class_of(b), cls, "byte {b} in wrong class set");
            }
        }
        assert_eq!(total, 256, "class byte sets must partition the alphabet");
    }

    #[test]
    fn interest_mask_complements_skippable_classes() {
        let digits = ByteClass::ascii_digits();
        let p = AlphabetPartition::from_classes([&digits]);
        let digit_cls = p.class_of(b'5');
        let mut skippable = ClassMask::empty();
        skippable.insert(1 - digit_cls); // the non-digit class
        let mut interest = InterestMask::default();
        p.interest_mask_into(&skippable, &mut interest);
        for b in 0..=255u8 {
            assert_eq!(interest.is_interesting(b), b.is_ascii_digit(), "byte {b}");
        }
        assert_eq!(interest.count_interesting(), 10);
        // All classes skippable: nothing is interesting; none skippable: all.
        let mut all = ClassMask::empty();
        all.insert(0);
        all.insert(1);
        p.interest_mask_into(&all, &mut interest);
        assert_eq!(interest.count_interesting(), 0);
        p.interest_mask_into(&ClassMask::empty(), &mut interest);
        assert_eq!(interest.count_interesting(), 256);
    }

    #[test]
    fn find_next_interesting_matches_scalar_scan() {
        let digits = ByteClass::ascii_digits();
        let p = AlphabetPartition::from_classes([&digits]);
        let digit_cls = p.class_of(b'0');
        let mut skippable = ClassMask::empty();
        skippable.insert(1 - digit_cls);
        let mut interest = InterestMask::default();
        p.interest_mask_into(&skippable, &mut interest);
        // Single interesting byte planted at every position of documents whose
        // lengths straddle the 16-byte chunk width.
        for len in [1usize, 15, 16, 17, 31, 32, 33, 64, 100] {
            for pos in 0..len {
                let mut doc = vec![b'q'; len];
                doc[pos] = b'7';
                for from in [0usize, pos.saturating_sub(1), pos, pos + 1, len] {
                    let expected = (from..len).find(|&i| interest.is_interesting(doc[i]));
                    assert_eq!(
                        find_next_interesting(&doc, from, &interest),
                        expected,
                        "len {len}, pos {pos}, from {from}"
                    );
                }
            }
        }
        // Empty documents and all-skippable tails.
        assert_eq!(find_next_interesting(&[], 0, &interest), None);
        assert_eq!(find_next_interesting(&[b'z'; 100], 0, &interest), None);
        // `from` past the end is tolerated.
        assert_eq!(find_next_interesting(b"77", 5, &interest), None);
    }

    #[test]
    fn default_interest_mask_is_conservative() {
        let interest = InterestMask::default();
        assert_eq!(interest.count_interesting(), 256);
        assert_eq!(find_next_interesting(b"abc", 0, &interest), Some(0));
    }
}
