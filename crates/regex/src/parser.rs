//! A hand-written recursive-descent parser for regex formulas.
//!
//! Concrete syntax (a pragmatic superset of the paper's grammar):
//!
//! ```text
//! formula     ::= alternation
//! alternation ::= sequence ('|' sequence)*
//! sequence    ::= repeated*
//! repeated    ::= atom ('*' | '+' | '?' | '{' m (',' n?)? '}')*
//! atom        ::= '(' alternation ')'            grouping
//!               | '!' ident '{' alternation '}'  variable capture  !x{…}
//!               | '[' class ']'                  character class   [a-z0-9_], [^…]
//!               | '.'                            any byte
//!               | '\' escape                     \d \w \s \n \t \r \xHH and escaped metacharacters
//!               | literal byte
//! ```
//!
//! The empty pattern and the empty group `()` denote ε.
//!
//! Nesting is capped at [`MAX_NESTING`] levels, so a hostile pattern fails
//! with a [`ParseError`] instead of overflowing the stack of the parser or of
//! the recursive passes over its AST.

use crate::ast::RegexAst;
use spanners_core::{ByteClass, ParseError};

/// The deepest nesting a pattern may have. Each group `(…)`, each capture
/// `!x{…}` and each postfix operator (`*`, `+`, `?`, `{m,n}`) counts one
/// level on top of the levels of what it encloses or applies to. This is
/// the default nest limit of the `regex-syntax` crate.
pub const MAX_NESTING: usize = 250;

/// Parses a regex formula from its concrete syntax.
pub fn parse(pattern: &str) -> Result<RegexAst, ParseError> {
    let mut p = Parser { input: pattern.as_bytes(), pos: 0, depth: 0 };
    let (ast, _) = p.parse_alternation()?;
    if p.pos != p.input.len() {
        return Err(ParseError::new(p.pos, format!("unexpected character `{}`", p.peek_char())));
    }
    Ok(ast)
}

/// The parse functions return each node with its nesting levels, which
/// postfix operators add to; `depth` counts the levels of the groups and
/// captures open around the current position.
struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn peek_char(&self) -> char {
        self.peek().map(|b| b as char).unwrap_or('␄')
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(b) if b == expected => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(ParseError::new(
                self.pos,
                format!("expected `{}`, found `{}`", expected as char, self.peek_char()),
            )),
        }
    }

    /// Fails at `offset` when a node of `levels` nesting levels would put
    /// the pattern past [`MAX_NESTING`].
    fn check_nesting(&self, levels: usize, offset: usize) -> Result<(), ParseError> {
        if self.depth + levels > MAX_NESTING {
            return Err(ParseError::new(
                offset,
                format!("pattern nests deeper than {MAX_NESTING} levels"),
            ));
        }
        Ok(())
    }

    fn parse_alternation(&mut self) -> Result<(RegexAst, usize), ParseError> {
        let (first, mut levels) = self.parse_sequence()?;
        let mut branches = vec![first];
        while self.peek() == Some(b'|') {
            self.bump();
            let (branch, l) = self.parse_sequence()?;
            branches.push(branch);
            levels = levels.max(l);
        }
        let ast = if branches.len() == 1 {
            branches.pop().expect("length checked")
        } else {
            RegexAst::Alternation(branches)
        };
        Ok((ast, levels))
    }

    fn parse_sequence(&mut self) -> Result<(RegexAst, usize), ParseError> {
        let mut parts = Vec::new();
        let mut levels = 0;
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' || b == b'}' {
                break;
            }
            let (part, l) = self.parse_repeated()?;
            parts.push(part);
            levels = levels.max(l);
        }
        Ok((RegexAst::concat(parts), levels))
    }

    fn parse_repeated(&mut self) -> Result<(RegexAst, usize), ParseError> {
        let (mut ast, mut levels) = self.parse_atom()?;
        loop {
            let op = self.pos;
            ast = match self.peek() {
                Some(b'*') => {
                    self.bump();
                    RegexAst::Star(Box::new(ast))
                }
                Some(b'+') => {
                    self.bump();
                    RegexAst::Plus(Box::new(ast))
                }
                Some(b'?') => {
                    self.bump();
                    RegexAst::Optional(Box::new(ast))
                }
                Some(b'{') if self.looks_like_counted_repeat() => {
                    self.bump();
                    let min = self.parse_number()?;
                    let max = if self.peek() == Some(b',') {
                        self.bump();
                        if self.peek() == Some(b'}') {
                            None
                        } else {
                            Some(self.parse_number()?)
                        }
                    } else {
                        Some(min)
                    };
                    self.eat(b'}')?;
                    if let Some(max) = max {
                        if max < min {
                            return Err(ParseError::new(
                                self.pos,
                                format!("invalid repetition range {{{min},{max}}}"),
                            ));
                        }
                    }
                    RegexAst::Repeat { inner: Box::new(ast), min, max }
                }
                _ => return Ok((ast, levels)),
            };
            levels += 1;
            self.check_nesting(levels, op)?;
        }
    }

    /// Distinguishes `a{2,3}` (counted repetition) from a literal `{`.
    fn looks_like_counted_repeat(&self) -> bool {
        let mut i = self.pos + 1;
        let mut digits = 0;
        while let Some(&b) = self.input.get(i) {
            match b {
                b'0'..=b'9' => {
                    digits += 1;
                    i += 1;
                }
                b',' if digits > 0 => {
                    i += 1;
                    while let Some(&b2) = self.input.get(i) {
                        match b2 {
                            b'0'..=b'9' => i += 1,
                            b'}' => return true,
                            _ => return false,
                        }
                    }
                    return false;
                }
                b'}' => return digits > 0,
                _ => return false,
            }
        }
        false
    }

    fn parse_number(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if self.pos == start {
            return Err(ParseError::new(self.pos, "expected a number"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are valid UTF-8")
            .parse()
            .map_err(|_| ParseError::new(start, "repetition count too large"))
    }

    /// Parses the body of a group or capture, one nesting level deeper,
    /// up to and including its `close` delimiter; `open` is the offset the
    /// group starts at.
    fn parse_nested(&mut self, open: usize, close: u8) -> Result<(RegexAst, usize), ParseError> {
        self.check_nesting(1, open)?;
        self.depth += 1;
        let (inner, levels) = self.parse_alternation()?;
        self.depth -= 1;
        self.eat(close)?;
        Ok((inner, levels + 1))
    }

    fn parse_atom(&mut self) -> Result<(RegexAst, usize), ParseError> {
        let start = self.pos;
        let leaf = match self.peek() {
            None => Err(ParseError::new(self.pos, "unexpected end of pattern")),
            Some(b'(') => {
                self.bump();
                return self.parse_nested(start, b')');
            }
            Some(b'!') => {
                self.bump();
                let name = self.parse_ident()?;
                self.eat(b'{')?;
                let (inner, levels) = self.parse_nested(start, b'}')?;
                return Ok((RegexAst::capture(&name, inner), levels));
            }
            Some(b'[') => {
                self.bump();
                let class = self.parse_class()?;
                Ok(RegexAst::Class(class))
            }
            Some(b'.') => {
                self.bump();
                Ok(RegexAst::Class(ByteClass::any()))
            }
            Some(b'\\') => {
                self.bump();
                let class = self.parse_escape()?;
                Ok(RegexAst::Class(class))
            }
            Some(b) if b"*+?)|]}".contains(&b) => Err(ParseError::new(
                self.pos,
                format!(
                    "unexpected `{}` (escape it with a backslash to match it literally)",
                    b as char
                ),
            )),
            Some(b) => {
                self.bump();
                Ok(RegexAst::byte(b))
            }
        };
        Ok((leaf?, 0))
    }

    fn parse_ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(ParseError::new(self.pos, "expected a variable name after `!`"));
        }
        Ok(String::from_utf8(self.input[start..self.pos].to_vec()).expect("ASCII identifier"))
    }

    fn parse_escape(&mut self) -> Result<ByteClass, ParseError> {
        match self.bump() {
            None => Err(ParseError::new(self.pos, "dangling escape at end of pattern")),
            Some(b'd') => Ok(ByteClass::ascii_digits()),
            Some(b'w') => Ok(ByteClass::ascii_word()),
            Some(b's') => Ok(ByteClass::ascii_space()),
            Some(b'D') => Ok(ByteClass::ascii_digits().complement()),
            Some(b'W') => Ok(ByteClass::ascii_word().complement()),
            Some(b'S') => Ok(ByteClass::ascii_space().complement()),
            Some(b'n') => Ok(ByteClass::singleton(b'\n')),
            Some(b't') => Ok(ByteClass::singleton(b'\t')),
            Some(b'r') => Ok(ByteClass::singleton(b'\r')),
            Some(b'0') => Ok(ByteClass::singleton(0)),
            Some(b'x') => {
                let hi = self.parse_hex_digit()?;
                let lo = self.parse_hex_digit()?;
                Ok(ByteClass::singleton(hi * 16 + lo))
            }
            Some(b) if b.is_ascii_alphanumeric() => {
                Err(ParseError::new(self.pos - 1, format!("unknown escape `\\{}`", b as char)))
            }
            Some(b) => Ok(ByteClass::singleton(b)),
        }
    }

    fn parse_hex_digit(&mut self) -> Result<u8, ParseError> {
        match self.bump() {
            Some(b @ b'0'..=b'9') => Ok(b - b'0'),
            Some(b @ b'a'..=b'f') => Ok(b - b'a' + 10),
            Some(b @ b'A'..=b'F') => Ok(b - b'A' + 10),
            _ => Err(ParseError::new(self.pos, "expected a hexadecimal digit")),
        }
    }

    fn parse_class(&mut self) -> Result<ByteClass, ParseError> {
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut class = ByteClass::empty();
        if self.peek() == Some(b']') {
            // A literal `]` is allowed as the first member.
            self.bump();
            class.insert(b']');
        }
        loop {
            match self.peek() {
                None => return Err(ParseError::new(self.pos, "unterminated character class")),
                Some(b']') => {
                    self.bump();
                    break;
                }
                _ => {
                    let lo = self.parse_class_member()?;
                    if self.peek() == Some(b'-')
                        && self.input.get(self.pos + 1).is_some_and(|&b| b != b']')
                    {
                        self.bump();
                        let hi_class = self.parse_class_member()?;
                        let (Some(lo), Some(hi)) = (single(&lo), single(&hi_class)) else {
                            return Err(ParseError::new(
                                self.pos,
                                "character ranges require single characters on both sides",
                            ));
                        };
                        if hi < lo {
                            return Err(ParseError::new(self.pos, "invalid character range"));
                        }
                        class = class.union(&ByteClass::range(lo, hi));
                    } else {
                        class = class.union(&lo);
                    }
                }
            }
        }
        Ok(if negated { class.complement() } else { class })
    }

    fn parse_class_member(&mut self) -> Result<ByteClass, ParseError> {
        match self.bump() {
            None => Err(ParseError::new(self.pos, "unterminated character class")),
            Some(b'\\') => {
                self.pos -= 1;
                self.bump();
                self.parse_escape()
            }
            Some(b) => Ok(ByteClass::singleton(b)),
        }
    }
}

fn single(c: &ByteClass) -> Option<u8> {
    if c.len() == 1 {
        c.first()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::RegexAst as R;

    #[test]
    fn parse_literals_and_concat() {
        assert_eq!(parse("").unwrap(), R::Epsilon);
        assert_eq!(parse("a").unwrap(), R::byte(b'a'));
        assert_eq!(parse("abc").unwrap(), R::literal(b"abc"));
        assert_eq!(parse("()").unwrap(), R::Epsilon);
    }

    #[test]
    fn parse_alternation_and_grouping() {
        let ast = parse("ab|c").unwrap();
        assert_eq!(ast, R::alternation(vec![R::literal(b"ab"), R::byte(b'c')]));
        let ast = parse("a(b|c)d").unwrap();
        assert_eq!(
            ast,
            R::concat(vec![
                R::byte(b'a'),
                R::alternation(vec![R::byte(b'b'), R::byte(b'c')]),
                R::byte(b'd'),
            ])
        );
    }

    #[test]
    fn parse_postfix_operators() {
        assert_eq!(parse("a*").unwrap(), R::Star(Box::new(R::byte(b'a'))));
        assert_eq!(parse("a+").unwrap(), R::Plus(Box::new(R::byte(b'a'))));
        assert_eq!(parse("a?").unwrap(), R::Optional(Box::new(R::byte(b'a'))));
        assert_eq!(parse("(ab)*").unwrap(), R::Star(Box::new(R::literal(b"ab"))));
        // double postfix
        assert_eq!(parse("a*?").unwrap(), R::Optional(Box::new(R::Star(Box::new(R::byte(b'a'))))));
    }

    #[test]
    fn parse_counted_repetition() {
        assert_eq!(
            parse("a{3}").unwrap(),
            R::Repeat { inner: Box::new(R::byte(b'a')), min: 3, max: Some(3) }
        );
        assert_eq!(
            parse("a{2,5}").unwrap(),
            R::Repeat { inner: Box::new(R::byte(b'a')), min: 2, max: Some(5) }
        );
        assert_eq!(
            parse("a{2,}").unwrap(),
            R::Repeat { inner: Box::new(R::byte(b'a')), min: 2, max: None }
        );
        assert!(parse("a{5,2}").is_err());
        // `{` not followed by a count is a literal brace
        assert_eq!(parse("a{b").unwrap(), R::literal(b"a{b"));
    }

    #[test]
    fn parse_captures() {
        let ast = parse("!x{a}").unwrap();
        assert_eq!(ast, R::capture("x", R::byte(b'a')));
        let ast = parse("!name{[a-z]+}").unwrap();
        assert_eq!(
            ast,
            R::capture("name", R::Plus(Box::new(R::Class(ByteClass::range(b'a', b'z')))))
        );
        // nested captures
        let ast = parse("!x{a!y{b}c}").unwrap();
        assert_eq!(
            ast,
            R::capture(
                "x",
                R::concat(vec![R::byte(b'a'), R::capture("y", R::byte(b'b')), R::byte(b'c')])
            )
        );
        assert!(parse("!{a}").is_err()); // missing name
        assert!(parse("!x{a").is_err()); // unterminated
    }

    #[test]
    fn parse_classes() {
        assert_eq!(parse("[abc]").unwrap(), R::Class(ByteClass::from_bytes(b"abc")));
        assert_eq!(parse("[a-c]").unwrap(), R::Class(ByteClass::range(b'a', b'c')));
        assert_eq!(
            parse("[a-cx]").unwrap(),
            R::Class(ByteClass::range(b'a', b'c').union(&ByteClass::singleton(b'x')))
        );
        // negation
        let ast = parse("[^a]").unwrap();
        match ast {
            R::Class(c) => {
                assert!(!c.contains(b'a'));
                assert!(c.contains(b'b'));
                assert_eq!(c.len(), 255);
            }
            other => panic!("expected class, got {other:?}"),
        }
        // leading ] is literal
        assert_eq!(parse("[]a]").unwrap(), R::Class(ByteClass::from_bytes(b"]a")));
        // escapes inside classes
        assert_eq!(
            parse("[\\d_]").unwrap(),
            R::Class(ByteClass::ascii_digits().union(&ByteClass::singleton(b'_')))
        );
        // trailing dash is literal
        assert_eq!(parse("[a-]").unwrap(), R::Class(ByteClass::from_bytes(b"a-")));
        assert!(parse("[abc").is_err());
        assert!(parse("[c-a]").is_err());
    }

    #[test]
    fn parse_escapes() {
        assert_eq!(parse("\\d").unwrap(), R::Class(ByteClass::ascii_digits()));
        assert_eq!(parse("\\w").unwrap(), R::Class(ByteClass::ascii_word()));
        assert_eq!(parse("\\s").unwrap(), R::Class(ByteClass::ascii_space()));
        assert_eq!(parse("\\.").unwrap(), R::byte(b'.'));
        assert_eq!(parse("\\\\").unwrap(), R::byte(b'\\'));
        assert_eq!(parse("\\n").unwrap(), R::byte(b'\n'));
        assert_eq!(parse("\\x41").unwrap(), R::byte(b'A'));
        match parse("\\D").unwrap() {
            R::Class(c) => {
                assert!(!c.contains(b'5'));
                assert!(c.contains(b'a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
        assert!(parse("\\q").is_err());
        assert!(parse("\\x4").is_err());
        assert!(parse("\\").is_err());
    }

    #[test]
    fn parse_dot() {
        assert_eq!(parse(".").unwrap(), R::Class(ByteClass::any()));
        assert_eq!(parse(".*").unwrap(), R::Star(Box::new(R::Class(ByteClass::any()))));
    }

    #[test]
    fn errors_report_offsets() {
        let err = parse("a)").unwrap_err();
        assert_eq!(err.offset, 1);
        let err = parse("(a").unwrap_err();
        assert_eq!(err.offset, 2);
        let err = parse("*a").unwrap_err();
        assert_eq!(err.offset, 0);
        let err = parse("a|*").unwrap_err();
        assert_eq!(err.offset, 2);
    }

    #[test]
    fn nesting_past_the_cap_fails_at_the_offending_offset() {
        let n = MAX_NESTING;
        let groups = |d: usize| format!("{}a{}", "(".repeat(d), ")".repeat(d));
        assert!(parse(&groups(n)).is_ok());
        assert_eq!(parse(&groups(n + 1)).unwrap_err().offset, n);
        assert_eq!(parse(&format!("a{}", "*".repeat(n + 1))).unwrap_err().offset, n + 1);
        // A star on a group counts on top of the group's own level.
        let starred = format!("({})*", groups(n - 1));
        assert_eq!(parse(&starred).unwrap_err().offset, starred.len() - 1);
    }

    #[test]
    fn example_2_1_pattern_parses() {
        // The Example 2.1 formula: Σ* name{γn} ␣ ⟨(email{γe} ∨ phone{γp})⟩ Σ*
        // rendered in our concrete syntax.
        let pattern = r".*!name{[A-Z][a-z]+} <(!email{[a-z.]+@[a-z.]+}|!phone{[0-9-]+})>.*";
        let ast = parse(pattern).unwrap();
        let vars: Vec<String> = ast.variables().into_iter().collect();
        assert_eq!(vars, vec!["email", "name", "phone"]);
        assert!(!ast.is_functional()); // email/phone are alternatives, so not functional
    }

    #[test]
    fn round_trip_display_then_parse() {
        for pattern in [
            "abc",
            "a|b|c",
            "(ab)*c+d?",
            "!x{[a-z]+}@!y{[a-z]+}",
            ".*!n{\\d{2,4}}.*",
            "[^x]*",
            "a{2,}",
        ] {
            let ast = parse(pattern).unwrap();
            let rendered = ast.to_string();
            let reparsed = parse(&rendered).unwrap_or_else(|e| {
                panic!("re-parsing {rendered:?} (from {pattern:?}) failed: {e}")
            });
            assert_eq!(ast, reparsed, "round trip of {pattern:?} via {rendered:?}");
        }
    }
}
