//! Source locations for parsed datalog programs.
//!
//! A [`Span`] is a half-open byte range into the source text a program was
//! parsed from, together with the 1-based line/column of its start. Every
//! [`ParseError`](crate::parser::ParseError) carries one, as does a
//! malformed-pragma [`PragmaError`](crate::dry_run::PragmaError).

use std::fmt;

/// A half-open byte range `start..end` into the source text, with the
/// 1-based line and (character) column of `start`. [`Span::DUMMY`] (all
/// zeros) marks "no location".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: u32,
    /// Byte offset one past the last byte covered.
    pub end: u32,
    /// 1-based source line of `start` (0 = unknown).
    pub line: u32,
    /// 1-based character column of `start` within its line (0 = unknown).
    pub col: u32,
}

impl Span {
    /// The "no location" span.
    pub const DUMMY: Span = Span {
        start: 0,
        end: 0,
        line: 0,
        col: 0,
    };

    /// True if this span carries a real location.
    #[inline]
    pub fn is_known(self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_known() {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            f.write_str("?:?")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_is_unknown_and_displays_placeholder() {
        assert!(!Span::DUMMY.is_known());
        assert_eq!(Span::DUMMY.to_string(), "?:?");
        let real = Span {
            start: 3,
            end: 7,
            line: 2,
            col: 4,
        };
        assert!(real.is_known());
        assert_eq!(real.to_string(), "2:4");
    }
}
