//! Byte spans and spanned diagnostics for `.jg` sources.

use std::fmt;

/// A half-open byte range `[start, end)` into one `.jg` source text.
///
/// Spans survive every stage of ingestion — lexing, parsing and lowering — so a semantic error
/// (say, a selectivity of `1.5` on the 40th line) still points at the offending bytes of the
/// *source*, not at some lowered artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte of the spanned region.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based line and column of the span start within `source`.
    ///
    /// Columns count bytes (the language is ASCII-only in practice), and a span starting at
    /// end-of-input reports the position one past the last character.
    fn line_col(&self, source: &str) -> (usize, usize) {
        let upto = &source[..self.start.min(source.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = upto.len() - upto.rfind('\n').map_or(0, |i| i + 1) + 1;
        (line, col)
    }
}

/// An ingestion failure: what went wrong and where in the source.
///
/// One error type serves all three stages — an unterminated token, a grammar violation and an
/// invalid statistic all render the same way. [`JgError::render`] produces a compiler-style
/// diagnostic with the source line and a caret run under the offending span.
#[derive(Clone, Debug, PartialEq)]
pub struct JgError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Where in the source it occurred.
    pub span: Span,
}

impl JgError {
    /// Creates an error over the given span.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        JgError {
            message: message.into(),
            span,
        }
    }

    /// Renders a multi-line diagnostic against the source the error was produced from:
    ///
    /// ```text
    /// error: relation `titel` is not declared in this query
    ///   --> line 7, column 8
    ///    |
    ///  7 |   join titel -- movie_info selectivity=0.01
    ///    |        ^^^^^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.span.line_col(source);
        let line_text = source.lines().nth(line - 1).unwrap_or("");
        let width = line.to_string().len().max(2);
        let caret_len = (self.span.end - self.span.start)
            .max(1)
            .min(line_text.len().saturating_sub(col - 1).max(1));
        format!(
            "error: {msg}\n  --> line {line}, column {col}\n{pad} |\n{line:>width$} | {text}\n{pad} | {gap}{carets}",
            msg = self.message,
            pad = " ".repeat(width),
            text = line_text,
            gap = " ".repeat(col - 1),
            carets = "^".repeat(caret_len),
            width = width,
        )
    }
}

impl fmt::Display for JgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (bytes {}..{})",
            self.message, self.span.start, self.span.end
        )
    }
}

impl std::error::Error for JgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_counts_from_one() {
        let src = "ab\ncde\nf";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(3, 4).line_col(src), (2, 1));
        assert_eq!(Span::new(5, 6).line_col(src), (2, 3));
        assert_eq!(Span::new(7, 8).line_col(src), (3, 1));
    }

    #[test]
    fn spans_merge() {
        assert_eq!(Span::new(4, 6).to(Span::new(1, 2)), Span::new(1, 6));
    }

    #[test]
    fn render_points_carets_at_the_span() {
        let src = "query q {\n  relation x cardinality=-5\n}";
        let bad = src.find("-5").unwrap();
        let e = JgError::new("bad cardinality", Span::new(bad, bad + 2));
        let rendered = e.render(src);
        assert!(rendered.contains("error: bad cardinality"));
        assert!(rendered.contains("line 2, column 26"));
        assert!(rendered.contains("^^"));
    }
}
