//! A minimal Rust lexer: just enough to see identifiers, punctuation,
//! and `// detlint:` directives, with line/column positions.
//!
//! The linter never needs full syntax — its rules are token-shape
//! patterns (`name . iter (`, `std :: time`, …) plus brace matching.
//! What it *must* get right is skipping the places tokens don't live:
//! string literals (plain, raw, byte), char literals, and comments
//! (line and nested block), or a banned name inside a log message would
//! count as a use. Lifetimes are disambiguated from char literals so
//! `&'a str` doesn't eat the rest of the file.

/// One token with its source position (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Line, 1-based.
    pub line: u32,
    /// Column, 1-based (byte offset within the line).
    pub col: u32,
    /// What the token is.
    pub kind: TokKind,
}

/// Token classes the linter distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// A single punctuation byte (`::` arrives as two `:`).
    Punct(char),
    /// A numeric literal (value irrelevant).
    Number,
    /// A lifetime like `'a` (distinguished from char literals).
    Lifetime,
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One `// detlint: ...` directive comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// Line the comment sits on, 1-based.
    pub line: u32,
    /// Text after `detlint:`, trimmed (e.g. `event-entry`,
    /// `allow(unordered-iter) sorted below`).
    pub text: String,
}

/// Lex `src` into tokens plus the detlint directives found in comments.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Directive>) {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut directives = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    // Advance `n` bytes, maintaining line/col.
    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            bump!(1);
            continue;
        }
        // Line comment — the only place directives live.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                bump!(1);
            }
            let text = &src[start..i];
            let body = text.trim_start_matches('/').trim();
            if let Some(rest) = body.strip_prefix("detlint:") {
                directives.push(Directive {
                    line,
                    text: rest.trim().to_string(),
                });
            }
            continue;
        }
        // Block comment, nesting like Rust's.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            bump!(2);
            let mut depth = 1;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    bump!(2);
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br#"..."# with any # count.
        if (c == b'r' || c == b'b') && is_raw_string_start(b, i) {
            let mut j = i;
            if b[j] == b'b' {
                j += 1;
            }
            j += 1; // past 'r'
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            // j is at the opening quote.
            let consumed_prefix = j + 1 - i;
            bump!(consumed_prefix);
            loop {
                if i >= b.len() {
                    break;
                }
                if b[i] == b'"' {
                    let mut k = i + 1;
                    let mut h = 0;
                    while k < b.len() && b[k] == b'#' && h < hashes {
                        h += 1;
                        k += 1;
                    }
                    if h == hashes {
                        bump!(1 + hashes);
                        break;
                    }
                }
                bump!(1);
            }
            continue;
        }
        // Plain / byte strings.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            if c == b'b' {
                bump!(1);
            }
            bump!(1); // opening quote
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            bump!(1); // closing quote
            continue;
        }
        // Lifetime or char literal.
        if c == b'\'' {
            // A lifetime is ' followed by ident chars with no closing
            // quote right after ('a, 'static); anything else is a char
            // literal ('x', '\n', '\u{1F600}').
            let is_lifetime = i + 1 < b.len()
                && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                && !(i + 2 < b.len() && b[i + 2] == b'\'');
            if is_lifetime {
                let (l, cl) = (line, col);
                bump!(1);
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    bump!(1);
                }
                toks.push(Tok {
                    line: l,
                    col: cl,
                    kind: TokKind::Lifetime,
                });
            } else {
                bump!(1); // opening quote
                while i < b.len() && b[i] != b'\'' {
                    if b[i] == b'\\' {
                        bump!(2);
                    } else {
                        bump!(1);
                    }
                }
                bump!(1); // closing quote
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            let (l, cl) = (line, col);
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                bump!(1);
            }
            toks.push(Tok {
                line: l,
                col: cl,
                kind: TokKind::Ident(src[start..i].to_string()),
            });
            continue;
        }
        // Number (loose: consume alphanumerics, '_', '.', exponent signs).
        if c.is_ascii_digit() {
            let (l, cl) = (line, col);
            while i < b.len()
                && (b[i].is_ascii_alphanumeric()
                    || b[i] == b'_'
                    || (b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit()))
            {
                bump!(1);
            }
            toks.push(Tok {
                line: l,
                col: cl,
                kind: TokKind::Number,
            });
            continue;
        }
        // Everything else: one punctuation byte.
        toks.push(Tok {
            line,
            col,
            kind: TokKind::Punct(c as char),
        });
        bump!(1);
    }
    (toks, directives)
}

/// Is `b[i]` the start of a raw-string literal (`r"`, `r#`, `br"`,
/// `br#`)? Plain `r` / `b` identifiers fall through to ident lexing.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j >= b.len() || b[j] != b'r' {
            // b"..." is handled by the plain-string arm.
            return false;
        }
    }
    if b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
// HashMap in a comment
/* HashMap /* nested */ still comment */
let x = "HashMap.iter()";
let y = r#"HashMap"#;
let c = 'H';
real_ident
"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y", "let", "c", "real_ident"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"str".to_string()));
        assert_eq!(ids.iter().filter(|s| *s == "x").count(), 2);
    }

    #[test]
    fn directives_are_collected_with_lines() {
        let src = "fn a() {}\n// detlint: event-entry\nfn b() {}\n// detlint: allow(unordered-iter) sorted\n";
        let (_, ds) = lex(src);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].line, 2);
        assert_eq!(ds[0].text, "event-entry");
        assert_eq!(ds[1].line, 4);
        assert!(ds[1].text.starts_with("allow(unordered-iter)"));
    }

    #[test]
    fn positions_are_one_based() {
        let (toks, _) = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn byte_and_raw_strings_skip_cleanly() {
        let ids = idents(r#"let a = b"bytes"; let b2 = br#x; "#);
        // br# with no quote is not a raw string; 'br' lexes as ident.
        assert!(ids.contains(&"a".to_string()));
        assert!(ids.contains(&"b2".to_string()));
    }
}
