//! Hand-rolled Rust tokenizer for the invariant analyzer.
//!
//! The rules only need a *lexical* view of a source file: identifiers,
//! punctuation, string/char/number literals, and line numbers — with
//! comments stripped (so a forbidden call in a doc example never fires)
//! and `// lint:allow(...)` waiver comments captured on the side. The
//! lexer therefore handles exactly the token boundaries that matter for
//! not mis-lexing real Rust:
//!
//! * line comments (`//`, `///`, `//!`) and **nesting** block comments;
//! * cooked strings with escapes, raw strings with any number of hashes
//!   (`r#"..."#`), byte/raw-byte strings;
//! * char literals vs lifetimes (`'a'` vs `'a`);
//! * numbers (enough to recognize a literal `0` argument).
//!
//! No external dependencies: the offline container has no crates.io
//! access (the `shims/` precedent), and a lexer this size does not need
//! one.

/// Kinds of significant tokens.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// String literal (cooked, raw, byte); `text` is the content.
    Str,
    /// Numeric literal; `text` is the raw spelling.
    Num,
    /// Single punctuation character; `text` is that character.
    Punct,
    /// Char literal (content irrelevant to the rules).
    Char,
    /// Lifetime (`'a`); kept so `'a` is never half-lexed as a char.
    Life,
}

/// One significant token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (content for strings, spelling otherwise).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A `// lint:allow(R1, R2) reason` waiver comment.
#[derive(Clone, Debug, PartialEq)]
pub struct Waiver {
    /// Line the comment sits on.
    pub line: u32,
    /// Waived rule ids, upper-cased (`"R1"`).
    pub rules: Vec<String>,
    /// True when the comment is the only thing on its line (the waiver
    /// then also covers the *next* line, for rustfmt-wrapped calls).
    pub standalone: bool,
    /// Free-text justification after the closing paren.
    pub reason: String,
}

impl Waiver {
    /// True when a hit on `line` is this waiver's to suppress.
    pub fn covers(&self, line: u32) -> bool {
        line == self.line || (self.standalone && line == self.line + 1)
    }
}

/// Lexer output: the significant tokens plus the waiver side table.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Waiver comments in source order.
    pub waivers: Vec<Waiver>,
}

/// Lexes one file. Never fails: unterminated constructs simply end at
/// EOF (the analyzer lints real, compiling sources; garbage in garbage
/// out is acceptable for a linter's lexer).
pub fn lex(text: &str) -> Lexed {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_had_token = false;

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {{
            out.tokens.push(Token {
                kind: $kind,
                text: $text,
                line: $line,
            });
            line_had_token = true;
        }};
    }

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            line_had_token = false;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments) — may carry a waiver.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            let body: String = chars[start..i].iter().collect();
            if let Some(w) = parse_waiver(&body, line, !line_had_token) {
                out.waivers.push(w);
            }
            continue;
        }
        // Block comment, nesting.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 1;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 1;
                }
                i += 1;
            }
            continue;
        }
        // Cooked string.
        if c == '"' {
            let start_line = line;
            i += 1;
            let mut s = String::new();
            while i < n && chars[i] != '"' {
                if chars[i] == '\\' && i + 1 < n {
                    if chars[i + 1] == '\n' {
                        line += 1;
                    }
                    s.push(chars[i]);
                    s.push(chars[i + 1]);
                    i += 2;
                    continue;
                }
                if chars[i] == '\n' {
                    line += 1;
                }
                s.push(chars[i]);
                i += 1;
            }
            i += 1; // closing quote
            push!(TokKind::Str, cook(&s), start_line);
            continue;
        }
        // Identifier — possibly a raw/byte string prefix.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            let is_str_prefix = matches!(ident.as_str(), "r" | "b" | "br" | "rb");
            if is_str_prefix && i < n && (chars[i] == '"' || chars[i] == '#') {
                // Raw (or byte) string: r"..." / r#"..."# / br##"..."##.
                let raw = ident.contains('r');
                let start_line = line;
                let mut hashes = 0usize;
                while i < n && chars[i] == '#' {
                    hashes += 1;
                    i += 1;
                }
                if i < n && chars[i] == '"' {
                    i += 1;
                    let content_start = i;
                    'scan: while i < n {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        if chars[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < n && chars[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                let content: String = chars[content_start..i].iter().collect();
                                i += 1 + hashes;
                                let text = if raw { content } else { cook(&content) };
                                push!(TokKind::Str, text, start_line);
                                break 'scan;
                            }
                        }
                        if !raw && chars[i] == '\\' {
                            i += 1; // cooked byte string: skip escape
                        }
                        i += 1;
                    }
                    continue;
                }
                // `r#ident` raw identifier: the hashes were not a string.
                // Re-lex the ident after the hash.
                push!(TokKind::Ident, ident, line);
                continue;
            }
            // Byte char literal prefix: b'x'.
            if ident == "b" && i < n && chars[i] == '\'' {
                i = skip_char_literal(&chars, i);
                push!(TokKind::Char, String::new(), line);
                continue;
            }
            let kind = TokKind::Ident;
            push!(kind, ident, line);
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            if i + 1 < n && chars[i + 1] == '\\' {
                i = skip_char_literal(&chars, i);
                push!(TokKind::Char, String::new(), line);
            } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                push!(TokKind::Char, chars[i + 1].to_string(), line);
                i += 3;
            } else {
                // Lifetime: 'ident (or the bare loop-label quote).
                i += 1;
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                push!(TokKind::Life, chars[start..i].iter().collect(), line);
            }
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            // Fractional part — but not `0..10` ranges or `1.max(..)`.
            if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            push!(TokKind::Num, chars[start..i].iter().collect(), line);
            continue;
        }
        // Single punctuation char.
        push!(TokKind::Punct, c.to_string(), line);
        i += 1;
    }
    out
}

/// Skips a `'...'` char literal starting at the opening quote; returns
/// the index just past the closing quote.
fn skip_char_literal(chars: &[char], mut i: usize) -> usize {
    i += 1; // opening quote
    while i < chars.len() && chars[i] != '\'' {
        if chars[i] == '\\' {
            i += 1;
        }
        i += 1;
    }
    i + 1
}

/// Resolves the escapes that matter for name literals (`\"`, `\\`);
/// other escapes are kept verbatim — metric names and span names never
/// contain them.
fn cook(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses a `lint:allow(R1, R2) reason` waiver out of a line comment.
/// Doc comments (`///`, `//!`) never carry waivers: documentation that
/// *describes* the waiver syntax (this crate's own docs, for one) must
/// not create live — and, under the stale-waiver check, stale — waivers.
fn parse_waiver(comment: &str, line: u32, standalone: bool) -> Option<Waiver> {
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_ascii_uppercase())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    Some(Waiver {
        line,
        rules,
        standalone,
        reason: rest[close + 1..].trim().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn line_and_block_comments_are_stripped() {
        let src = "let a = 1; // unwrap() in a comment\nlet b /* panic! */ = 2;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "before /* outer /* inner unwrap() */ still comment */ after";
        assert_eq!(idents(src), vec!["before", "after"]);
    }

    #[test]
    fn block_comment_counts_lines() {
        let src = "/* line1\nline2\nline3 */ token";
        let lexed = lex(src);
        assert_eq!(lexed.tokens[0].text, "token");
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r#"contains "quotes" and // not a comment"#; done"####;
        let lexed = lex(src);
        let strs: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, r#"contains "quotes" and // not a comment"#);
        assert_eq!(*idents(src).last().expect("tokens"), "done");
    }

    #[test]
    fn raw_string_two_hashes_embedding_one_hash_terminator() {
        let src = r#####"r##"inner "# still inside"## after"#####;
        let lexed = lex(src);
        assert_eq!(lexed.tokens[0].kind, TokKind::Str);
        assert_eq!(lexed.tokens[0].text, r##"inner "# still inside"##);
        assert_eq!(lexed.tokens[1].text, "after");
    }

    #[test]
    fn string_escapes_do_not_end_the_literal() {
        let src = r#"let s = "a \" b \\"; next"#;
        let lexed = lex(src);
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("str");
        assert_eq!(s.text, "a \" b \\");
        assert_eq!(*idents(src).last().expect("tokens"), "next");
    }

    #[test]
    fn multiline_string_counts_lines() {
        let src = "let s = \"line1\nline2\";\nafter";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.text == "after")
            .expect("after");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "let c = 'x'; fn f<'a>(v: &'a str) { let q = '\\''; }";
        let lexed = lex(src);
        let chars: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .collect();
        let lifes: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Life)
            .collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(lifes.len(), 2);
        assert_eq!(lifes[0].text, "a");
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"bytes\"; let b2 = b'x'; let c = br#\"raw\"#;";
        let lexed = lex(src);
        let strs: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].text, "bytes");
        assert_eq!(strs[1].text, "raw");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Char)
                .count(),
            1
        );
    }

    #[test]
    fn waiver_parsing_same_line_and_standalone() {
        let src = "foo(); // lint:allow(R1) criterion measures host time\n\
                   // lint:allow(R2, r4) wrapped call below\n\
                   bar();";
        let lexed = lex(src);
        assert_eq!(lexed.waivers.len(), 2);
        let w0 = &lexed.waivers[0];
        assert_eq!(w0.line, 1);
        assert!(!w0.standalone);
        assert_eq!(w0.rules, vec!["R1"]);
        assert_eq!(w0.reason, "criterion measures host time");
        let w1 = &lexed.waivers[1];
        assert_eq!(w1.line, 2);
        assert!(w1.standalone);
        assert_eq!(w1.rules, vec!["R2", "R4"]);
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        assert!(lex("/// the `// lint:allow(R1, R2) reason` syntax")
            .waivers
            .is_empty());
        assert!(lex("//! and `// lint:allow(...)` comments")
            .waivers
            .is_empty());
        assert_eq!(lex("// lint:allow(R4) real waiver").waivers.len(), 1);
    }

    #[test]
    fn waiver_without_rules_is_ignored() {
        assert!(lex("// lint:allow() nothing").waivers.is_empty());
        assert!(lex("// lint:allow unclosed").waivers.is_empty());
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_method_calls() {
        let src = "for i in 0..10 { let x = 1.5; let y = 2.max(3); }";
        let nums: Vec<String> = lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5", "2", "3"]);
    }
}
