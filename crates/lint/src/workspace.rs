//! The one view every rule reads: each source file lexed once into a
//! [`SourceFile`] (tokens, waivers, test regions).

use crate::lexer::{self, TokKind, Token, Waiver};

/// True when `path` lives in a test tree (integration tests are test
/// code wholesale; every rule is a non-test rule).
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// One lexed file and the token-level queries rules are written in.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/` separators.
    pub path: String,
    /// Significant tokens in source order.
    pub toks: Vec<Token>,
    /// `// lint:allow(...)` comments in source order.
    pub waivers: Vec<Waiver>,
    /// Inclusive token spans of test code: items under a `cfg(test)` or
    /// `test` attribute, and `mod tests { ... }` bodies.
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `text` and marks its test regions.
    pub fn new(path: &str, text: &str) -> SourceFile {
        let lexed = lexer::lex(text);
        let mut file = SourceFile {
            path: path.to_string(),
            toks: lexed.tokens,
            waivers: lexed.waivers,
            test_regions: Vec::new(),
        };
        file.test_regions = file.find_test_regions();
        file
    }

    /// True when token `idx` is test code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// True when a written waiver for `rule` covers `line`.
    pub fn waived(&self, line: u32, rule: &str) -> bool {
        self.waivers
            .iter()
            .any(|w| w.covers(line) && w.rules.iter().any(|r| r == rule))
    }

    /// True when token `i` is the punctuation character `c`.
    pub fn punct(&self, i: usize, c: char) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text.starts_with(c))
    }

    /// True when token `i` is the identifier `s`.
    pub fn ident(&self, i: usize, s: &str) -> bool {
        self.any_ident(i) == Some(s)
    }

    /// The identifier at token `i`, if it is one.
    pub fn any_ident(&self, i: usize) -> Option<&str> {
        self.toks
            .get(i)
            .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    }

    /// 1-based line of token `i` (0 past the end).
    pub fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Index of the brace matching the `{` at `open`.
    pub fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.toks.len() {
            if self.punct(j, '{') {
                depth += 1;
            } else if self.punct(j, '}') {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// Index of the opener matching the closer at `close`, walking
    /// backwards.
    pub fn match_back(&self, close: usize, open_c: char, close_c: char) -> Option<usize> {
        let mut depth = 0usize;
        let mut j = close;
        loop {
            if self.punct(j, close_c) {
                depth += 1;
            } else if self.punct(j, open_c) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
    }

    /// Token span `[open, close]` of the body of the innermost `fn` whose
    /// body holds token `i`.
    pub fn fn_body(&self, i: usize) -> Option<(usize, usize)> {
        // Walking back, the first `fn` whose body holds `i` is innermost.
        let mut named_fns = (0..i)
            .rev()
            .filter(|&k| self.ident(k, "fn") && self.any_ident(k + 1).is_some());
        named_fns.find_map(|k| {
            // A signature holds no brace: the first `{` opens the body,
            // unless a `;` ends a body-less declaration first.
            let open = (k..i).find(|&j| self.punct(j, '{') || self.punct(j, ';'))?;
            let close = self.match_brace(open);
            (self.punct(open, '{') && close > i).then_some((open, close))
        })
    }

    /// Token ranges of the top-level arguments of the call whose `(`
    /// sits at `open`.
    pub fn split_args(&self, open: usize) -> Vec<(usize, usize)> {
        let mut args = Vec::new();
        let mut depth = 1usize;
        let mut start = open + 1;
        let mut j = open + 1;
        while j < self.toks.len() {
            if ['(', '[', '{'].iter().any(|&c| self.punct(j, c)) {
                depth += 1;
            } else if [')', ']', '}'].iter().any(|&c| self.punct(j, c)) {
                depth -= 1;
                if depth == 0 {
                    if j > start {
                        args.push((start, j));
                    }
                    break;
                }
            } else if depth == 1 && self.punct(j, ',') {
                args.push((start, j));
                start = j + 1;
            }
            j += 1;
        }
        args
    }

    /// Scans an attribute body starting just past `#[`; returns the index
    /// past the closing `]` and whether the attribute mentions `test`.
    fn scan_attr(&self, mut j: usize) -> (usize, bool) {
        let mut depth = 1usize;
        let mut has_test = false;
        while j < self.toks.len() && depth > 0 {
            if self.punct(j, '[') {
                depth += 1;
            } else if self.punct(j, ']') {
                depth -= 1;
            } else if self.ident(j, "test") {
                has_test = true;
            }
            j += 1;
        }
        (j, has_test)
    }

    fn find_test_regions(&self) -> Vec<(usize, usize)> {
        let n = self.toks.len();
        let mut regions = Vec::new();
        let mut i = 0usize;
        while i < n {
            if self.punct(i, '#') && self.punct(i + 1, '[') {
                let (mut j, mut has_test) = self.scan_attr(i + 2);
                // Fold in any directly following attributes.
                while self.punct(j, '#') && self.punct(j + 1, '[') {
                    let (next, t) = self.scan_attr(j + 2);
                    has_test = has_test || t;
                    j = next;
                }
                if !has_test {
                    i = j;
                    continue;
                }
                // The attributed item: everything up to its body's close
                // (or its `;` for a body-less item).
                let mut k = j;
                while k < n && !self.punct(k, '{') && !self.punct(k, ';') {
                    k += 1;
                }
                let close = if self.punct(k, '{') {
                    self.match_brace(k)
                } else {
                    k.min(n.saturating_sub(1))
                };
                regions.push((i, close));
                i = close + 1;
            } else if self.ident(i, "mod") && self.ident(i + 1, "tests") && self.punct(i + 2, '{') {
                let close = self.match_brace(i + 2);
                regions.push((i, close));
                i = close + 1;
            } else {
                i += 1;
            }
        }
        regions
    }
}

/// Everything the rules read, built once per analysis.
#[derive(Debug)]
pub struct Workspace {
    /// Every analyzed file, test trees included (their waivers are still
    /// subject to the stale-waiver check).
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Lexes `(relative path, source)` pairs.
    pub fn new(sources: &[(String, String)]) -> Workspace {
        let files = sources
            .iter()
            .map(|(path, text)| SourceFile::new(path, text))
            .collect();
        Workspace { files }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_test(file: &SourceFile, name: &str) -> bool {
        let idx = file
            .toks
            .iter()
            .position(|t| t.text == name)
            .expect("token present");
        file.in_test(idx)
    }

    #[test]
    fn cfg_test_region_covers_the_item_body() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn live2() {}";
        let file = SourceFile::new("a.rs", src);
        assert_eq!(file.test_regions.len(), 1);
        assert!(!in_test(&file, "live"));
        assert!(in_test(&file, "y"));
        assert!(!in_test(&file, "live2"));
    }

    #[test]
    fn test_attr_on_fn_and_mod_tests_without_cfg() {
        let src = "#[test]\nfn check() { a.unwrap(); }\n\
                   mod tests { fn u() { b.unwrap(); } }\n\
                   fn live() {}";
        let file = SourceFile::new("a.rs", src);
        assert_eq!(file.test_regions.len(), 2);
        assert!(in_test(&file, "a"));
        assert!(in_test(&file, "b"));
        assert!(!in_test(&file, "live"));
    }

    #[test]
    fn cfg_test_with_nested_brackets_and_stacked_attrs() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\n\
                   fn helper() { c.unwrap(); }\nfn live() {}";
        let file = SourceFile::new("a.rs", src);
        assert_eq!(file.test_regions.len(), 1);
        assert!(in_test(&file, "c"));
        assert!(!in_test(&file, "live"));
    }

    #[test]
    fn fn_body_is_the_innermost_enclosing_body() {
        let src = "trait T { fn decl(&self); }\n\
                   fn outer(f: fn(u8) -> u8) { a(); fn inner() { b(); } c(); }";
        let file = SourceFile::new("a.rs", src);
        let at = |name: &str| {
            let at = file.toks.iter().position(|t| t.text == name);
            at.expect("token present")
        };
        let outer = file.fn_body(at("a")).expect("a() is in outer");
        assert_eq!(
            outer.0,
            at("a") - 1,
            "neither `decl;` nor `fn(u8)` opens a body"
        );
        assert_eq!(file.fn_body(at("b")).map(|b| b.0), Some(at("b") - 1));
        assert_eq!(
            file.fn_body(at("c")),
            Some(outer),
            "inner's body ends before c()"
        );
    }

    #[test]
    fn waivers_cover_their_line_and_the_next_when_standalone() {
        let src = "foo(); // lint:allow(R1) same line\n\
                   // lint:allow(R2, r4) wrapped call below\n\
                   bar();\n\
                   baz();";
        let file = SourceFile::new("a.rs", src);
        assert!(file.waived(1, "R1"));
        assert!(!file.waived(2, "R1"), "an inline waiver stops at its line");
        assert!(file.waived(2, "R4") && file.waived(3, "R4") && file.waived(3, "R2"));
        assert!(!file.waived(4, "R4"));
        assert!(!file.waived(3, "R1"));
    }
}
