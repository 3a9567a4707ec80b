//! A symbol table and a conservative name-resolution call graph over the
//! lexed sources.
//!
//! Built on the hand-rolled token stream (no external dependencies, no
//! rustc): pass A recognizes items — `fn`
//! definitions with their impl/trait owner and body extent, `struct`
//! fields with their type text — pass B collects `let` type annotations
//! and `for` bindings, and pass C walks every non-test function body
//! extracting call sites.
//!
//! **Resolution is conservative by construction.** A call edge is added
//! only when the callee is unambiguous:
//!
//! * method calls resolve through a receiver-type hint when one is
//!   cheaply available (`self.…` → the enclosing impl, `self.field.…` →
//!   the field's declared type, `x.…` → `x`'s `let` annotation, a call
//!   result → the callee's written return type), otherwise by name when
//!   exactly one non-test method in the workspace bears the name;
//! * free and path calls prefer same-file candidates, then module-
//!   qualified matches;
//! * anything still ambiguous (or external: `std`, shims) is recorded in
//!   [`CallGraph::unresolved`] **rather than guessed** — downstream
//!   analyses treat an unresolved edge as "no information", which for
//!   taint-style rules means a possible false negative, never a false
//!   positive.
//!
//! The soundness caveats of lexical name resolution are documented in
//! DESIGN.md §10; every rule that walks the graph (R1/R3/R6/R7) states
//! which direction it errs in.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::workspace::{is_test_path, SourceFile};

/// One function (or method) definition.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Index of the defining file in the analyzed file list.
    pub file_idx: usize,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Module path derived from the file layout (`core::server`).
    pub module: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[open_brace, close_brace]` of the body, if present
    /// (trait method declarations have none).
    pub body: Option<(usize, usize)>,
    /// Written return type, token texts concatenated (`""` when none).
    pub ret: String,
    /// True for functions inside `#[cfg(test)]`/`mod tests` regions.
    pub is_test: bool,
}

impl FnInfo {
    /// `module::Type::name` (or `module::name`) — the display identity.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.module, t, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// How a call site was written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(…)`; the hint is the receiver type when derivable.
    Method { recv_hint: Option<String> },
    /// `Qual::name(…)`; the qualifier is the segment before the name.
    Path { qualifier: String },
    /// `name(…)`.
    Free,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Calling function (index into [`CallGraph::fns`]).
    pub caller: usize,
    /// Callee name (last path segment).
    pub name: String,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
    /// Resolved callee fn ids — empty when unresolved.
    pub resolved: Vec<usize>,
    /// Spelling of the call.
    pub kind: CallKind,
}

/// A `for <var> in <iter> {` binding inside a function body, kept for
/// the R6 ascending-order analysis.
#[derive(Clone, Debug)]
pub struct ForBinding {
    /// Loop variable name.
    pub var: String,
    /// Iterated expression, token texts concatenated.
    pub iter: String,
    /// Token index of the `for` keyword.
    pub tok: usize,
    /// Token index of the loop body's `{`.
    pub body_open: usize,
    /// Token index of the loop body's `}`.
    pub body_close: usize,
}

/// The workspace call graph plus the symbol tables phase 2 reads.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function found in non-test files (test-region fns flagged).
    pub fns: Vec<FnInfo>,
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
    /// Per-fn indices into [`Self::calls`].
    pub calls_by_fn: Vec<Vec<usize>>,
    /// Struct field types: `(type name, field name)` → type text.
    pub fields: BTreeMap<(String, String), String>,
    /// Per-fn `let`-annotated local types: name → type text.
    pub locals: Vec<BTreeMap<String, String>>,
    /// Per-fn `for` bindings in source order.
    pub fors: Vec<Vec<ForBinding>>,
    /// Callee names that could not be resolved (external or ambiguous)
    /// → occurrence count. Recorded, never guessed at.
    pub unresolved: BTreeMap<String, u32>,
    /// Count of call sites with ≥ 2 in-workspace candidates (a subset
    /// of the unresolved total).
    pub ambiguous: usize,
    /// Per file, per token: the innermost fn whose body covers it.
    owners: Vec<Vec<Option<usize>>>,
}

impl CallGraph {
    /// The innermost fn whose body covers token `tok` of file
    /// `file_idx`, if any.
    pub fn fn_at(&self, file_idx: usize, tok: usize) -> Option<usize> {
        *self.owners.get(file_idx)?.get(tok)?
    }
}

/// Derives a module path from a workspace-relative file path:
/// `crates/core/src/server.rs` → `core::server`, `src/lib.rs` → `rmc`.
pub fn module_path(rel: &str) -> String {
    let stripped = rel.strip_suffix(".rs").unwrap_or(rel);
    let mut parts: Vec<&str> = stripped.split('/').collect();
    if parts.first() == Some(&"crates") {
        parts.remove(0);
    } else {
        parts.insert(0, "rmc");
    }
    parts.retain(|p| *p != "src");
    while matches!(parts.last(), Some(&"lib") | Some(&"main")) {
        parts.pop();
    }
    parts.join("::").replace('-', "_")
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 24] = [
    "if", "while", "for", "match", "loop", "return", "fn", "in", "as", "impl", "use", "mod", "let",
    "else", "move", "ref", "mut", "pub", "unsafe", "where", "async", "await", "break", "continue",
];

/// Methods that forward to their receiver for typing purposes: the
/// receiver hint looks *through* them (`self.cache.borrow_mut().insert`
/// is an operation on `cache`).
pub const TRANSPARENT_METHODS: [&str; 10] = [
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "get_mut",
    "clone",
    "unwrap",
];

/// Last path-segment identifier of a type expression starting at `a`
/// (bounded by `b`): skips `&`/`dyn`/`mut`/lifetimes, follows `::`
/// segments, stops at `<`.
fn leading_type_name(v: &SourceFile, mut a: usize, b: usize) -> Option<String> {
    let mut last: Option<String> = None;
    while a < b {
        if v.punct(a, '&') {
            a += 1;
            continue;
        }
        if let Some(t) = v.toks.get(a) {
            if t.kind == TokKind::Life {
                a += 1;
                continue;
            }
        }
        if v.ident(a, "dyn") || v.ident(a, "mut") || v.ident(a, "impl") {
            a += 1;
            continue;
        }
        match v.any_ident(a) {
            Some(id) => {
                last = Some(id.to_string());
                a += 1;
                if v.punct(a, ':') && v.punct(a + 1, ':') {
                    a += 2;
                    continue;
                }
                break;
            }
            None => break,
        }
    }
    last
}

/// Skips a balanced `<…>` generic group whose `<` sits at `i`; returns
/// the index just past the matching `>`. `->` arrows never unbalance
/// (the lexer splits them into `-` `>`).
fn skip_angles(v: &SourceFile, mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < v.toks.len() {
        if v.punct(i, '<') {
            depth += 1;
        } else if v.punct(i, '>') && !(i > 0 && v.punct(i - 1, '-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Builds the call graph over the lexed files. Files whose path is a
/// test path are skipped entirely; `#[cfg(test)]` regions inside
/// source files yield fns flagged `is_test` that neither call out nor
/// serve as resolution candidates.
pub fn build(files: &[SourceFile]) -> CallGraph {
    let mut g = CallGraph::default();

    // ---- pass A: items ------------------------------------------------
    for (file_idx, v) in files.iter().enumerate() {
        if is_test_path(&v.path) {
            continue;
        }
        let module = module_path(&v.path);

        // Scope stack of (close_brace_idx, impl/trait type entered).
        let mut scopes: Vec<(usize, Option<String>)> = Vec::new();
        let mut i = 0usize;
        while i < v.toks.len() {
            while let Some(&(close, _)) = scopes.last() {
                if i > close {
                    scopes.pop();
                } else {
                    break;
                }
            }
            // impl / trait blocks establish a type context.
            if v.ident(i, "impl") || v.ident(i, "trait") {
                let is_trait = v.ident(i, "trait");
                let mut j = i + 1;
                if v.punct(j, '<') {
                    j = skip_angles(v, j);
                }
                // Header tokens up to the body `{` (or `;`).
                let mut hdr_end = j;
                let mut angle = 0i32;
                while hdr_end < v.toks.len() {
                    if v.punct(hdr_end, '<') {
                        angle += 1;
                    } else if v.punct(hdr_end, '>') && !v.punct(hdr_end.wrapping_sub(1), '-') {
                        angle -= 1;
                    } else if angle <= 0 && (v.punct(hdr_end, '{') || v.punct(hdr_end, ';')) {
                        break;
                    }
                    hdr_end += 1;
                }
                let ty = if is_trait {
                    v.any_ident(j).map(str::to_string)
                } else {
                    // `impl Trait for Type` → Type; `impl Type` → Type.
                    // (`for<'a>` higher-ranked bounds are not that `for`.)
                    let mut for_at = None;
                    let mut angle2 = 0i32;
                    for k in j..hdr_end {
                        if v.punct(k, '<') {
                            angle2 += 1;
                        } else if v.punct(k, '>') && !v.punct(k.wrapping_sub(1), '-') {
                            angle2 -= 1;
                        } else if angle2 <= 0 && v.ident(k, "for") && !v.punct(k + 1, '<') {
                            for_at = Some(k);
                        }
                    }
                    let ty_start = for_at.map(|k| k + 1).unwrap_or(j);
                    leading_type_name(v, ty_start, hdr_end)
                };
                if v.punct(hdr_end, '{') {
                    scopes.push((v.match_brace(hdr_end), ty));
                }
                i = hdr_end + 1;
                continue;
            }
            // struct fields → the field-type table.
            if v.ident(i, "struct") {
                if let Some(name) = v.any_ident(i + 1) {
                    let mut j = i + 2;
                    if v.punct(j, '<') {
                        j = skip_angles(v, j);
                    }
                    while j < v.toks.len()
                        && !v.punct(j, '{')
                        && !v.punct(j, ';')
                        && !v.punct(j, '(')
                    {
                        j += 1;
                    }
                    if v.punct(j, '{') {
                        let close = v.match_brace(j);
                        scan_struct_fields(v, name, j + 1, close, &mut g.fields);
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            // fn definitions.
            if v.ident(i, "fn") {
                if let Some(name) = v.any_ident(i + 1) {
                    let (sig_end, ret) = scan_fn_signature(v, i + 2);
                    let body = v
                        .punct(sig_end, '{')
                        .then(|| (sig_end, v.match_brace(sig_end)));
                    g.fns.push(FnInfo {
                        file_idx,
                        file: v.path.clone(),
                        module: module.clone(),
                        impl_type: scopes.last().and_then(|(_, t)| t.clone()),
                        name: name.to_string(),
                        line: v.line(i),
                        body,
                        ret,
                        is_test: v.in_test(i),
                    });
                    // Continue *inside* the body so nested fns are found.
                    i = sig_end + 1;
                    continue;
                }
            }
            i += 1;
        }
    }

    g.locals = vec![BTreeMap::new(); g.fns.len()];
    g.fors = vec![Vec::new(); g.fns.len()];
    g.calls_by_fn = vec![Vec::new(); g.fns.len()];

    // Per-file token → innermost-owning-fn table (outer fns filled
    // first, nested fns overwrite): O(1) ownership lookups in the body
    // passes instead of an O(fns) scan per token.
    let mut owners: Vec<Vec<Option<usize>>> =
        files.iter().map(|f| vec![None; f.toks.len()]).collect();
    let mut by_span: Vec<usize> = (0..g.fns.len()).collect();
    by_span.sort_by_key(|&id| std::cmp::Reverse(g.fns[id].body.map(|(a, b)| b - a).unwrap_or(0)));
    for id in by_span {
        if let Some((a, b)) = g.fns[id].body {
            let slots = &mut owners[g.fns[id].file_idx];
            let hi = b.min(slots.len().saturating_sub(1)) + 1;
            for s in slots.iter_mut().take(hi).skip(a) {
                *s = Some(id);
            }
        }
    }

    // ---- pass B: locals and for-bindings ------------------------------
    for (file_idx, v) in files.iter().enumerate() {
        if is_test_path(&v.path) {
            continue;
        }
        let n = v.toks.len();
        for (i, slot) in owners[file_idx].iter().enumerate() {
            let Some(owner) = *slot else {
                continue;
            };
            if g.fns[owner].is_test {
                continue;
            }
            if v.ident(i, "let") {
                let mut j = i + 1;
                if v.ident(j, "mut") {
                    j += 1;
                }
                if let Some(name) = v.any_ident(j) {
                    if v.punct(j + 1, ':') && !v.punct(j + 2, ':') {
                        let end = scan_type_until(v, j + 2, &['=', ';']);
                        g.locals[owner].insert(name.to_string(), v.text(j + 2, end));
                    }
                }
            }
            if v.ident(i, "for") && !v.punct(i + 1, '<') {
                let mut j = i + 1;
                while j < n && !v.punct(j, '{') && !v.ident(j, "in") {
                    j += 1;
                }
                if v.ident(j, "in") {
                    let var = (i + 1..j)
                        .filter_map(|k| v.any_ident(k))
                        .find(|s| *s != "mut")
                        .unwrap_or("")
                        .to_string();
                    let mut t = j + 1;
                    let mut depth = 0i32;
                    while t < n {
                        if v.punct(t, '(') || v.punct(t, '[') {
                            depth += 1;
                        } else if v.punct(t, ')') || v.punct(t, ']') {
                            depth -= 1;
                        } else if depth == 0 && v.punct(t, '{') {
                            break;
                        }
                        t += 1;
                    }
                    if !var.is_empty() && v.punct(t, '{') {
                        g.fors[owner].push(ForBinding {
                            var,
                            iter: v.text(j + 1, t),
                            tok: i,
                            body_open: t,
                            body_close: v.match_brace(t),
                        });
                    }
                }
            }
        }
    }

    // ---- resolution indexes -------------------------------------------
    let mut method_index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut typed_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut free_index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (id, f) in g.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        match &f.impl_type {
            Some(t) => {
                method_index.entry(f.name.clone()).or_default().push(id);
                typed_method
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
            None => free_index.entry(f.name.clone()).or_default().push(id),
        }
    }
    let impl_types: BTreeSet<String> = g.fns.iter().filter_map(|f| f.impl_type.clone()).collect();

    // ---- pass C: call sites -------------------------------------------
    struct PendingCall {
        caller: usize,
        name: String,
        line: u32,
        tok: usize,
        kind: CallKind,
    }
    let mut pending: Vec<PendingCall> = Vec::new();

    for (file_idx, v) in files.iter().enumerate() {
        if is_test_path(&v.path) {
            continue;
        }
        for (i, slot) in owners[file_idx].iter().enumerate() {
            let Some(name) = v.any_ident(i) else { continue };
            let Some(caller) = *slot else {
                continue;
            };
            if g.fns[caller].is_test {
                continue;
            }
            // `name(` or `name::<…>(` — not a macro, not a definition.
            let callish = if v.punct(i + 1, '(') {
                true
            } else if v.punct(i + 1, ':') && v.punct(i + 2, ':') && v.punct(i + 3, '<') {
                v.punct(skip_angles(v, i + 3), '(')
            } else {
                false
            };
            if !callish
                || (i > 0 && v.ident(i - 1, "fn"))
                || v.punct(i + 1, '!')
                || NON_CALL_KEYWORDS.contains(&name)
            {
                continue;
            }
            let kind = if i > 0 && v.punct(i - 1, '.') {
                let hint = i
                    .checked_sub(2)
                    .and_then(|r| receiver_type_text(v, r, &g, caller, &method_index, &free_index))
                    .and_then(|text| single_impl_type_in(&text, &impl_types));
                Some(CallKind::Method { recv_hint: hint })
            } else if i >= 2 && v.punct(i - 1, ':') && v.punct(i - 2, ':') {
                v.any_ident(i - 3).map(|q| CallKind::Path {
                    qualifier: q.to_string(),
                })
            } else {
                Some(CallKind::Free)
            };
            if let Some(kind) = kind {
                pending.push(PendingCall {
                    caller,
                    name: name.to_string(),
                    line: v.line(i),
                    tok: i,
                    kind,
                });
            }
        }
    }

    // ---- resolution ----------------------------------------------------
    for pc in pending {
        let mut resolved: Vec<usize> = Vec::new();
        let mut ambiguous = false;
        match &pc.kind {
            CallKind::Method { recv_hint } => {
                if let Some(t) = recv_hint {
                    if let Some(c) = typed_method.get(&(t.clone(), pc.name.clone())) {
                        resolved = c.clone();
                    }
                }
                if resolved.is_empty() {
                    match method_index.get(&pc.name) {
                        Some(c) if c.len() == 1 => resolved = c.clone(),
                        Some(c) if c.len() > 1 => ambiguous = true,
                        _ => {}
                    }
                }
            }
            CallKind::Path { qualifier } => {
                let q: String = if qualifier == "Self" {
                    g.fns[pc.caller]
                        .impl_type
                        .clone()
                        .unwrap_or_else(|| "Self".to_string())
                } else {
                    qualifier.clone()
                };
                if let Some(c) = typed_method.get(&(q.clone(), pc.name.clone())) {
                    resolved = c.clone();
                } else if let Some(c) = free_index.get(&pc.name) {
                    let by_mod: Vec<usize> = c
                        .iter()
                        .copied()
                        .filter(|&id| g.fns[id].module.rsplit("::").next() == Some(q.as_str()))
                        .collect();
                    match by_mod.len() {
                        1 => resolved = by_mod,
                        0 => {}
                        _ => ambiguous = true,
                    }
                }
            }
            CallKind::Free => {
                if let Some(c) = free_index.get(&pc.name) {
                    let same_file: Vec<usize> = c
                        .iter()
                        .copied()
                        .filter(|&id| g.fns[id].file_idx == g.fns[pc.caller].file_idx)
                        .collect();
                    if same_file.len() == 1 {
                        resolved = same_file;
                    } else if same_file.len() > 1 || c.len() > 1 {
                        ambiguous = true;
                    } else {
                        resolved = c.clone();
                    }
                }
            }
        }
        if resolved.is_empty() {
            *g.unresolved.entry(pc.name.clone()).or_insert(0) += 1;
            if ambiguous {
                g.ambiguous += 1;
            }
        }
        let caller = pc.caller;
        g.calls.push(CallSite {
            caller,
            name: pc.name,
            line: pc.line,
            tok: pc.tok,
            resolved,
            kind: pc.kind,
        });
        g.calls_by_fn[caller].push(g.calls.len() - 1);
    }

    g.owners = owners;
    g
}

/// Scans struct fields in `[from, close)`: `name: Type,` rows, with
/// attributes and visibility skipped.
fn scan_struct_fields(
    v: &SourceFile,
    struct_name: &str,
    from: usize,
    close: usize,
    fields: &mut BTreeMap<(String, String), String>,
) {
    let mut k = from;
    while k < close {
        if v.punct(k, '#') && v.punct(k + 1, '[') {
            let mut depth = 0usize;
            k += 1;
            while k < close {
                if v.punct(k, '[') {
                    depth += 1;
                } else if v.punct(k, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
            continue;
        }
        if v.ident(k, "pub") {
            k += 1;
            if v.punct(k, '(') {
                while k < close && !v.punct(k, ')') {
                    k += 1;
                }
                k += 1;
            }
            continue;
        }
        let (Some(field), true) = (v.any_ident(k), v.punct(k + 1, ':')) else {
            k += 1;
            continue;
        };
        let t = scan_type_until(v, k + 2, &[',']).min(close);
        fields.insert(
            (struct_name.to_string(), field.to_string()),
            v.text(k + 2, t),
        );
        k = t + 1;
    }
}

/// Scans a type expression starting at `from`; returns the index of the
/// first stop character at nesting depth 0.
fn scan_type_until(v: &SourceFile, from: usize, stops: &[char]) -> usize {
    let mut t = from;
    let mut depth = 0i32;
    while t < v.toks.len() {
        if v.punct(t, '<') || v.punct(t, '(') || v.punct(t, '[') {
            depth += 1;
        } else if v.punct(t, ')')
            || v.punct(t, ']')
            || (v.punct(t, '>') && !v.punct(t.wrapping_sub(1), '-'))
        {
            depth -= 1;
        } else if depth <= 0
            && (stops.iter().any(|&c| v.punct(t, c)) || v.punct(t, '{') || v.punct(t, '}'))
        {
            break;
        }
        t += 1;
    }
    t
}

/// Scans an fn signature starting just past the name; returns the index
/// of the body `{` (or terminating `;`) and the written return type.
fn scan_fn_signature(v: &SourceFile, from: usize) -> (usize, String) {
    let mut j = from;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut ret_start = None;
    while j < v.toks.len() {
        if v.punct(j, '(') {
            paren += 1;
        } else if v.punct(j, ')') {
            paren -= 1;
        } else if v.punct(j, '<') {
            angle += 1;
        } else if v.punct(j, '>') && v.punct(j.wrapping_sub(1), '-') {
            if paren == 0 && angle <= 0 && ret_start.is_none() {
                ret_start = Some(j + 1);
            }
        } else if v.punct(j, '>') {
            angle -= 1;
        } else if paren == 0 && angle <= 0 && (v.punct(j, '{') || v.punct(j, ';')) {
            break;
        }
        j += 1;
    }
    let ret = match ret_start {
        Some(r) => {
            let mut end = j;
            for k in r..j {
                if v.ident(k, "where") {
                    end = k;
                    break;
                }
            }
            v.text(r, end)
        }
        None => String::new(),
    };
    (j, ret)
}

/// Type text of the receiver expression ending at token `end`
/// (inclusive), for method-call hints: handles `self`, `self.field`,
/// annotated locals, indexed containers (`x[i]` → `x`'s type text), and
/// call results through one level of return-type lookup (with
/// [`TRANSPARENT_METHODS`] looked through).
fn receiver_type_text(
    v: &SourceFile,
    end: usize,
    g: &CallGraph,
    caller: usize,
    method_index: &BTreeMap<String, Vec<usize>>,
    free_index: &BTreeMap<String, Vec<usize>>,
) -> Option<String> {
    let mut j = end;
    if v.punct(j, ']') {
        j = v.match_back(j, '[', ']')?.checked_sub(1)?;
    }
    if v.punct(j, ')') {
        let open = v.match_back(j, '(', ')')?;
        let m_at = open.checked_sub(1)?;
        let m = v.any_ident(m_at)?;
        if TRANSPARENT_METHODS.contains(&m) {
            let dot = m_at.checked_sub(1)?;
            if v.punct(dot, '.') {
                return receiver_type_text(v, dot - 1, g, caller, method_index, free_index);
            }
            return None;
        }
        let mut cands: Vec<usize> = Vec::new();
        if let Some(c) = method_index.get(m) {
            cands.extend(c);
        }
        if let Some(c) = free_index.get(m) {
            cands.extend(c);
        }
        if cands.len() == 1 {
            return Some(g.fns[cands[0]].ret.clone());
        }
        return None;
    }
    type_of_simple(v, j, g, caller)
}

/// Types a *simple* expression ending at token `end` (inclusive):
/// `self` → the impl type, `self.field`/`recv.field` → the field's
/// declared type, a bare ident → its `let` annotation.
fn type_of_simple(v: &SourceFile, end: usize, g: &CallGraph, caller: usize) -> Option<String> {
    let f = &g.fns[caller];
    let id = v.any_ident(end)?;
    if id == "self" {
        return f.impl_type.clone();
    }
    if end >= 2 && v.punct(end - 1, '.') && v.ident(end - 2, "self") {
        if let Some(t) = f.impl_type.as_ref() {
            return g.fields.get(&(t.clone(), id.to_string())).cloned();
        }
        return None;
    }
    if end == 0 || !v.punct(end - 1, '.') {
        return g.locals[caller].get(id).cloned();
    }
    None
}

/// The single impl-type name appearing in a type text, if exactly one
/// does (word-bounded match).
fn single_impl_type_in(text: &str, impl_types: &BTreeSet<String>) -> Option<String> {
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut found: Option<&str> = None;
    for t in impl_types {
        let mut start = 0usize;
        while let Some(at) = text[start..].find(t.as_str()) {
            let a = start + at;
            let b = a + t.len();
            let pre_ok = a == 0 || !word(text.as_bytes()[a - 1]);
            let post_ok = b == text.len() || !word(text.as_bytes()[b]);
            if pre_ok && post_ok {
                if found.is_some() && found != Some(t.as_str()) {
                    return None; // two distinct impl types named: ambiguous
                }
                found = Some(t.as_str());
                break;
            }
            start = b;
        }
    }
    found.map(str::to_string)
}

/// Undirected connected components over resolved call edges: returns a
/// representative id per fn (two fns share a component iff a chain of
/// caller/callee relationships connects them, in either direction).
pub fn components(g: &CallGraph) -> Vec<usize> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..g.fns.len()).collect();
    for c in &g.calls {
        for &callee in &c.resolved {
            let a = find(&mut parent, c.caller);
            let b = find(&mut parent, callee);
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    (0..g.fns.len()).map(|i| find(&mut parent, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::new(p, t)).collect();
        build(&files)
    }

    #[test]
    fn module_paths_from_layout() {
        assert_eq!(module_path("crates/core/src/server.rs"), "core::server");
        assert_eq!(module_path("crates/simnet/src/lib.rs"), "simnet");
        assert_eq!(
            module_path("crates/bench/src/bin/ext_roce.rs"),
            "bench::bin::ext_roce"
        );
        assert_eq!(module_path("src/lib.rs"), "rmc");
    }

    #[test]
    fn fns_impls_and_fields_are_indexed() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            r#"
struct S { locks: Vec<Rc<VLock>>, n: usize }
impl S {
    fn a(&self) -> usize { self.b() }
    fn b(&self) -> usize { 1 }
}
impl Display for S {
    fn fmt(&self) {}
}
fn free() {}
"#,
        )]);
        let names: Vec<String> = g.fns.iter().map(|f| f.qualified()).collect();
        assert!(names.contains(&"core::x::S::a".to_string()));
        assert!(names.contains(&"core::x::S::fmt".to_string()));
        assert!(names.contains(&"core::x::free".to_string()));
        assert_eq!(
            g.fields
                .get(&("S".to_string(), "locks".to_string()))
                .unwrap(),
            "Vec<Rc<VLock>>"
        );
        // a → b resolves through the self receiver hint.
        let a = g.fns.iter().position(|f| f.name == "a").unwrap();
        let call = g.calls_by_fn[a]
            .iter()
            .map(|&c| &g.calls[c])
            .find(|c| c.name == "b")
            .unwrap();
        assert_eq!(call.resolved.len(), 1);
        assert_eq!(g.fns[call.resolved[0]].name, "b");
    }

    #[test]
    fn ambiguous_methods_are_recorded_not_guessed() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            r#"
struct A; struct B;
impl A { fn go(&self) {} }
impl B { fn go(&self) {} }
fn driver(x: &Unknown) { x.go(); }
"#,
        )]);
        let driver = g.fns.iter().position(|f| f.name == "driver").unwrap();
        let call = g.calls_by_fn[driver]
            .iter()
            .map(|&c| &g.calls[c])
            .find(|c| c.name == "go")
            .unwrap();
        assert!(call.resolved.is_empty(), "two candidates must not resolve");
        assert_eq!(g.ambiguous, 1);
        assert_eq!(g.unresolved.get("go"), Some(&1));
    }

    #[test]
    fn hinted_receiver_disambiguates() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            r#"
struct A; struct B;
struct Holder { a: Rc<A> }
impl A { fn go(&self) {} }
impl B { fn go(&self) {} }
impl Holder { fn driver(&self) { self.a.go(); } }
"#,
        )]);
        let driver = g.fns.iter().position(|f| f.name == "driver").unwrap();
        let call = g.calls_by_fn[driver]
            .iter()
            .map(|&c| &g.calls[c])
            .find(|c| c.name == "go")
            .unwrap();
        assert_eq!(call.resolved.len(), 1);
        assert_eq!(g.fns[call.resolved[0]].impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn cross_file_free_calls_resolve_when_unique() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "fn helper() {}"),
            ("crates/b/src/lib.rs", "fn user() { helper(); }"),
        ]);
        let user = g.fns.iter().position(|f| f.name == "user").unwrap();
        let call = &g.calls[g.calls_by_fn[user][0]];
        assert_eq!(call.resolved.len(), 1);
        assert_eq!(g.fns[call.resolved[0]].module, "a");
    }

    #[test]
    fn same_file_free_candidates_win() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "fn run() {}"),
            ("crates/b/src/lib.rs", "fn run() {}\nfn main2() { run(); }"),
        ]);
        let m = g.fns.iter().position(|f| f.name == "main2").unwrap();
        let call = &g.calls[g.calls_by_fn[m][0]];
        assert_eq!(call.resolved.len(), 1);
        assert_eq!(g.fns[call.resolved[0]].file, "crates/b/src/lib.rs");
    }

    #[test]
    fn test_regions_do_not_pollute_resolution() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
fn live() { target(); }
fn target() {}
#[cfg(test)]
mod tests {
    fn target() {}
}
"#,
        )]);
        let live = g.fns.iter().position(|f| f.name == "live").unwrap();
        let call = &g.calls[g.calls_by_fn[live][0]];
        assert_eq!(call.resolved.len(), 1);
        assert!(!g.fns[call.resolved[0]].is_test);
    }

    #[test]
    fn for_bindings_and_locals_are_captured() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            r#"
fn f(shards: &[u32]) {
    let set: std::collections::BTreeSet<usize> = make();
    for s in set { use_it(s); }
}
fn make() -> std::collections::BTreeSet<usize> { loop {} }
fn use_it(_: usize) {}
"#,
        )]);
        let f = g.fns.iter().position(|x| x.name == "f").unwrap();
        assert!(g.locals[f].get("set").unwrap().contains("BTreeSet"));
        assert_eq!(g.fors[f].len(), 1);
        assert_eq!(g.fors[f][0].var, "s");
        assert_eq!(g.fors[f][0].iter, "set");
    }

    #[test]
    fn components_connect_through_common_callees() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn x() { shared(); }\nfn shared() {}",
            ),
            (
                "crates/b/src/lib.rs",
                "fn y() { shared(); }\nfn isolated() {}",
            ),
        ]);
        let comp = components(&g);
        let id = |n: &str| g.fns.iter().position(|f| f.name == n).unwrap();
        assert_eq!(comp[id("x")], comp[id("y")]);
        assert_ne!(comp[id("x")], comp[id("isolated")]);
    }

    #[test]
    fn return_type_text_is_recorded() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S { fn shard(&self) -> &Mutex<Store> { loop {} } }",
        )]);
        let f = g.fns.iter().position(|x| x.name == "shard").unwrap();
        assert_eq!(g.fns[f].ret, "&Mutex<Store>");
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn outer() { fn inner() { leaf(); } inner(); }\nfn leaf() {}",
        )]);
        let inner = g.fns.iter().position(|f| f.name == "inner").unwrap();
        let outer = g.fns.iter().position(|f| f.name == "outer").unwrap();
        let calls_of = |id: usize| -> Vec<&str> {
            g.calls_by_fn[id]
                .iter()
                .map(|&c| g.calls[c].name.as_str())
                .collect()
        };
        assert_eq!(calls_of(inner), vec!["leaf"]);
        assert_eq!(calls_of(outer), vec!["inner"]);
    }
}
