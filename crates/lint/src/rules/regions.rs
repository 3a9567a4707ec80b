//! R7 — MR retention lifecycle.
//!
//! The static half of the PR 6 pin-down fix: a `register` /
//! `register_with` / `register_memory` result that is *retained*
//! (stored into a container) must have a release — a
//! `remove`/`retain`/`clear`/… on the same container — in the same file.
//! Registrations that stay local (struct fields, scratch buffers, RAII
//! wrappers) carry no obligation: their MR drops with the owner. That is
//! a deliberate false-negative direction; the rule exists to catch
//! *unbounded growth* of MR tables.

use super::Findings;
use crate::workspace::{SourceFile, Workspace};

const RETAIN_METHODS: [&str; 5] = ["insert", "entry", "or_insert_with", "or_insert", "push"];
const RELEASE_METHODS: [&str; 7] = [
    "remove", "retain", "clear", "pop", "drain", "take", "truncate",
];
const REGISTER_PRIMS: [&str; 3] = ["register", "register_with", "register_memory"];

/// Base container identifier of a method chain: for
/// `self.recv_bufs.borrow_mut().insert(...)` with `name_tok` at
/// `insert`, returns `recv_bufs` (the leftmost non-`self` identifier).
fn chain_base(v: &SourceFile, name_tok: usize) -> Option<String> {
    if name_tok == 0 || !v.punct(name_tok - 1, '.') {
        return None;
    }
    let mut base: Option<String> = None;
    let mut j = name_tok as isize - 2;
    while j >= 0 {
        let ju = j as usize;
        if v.punct(ju, ')') {
            j = v.match_back(ju, '(', ')')? as isize - 1;
            continue;
        }
        if v.punct(ju, ']') {
            j = v.match_back(ju, '[', ']')? as isize - 1;
            continue;
        }
        if let Some(id) = v.any_ident(ju) {
            if id != "self" && id != "await" {
                base = Some(id.to_string());
            }
            if ju >= 1 && v.punct(ju - 1, '.') {
                j = ju as isize - 2;
                continue;
            }
        }
        break;
    }
    base
}

/// Walks outward from `tok` through enclosing unbalanced delimiters
/// (bounded by the fn body) looking for a retention-method call whose
/// argument list contains `tok`; returns the method-name token.
fn enclosing_retention(v: &SourceFile, body_open: usize, tok: usize) -> Option<usize> {
    let mut j = tok as isize - 1;
    let lo = body_open as isize;
    while j > lo {
        let ju = j as usize;
        if v.punct(ju, ')') {
            j = v.match_back(ju, '(', ')')? as isize - 1;
            continue;
        }
        if v.punct(ju, ']') {
            j = v.match_back(ju, '[', ']')? as isize - 1;
            continue;
        }
        if v.punct(ju, '}') {
            j = v.match_back(ju, '{', '}')? as isize - 1;
            continue;
        }
        if v.punct(ju, '(') && ju >= 1 {
            if let Some(name) = v.any_ident(ju - 1) {
                if RETAIN_METHODS.contains(&name) {
                    return Some(ju - 1);
                }
            }
        }
        j -= 1;
    }
    None
}

/// If the expression containing `tok` is the initializer of a
/// `let <name> = …` binding (statement-local, balanced-delimiter
/// aware), returns the bound name.
fn let_bound_name(v: &SourceFile, body_open: usize, tok: usize) -> Option<String> {
    let opchars = ['=', '<', '>', '+', '-', '*', '/', '%', '^', '&', '|', '!'];
    let mut j = tok as isize - 1;
    let lo = body_open as isize;
    while j > lo {
        let ju = j as usize;
        if v.punct(ju, ')') {
            j = v.match_back(ju, '(', ')')? as isize - 1;
            continue;
        }
        if v.punct(ju, ']') {
            j = v.match_back(ju, '[', ']')? as isize - 1;
            continue;
        }
        if v.punct(ju, '}') {
            j = v.match_back(ju, '{', '}')? as isize - 1;
            continue;
        }
        if v.punct(ju, ';') {
            return None;
        }
        if v.punct(ju, '=')
            && !opchars.iter().any(|&c| v.punct(ju + 1, c))
            && !(ju >= 1 && opchars.iter().any(|&c| v.punct(ju - 1, c)))
        {
            // Found the binding's `=`; scan left for `let <name>`.
            let mut k = j - 1;
            while k >= lo {
                let ku = k as usize;
                if v.punct(ku, ';') {
                    return None;
                }
                if v.punct(ku, ')') {
                    k = v.match_back(ku, '(', ')')? as isize - 1;
                    continue;
                }
                if v.ident(ku, "let") {
                    let mut nt = ku + 1;
                    if v.ident(nt, "mut") {
                        nt += 1;
                    }
                    return v.any_ident(nt).map(|s| s.to_string());
                }
                k -= 1;
            }
            return None;
        }
        j -= 1;
    }
    None
}

/// True when token `k` is a non-test release call on `container`.
fn releases(v: &SourceFile, k: usize, container: &str) -> bool {
    v.any_ident(k).is_some_and(|m| RELEASE_METHODS.contains(&m))
        && v.punct(k + 1, '(')
        && !v.in_test(k)
        && chain_base(v, k).as_deref() == Some(container)
}

pub(super) fn run(ws: &Workspace, out: &mut Findings) {
    for (fi, v) in out.files(ws) {
        for tok in 1..v.toks.len() {
            let call = v
                .any_ident(tok)
                .is_some_and(|m| REGISTER_PRIMS.contains(&m))
                && v.punct(tok + 1, '(')
                && !v.ident(tok - 1, "fn");
            if !call || v.in_test(tok) {
                continue;
            }
            let Some((body_open, body_close)) = v.fn_body(tok) else {
                continue;
            };
            // Retention: directly as a retention-call argument, or
            // let-bound and later fed to one.
            let container = if let Some(mt) = enclosing_retention(v, body_open, tok) {
                chain_base(v, mt)
            } else if let Some(name) = let_bound_name(v, body_open, tok) {
                ((tok + 1)..body_close)
                    .filter(|&k| v.ident(k, &name))
                    .filter_map(|k| enclosing_retention(v, body_open, k))
                    .find_map(|mt| chain_base(v, mt))
            } else {
                None
            };
            let Some(container) = container else { continue };
            let released = (0..v.toks.len()).any(|k| releases(v, k, &container));
            out.r7_obligations
                .push((v.path.clone(), container.clone(), released));
            if !released {
                out.report(
                    ws,
                    fi,
                    v.line(tok),
                    format!(
                        "MR registered and retained in `{container}` with no release \
                         (remove/retain/clear/… on `{container}`) in this file: \
                         pinned memory grows without bound"
                    ),
                );
            }
        }
    }
}
