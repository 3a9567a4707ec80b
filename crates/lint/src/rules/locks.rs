//! R6 — VLock acquisition-order discipline, decided over the call graph.
//!
//! The deadlock-freedom argument for `Sharded(n)` (PR 8) rests on two
//! properties R6 checks statically: within a function, a lock class
//! acquired more than once or in a loop must be taken in provably
//! ascending index order (literals in order, a `..` range, or iteration
//! of a sorted container); across the system, the class-order relation
//! "holds A while acquiring B" — propagated over the call graph — must
//! be acyclic.

use std::collections::{BTreeMap, BTreeSet};

use super::Findings;
use crate::graph::{CallGraph, CallKind, CallSite};
use crate::workspace::{SourceFile, Workspace};

#[derive(Clone)]
enum Idx {
    /// Unindexed receiver (a single named lock).
    Whole,
    /// Literal index.
    Literal(i64),
    /// A `for` binding variable; provable when the iterated expression
    /// is a range or a sorted container.
    Loop { provable: bool, desc: String },
    /// The receiver *is* the element of a whole-container iteration —
    /// acquisition order is the container order, consistent by
    /// construction.
    Elem,
    /// Anything else — unprovable under an ordering obligation.
    Opaque(String),
}

struct Acq {
    file: usize,
    line: u32,
    tok: usize,
    fn_id: usize,
    class: String,
    idx: Idx,
    in_loop: bool,
}

/// Resolves the type text of the container a `for` loop iterates.
fn iter_type(g: &CallGraph, caller: usize, iter: &str) -> Option<String> {
    let it = iter.trim_start_matches(['&', '*', '(', ' ']);
    if let Some(rest) = it.strip_prefix("self.") {
        let field: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let t = g.fns[caller].impl_type.clone()?;
        return g.fields.get(&(t, field)).cloned();
    }
    let head: String = it
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    g.locals[caller].get(&head).cloned()
}

fn iter_provably_ascending(g: &CallGraph, caller: usize, iter: &str) -> bool {
    if iter.contains("..") || iter.contains("BTreeSet") || iter.contains("BTreeMap") {
        return true;
    }
    iter_type(g, caller, iter).is_some_and(|t| t.contains("BTreeSet") || t.contains("BTreeMap"))
}

/// Types the receiver of a `.lock(…)` call; `Some` only when the
/// receiver provably is a VLock (by field / local / return type text).
fn vlock_acq(v: &SourceFile, g: &CallGraph, c: &CallSite) -> Option<(String, Idx)> {
    if c.tok < 2 || !v.punct(c.tok - 1, '.') {
        return None;
    }
    let recv_end = c.tok - 2;
    let (idx_text, base_end) = if v.punct(recv_end, ']') {
        let open = v.match_back(recv_end, '[', ']')?;
        (Some(v.text(open + 1, recv_end)), open.checked_sub(1)?)
    } else {
        (None, recv_end)
    };
    let caller = c.caller;
    let (ty, class) = if v.punct(base_end, ')') {
        // Call-result receiver: type from the (uniquely) resolved callee.
        let open = v.match_back(base_end, '(', ')')?;
        let name_tok = open.checked_sub(1)?;
        let cs = g.calls_by_fn[caller]
            .iter()
            .map(|&k| &g.calls[k])
            .find(|cs| cs.tok == name_tok)?;
        if cs.resolved.len() != 1 {
            return None;
        }
        let callee = &g.fns[cs.resolved[0]];
        (callee.ret.clone(), format!("{}()", callee.qualified()))
    } else {
        let id = v.any_ident(base_end)?;
        if id == "self" {
            return None;
        }
        if base_end >= 2 && v.punct(base_end - 1, '.') && v.ident(base_end - 2, "self") {
            let t = g.fns[caller].impl_type.clone()?;
            let ty = g.fields.get(&(t.clone(), id.to_string()))?.clone();
            (ty, format!("{t}::{id}"))
        } else if base_end == 0 || !v.punct(base_end - 1, '.') {
            if let Some(ty) = g.locals[caller].get(id) {
                (ty.clone(), format!("{}::{id}", g.fns[caller].qualified()))
            } else if idx_text.is_none() {
                // Possibly the element of a whole-container loop.
                let fb = g.fors[caller]
                    .iter()
                    .find(|fb| fb.var == id && fb.body_open < c.tok && c.tok < fb.body_close)?;
                let ty = iter_type(g, caller, &fb.iter)?;
                if !ty.contains("VLock") {
                    return None;
                }
                let class = format!("{}::elems({})", g.fns[caller].qualified(), fb.iter);
                return Some((class, Idx::Elem));
            } else {
                return None;
            }
        } else {
            // Deeper chains (`a.b.c.lock()`) are not typed — conservative.
            return None;
        }
    };
    if !ty.contains("VLock") {
        return None;
    }
    let idx = match idx_text {
        None => Idx::Whole,
        Some(t) => {
            let tt = t.trim().trim_start_matches(['*', '&', ' ']).to_string();
            if let Ok(n) = tt.parse::<i64>() {
                Idx::Literal(n)
            } else if let Some(fb) = g.fors[caller]
                .iter()
                .find(|fb| fb.var == tt && fb.body_open < c.tok && c.tok < fb.body_close)
            {
                Idx::Loop {
                    provable: iter_provably_ascending(g, caller, &fb.iter),
                    desc: tt,
                }
            } else {
                Idx::Opaque(tt)
            }
        }
    };
    Some((class, idx))
}

pub(super) fn run(ws: &Workspace, out: &mut Findings) {
    let g = &ws.graph;
    let mut acqs: Vec<Acq> = Vec::new();
    for c in &g.calls {
        if c.name != "lock" || !matches!(c.kind, CallKind::Method { .. }) {
            continue;
        }
        let f = &g.fns[c.caller];
        if f.is_test || !out.covers(&f.file) {
            continue;
        }
        let Some((class, idx)) = vlock_acq(&ws.files[f.file_idx], g, c) else {
            continue;
        };
        let in_loop = matches!(idx, Idx::Elem)
            || g.fors[c.caller]
                .iter()
                .any(|fb| fb.body_open < c.tok && c.tok < fb.body_close);
        acqs.push(Acq {
            file: f.file_idx,
            line: c.line,
            tok: c.tok,
            fn_id: c.caller,
            class,
            idx,
            in_loop,
        });
    }

    // Intra-function ordering obligations: same class acquired twice,
    // or acquired inside a loop.
    let mut by_fn_class: BTreeMap<(usize, String), Vec<usize>> = BTreeMap::new();
    for (i, a) in acqs.iter().enumerate() {
        by_fn_class
            .entry((a.fn_id, a.class.clone()))
            .or_default()
            .push(i);
    }
    let mut provable = vec![true; acqs.len()];
    for ((_fn_id, class), group) in &by_fn_class {
        let mut group = group.clone();
        group.sort_by_key(|&i| acqs[i].tok);
        let obligated = group.len() >= 2 || group.iter().any(|&i| acqs[i].in_loop);
        if !obligated {
            continue;
        }
        let mut max_lit: Option<i64> = None;
        for &i in &group {
            let a = &acqs[i];
            let problem = match &a.idx {
                Idx::Literal(n) => {
                    let before = max_lit.filter(|m| n < m);
                    max_lit = Some(max_lit.map_or(*n, |m| m.max(*n)));
                    before.map(|m| {
                        format!(
                            "VLock {class} acquired at literal index {n} after \
                             index {m}: multi-acquisition must be ascending"
                        )
                    })
                }
                Idx::Loop {
                    provable: false,
                    desc,
                } => Some(format!(
                    "VLock {class} acquired at loop index `{desc}` over a \
                     container with no provable ascending order: iterate a \
                     range or a BTreeSet/BTreeMap instead"
                )),
                Idx::Opaque(t) => Some(format!(
                    "VLock {class} acquired at index `{t}` which is not \
                     provably ascending while this function acquires the \
                     class more than once or in a loop"
                )),
                Idx::Whole | Idx::Elem | Idx::Loop { .. } => None,
            };
            if let Some(message) = problem {
                provable[i] = false;
                out.report(ws, a.file, a.line, message);
            }
        }
    }
    out.stats.r6_acquisitions = acqs
        .iter()
        .zip(&provable)
        .map(|(a, &ok)| (ws.files[a.file].path.clone(), a.line, ok))
        .collect();

    // Cross-function class-order cycles: class A is "held into" class B
    // when a function acquires A and later (in token order) acquires B
    // directly or calls into a function that transitively acquires B.
    let mut trans: Vec<BTreeSet<String>> = vec![BTreeSet::new(); g.fns.len()];
    for a in &acqs {
        trans[a.fn_id].insert(a.class.clone());
    }
    loop {
        let mut changed = false;
        for c in &g.calls {
            for &k in &c.resolved {
                if k == c.caller {
                    continue;
                }
                let add: Vec<String> = trans[k]
                    .iter()
                    .filter(|x| !trans[c.caller].contains(*x))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    trans[c.caller].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for a in &acqs {
        for b in &acqs {
            if a.fn_id == b.fn_id && b.tok > a.tok && b.class != a.class {
                edges
                    .entry((a.class.clone(), b.class.clone()))
                    .or_insert((b.file, b.line));
            }
        }
        for &ci in &g.calls_by_fn[a.fn_id] {
            let c = &g.calls[ci];
            if c.tok <= a.tok {
                continue;
            }
            for &k in &c.resolved {
                for bclass in &trans[k] {
                    if *bclass != a.class {
                        edges
                            .entry((a.class.clone(), bclass.clone()))
                            .or_insert((a.file, c.line));
                    }
                }
            }
        }
    }
    // A cycle exists iff some edge (u, v) has a path v ->* u back.
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (u, v) in edges.keys() {
        adj.entry(u).or_default().push(v);
    }
    let path_between = |from: &String, to: &String| -> Option<Vec<String>> {
        let mut prev: BTreeMap<&String, &String> = BTreeMap::new();
        let mut queue = vec![from];
        let mut seen: BTreeSet<&String> = [from].into();
        while let Some(n) = queue.pop() {
            if n == to {
                let mut path = vec![to.clone()];
                let mut cur = to;
                while let Some(&p) = prev.get(cur) {
                    path.push(p.clone());
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &m in adj.get(n).into_iter().flatten() {
                if seen.insert(m) {
                    prev.insert(m, n);
                    queue.push(m);
                }
            }
        }
        None
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((u, v), &(file, line)) in &edges {
        let Some(path) = path_between(v, u) else {
            continue;
        };
        let mut cycle = vec![u.clone()];
        cycle.extend(path);
        let mut key = cycle.clone();
        key.sort();
        key.dedup();
        if reported.insert(key) {
            out.report(
                ws,
                file,
                line,
                format!(
                    "VLock acquisition-order cycle: {} — lock classes must form a \
                     global DAG or two requests can deadlock",
                    cycle.join(" -> ")
                ),
            );
        }
    }
}
