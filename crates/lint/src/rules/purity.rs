//! R1 — virtual-time purity, decided over the call graph.
//!
//! A use of the wall clock, the host scheduler or OS entropy inside a
//! simulated layer is flagged where it stands. The same use in a
//! function *outside* the scope taints every out-of-scope caller that can
//! reach it, and the call where a scoped function enters tainted code is
//! flagged with the chain down to the use — so the fix target (the
//! helper, or the call) is visible without re-running.

use std::collections::BTreeMap;

use super::Findings;
use crate::workspace::{SourceFile, Workspace};

const PATHS: [(&[&str], &str); 7] = [
    (&["time", "Instant"], "std::time::Instant"),
    (&["time", "SystemTime"], "std::time::SystemTime"),
    (&["Instant", "now"], "Instant::now"),
    (&["SystemTime", "now"], "SystemTime::now"),
    (&["thread", "sleep"], "std::thread::sleep"),
    (&["process", "id"], "std::process::id"),
    (&["rand", "random"], "rand::random (OS-seeded)"),
];

const ENTROPY_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// One wall-clock / OS-entropy construct.
struct Use {
    tok: usize,
    line: u32,
    what: &'static str,
    /// One of [`ENTROPY_IDENTS`] (the advice differs).
    entropy: bool,
}

impl Use {
    fn message(&self) -> String {
        if self.entropy {
            format!(
                "{} in a simulated layer: all randomness must flow from the \
                 cluster seed (simnet::rng)",
                self.what
            )
        } else {
            format!(
                "{} in a simulated layer: virtual-time code must not read \
                 the wall clock, host scheduler, or OS entropy",
                self.what
            )
        }
    }
}

/// If the `::`-joined identifiers `segs` start at token `i`, the index
/// just past them.
fn path_at(f: &SourceFile, i: usize, segs: &[&str]) -> Option<usize> {
    let mut at = i;
    for (k, seg) in segs.iter().enumerate() {
        if k > 0 {
            if !f.path_sep(at) {
                return None;
            }
            at += 2;
        }
        if !f.ident(at, seg) {
            return None;
        }
        at += 1;
    }
    Some(at)
}

/// Every impure construct in `f.toks[from..to)`.
fn uses(f: &SourceFile, from: usize, to: usize) -> Vec<Use> {
    let mut out = Vec::new();
    let mut i = from;
    while i < to.min(f.toks.len()) {
        let path = PATHS
            .iter()
            .find_map(|&(segs, what)| path_at(f, i, segs).map(|end| (end, what)));
        if let Some((end, what)) = path {
            out.push(Use {
                tok: i,
                line: f.line(i),
                what,
                entropy: false,
            });
            i = end;
            continue;
        }
        if let Some(&what) = ENTROPY_IDENTS.iter().find(|s| f.ident(i, s)) {
            out.push(Use {
                tok: i,
                line: f.line(i),
                what,
                entropy: true,
            });
        }
        i += 1;
    }
    out
}

pub(super) fn run(ws: &Workspace, out: &mut Findings) {
    let g = &ws.graph;

    // Chain length 0: the use stands in a scoped file.
    for (fi, f) in out.files(ws) {
        for u in uses(f, 0, f.toks.len()) {
            if !f.in_test(u.tok) {
                out.report(ws, fi, u.line, u.message());
            }
        }
    }

    // Sources: out-of-scope, non-test fns with an unwaived use.
    let mut source: BTreeMap<usize, (u32, &'static str)> = BTreeMap::new();
    for (id, f) in g.fns.iter().enumerate() {
        if f.is_test || out.covers(&f.file) {
            continue;
        }
        let Some((a, b)) = f.body else { continue };
        for u in uses(&ws.files[f.file_idx], a, b + 1) {
            if !out.waive(ws, f.file_idx, u.line) {
                source.entry(id).or_insert((u.line, u.what));
            }
        }
    }
    out.stats.taint_sources = source.len();
    if source.is_empty() {
        return;
    }
    // Reverse reachability restricted to out-of-scope callers: a scoped
    // fn is reported at its boundary call site, never tainted through
    // (the finding belongs to the first scoped frame).
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); g.fns.len()];
    for c in &g.calls {
        for &callee in &c.resolved {
            callers[callee].push(c.caller);
        }
    }
    let mut tainted = vec![false; g.fns.len()];
    // Next hop toward the source, for chain printing.
    let mut next: Vec<Option<usize>> = vec![None; g.fns.len()];
    let mut queue: Vec<usize> = source.keys().copied().collect();
    for &s in &queue {
        tainted[s] = true;
    }
    while let Some(f) = queue.pop() {
        for &caller in &callers[f] {
            if tainted[caller] || out.covers(&g.fns[caller].file) {
                continue;
            }
            tainted[caller] = true;
            next[caller] = Some(f);
            queue.push(caller);
        }
    }
    for c in &g.calls {
        let caller = &g.fns[c.caller];
        if caller.is_test || !out.covers(&caller.file) {
            continue;
        }
        let Some(&callee) = c
            .resolved
            .iter()
            .find(|&&k| tainted[k] && !out.covers(&g.fns[k].file))
        else {
            continue;
        };
        let mut chain = vec![callee];
        let mut last = callee;
        while let Some(n) = next[last] {
            chain.push(n);
            last = n;
        }
        let Some(&(src_line, what)) = source.get(&last) else {
            continue;
        };
        let names: Vec<String> = chain
            .iter()
            .map(|&k| format!("`{}`", g.fns[k].qualified()))
            .collect();
        out.report(
            ws,
            caller.file_idx,
            c.line,
            format!(
                "call into {} taints this simulated layer: `{}` -> {} where {} \
                 calls {} ({}:{}); route the value through simnet instead",
                names[0],
                caller.qualified(),
                names.join(" -> "),
                names[names.len() - 1],
                what,
                g.fns[last].file,
                src_line,
            ),
        );
    }
}
