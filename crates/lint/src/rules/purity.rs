//! R1 — virtual-time purity: a use of the wall clock, the host scheduler
//! or OS entropy inside a simulated layer is flagged where it stands.
//! Nothing outside the scope can hand one in: no scoped member depends on
//! a host tool outside its tests (`selfcheck.rs` pins the manifests).

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

/// Every impure construct in `f`.
fn uses(f: &SourceFile) -> Vec<Use> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < f.toks.len() {
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
    for (fi, f) in out.files(ws) {
        for u in uses(f) {
            if !f.in_test(u.tok) {
                out.report(ws, fi, u.line, u.message());
            }
        }
    }
}
