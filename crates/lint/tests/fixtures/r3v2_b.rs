//! Fixture: R3 cross-file span pairing, `end` side. Mounted as
//! `crates/core/src/fixture_sb.rs`. Both ends fire: a span opens and
//! closes in one file, and `close_window` sharing `helper` with the
//! `begin` side does not pair "xfile_ok" across files.

pub fn close_window(t: &Tracer, at: SimTime) {
    helper();
    t.end(Layer::Ucr, "xfile_ok", NodeId(0), Track::Main, 7, 0, at);
}

pub fn lonely_end(t: &Tracer, at: SimTime) {
    t.end(Layer::Ucr, "xfile_orphan", NodeId(0), Track::Main, 7, 0, at);
}
