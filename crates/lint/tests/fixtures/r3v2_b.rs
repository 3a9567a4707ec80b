//! Fixture: R3 cross-file span pairing, `end` side. Mounted as
//! `crates/core/src/fixture_sb.rs`. `close_window` shares a call-graph
//! component with the `begin` side through `helper`; `lonely_end` does
//! not.

pub fn close_window(t: &Tracer, at: SimTime) {
    helper();
    t.end(Layer::Ucr, "xfile_ok", NodeId(0), Track::Main, 7, 0, at);
}

pub fn lonely_end(t: &Tracer, at: SimTime) {
    t.end(Layer::Ucr, "xfile_orphan", NodeId(0), Track::Main, 7, 0, at);
}
