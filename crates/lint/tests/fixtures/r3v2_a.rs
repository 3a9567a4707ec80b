//! Fixture: R3 cross-file span pairing, `begin` side. Mounted as
//! `crates/ucr/src/fixture_sa.rs`.

pub fn open_window(t: &Tracer, at: SimTime) {
    t.begin(Layer::Ucr, "xfile_ok", NodeId(0), Track::Main, 7, 0, at);
    helper();
}

pub fn open_orphan(t: &Tracer, at: SimTime) {
    t.begin(Layer::Ucr, "xfile_orphan", NodeId(0), Track::Main, 7, 0, at);
}

pub fn helper() {}
