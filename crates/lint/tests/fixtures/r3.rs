//! Fixture: R3 trace-span balance. Scanned by the integration test as
//! `crates/ucr/src/fixture_r3.rs`.

pub fn spans(tr: &Tracer, node: NodeId, wr: u64, at: SimTime) {
    tr.begin(Layer::Ucr, "orphan_begin", node, Track::Main, wr, 0, at);
    tr.begin(Layer::Ucr, "paired", node, Track::Main, wr, 0, at);
    tr.end(Layer::Ucr, "paired", node, Track::Main, wr, 0, at);
    tr.end(Layer::Ucr, "orphan_end", node, Track::Main, wr, 0, at);
    tr.begin(Layer::Ucr, "zero_key", node, Track::Main, 0, 0, at);
    tr.end(Layer::Ucr, "zero_key", node, Track::Main, wr, 0, at);
    // Not a tracer span: this `begin` takes no Layer argument.
    txn.begin(req_id, at);
}
