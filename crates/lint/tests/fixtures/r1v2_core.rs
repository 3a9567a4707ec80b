//! Fixture: R1 scoped caller reaching an impure helper two hops away.
//! Mounted as `crates/core/src/fixture_taint.rs`.

pub fn now_ticks() -> u64 {
    stamp()
}

pub fn seeded_ok() -> u64 {
    seeded()
}
