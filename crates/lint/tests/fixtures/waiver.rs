//! Fixture: waiver semantics. Scanned by the integration test as
//! `crates/ucr/src/fixture_waiver.rs`.

pub fn waived(pd: &Pd, pool: &mut Vec<Mr>) {
    pool.push(pd.register(64)); // lint:allow(R7) fixture: a program-lifetime pool
    // lint:allow(R7) standalone waiver covers the next line
    pool.push(pd.register(64));
    pool.push(pd.register(64));
}
