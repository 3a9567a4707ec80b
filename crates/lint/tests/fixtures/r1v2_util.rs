//! Fixture: R1 out-of-scope helper, mounted as
//! `crates/lint/src/fixture_util.rs` (outside the purity scope).

pub fn stamp() -> u64 {
    ticks()
}

fn ticks() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

pub fn seeded() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64 // lint:allow(R1) host tool: wall clock is the measurand
}
