//! Fixture: R4 panic-path audit. Scanned by the integration test as
//! `crates/verbs/src/fixture_r4.rs` (inside R4 scope).

pub fn panics(x: Option<u8>, r: Result<u8, ()>) -> u8 {
    let a = x.unwrap();
    let b = r.expect("fixture");
    match a {
        0 => panic!("fixture boom"),
        1 => unreachable!("fixture"),
        2 => todo!(),
        3 => unimplemented!(),
        _ => {}
    }
    // Non-panicking variants are fine:
    a + b + x.unwrap_or(0) + x.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_fine_in_tests() {
        Some(1u8).unwrap();
    }
}
