pub fn fine(pool: &mut Vec<Mr>) {
    pool.clear(); // lint:allow(R7) nothing to suppress: a release retains nothing
}
