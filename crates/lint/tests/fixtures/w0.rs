pub fn fine(x: Option<u8>) -> u8 {
    x.unwrap_or(0) // lint:allow(R4) nothing to suppress: unwrap_or never panics
}
