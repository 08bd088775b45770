// Fixture: real violations, each carrying a well-formed justified waiver
// on its own line or the line above. Expected: clean.

pub fn timed() -> u128 {
    // lint:allow(no-wall-clock): fixture demonstrates a standalone waiver above the offending line
    let start = std::time::Instant::now();
    start.elapsed().as_millis()
}

pub fn stepped(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15); // lint:allow(no-ambient-entropy): fixture demonstrates a trailing waiver
    *state
}
