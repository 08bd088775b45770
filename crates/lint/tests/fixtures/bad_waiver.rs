// Fixture: broken waivers. Expected: bad-waiver at lines 4, 7, 10 and
// 12–16 (and nothing else — a broken waiver must not suppress anything).

// lint:allow(no-wall-clock)
fn missing_justification() {}

// lint:allow(no-such-rule): justified, but the rule does not exist
fn unknown_rule() {}

// lint:allow(bad-waiver): waiving the waiver rule itself
fn self_waiver() {}
// lint:allow(serial-only-escape): a rule the lint no longer has
// lint:allow(expired-deprecation): a rule the lint no longer has
// lint:allow(no-raw-threads): a rule the lint no longer has (clippy owns it)
// lint:allow(no-unordered-iteration): a rule the lint no longer has (clippy owns it)
// lint:allow(no-unsafe): a rule the lint no longer has (rustc owns it)
