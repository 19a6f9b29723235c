//! A pragma that suppresses nothing is a finding; one that suppresses a
//! site, one for a rule this config leaves off and one in a test module
//! are not.

pub fn head(payload: &[u8]) -> u8 {
    // xlint: allow(no-panic-path, callers pass a non-empty payload)
    payload[0]
}

pub fn first(payload: &[u8]) -> Option<u8> {
    // xlint: allow(no-panic-path, left behind when the indexing went)
    payload.first().copied()
}

pub fn len(payload: &[u8]) -> usize {
    // xlint: allow(no-alloc-hot-path, that rule is off in this config)
    payload.len()
}

#[cfg(test)]
mod tests {
    // xlint: allow(no-panic-path, test code is not checked)
    fn helper() {}
}
