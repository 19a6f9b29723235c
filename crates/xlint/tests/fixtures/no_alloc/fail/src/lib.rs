//! `frame` allocates a fresh buffer per call — exactly what the rule
//! exists to catch on a framing path — and `share` allocates a fresh
//! `Arc` where cloning the handle it was given would not.

pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 1);
    out.extend_from_slice(payload);
    out.to_vec()
}

pub fn share(name: &std::sync::Arc<str>) -> (std::sync::Arc<str>, std::sync::Arc<str>) {
    (std::sync::Arc::clone(name), std::sync::Arc::from("copy"))
}
