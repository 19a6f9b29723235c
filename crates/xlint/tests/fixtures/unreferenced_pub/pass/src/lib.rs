//! Every `pub fn` is named by another file (a sibling module or an
//! integration test) or, pragma-justified, only by a doc-test.

pub mod store;

pub fn open() -> store::Store {
    store::Store::default()
}

/// ```
/// assert_eq!(fixture::version(), 1);
/// ```
// xlint: allow(unreferenced-pub, fixture demonstrates a doc-test-only caller)
pub const fn version() -> u32 {
    1
}

pub(crate) fn internal() {}

#[cfg(test)]
pub fn gated() {}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
