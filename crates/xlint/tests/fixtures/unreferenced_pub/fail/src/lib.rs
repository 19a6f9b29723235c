//! Dead surface: a `pub fn` only its own file calls, and one whose only
//! other mentions are a comment and a same-named definition.

pub fn live() -> u32 {
    helper_only_here()
}

pub fn helper_only_here() -> u32 {
    1
}

pub unsafe fn orphan() {}
