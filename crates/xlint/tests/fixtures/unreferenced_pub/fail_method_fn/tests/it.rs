fn reading() -> u32 {
    7
}

#[test]
fn free_function_is_not_the_method() {
    assert_eq!(reading(), fixture::Meter(7).0);
}
