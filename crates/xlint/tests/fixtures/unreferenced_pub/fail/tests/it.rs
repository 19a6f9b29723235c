// orphan() is mentioned in a comment only.
fn orphan() {}

#[test]
fn live_is_called() {
    assert_eq!(fixture::live(), 1);
}
