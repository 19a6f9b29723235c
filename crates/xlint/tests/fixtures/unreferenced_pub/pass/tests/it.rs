#[test]
fn builds() {
    let store = fixture::store::build();
    assert_eq!(fixture::store::Store::size(&store), 0);
}
