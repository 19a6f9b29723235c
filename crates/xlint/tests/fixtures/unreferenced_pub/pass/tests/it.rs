#[test]
fn builds() {
    let store = fixture::store::build();
    assert_eq!(fixture::store::Store::size(&store), 0);
    assert_eq!(store.pick::<u32>(), 0);
}
