#[test]
fn builds() {
    fixture::store::build();
}
