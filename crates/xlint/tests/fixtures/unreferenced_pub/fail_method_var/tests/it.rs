#[test]
fn locals_are_not_the_methods() {
    fixture::Gauge::default().bump();
    let level = 3;
    let apply = |x: u32| x + level;
    assert_eq!(apply(1), 4);
}
