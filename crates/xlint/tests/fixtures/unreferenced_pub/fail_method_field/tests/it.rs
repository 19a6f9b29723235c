use fixture::gauge;

#[test]
fn fields_and_modules_are_not_the_methods() {
    let meter = fixture::Meter { level: 3 };
    assert_eq!(meter.level, meter.read());
    assert!(meter.level < fixture::gauge::MAX && meter.level < gauge::MAX);
}
