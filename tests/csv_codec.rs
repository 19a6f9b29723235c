//! The CSV codec's contract: written bytes pinned against golden files,
//! bundle-style round trips that keep every kind, code and measure bit, and
//! the kind-inference edge cases.

use proptest::prelude::*;
use xinsight::data::{
    read_csv_str, write_csv_string, AttributeKind, Column, CsvOptions, DataError, Dataset,
    DatasetBuilder, DimensionColumn, MeasureColumn,
};

/// Quotes and separators in categories, nulls in both kinds, awkward floats
/// and non-ASCII text.
fn golden_fixture() -> Dataset {
    DatasetBuilder::new()
        .dimension_column(
            "Label",
            DimensionColumn::from_optional_values([
                Some("plain"),
                Some("a,b"),
                Some("say \"hi\""),
                None,
                Some("naïve café ✓"),
                Some("plain"),
                Some("\"x;y\""),
                Some("1.5"),
            ]),
        )
        .measure_column(
            "Value",
            MeasureColumn::from_optional_values([
                Some(-0.0),
                Some(1e300),
                Some(0.1),
                Some(f64::INFINITY),
                Some(-2.5),
                None,
                Some(f64::NEG_INFINITY),
                Some(1e-7),
            ]),
        )
        .dimension_column(
            "Größe",
            DimensionColumn::from_optional_values([
                Some("日本語"),
                Some("x"),
                Some("日本語"),
                None,
                Some("tab\there"),
                Some("x"),
                Some("ü"),
                Some("42"),
            ]),
        )
        .measure("Count", [42.0, 7.0, -3.0, 0.5, 1e21, 123.456, 2.0, 0.0])
        .build()
        .unwrap()
}

fn with_separator(separator: char) -> CsvOptions {
    CsvOptions {
        separator,
        ..CsvOptions::default()
    }
}

/// The options a bundle load reads its CSV with: the saved kinds, forced.
fn bundle_options(data: &Dataset) -> CsvOptions {
    let schema = data.schema();
    CsvOptions {
        force_dimensions: schema
            .dimension_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        force_measures: schema
            .measure_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        ..CsvOptions::default()
    }
}

#[test]
fn written_bytes_match_the_golden_files() {
    let data = golden_fixture();
    let golden = [
        (',', include_str!("fixtures/csv_codec/comma.csv")),
        (';', include_str!("fixtures/csv_codec/semicolon.csv")),
        // `.` as separator forces quoting of formatted numbers too.
        ('.', include_str!("fixtures/csv_codec/dot.csv")),
    ];
    for (separator, expected) in golden {
        let written = write_csv_string(&data, &with_separator(separator));
        assert_eq!(written, expected, "separator {separator:?}");
    }
}

#[test]
fn golden_fixture_reads_back_with_its_kinds() {
    let data = golden_fixture();
    let text = write_csv_string(&data, &CsvOptions::default());
    let back = read_csv_str(&text, &bundle_options(&data)).unwrap();
    assert_same(&data, &back);
}

/// Kinds, dimension codes with their dictionary order, and measure bits.
fn assert_same(expected: &Dataset, actual: &Dataset) {
    assert_eq!(expected.schema().names(), actual.schema().names());
    assert_eq!(expected.n_rows(), actual.n_rows());
    for col in 0..expected.n_attributes() {
        match (expected.column(col), actual.column(col)) {
            (Column::Dimension(e), Column::Dimension(a)) => {
                assert_eq!(e.categories(), a.categories(), "column {col}");
                assert_eq!(e.codes(), a.codes(), "column {col}");
            }
            (Column::Measure(e), Column::Measure(a)) => {
                let bits = |c: &MeasureColumn| c.values().iter().map(|v| v.to_bits()).collect();
                let (e, a): (Vec<u64>, Vec<u64>) = (bits(e), bits(a));
                assert_eq!(e, a, "column {col}");
            }
            _ => panic!("column {col} changed kind"),
        }
    }
}

/// Categories that survive a round trip: non-empty, already trimmed, no
/// line breaks — but with separators, quotes, numbers and non-ASCII text.
const CATEGORIES: [&str; 9] = [
    "a",
    "b,c",
    "say \"x\"",
    "\"",
    "ü ß",
    "1.5",
    "-0",
    "in,\"side\"",
    "tab\tin",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // At least two columns: a one-column row of nulls is a blank line,
    // which the reader skips.
    #[test]
    fn bundle_round_trip_keeps_kinds_codes_and_bits(
        n_cols in 2usize..6,
        measures in prop::collection::vec(any::<bool>(), 6),
        cells in prop::collection::vec(0usize..12, 0..240),
        numbers in prop::collection::vec(any::<f64>(), 240),
        specials in prop::collection::vec(0u8..10, 240),
    ) {
        let n_rows = cells.len() / n_cols;
        let mut builder = DatasetBuilder::new();
        for (col, &measure) in measures.iter().enumerate().take(n_cols) {
            let name = format!("c{col}");
            let rows = (0..n_rows).map(|row| row * n_cols + col);
            builder = if measure {
                let value = |i: usize| match specials[i] {
                    0 => None,
                    1 => Some(f64::INFINITY),
                    2 => Some(f64::NEG_INFINITY),
                    3 => Some(-0.0),
                    4 => Some(1e300),
                    _ => Some(numbers[i]),
                };
                builder.measure_column(&name, MeasureColumn::from_optional_values(rows.map(value)))
            } else {
                let value = |i: usize| CATEGORIES.get(cells[i]).copied();
                builder.dimension_column(&name, DimensionColumn::from_optional_values(rows.map(value)))
            };
        }
        let data = builder.build().unwrap();
        let text = write_csv_string(&data, &CsvOptions::default());
        let back = read_csv_str(&text, &bundle_options(&data)).unwrap();
        assert_same(&data, &back);
        prop_assert_eq!(write_csv_string(&back, &CsvOptions::default()), text);
    }
}

fn kind(data: &Dataset, name: &str) -> AttributeKind {
    data.schema().attribute_by_name(name).unwrap().kind
}

#[test]
fn a_non_number_in_the_last_row_makes_a_dimension() {
    let csv = "A,B\n1,x\n2.5,y\n,z\n1,w\n-0,v\nlate,u\n";
    let data = read_csv_str(csv, &CsvOptions::default()).unwrap();
    assert_eq!(kind(&data, "A"), AttributeKind::Dimension);
    let a = data.dimension("A").unwrap();
    // First-appearance order, the empty cell missing, repeats re-coded.
    let categories: Vec<&str> = a.categories().iter().map(|c| c.as_ref()).collect();
    assert_eq!(categories, ["1", "2.5", "-0", "late"]);
    assert_eq!(a.codes(), [0, 1, u32::MAX, 0, 2, 3]);
}

#[test]
fn a_forced_measure_reads_unparsable_cells_as_missing() {
    let csv = "A,B\n1,x\nnope,y\n3,z\n";
    let options = CsvOptions {
        force_measures: vec!["A".into(), "B".into()],
        ..CsvOptions::default()
    };
    let data = read_csv_str(csv, &options).unwrap();
    assert_eq!(kind(&data, "A"), AttributeKind::Measure);
    assert_eq!(kind(&data, "B"), AttributeKind::Measure);
    let a = data.measure("A").unwrap().values();
    assert_eq!((a[0], a[2]), (1.0, 3.0));
    assert!(a[1].is_nan());
    assert!(data
        .measure("B")
        .unwrap()
        .values()
        .iter()
        .all(|v| v.is_nan()));
}

#[test]
fn an_all_empty_column_is_a_dimension() {
    let csv = "A,B\n,1\n  ,2\n";
    let data = read_csv_str(csv, &CsvOptions::default()).unwrap();
    assert_eq!(kind(&data, "A"), AttributeKind::Dimension);
    assert_eq!(data.cardinality("A").unwrap(), 0);
    assert!(data.column_by_name("A").unwrap().is_null(1));
    assert_eq!(kind(&data, "B"), AttributeKind::Measure);
}

#[test]
fn force_dimensions_wins_over_force_measures() {
    let csv = "A\n1\n2\n1\n";
    let options = CsvOptions {
        force_dimensions: vec!["A".into()],
        force_measures: vec!["A".into()],
        ..CsvOptions::default()
    };
    let data = read_csv_str(csv, &options).unwrap();
    assert_eq!(kind(&data, "A"), AttributeKind::Dimension);
    assert_eq!(data.cardinality("A").unwrap(), 2);
}

#[test]
fn errors_name_the_physical_line() {
    let message = |csv: &str| match read_csv_str(csv, &CsvOptions::default()) {
        Err(DataError::Csv(message)) => message,
        other => panic!("{csv:?} should be a CSV error, got {other:?}"),
    };
    assert_eq!(
        message("A,B\n\n1,2\n\n\n3\n"),
        "line 6 has 1 fields, expected 2"
    );
    assert_eq!(
        message("A,B\n1,2\n\n\"open,3\n"),
        "line 4: unterminated quoted field"
    );
}
