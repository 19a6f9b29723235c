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
const CATEGORIES: [&str; 10] = [
    "a",
    "b,c",
    "say \"x\"",
    "\"",
    "ü ß",
    "1.5",
    "-0",
    "in,\"side\"",
    "tab\tin",
    "longer than eight bytes",
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

#[test]
fn header_names_with_separators_and_quotes_round_trip() {
    let csv = "\"a,b\",\"say \"\"q\"\"\",c\nx,1,y\nz,2,y\n";
    let data = read_csv_str(csv, &CsvOptions::default()).unwrap();
    assert_eq!(data.schema().names(), ["a,b", "say \"q\"", "c"]);
    let text = write_csv_string(&data, &CsvOptions::default());
    assert_eq!(text.lines().next(), Some("\"a,b\",\"say \"\"q\"\"\",c"));
    let back = read_csv_str(&text, &bundle_options(&data)).unwrap();
    assert_eq!(back, data);
}

/// The dataset `columns` describe, every cell a category: what reading
/// their CSV must give, lookups included.
fn dimensions(columns: &[(&str, Vec<Option<&str>>)]) -> Dataset {
    columns
        .iter()
        .fold(DatasetBuilder::new(), |builder, (name, cells)| {
            builder.dimension_column(
                name,
                DimensionColumn::from_optional_values(cells.iter().copied()),
            )
        })
        .build()
        .unwrap()
}

#[test]
fn a_multi_byte_separator_splits_fields() {
    // `§` shares its first UTF-8 byte with `¦`.
    let csv = "A¦B¦C\nx¦1.5¦ü\n\"y¦z\"¦2¦ü\nx§y¦¦é,\n";
    let data = read_csv_str(csv, &with_separator('¦')).unwrap();
    let categories = |name| data.dimension(name).unwrap().categories().to_vec();
    assert_eq!(categories("A"), ["x".into(), "y¦z".into(), "x§y".into()]);
    assert_eq!(categories("C"), ["ü".into(), "é,".into()]);
    let b = data.measure("B").unwrap().values();
    assert_eq!((b[0], b[1]), (1.5, 2.0));
    assert!(b[2].is_nan());
    let golden = golden_fixture();
    let text = write_csv_string(&golden, &with_separator('¦'));
    let options = CsvOptions {
        separator: '¦',
        ..bundle_options(&golden)
    };
    assert_same(&golden, &read_csv_str(&text, &options).unwrap());
}

#[test]
fn crlf_line_endings_read_like_lf() {
    let lf = "A,B\nx,y\n\nz,y\n\"q\",x\n";
    let crlf = lf.replace('\n', "\r\n");
    let expected = read_csv_str(lf, &CsvOptions::default()).unwrap();
    assert_eq!(
        read_csv_str(&crlf, &CsvOptions::default()).unwrap(),
        expected
    );
    assert_eq!(
        expected,
        dimensions(&[
            ("A", vec![Some("x"), Some("z"), Some("q")]),
            ("B", vec![Some("y"), Some("y"), Some("x")]),
        ])
    );
    let Err(DataError::Csv(message)) =
        read_csv_str("A,B\r\n\r\nx,1\r\ny\r\n", &CsvOptions::default())
    else {
        panic!("a short row must be a CSV error");
    };
    assert_eq!(message, "line 4 has 1 fields, expected 2");
}

#[test]
fn unicode_whitespace_around_cells_is_trimmed_like_str_trim() {
    let cells = [
        "\u{a0}x\u{3000}",
        " x ",
        "x",
        "\u{3000}\u{a0}",
        "a\u{a0}b",
        "\u{a0}a\u{a0}b",
        "\u{85}y\u{2028}",
        "é",
        "\u{b}z\u{c}",
    ];
    let mut csv = String::from("A,B\n");
    for (row, cell) in cells.iter().enumerate() {
        csv.push_str(&format!("{cell},\u{3000}{row}.5\u{a0}\n"));
    }
    let data = read_csv_str(&csv, &CsvOptions::default()).unwrap();
    let trimmed = cells.map(|cell| Some(cell.trim()).filter(|c| !c.is_empty()));
    assert_eq!(
        data.dimension("A").unwrap(),
        &DimensionColumn::from_optional_values(trimmed)
    );
    let b: Vec<f64> = (0..cells.len()).map(|row| row as f64 + 0.5).collect();
    assert_eq!(data.measure("B").unwrap().values(), b);
}

#[test]
fn categories_longer_than_eight_bytes_keep_their_codes() {
    let cells = [
        "abcdefg",
        "abcdefgh",
        "abcdefghi",
        "a",
        "a\0",
        "abcdefgh",
        "a longer category name",
        "abcdefg",
        "a\0",
        "日本語のカテゴリ",
        "a",
        "a longer category name",
    ];
    let mut csv = String::from("A,B\n");
    for cell in cells {
        csv.push_str(&format!("{cell},b\n"));
    }
    let data = read_csv_str(&csv, &CsvOptions::default()).unwrap();
    assert_eq!(
        data,
        dimensions(&[
            ("A", cells.iter().map(|&c| Some(c)).collect()),
            ("B", vec![Some("b"); cells.len()]),
        ])
    );
    let a = data.dimension("A").unwrap();
    assert_eq!(a.cardinality(), 7);
    assert_eq!(a.code_of("a\0"), Some(4));
}

#[test]
fn a_column_with_hundreds_of_categories_keeps_first_appearance_order() {
    // 400 distinct short categories and 400 long ones, each repeated, in
    // an order that is neither sorted nor grouped.
    let labels: Vec<String> = (0..1_200)
        .map(|i| {
            let k = (i * 7_919) % 400;
            if i % 3 == 0 {
                format!("a-rather-long-label-{k}")
            } else {
                format!("k{k}")
            }
        })
        .collect();
    let mut csv = String::from("A,B\n");
    for (i, label) in labels.iter().enumerate() {
        let b = if i % 5 == 0 { "" } else { label.as_str() };
        csv.push_str(&format!("{label},{b}\n"));
    }
    let data = read_csv_str(&csv, &CsvOptions::default()).unwrap();
    let expected = dimensions(&[
        ("A", labels.iter().map(|l| Some(l.as_str())).collect()),
        (
            "B",
            labels
                .iter()
                .enumerate()
                .map(|(i, l)| (i % 5 != 0).then_some(l.as_str()))
                .collect(),
        ),
    ]);
    assert_eq!(data, expected);
    let a = data.dimension("A").unwrap();
    assert!(a.cardinality() > 300, "{}", a.cardinality());
    for (code, category) in a.categories().iter().enumerate() {
        assert_eq!(a.code_of(category), Some(code as u32));
    }
}

#[test]
fn a_quoted_line_between_unquoted_ones_shares_their_codes() {
    let csv = "A,B\nx,1\n\"y,z\",2\nx,3\n\"x\", \"4\" \ny,z,5\n";
    let Err(DataError::Csv(message)) = read_csv_str(csv, &CsvOptions::default()) else {
        panic!("a three-field row must be a CSV error");
    };
    assert_eq!(message, "line 6 has 3 fields, expected 2");
    let csv = "A,B\nx,1\n\"y,z\",2\nx,3\n\"x\", \"4\" \ny,5\n";
    let data = read_csv_str(csv, &CsvOptions::default()).unwrap();
    let a = data.dimension("A").unwrap();
    let categories: Vec<&str> = a.categories().iter().map(|c| c.as_ref()).collect();
    assert_eq!(categories, ["x", "y,z", "y"]);
    assert_eq!(a.codes(), [0, 1, 0, 0, 2]);
    assert_eq!(
        data.measure("B").unwrap().values(),
        [1.0, 2.0, 3.0, 4.0, 5.0]
    );
}

#[test]
fn a_column_demoted_after_a_long_numeric_prefix_keeps_its_text() {
    // 2,000 numeric rows (over 600 distinct spellings, some with padding
    // or trailing zeros), one empty cell, then a word.
    let mut cells: Vec<String> = (0..2_000)
        .map(|i| match (i % 4, i / 4) {
            (0, k) => format!("{}", k % 300),
            (1, k) => format!("{}.50", k % 300),
            (2, k) => format!(" {} ", k % 150),
            (_, k) => format!("-{}e0", k % 7),
        })
        .collect();
    cells.insert(1_000, String::new());
    cells.push("late".into());
    let mut csv = String::from("A,B\n");
    for cell in &cells {
        csv.push_str(&format!("{cell},b\n"));
    }
    let data = read_csv_str(&csv, &CsvOptions::default()).unwrap();
    assert_eq!(kind(&data, "A"), AttributeKind::Dimension);
    let expected = DimensionColumn::from_optional_values(
        cells
            .iter()
            .map(|c| Some(c.trim()).filter(|c| !c.is_empty())),
    );
    assert_eq!(data.dimension("A").unwrap(), &expected);
    assert!(expected.cardinality() > 300);
}
