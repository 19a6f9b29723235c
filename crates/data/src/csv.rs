//! CSV reading and writing for spreadsheets and model bundles.
//!
//! The paper anticipates spreadsheet input (or a materialized provenance
//! table), and the serving layer stores every bundle's dataset as CSV.  This
//! module is a dependency-free codec for both.
//!
//! # Kind inference
//!
//! A column is a measure when it has at least one non-empty cell and every
//! non-empty cell parses as an `f64` (so `inf` and `NaN` count as numbers);
//! otherwise — a single non-number anywhere, or no value at all — it is a
//! dimension.  [`CsvOptions::force_dimensions`] wins over
//! [`CsvOptions::force_measures`]; a forced measure reads unparsable cells as
//! missing (NaN).  Dimension dictionaries keep first-appearance order.
//!
//! # Quoting
//!
//! Fields are split on [`CsvOptions::separator`].  A `"` opens a quoted run
//! anywhere in a field; inside it the separator is literal, `""` is one
//! quote, and the next lone `"` closes it.  A quote still open at the end
//! of a line is an error: fields never span lines.  Cells are trimmed after
//! unquoting and an empty cell is missing; header names are unquoted but
//! not trimmed.  Whitespace-only lines are skipped; width and quoting
//! errors name the physical 1-based line.  The writer quotes a field (a
//! header name included) only when it contains the separator or a quote
//! (doubling inner quotes), writes missing values as empty fields and
//! numbers with `{}` (shortest round-trip) formatting.
//!
//! # Cost model
//!
//! Reading is one pass over the lines, and each data line is scanned once.
//! A line without `"` is split over its bytes, on the separator's UTF-8
//! bytes, into borrowed slices of the input; a line with quotes is unquoted
//! char by char into one reused scratch buffer.  A cell is trimmed only
//! when its first or last byte is whitespace or non-ASCII, which keeps
//! `str::trim`'s Unicode semantics and lets plain cells skip it.  Each cell
//! is parsed at most once: cells of a column that is still numeric go
//! straight into its `Vec<f64>`, and dimension cells are interned straight
//! into dictionary codes.
//!
//! Each dimension column owns a code table while it has fewer than 128
//! categories: a cell of at most 7 bytes is packed with its length into a
//! `u64` key and looked up in a 256-slot open-addressed table, at most 8
//! probes from a slot picked by a multiplier drawn at random per column, so
//! the input cannot steer which cells collide.  Longer cells, cells whose
//! probes run out, and every cell of a column past the table's bound go
//! through the column's `HashMap`, which holds every category and becomes
//! the finished column's lookup.  The only per-cell allocation is the
//! dictionary entry of a category seen for the first time.  A column that
//! looked numeric until row `r` and then meets a non-number re-reads its
//! first `r` cells once to intern them.
//!
//! Writing escapes each dictionary category once per column, then appends
//! the rows' categories and formatted numbers (through one reused buffer)
//! into a single `String` sized up front.

// HashMap here never leaks iteration order into output: each column's
// interning map; codes keep first-appearance order (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::column::{Column, DimensionColumn, MeasureColumn, NULL_CODE};
use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::{DataError, Result};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Options for CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Attributes forced to be dimensions even if their cells parse as numbers
    /// (e.g. a numeric month column that should stay categorical).
    pub force_dimensions: Vec<String>,
    /// Attributes forced to be measures.
    pub force_measures: Vec<String>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            force_dimensions: Vec::new(),
            force_measures: Vec::new(),
        }
    }
}

/// The field separator: a char for the unquoting path, its UTF-8 bytes for
/// the byte scan.
#[derive(Clone, Copy)]
struct Separator {
    ch: char,
    utf8: [u8; 4],
    len: usize,
}

impl Separator {
    fn new(ch: char) -> Self {
        let mut utf8 = [0; 4];
        let len = ch.encode_utf8(&mut utf8).len();
        Separator { ch, utf8, len }
    }
}

/// Longest cell, in bytes, a column's code table keys.
const SHORT_BYTES: usize = 7;
/// Slots of a column's code table (a power of two).
const TABLE_SLOTS: usize = 256;
/// A column drops its code table when its dictionary reaches this many
/// categories, so the table is never more than half full.
const TABLE_CATEGORIES: usize = 128;
/// Slots a code-table lookup probes before it falls back to the map.
const MAX_PROBES: usize = 8;

/// A column's code table: packed short cells → codes, linearly probed.
struct CodeTable {
    /// Random odd multiplier; the slot is the top bits of `key * multiplier`.
    multiplier: u64,
    /// Packed keys (see [`pack`]); 0 marks a vacant slot.
    keys: [u64; TABLE_SLOTS],
    codes: [u32; TABLE_SLOTS],
}

/// What a code-table probe found.
enum Probe {
    Found(u32),
    /// The key is in neither the table nor the map: it may take this slot.
    Vacant(usize),
    /// Every probed slot holds another key: ask the map.
    Exhausted,
}

impl CodeTable {
    fn probe(&self, key: u64) -> Probe {
        let start =
            (key.wrapping_mul(self.multiplier) >> (64 - TABLE_SLOTS.trailing_zeros())) as usize;
        for i in 0..MAX_PROBES {
            let slot = (start + i) % TABLE_SLOTS;
            match self.keys[slot] {
                k if k == key => return Probe::Found(self.codes[slot]),
                0 => return Probe::Vacant(slot),
                _ => {}
            }
        }
        Probe::Exhausted
    }
}

/// A cell of at most [`SHORT_BYTES`] bytes as one `u64`: its bytes, with
/// its length in the top byte, so no packed key is 0 and no two cells share
/// one.
fn pack(cell: &[u8]) -> Option<u64> {
    if cell.len() > SHORT_BYTES {
        return None;
    }
    let key = cell.iter().rev().fold(0, |key, &b| key << 8 | u64::from(b));
    Some(key | (cell.len() as u64) << 56)
}

/// A dimension column while it is being read: codes, the dictionary in
/// first-appearance order, and the two indexes into it.
struct Interner {
    codes: Vec<u32>,
    categories: Vec<Arc<str>>,
    /// Every category → its code.
    lookup: HashMap<Arc<str>, u32>,
    /// Short categories → codes, while the dictionary is small.  A short
    /// category interned while the table exists was offered a slot, and
    /// slots are never freed, so a probe that reaches a vacant slot proves
    /// the cell new.
    table: Option<Box<CodeTable>>,
}

impl Interner {
    fn with_capacity(rows: usize) -> Self {
        Interner {
            codes: Vec::with_capacity(rows),
            categories: Vec::new(),
            lookup: HashMap::new(),
            table: Some(Box::new(CodeTable {
                multiplier: RandomState::new().hash_one(0u64) | 1,
                keys: [0; TABLE_SLOTS],
                codes: [0; TABLE_SLOTS],
            })),
        }
    }

    /// Appends one non-empty cell's code.
    fn push(&mut self, cell: &str) {
        let code = self.code(cell);
        self.codes.push(code);
    }

    /// The code of `cell`, interning it when it is new.
    fn code(&mut self, cell: &str) -> u32 {
        let mut vacant = None;
        if let (Some(table), Some(key)) = (&self.table, pack(cell.as_bytes())) {
            match table.probe(key) {
                Probe::Found(code) => return code,
                Probe::Vacant(slot) => vacant = Some((slot, key)),
                Probe::Exhausted => {}
            }
        }
        if vacant.is_none() {
            if let Some(&code) = self.lookup.get(cell) {
                return code;
            }
        }
        let code = self.categories.len() as u32;
        // xlint: allow(no-alloc-hot-path, interning a category seen for the first time: one allocation per distinct value, not per cell)
        let interned: Arc<str> = Arc::from(cell);
        self.categories.push(Arc::clone(&interned));
        self.lookup.insert(interned, code);
        if self.categories.len() >= TABLE_CATEGORIES {
            self.table = None;
        } else if let (Some(table), Some((slot, key))) = (&mut self.table, vacant) {
            table.keys[slot] = key;
            table.codes[slot] = code;
        }
        code
    }

    fn finish(self) -> DimensionColumn {
        DimensionColumn::from_interned(self.codes, self.categories, self.lookup)
    }
}

/// One column while it is being read.
enum Cells {
    /// Every non-empty cell so far parsed as a number (missing ones are
    /// NaN).  `forced` columns never turn into dimensions; `saw_value`
    /// tells an all-empty column, which ends up a dimension, from a measure.
    Numbers {
        values: Vec<f64>,
        forced: bool,
        saw_value: bool,
    },
    Dimension(Interner),
}

impl Cells {
    fn new(name: &str, options: &CsvOptions, rows: usize) -> Self {
        if options.force_dimensions.iter().any(|n| n == name) {
            Cells::Dimension(Interner::with_capacity(rows))
        } else {
            Cells::Numbers {
                values: Vec::with_capacity(rows),
                forced: options.force_measures.iter().any(|n| n == name),
                saw_value: false,
            }
        }
    }

    /// Appends one trimmed cell.  Returns `false`, appending nothing, when
    /// an unforced numeric column meets a non-number: it must become a
    /// dimension first.
    fn push(&mut self, cell: &str) -> bool {
        match self {
            Cells::Dimension(column) if cell.is_empty() => column.codes.push(NULL_CODE),
            Cells::Dimension(column) => column.push(cell),
            Cells::Numbers { values, .. } if cell.is_empty() => values.push(f64::NAN),
            Cells::Numbers {
                values,
                forced,
                saw_value,
            } => match cell.parse::<f64>() {
                Ok(x) => {
                    values.push(x);
                    *saw_value = true;
                }
                Err(_) if *forced => values.push(f64::NAN),
                Err(_) => return false,
            },
        }
        true
    }

    /// Turns a numeric column into a dimension by interning its cells —
    /// column `col` of the first `rows` (already validated) lines of `body`.
    fn demote<'a>(
        &mut self,
        body: &(impl Iterator<Item = (usize, &'a str)> + Clone),
        rows: usize,
        sep: Separator,
        col: usize,
    ) -> Result<()> {
        let Cells::Numbers { values, .. } = self else {
            return Ok(());
        };
        let mut column = Cells::Dimension(Interner::with_capacity(values.capacity()));
        let mut scratch = String::new();
        for (line_no, line) in body.clone().take(rows) {
            split_line(line, sep, line_no, &mut scratch, |i, field| {
                if i == col {
                    column.push(trim_cell(field));
                }
                Ok(())
            })?;
        }
        *self = column;
        Ok(())
    }
}

/// Parses a CSV document (with a header row) into a [`Dataset`].
pub fn read_csv_str(input: &str, options: &CsvOptions) -> Result<Dataset> {
    let sep = Separator::new(options.separator);
    let mut scratch = String::new();
    let mut lines = records(input);
    let (header_no, header) = lines
        .next()
        .ok_or_else(|| DataError::Csv("input is empty".into()))?;
    let mut names = Vec::new();
    split_line(header, sep, header_no, &mut scratch, |_, name| {
        names.push(name.to_owned());
        Ok(())
    })?;
    let rows = estimate_rows(input.len(), lines.clone());
    let mut columns: Vec<Cells> = names
        .iter()
        .map(|name| Cells::new(name, options, rows))
        .collect();
    let body = lines.clone();
    for (row, (line_no, line)) in lines.enumerate() {
        let width = read_row(line, line_no, sep, &mut scratch, &mut columns, row, &body)?;
        if width != names.len() {
            return Err(DataError::Csv(format!(
                "line {line_no} has {width} fields, expected {}",
                names.len()
            )));
        }
    }

    let mut builder = DatasetBuilder::new();
    for (name, cells) in names.iter().zip(columns) {
        builder = match cells {
            Cells::Numbers {
                values,
                forced,
                saw_value,
            } if forced || saw_value => {
                builder.measure_column(name, MeasureColumn::from_values(values))
            }
            Cells::Numbers { values, .. } => builder.dimension_column(
                name,
                DimensionColumn::from_optional_values(values.iter().map(|_| None::<&str>)),
            ),
            Cells::Dimension(column) => builder.dimension_column(name, column.finish()),
        };
    }
    builder.build()
}

/// Rows to reserve per column, without a pass over the whole input: its
/// length over the mean length (newline included) of the first data lines,
/// plus 1/16 headroom.  A column that outgrows the estimate grows as any
/// `Vec` does.
fn estimate_rows<'a>(input_len: usize, body: impl Iterator<Item = (usize, &'a str)>) -> usize {
    const SAMPLE: usize = 32;
    let (lines, bytes) = body.take(SAMPLE).fold((0, 0), |(lines, bytes), (_, line)| {
        (lines + 1, bytes + line.len() + 1)
    });
    if lines == 0 {
        return 0;
    }
    let rows = input_len / bytes.div_ceil(lines);
    rows + rows / 16 + 1
}

/// The non-blank lines of `input`, each with its physical 1-based number.
fn records(input: &str) -> impl Iterator<Item = (usize, &str)> + Clone {
    input
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim().is_empty())
}

/// Splits data row `row` (line `line_no`) and appends each trimmed cell to
/// its column; returns the line's field count.  Fields past the header's
/// width are counted but not stored.  A numeric column that meets a
/// non-number is rebuilt as a dimension from the rows before it in `body`.
fn read_row<'a>(
    line: &str,
    line_no: usize,
    sep: Separator,
    scratch: &mut String,
    columns: &mut [Cells],
    row: usize,
    body: &(impl Iterator<Item = (usize, &'a str)> + Clone),
) -> Result<usize> {
    split_line(line, sep, line_no, scratch, |col, field| {
        let Some(column) = columns.get_mut(col) else {
            return Ok(());
        };
        let cell = trim_cell(field);
        if !column.push(cell) {
            column.demote(body, row, sep, col)?;
            column.push(cell);
        }
        Ok(())
    })
}

/// `field.trim()`, skipped when the first and last bytes are ASCII above
/// the space: a field that starts and ends with such bytes has no
/// whitespace char at either end.
fn trim_cell(field: &str) -> &str {
    let plain = |b: Option<&u8>| b.is_none_or(|&b| b > b' ' && b.is_ascii());
    let bytes = field.as_bytes();
    if plain(bytes.first()) && plain(bytes.last()) {
        field
    } else {
        field.trim()
    }
}

/// Calls `each(index, field)` for every field of `line`, in order, and
/// returns the field count.  A line without `"` is split into borrowed
/// slices (see [`split_plain`]); a line with quotes is unquoted field by
/// field into `scratch`.
fn split_line(
    line: &str,
    sep: Separator,
    line_no: usize,
    scratch: &mut String,
    mut each: impl FnMut(usize, &str) -> Result<()>,
) -> Result<usize> {
    if !line.contains('"') {
        return split_plain(line, sep, each);
    }
    let mut count = 0;
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    scratch.clear();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    scratch.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                scratch.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == sep.ch {
            each(count, scratch)?;
            count += 1;
            scratch.clear();
        } else {
            scratch.push(c);
        }
    }
    if in_quotes {
        return Err(DataError::Csv(
            // xlint: allow(no-alloc-hot-path, error path: the read stops here)
            format!("line {line_no}: unterminated quoted field"),
        ));
    }
    each(count, scratch)?;
    Ok(count + 1)
}

/// The unquoted case of [`split_line`]: one scan over the line's bytes,
/// cutting where the separator's UTF-8 bytes start.  Its first byte is
/// ASCII or a lead byte, so every cut falls on a char boundary.
fn split_plain(
    line: &str,
    sep: Separator,
    mut each: impl FnMut(usize, &str) -> Result<()>,
) -> Result<usize> {
    let bytes = line.as_bytes();
    let (first, rest) = (sep.utf8[0], &sep.utf8[1..sep.len]);
    let (mut count, mut start, mut i) = (0, 0, 0);
    while i < bytes.len() {
        if bytes[i] == first && bytes[i + 1..].starts_with(rest) {
            each(count, &line[start..i])?;
            count += 1;
            i += sep.len;
            start = i;
        } else {
            i += 1;
        }
    }
    each(count, &line[start..])?;
    Ok(count + 1)
}

/// One column as the writer sees it.
enum Field<'d> {
    /// Per-row dictionary codes and each category already escaped.
    Codes(&'d [u32], Vec<String>),
    /// Per-row numbers (NaN is missing).
    Numbers(&'d [f64]),
}

/// Serializes a dataset to CSV (header + rows).
pub fn write_csv_string(data: &Dataset, options: &CsvOptions) -> String {
    let sep = options.separator;
    let mut header = String::new();
    for (i, name) in data.schema().names().into_iter().enumerate() {
        if i > 0 {
            header.push(sep);
        }
        push_field(&mut header, name, sep);
    }
    let mut row_bytes = 0;
    let columns: Vec<Field> = (0..data.n_attributes())
        .map(|col| match data.column(col) {
            Column::Dimension(c) => {
                let escaped: Vec<String> = c
                    .categories()
                    .iter()
                    .map(|category| {
                        let mut field = String::new();
                        push_field(&mut field, category, sep);
                        field
                    })
                    .collect();
                row_bytes += escaped.iter().map(String::len).max().unwrap_or(0) + 1;
                Field::Codes(c.codes(), escaped)
            }
            Column::Measure(c) => {
                // Typical `{}` renderings are at most ~24 bytes; a longer one
                // only costs a reallocation.
                row_bytes += 25;
                Field::Numbers(c.values())
            }
        })
        .collect();
    let mut out = String::with_capacity(header.len() + 1 + data.n_rows() * row_bytes);
    out.push_str(&header);
    out.push('\n');
    write_rows(&mut out, &columns, data.n_rows(), sep);
    out
}

/// Appends `n_rows` CSV rows of `columns` to `out`.
fn write_rows(out: &mut String, columns: &[Field], n_rows: usize, sep: char) {
    // xlint: allow(no-alloc-hot-path, one number buffer per write, reused by every cell)
    let mut number = String::new();
    for row in 0..n_rows {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                out.push(sep);
            }
            match column {
                // A missing code (`NULL_CODE`) is past the dictionary: empty.
                Field::Codes(codes, escaped) => {
                    if let Some(text) = escaped.get(codes[row] as usize) {
                        out.push_str(text);
                    }
                }
                Field::Numbers(values) if values[row].is_nan() => {}
                Field::Numbers(values) => {
                    number.clear();
                    // Writing into a `String` cannot fail.
                    let _ = write!(number, "{}", values[row]);
                    push_field(out, &number, sep);
                }
            }
        }
        out.push('\n');
    }
}

/// Appends `text` as one field: quoted, with inner quotes doubled, when it
/// contains the separator or a quote.
fn push_field(out: &mut String, text: &str, sep: char) {
    if !text.contains(sep) && !text.contains('"') {
        out.push_str(text);
        return;
    }
    out.push('"');
    for c in text.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::schema::AttributeKind;

    const SAMPLE: &str = "Location,Smoking,LungCancer\nA,Yes,3\nA,No,2\nB,No,1\nB,Yes,2\n";

    #[test]
    fn read_infers_kinds() {
        let d = read_csv_str(SAMPLE, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(
            d.schema().attribute_by_name("Location").unwrap().kind,
            AttributeKind::Dimension
        );
        assert_eq!(
            d.schema().attribute_by_name("LungCancer").unwrap().kind,
            AttributeKind::Measure
        );
        assert_eq!(
            Aggregate::Sum
                .eval(&d, "LungCancer", &d.all_rows())
                .unwrap(),
            8.0
        );
    }

    #[test]
    fn force_dimension_overrides_inference() {
        let csv = "Month,Delay\n5,10\n11,20\n";
        let opts = CsvOptions {
            force_dimensions: vec!["Month".into()],
            ..CsvOptions::default()
        };
        let d = read_csv_str(csv, &opts).unwrap();
        assert_eq!(
            d.schema().attribute_by_name("Month").unwrap().kind,
            AttributeKind::Dimension
        );
        assert_eq!(d.cardinality("Month").unwrap(), 2);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let csv = "Name,Score\n\"Smith, John\",1\n\"He said \"\"hi\"\"\",2\n";
        let d = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(d.value(0, "Name").unwrap().to_string(), "Smith, John");
        assert_eq!(d.value(1, "Name").unwrap().to_string(), "He said \"hi\"");
    }

    #[test]
    fn missing_cells_become_null() {
        let csv = "A,B\nx,1\n,2\ny,\n";
        let d = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert!(d.column_by_name("A").unwrap().is_null(1));
        assert!(d.column_by_name("B").unwrap().is_null(2));
        assert_eq!(d.drop_null_rows().n_rows(), 1);
    }

    #[test]
    fn row_width_mismatch_is_error() {
        let csv = "A,B\nx\n";
        assert!(matches!(
            read_csv_str(csv, &CsvOptions::default()),
            Err(DataError::Csv(_))
        ));
    }

    #[test]
    fn width_error_names_the_physical_line() {
        let csv = "A,B\n\nx,1\n   \ny\n";
        let Err(DataError::Csv(message)) = read_csv_str(csv, &CsvOptions::default()) else {
            panic!("a short row must be a CSV error");
        };
        assert!(message.starts_with("line 5 "), "{message}");
    }

    #[test]
    fn unterminated_quote_is_error() {
        for csv in [
            "A,B\n\"abc,def\n",
            "A,B\nx,\"two\nlines\"\n",
            "\"A,B\n1,2\n",
        ] {
            let Err(DataError::Csv(message)) = read_csv_str(csv, &CsvOptions::default()) else {
                panic!("{csv:?} must be a CSV error");
            };
            assert!(message.contains("unterminated quoted field"), "{message}");
        }
        let Err(DataError::Csv(message)) = read_csv_str("A\n\n\"x\n", &CsvOptions::default())
        else {
            panic!("an open quote must be a CSV error");
        };
        assert!(message.starts_with("line 3:"), "{message}");
    }

    #[test]
    fn empty_input_is_error() {
        assert!(read_csv_str("", &CsvOptions::default()).is_err());
    }

    #[test]
    fn round_trip() {
        let d = read_csv_str(SAMPLE, &CsvOptions::default()).unwrap();
        let csv = write_csv_string(&d, &CsvOptions::default());
        let d2 = read_csv_str(&csv, &CsvOptions::default()).unwrap();
        assert_eq!(d2.n_rows(), d.n_rows());
        assert_eq!(d2.schema().names(), d.schema().names());
        assert_eq!(
            d2.value(3, "Smoking").unwrap().to_string(),
            d.value(3, "Smoking").unwrap().to_string()
        );
    }
}
