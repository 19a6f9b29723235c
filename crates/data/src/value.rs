//! Scalar values stored in a multi-dimensional dataset.

use std::fmt;

/// A single cell of a multi-dimensional dataset.
///
/// Dimensions hold [`Value::Category`] entries, measures hold
/// [`Value::Number`] entries, and missing cells are [`Value::Null`]
/// (the paper removes missing values during preprocessing; we keep the
/// variant so loaders can represent data before cleaning).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// Categorical value (dimension).
    Category(String),
    /// Numerical value (measure).
    Number(f64),
}

impl Value {
    /// Returns `true` when the value is missing.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Category(s) => write!(f, "{s}"),
            Value::Number(x) => write!(f, "{x}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Category(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Category(s)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Number(x as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from("a"), Value::Category("a".into()));
        assert_eq!(Value::from(2.5), Value::Number(2.5));
        assert_eq!(Value::from(3i64), Value::Number(3.0));
    }

    #[test]
    fn accessors() {
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("Yes").to_string(), "Yes");
        assert_eq!(Value::from(4.5).to_string(), "4.5");
    }
}
