//! The shared structured-result model for sweeps and experiments.
//!
//! Every sweep family produces strongly-typed points ([`crate::sweeps`]);
//! this module gives them a common tabular form so results can leave the
//! process as data instead of pretty-printed text: a [`Report`] is a
//! [`Schema`] (named, typed columns) plus [`SweepRow`]s whose cells line
//! up with the schema. The `gradpim-engine` crate emits reports as
//! CSV/JSON and parses the JSON back, so a figure's numbers round-trip
//! between processes bit-for-bit.
//!
//! Point types opt in through [`ToRow`].

use std::fmt;

/// One cell of a [`SweepRow`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string cell (network names, memory presets, precision mixes).
    Str(String),
    /// An integer cell (batch sizes, MAC dims, node counts).
    Int(i64),
    /// A floating-point cell (speedups, energies, times).
    Float(f64),
}

impl Value {
    /// The column kind this cell belongs under.
    pub fn kind(&self) -> Kind {
        match self {
            Value::Str(_) => Kind::Str,
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

/// The type of every cell in one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// String cells.
    Str,
    /// Integer cells.
    Int,
    /// Floating-point cells.
    Float,
}

impl Kind {
    /// The schema-file spelling (`str` / `int` / `float`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Str => "str",
            Kind::Int => "int",
            Kind::Float => "float",
        }
    }

    /// Parses the [`Kind::name`] spelling back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "str" => Some(Kind::Str),
            "int" => Some(Kind::Int),
            "float" => Some(Kind::Float),
            _ => None,
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One named, typed column of a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (CSV header cell / JSON schema entry).
    pub name: String,
    /// Cell type of the column.
    pub kind: Kind,
}

/// The column layout of a [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Columns in emit order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// A schema from `(name, kind)` pairs, in order.
    pub fn new<const N: usize>(columns: [(&str, Kind); N]) -> Self {
        Self {
            columns: columns
                .into_iter()
                .map(|(name, kind)| Column { name: name.to_string(), kind })
                .collect(),
        }
    }

    /// Checks that `row` has one cell per column with matching kinds.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn check_row(&self, row: &SweepRow) -> Result<(), String> {
        if row.values.len() != self.columns.len() {
            return Err(format!(
                "row has {} cells, schema has {} columns",
                row.values.len(),
                self.columns.len()
            ));
        }
        for (col, value) in self.columns.iter().zip(&row.values) {
            if value.kind() != col.kind {
                return Err(format!(
                    "column `{}` is {} but the cell is {}",
                    col.name,
                    col.kind,
                    value.kind()
                ));
            }
        }
        Ok(())
    }
}

/// One result record: point parameters plus result stats, as cells aligned
/// with the report's [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Cells in schema order.
    pub values: Vec<Value>,
}

impl SweepRow {
    /// A row from any mix of [`Value`]-convertible cells.
    pub fn new<const N: usize>(values: [Value; N]) -> Self {
        Self { values: values.into() }
    }
}

/// A structured sweep/experiment result table: a schema plus rows in sweep
/// order. The process-boundary form of every figure's numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Column names and types.
    pub schema: Schema,
    /// Result rows, in sweep order.
    pub rows: Vec<SweepRow>,
}

impl Report {
    /// An empty report over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self { schema, rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// If the row does not match the schema (wrong arity or cell kinds) —
    /// a programming error, not an input error.
    pub fn push(&mut self, row: SweepRow) {
        if let Err(e) = self.schema.check_row(&row) {
            panic!("report row does not match schema: {e}");
        }
        self.rows.push(row);
    }
}

/// Conversion of a typed sweep point into a [`SweepRow`] under a fixed,
/// per-type [`Schema`]. Implemented by every sweep family's point type.
pub trait ToRow {
    /// The column layout shared by every row of this type.
    fn schema() -> Schema;

    /// This point as a row matching [`ToRow::schema`].
    fn row(&self) -> SweepRow;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new([("net", Kind::Str), ("batch", Kind::Int), ("speedup", Kind::Float)])
    }

    #[test]
    fn push_accepts_matching_rows() {
        let mut r = Report::new(schema());
        r.push(SweepRow::new(["MLP".into(), 16usize.into(), 142.5.into()]));
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].values[1], Value::Int(16));
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn push_rejects_kind_mismatch() {
        let mut r = Report::new(schema());
        r.push(SweepRow::new(["MLP".into(), Value::Float(16.0), 142.5.into()]));
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn push_rejects_arity_mismatch() {
        let mut r = Report::new(schema());
        r.push(SweepRow::new(["MLP".into(), 16usize.into()]));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [Kind::Str, Kind::Int, Kind::Float] {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("bool"), None);
    }
}
