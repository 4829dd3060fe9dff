//! CSV/JSON emitters and a JSON parser for [`Report`]s — the machine-
//! readable side of the sweep pipeline.
//!
//! The workspace is offline (no serde), so both formats are hand-rolled
//! and deterministic:
//!
//! * [`to_csv`] — RFC 4180: header row from the schema, one line per
//!   [`SweepRow`], fields quoted (and inner quotes doubled) only when they
//!   contain a comma, quote, or newline.
//! * [`to_json`] / [`from_json`] — a self-describing document carrying the
//!   schema (column names + kinds) and the rows as arrays. Floats are
//!   emitted with Rust's shortest-round-trip formatting and integers keep
//!   all 64 bits, so **emit → parse → emit is byte-identical** and parsed
//!   cells compare equal to the originals bit for bit. Non-finite floats
//!   (never produced by the simulator, but representable) are encoded as
//!   the JSON strings `"NaN"` / `"inf"` / `"-inf"`.
//! * [`to_table`] — the human-facing aligned table the CLI prints.
//!
//! The same JSON infrastructure backs the sweep-spec serialization in
//! [`crate::serialize`].

use std::fmt;

use gradpim_sim::report::{Column, Kind, Report, Schema, SweepRow, Value};

use crate::json::{self, Json};

/// Where and why parsing a JSON document failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected. For
    /// structural errors found after lexing (e.g. a schema/row mismatch)
    /// this is the end of the region that was being interpreted.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

fn structural(message: impl Into<String>) -> ParseError {
    ParseError { offset: 0, message: message.into() }
}

/// Emits `report` as RFC 4180 CSV: a header row of column names, then one
/// line per row, `\n`-terminated.
pub fn to_csv(report: &Report) -> String {
    let mut out = String::new();
    let header: Vec<String> = report.schema.columns.iter().map(|c| c.name.clone()).collect();
    for line in std::iter::once(header)
        .chain(report.rows.iter().map(|r| r.values.iter().map(cell_text).collect()))
    {
        for (i, field) in line.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            csv_field_into(&mut out, field);
        }
        out.push('\n');
    }
    out
}

/// The canonical text of one cell, shared by CSV and the non-finite float
/// encoding of JSON: shortest-round-trip `Display` for numbers (`NaN`,
/// `inf`, `-inf` for non-finite floats), the string itself for strings.
fn cell_text(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => x.to_string(),
    }
}

/// Appends `field` to `out`, quoting per RFC 4180 when it contains a
/// comma, quote, CR, or LF (inner quotes doubled).
fn csv_field_into(out: &mut String, field: &str) {
    if field.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Emits `report` as the self-describing JSON document parsed back by
/// [`from_json`]. Deterministic: the same report always produces the same
/// bytes, and parsing then re-emitting any emitted document is a byte
/// no-op.
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"schema\": [");
    for (i, col) in report.schema.columns.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        json::escape_into(&mut out, &col.name);
        out.push_str(", \"kind\": ");
        json::escape_into(&mut out, col.kind.name());
        out.push('}');
    }
    out.push_str(if report.schema.columns.is_empty() { "],\n" } else { "\n  ],\n" });
    out.push_str("  \"rows\": [");
    for (i, row) in report.rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    [");
        for (j, value) in row.values.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            value_into(&mut out, value);
        }
        out.push(']');
    }
    out.push_str(if report.rows.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

fn value_into(out: &mut String, value: &Value) {
    match value {
        Value::Str(s) => json::escape_into(out, s),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) if x.is_finite() => out.push_str(&x.to_string()),
        // JSON has no NaN/Infinity literals; the schema kind disambiguates
        // these strings on the way back in.
        Value::Float(x) => json::escape_into(out, &x.to_string()),
    }
}

/// Parses a [`to_json`] document back into a [`Report`].
///
/// # Errors
///
/// A [`ParseError`] on malformed JSON, an unknown document shape, an
/// unknown column kind, or a row that does not match the schema.
pub fn from_json(input: &str) -> Result<Report, ParseError> {
    let doc = json::parse(input)?;
    let Json::Obj(members) = &doc else {
        return Err(structural(format!("expected a report object, got {}", doc.type_name())));
    };
    for (key, _) in members {
        if key != "schema" && key != "rows" {
            return Err(structural(format!("unknown report key `{key}`")));
        }
    }
    let schema_json = doc.get("schema").ok_or_else(|| structural("report is missing `schema`"))?;
    let rows_json = doc.get("rows").ok_or_else(|| structural("report is missing `rows`"))?;

    let Json::Arr(cols) = schema_json else {
        return Err(structural(format!(
            "`schema` must be an array, got {}",
            schema_json.type_name()
        )));
    };
    let mut columns = Vec::with_capacity(cols.len());
    for col in cols {
        let Some(Json::Str(name)) = col.get("name") else {
            return Err(structural("schema entry is missing a string `name`"));
        };
        let Some(Json::Str(kind)) = col.get("kind") else {
            return Err(structural(format!("schema column `{name}` is missing a string `kind`")));
        };
        let kind = Kind::parse(kind).ok_or_else(|| {
            structural(format!("schema column `{name}` has unknown kind `{kind}`"))
        })?;
        columns.push(Column { name: name.clone(), kind });
    }
    let schema = Schema { columns };

    let Json::Arr(rows) = rows_json else {
        return Err(structural(format!("`rows` must be an array, got {}", rows_json.type_name())));
    };
    let mut report = Report::new(schema);
    for (i, row) in rows.iter().enumerate() {
        let Json::Arr(cells) = row else {
            return Err(structural(format!("row {i} must be an array, got {}", row.type_name())));
        };
        if cells.len() != report.schema.columns.len() {
            return Err(structural(format!(
                "row {i} has {} cells, schema has {} columns",
                cells.len(),
                report.schema.columns.len()
            )));
        }
        let mut values = Vec::with_capacity(cells.len());
        for (cell, col) in cells.iter().zip(&report.schema.columns) {
            values.push(parse_cell(cell, col, i)?);
        }
        report.rows.push(SweepRow { values });
    }
    Ok(report)
}

fn parse_cell(cell: &Json, col: &Column, row: usize) -> Result<Value, ParseError> {
    let mismatch = || {
        structural(format!(
            "row {row}, column `{}`: expected a {} cell, got {}",
            col.name,
            col.kind,
            cell.type_name()
        ))
    };
    match (col.kind, cell) {
        (Kind::Str, Json::Str(s)) => Ok(Value::Str(s.clone())),
        (Kind::Int, Json::Num(raw)) => raw.parse::<i64>().map(Value::Int).map_err(|_| {
            structural(format!("row {row}, column `{}`: `{raw}` is not a 64-bit integer", col.name))
        }),
        (Kind::Float, Json::Num(raw)) => raw.parse::<f64>().map(Value::Float).map_err(|_| {
            structural(format!("row {row}, column `{}`: `{raw}` is not a float", col.name))
        }),
        // The emitter's encoding for non-finite floats.
        (Kind::Float, Json::Str(s)) => match s.as_str() {
            "NaN" => Ok(Value::Float(f64::NAN)),
            "inf" => Ok(Value::Float(f64::INFINITY)),
            "-inf" => Ok(Value::Float(f64::NEG_INFINITY)),
            _ => Err(mismatch()),
        },
        _ => Err(mismatch()),
    }
}

/// Renders `report` as an aligned, human-readable table: left-aligned
/// string columns, right-aligned numeric columns, floats shown to three
/// decimals (trailing zeros trimmed). For exact values use [`to_csv`] or
/// [`to_json`].
pub fn to_table(report: &Report) -> String {
    let headers: Vec<&str> = report.schema.columns.iter().map(|c| c.name.as_str()).collect();
    let cells: Vec<Vec<String>> =
        report.rows.iter().map(|r| r.values.iter().map(table_cell_text).collect()).collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let emit_line = |out: &mut String, cells: &[&str]| {
        for (i, (cell, &w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = w.saturating_sub(cell.chars().count());
            // Numbers read best right-aligned; strings left-aligned.
            let right = !matches!(report.schema.columns[i].kind, Kind::Str);
            if right {
                out.extend(std::iter::repeat_n(' ', pad));
                out.push_str(cell);
            } else {
                out.push_str(cell);
                if i + 1 < cells.len() {
                    out.extend(std::iter::repeat_n(' ', pad));
                }
            }
        }
        out.push('\n');
    };
    emit_line(&mut out, &headers);
    for row in &cells {
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        emit_line(&mut out, &refs);
    }
    out
}

/// Table rendering of one cell: floats to three decimals with trailing
/// zeros (and a bare trailing point) trimmed.
fn table_cell_text(value: &Value) -> String {
    match value {
        Value::Float(x) if x.is_finite() => {
            let s = format!("{x:.3}");
            let s = s.trim_end_matches('0').trim_end_matches('.');
            if s.is_empty() || s == "-" {
                "0".to_string()
            } else {
                s.to_string()
            }
        }
        v => cell_text(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_sim::report::Kind;

    fn sample() -> Report {
        let mut r = Report::new(Schema::new([
            ("network", Kind::Str),
            ("batch", Kind::Int),
            ("speedup_pct", Kind::Float),
        ]));
        r.push(SweepRow::new(["MLP".into(), 16usize.into(), 142.53125.into()]));
        r.push(SweepRow::new(["ResNet18".into(), 64usize.into(), 118.0.into()]));
        r
    }

    #[test]
    fn csv_golden() {
        assert_eq!(
            to_csv(&sample()),
            "network,batch,speedup_pct\n\
             MLP,16,142.53125\n\
             ResNet18,64,118\n"
        );
    }

    #[test]
    fn csv_escapes_commas_quotes_and_newlines() {
        let mut r = Report::new(Schema::new([("name", Kind::Str), ("v", Kind::Int)]));
        r.push(SweepRow::new(["plain".into(), 1usize.into()]));
        r.push(SweepRow::new(["with,comma".into(), 2usize.into()]));
        r.push(SweepRow::new(["say \"hi\"".into(), 3usize.into()]));
        r.push(SweepRow::new(["two\nlines".into(), 4usize.into()]));
        assert_eq!(
            to_csv(&r),
            "name,v\n\
             plain,1\n\
             \"with,comma\",2\n\
             \"say \"\"hi\"\"\",3\n\
             \"two\nlines\",4\n"
        );
    }

    #[test]
    fn json_golden() {
        assert_eq!(
            to_json(&sample()),
            "{\n  \"schema\": [\n    {\"name\": \"network\", \"kind\": \"str\"},\n    \
             {\"name\": \"batch\", \"kind\": \"int\"},\n    \
             {\"name\": \"speedup_pct\", \"kind\": \"float\"}\n  ],\n  \
             \"rows\": [\n    [\"MLP\", 16, 142.53125],\n    [\"ResNet18\", 64, 118]\n  ]\n}\n"
        );
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let doc = to_json(&sample());
        let parsed = from_json(&doc).unwrap();
        assert_eq!(parsed, sample());
        assert_eq!(to_json(&parsed), doc);
    }

    #[test]
    fn json_round_trips_extreme_and_nonfinite_values() {
        let mut r = Report::new(Schema::new([("i", Kind::Int), ("x", Kind::Float)]));
        r.push(SweepRow::new([i64::MAX.into(), Value::Float(f64::MIN_POSITIVE)]));
        r.push(SweepRow::new([i64::MIN.into(), Value::Float(-0.0)]));
        r.push(SweepRow::new([0i64.into(), Value::Float(f64::NAN)]));
        r.push(SweepRow::new([1i64.into(), Value::Float(f64::INFINITY)]));
        r.push(SweepRow::new([2i64.into(), Value::Float(f64::NEG_INFINITY)]));
        let doc = to_json(&r);
        let parsed = from_json(&doc).unwrap();
        // Byte identity covers the NaN row, which Value's PartialEq cannot.
        assert_eq!(to_json(&parsed), doc);
        assert_eq!(parsed.rows[0], r.rows[0]);
        assert_eq!(parsed.rows[1].values[0], Value::Int(i64::MIN));
        assert_eq!(
            parsed.rows[1].values[1].to_string().len(),
            2,
            "-0 must survive as negative zero"
        );
        assert!(matches!(parsed.rows[2].values[1], Value::Float(x) if x.is_nan()));
    }

    #[test]
    fn empty_report_round_trips() {
        let r = Report::new(Schema { columns: Vec::new() });
        let doc = to_json(&r);
        assert_eq!(from_json(&doc).unwrap(), r);
        assert_eq!(to_json(&from_json(&doc).unwrap()), doc);
    }

    #[test]
    fn from_json_rejects_shape_errors() {
        for (doc, what) in [
            ("[1]", "expected a report object"),
            ("{\"rows\": []}", "missing `schema`"),
            ("{\"schema\": []}", "missing `rows`"),
            ("{\"schema\": [], \"rows\": [], \"extra\": 0}", "unknown report key"),
            ("{\"schema\": [{\"name\": \"a\", \"kind\": \"bool\"}], \"rows\": []}", "unknown kind"),
            (
                "{\"schema\": [{\"name\": \"a\", \"kind\": \"int\"}], \"rows\": [[1, 2]]}",
                "row 0 has 2 cells",
            ),
            (
                "{\"schema\": [{\"name\": \"a\", \"kind\": \"int\"}], \"rows\": [[1.5]]}",
                "not a 64-bit integer",
            ),
            (
                "{\"schema\": [{\"name\": \"a\", \"kind\": \"str\"}], \"rows\": [[1]]}",
                "expected a str cell",
            ),
        ] {
            let err = from_json(doc).unwrap_err();
            assert!(err.message.contains(what), "{doc}: got `{err}`, wanted `{what}`");
        }
    }

    #[test]
    fn table_aligns_and_trims() {
        let t = to_table(&sample());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "network   batch  speedup_pct");
        assert_eq!(lines[1], "MLP          16      142.531");
        assert_eq!(lines[2], "ResNet18     64          118");
    }
}
