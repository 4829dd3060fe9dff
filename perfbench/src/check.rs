//! Output checks for report-producing workloads: what makes a sweep point
//! or a served pass count as failed.

use gradpim_engine::report;
use gradpim_engine::serialize::ExperimentSpec;
use gradpim_sim::{Report, Schema, Value};

/// What a spec's report must look like: its layout's row groups and row
/// count, and its schema, worked out once at set-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub groups: usize,
    pub rows: usize,
    pub schema: Schema,
}

impl Expected {
    pub fn of(spec: &ExperimentSpec) -> Result<Self, String> {
        let layout = spec.layout().map_err(|e| e.to_string())?;
        Ok(Self { groups: layout.len(), rows: layout.iter().sum(), schema: spec.schema() })
    }
}

/// The verdict on one report document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Rows the spec's layout says the report must have.
    pub expected_rows: usize,
    /// Whole-document checks held: the document re-parses to itself byte
    /// for byte, carries the spec's schema and row count, and equals the
    /// reference document when one is given.
    pub doc_ok: bool,
    /// Rows holding a non-finite float or a non-positive `speedup_pct`.
    pub bad_rows: usize,
}

impl Verdict {
    /// Failed sweep points: every row when the document as a whole is
    /// wrong, otherwise the bad rows.
    pub fn failed_rows(&self) -> usize {
        if self.doc_ok {
            self.bad_rows.min(self.expected_rows)
        } else {
            self.expected_rows
        }
    }

    pub fn ok(&self) -> bool {
        self.failed_rows() == 0
    }
}

/// Checks `doc`, a `report::to_json` document that should look like
/// `expected` (and equal `reference`, when given).
pub fn check_report(doc: &str, expected: &Expected, reference: Option<&str>) -> Verdict {
    let expected_rows = expected.rows;
    let Ok(parsed) = report::from_json(doc) else {
        return Verdict { expected_rows, doc_ok: false, bad_rows: expected_rows };
    };
    let doc_ok = report::to_json(&parsed) == doc
        && parsed.schema == expected.schema
        && parsed.rows.len() == expected_rows
        && reference.is_none_or(|r| r == doc);
    Verdict { expected_rows, doc_ok, bad_rows: bad_rows(&parsed) }
}

fn bad_rows(report: &Report) -> usize {
    let speedup = report.schema.columns.iter().position(|c| c.name == "speedup_pct");
    report
        .rows
        .iter()
        .filter(|row| {
            let finite = row.values.iter().all(|v| !matches!(v, Value::Float(x) if !x.is_finite()));
            let positive = speedup
                .and_then(|i| row.values.get(i))
                .is_none_or(|v| matches!(v, Value::Float(x) if *x > 0.0));
            !(finite && positive)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_engine::serialize::Experiment;
    use gradpim_engine::Engine;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec::new(Experiment::Fig12b, Some((256, 2048)), Some(vec!["MLP1".into()]))
    }

    #[test]
    fn a_real_report_passes() {
        let _serial = crate::tests::serial();
        let spec = small_spec();
        let doc = report::to_json(&spec.run(&Engine::sequential()).unwrap());
        let v = check_report(&doc, &Expected::of(&spec).unwrap(), Some(&doc));
        assert_eq!(v, Verdict { expected_rows: 3, doc_ok: true, bad_rows: 0 });
        assert!(v.ok());
    }

    #[test]
    fn one_flipped_report_byte_fails_every_point() {
        let _serial = crate::tests::serial();
        let spec = small_spec();
        let doc = report::to_json(&spec.run(&Engine::sequential()).unwrap());
        // Flip one digit of the last float: the document still parses and
        // round-trips, so only the comparison with the reference catches it.
        let at = doc.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let mut bytes = doc.clone().into_bytes();
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        let flipped = String::from_utf8(bytes).unwrap();
        let expected = Expected::of(&spec).unwrap();
        let v = check_report(&flipped, &expected, Some(&doc));
        assert!(!v.ok());
        assert_eq!(v.failed_rows(), 3);
        // A flipped structural byte fails even without a reference.
        let broken = doc.replacen('[', "{", 1);
        assert_eq!(check_report(&broken, &expected, None).failed_rows(), 3);
    }

    #[test]
    fn non_finite_or_non_positive_speedups_fail_their_row() {
        let _serial = crate::tests::serial();
        let spec = small_spec();
        let mut report = spec.run(&Engine::sequential()).unwrap();
        let col = report.schema.columns.iter().position(|c| c.name == "speedup_pct").unwrap();
        report.rows[0].values[col] = Value::Float(-1.0);
        report.rows[2].values[col] = Value::Float(f64::INFINITY);
        let doc = report::to_json(&report);
        let v = check_report(&doc, &Expected::of(&spec).unwrap(), None);
        assert!(v.doc_ok);
        assert_eq!(v.failed_rows(), 2);
    }
}
