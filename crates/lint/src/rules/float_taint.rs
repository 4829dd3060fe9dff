//! `float-taint`: a float sum fed by hash-ordered iteration reaches a
//! report row or a merge, so the bytes depend on the hasher's order. Its
//! only source is a hash collection, which `clippy.toml` disallows and no
//! `#[expect]` outside `vendor/` may sanction; ordered collections stay
//! allowed.

#[cfg(test)]
mod tests {
    use super::super::{check, FileCtx, Finding};
    use crate::config::FileMeta;

    fn run(src: &str) -> Vec<Finding> {
        let meta = FileMeta::classify("crates/dram", "crates/dram/src/stats.rs".into());
        check(&FileCtx::new(src), &meta)
    }

    #[test]
    fn hash_fed_merge_accumulation_is_flagged() {
        let src = "#[expect(clippy::disallowed_types, reason = \"x\")]\nstruct S { sum_pj: f64, by_op: HashMap<u32, f64> }\nimpl S {\n #[expect(clippy::disallowed_types, reason = \"x\")]\n fn merge_parts(&mut self, o: &S) {\n  for (_, v) in &o.by_op { self.sum_pj += v; }\n }\n}";
        let d = run(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|f| f.rule == "hash-collection"), "{d:?}");
        assert_eq!((d[0].line, d[1].line), (1, 4));
    }

    #[test]
    fn ordered_iteration_in_merge_is_fine() {
        let src = "struct S { sum_pj: f64, by_op: BTreeMap<u32, f64> }\nimpl S {\n fn merge_parts(&mut self, o: &S) {\n  for (_, v) in &o.by_op { self.sum_pj += v; }\n }\n}";
        assert!(run(src).is_empty());
        let clippy =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../clippy.toml"))
                .expect("clippy.toml");
        assert!(!clippy.contains("path = \"std::collections::BTree"), "ordered maps stay allowed");
    }
}
