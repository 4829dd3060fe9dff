//! Sharding one experiment spec across workers and merging the row sets.
//!
//! Splits a Fig. 12b spec into three shards, runs each shard separately
//! (in process here — `gradpim-cli --shards 3` does the same thing with
//! real worker processes), merges the per-shard reports back into figure
//! order, and checks the merged report is byte-identical to the
//! unsharded run.
//!
//! ```sh
//! cargo run --release --example sharded_sweep
//! ```

use gradpim::engine::dist::{merge_shard_reports, run_sharded, InProcess, ShardOptions};
use gradpim::engine::report::{to_json, to_table};
use gradpim::engine::serialize::{Experiment, ExperimentSpec};
use gradpim::engine::Engine;

fn main() {
    let spec = ExperimentSpec::new(
        Experiment::Fig12b,
        Some((4 * 1024, 32 * 1024)), // quick traffic caps
        Some(vec!["MLP1".into(), "ResNet18".into()]),
    );
    let engine = Engine::from_env_with(&mut |m: &str| eprintln!("sharded_sweep: {m}"));

    // The reference: the whole spec in one run.
    let whole = spec.run(&engine).expect("unsharded run");

    // Manual split → run-each → merge, the coordinator's own steps.
    let layout = spec.layout().expect("merge plan");
    let subs = spec.shard_specs(3);
    println!(
        "split `{}` into {} shards over {} row groups:",
        spec.experiment,
        subs.len(),
        layout.len()
    );
    let shard_reports: Vec<_> = subs
        .iter()
        .map(|sub| {
            let report = sub.run(&engine).expect("shard run");
            let shard = sub.shard.expect("sub-specs carry a shard selector");
            println!("  shard {shard}: {} row(s)", report.rows.len());
            report
        })
        .collect();
    let merged = merge_shard_reports(&layout, &shard_reports).expect("merge");
    assert_eq!(
        to_json(&merged),
        to_json(&whole),
        "merged shards must be byte-identical to the unsharded run"
    );

    // The one-call form, retries included (this is what `gradpim-cli
    // --shards N` drives with real worker processes).
    let via_coordinator =
        run_sharded(&spec, ShardOptions::new(3), &InProcess, &engine).expect("coordinated run");
    assert_eq!(via_coordinator, merged);

    println!("\nmerged report (bit-identical to the unsharded run):");
    print!("{}", to_table(&merged));
}
