//! `fig13-warm`: the paper's Fig. 13 per-layer scatter served from a warm
//! on-disk store, the way a `gradpim-cli fig13 --cache DIR` invocation
//! serves it: open the store, `Engine::with_cache`, `ExperimentSpec::run`,
//! `report::to_json`. Every row group is a cache hit, so the cache read
//! path, the schema re-check and report assembly are the whole cost.
//!
//! Set-up fills a fresh store with a cold 1-thread run, which writes
//! deterministically and gets phase hits within the run.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gradpim_engine::cache::DiskCache;
use gradpim_engine::report;
use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_engine::Engine;

use crate::check::{check_report, Expected};
use crate::cpus::Cpus;
use crate::harness::{self, digest_of, med, ratio, timed, typical_of, Plan, Run};
use crate::metrics::{Outcome, Values, PER_LAYER};
use crate::spans;
use crate::store::{ScratchDir, Timed, Totals};

/// Cold fills behind the median `setup_s`.
const SETUP_REPS: usize = 4;
/// Traced passes whose spans go into the written trace (a pass records
/// ~180 spans, and a run makes thousands of passes).
const TRACE_PASSES: usize = 3;

/// The seeded Fig. 13 spec over `nets` (`None`: every network).
pub fn spec(seed: u64, nets: Option<Vec<String>>) -> ExperimentSpec {
    ExperimentSpec::new(Experiment::Fig13, harness::quick_caps(seed), nets)
}

/// A filled store: its directory, the cold report, and the fill's totals.
struct Fill {
    dir: ScratchDir,
    cold: Result<String, String>,
    totals: Option<Totals>,
}

/// A fresh store filled by a cold 1-thread run of `spec`.
fn fill(spec: &ExperimentSpec, dir: ScratchDir) -> Fill {
    let store = match DiskCache::open(dir.path()) {
        Ok(s) => Arc::new(Timed::new(s)),
        Err(e) => return Fill { dir, cold: Err(e), totals: None },
    };
    let engine = Engine::sequential().with_cache(store.clone());
    let cold = spec.run(&engine).map(|r| report::to_json(&r)).map_err(|e| e.to_string());
    Fill { dir, cold, totals: Some(store.totals()) }
}

struct Pass {
    secs: f64,
    /// The served report equals the cold one byte for byte.
    same: bool,
    /// The store's totals over the pass (`None`: it did not open).
    totals: Option<Totals>,
    open_s: f64,
    run_s: f64,
    json_s: f64,
    /// `cache.lookup` spans the program recorded (traced passes only).
    span_lookups: u64,
}

impl Pass {
    /// Served in full from the store: the report equals the cold one, and
    /// the store saw one lookup per row group (`groups`), each a hit, and
    /// no write. A group the engine rejects on load (a stale schema or row
    /// count) is simulated again and written back, and a run that bypasses
    /// the store looks nothing up, so neither passes.
    fn served(&self, groups: usize) -> bool {
        self.same
            && self
                .totals
                .is_some_and(|t| t.gets == groups as u64 && t.misses() == 0 && t.puts == 0)
    }

    /// A total of the pass's store, 0 if it did not open.
    fn total(&self, pick: impl Fn(&Totals) -> u64) -> f64 {
        self.totals.as_ref().map_or(0.0, |t| pick(t) as f64)
    }
}

/// One served pass over the store at `dir`, compared with `cold`.
fn pass(spec: &ExperimentSpec, dir: &Path, cold: &str) -> Pass {
    let t0 = Instant::now();
    let pass_span = gradpim_obs::span("bench.pass", "bench");
    let (store, open_s) = timed(|| {
        let _open = gradpim_obs::span("bench.cache.open", "bench");
        DiskCache::open(dir)
    });
    let store = match store {
        Ok(s) => Arc::new(Timed::new(s)),
        Err(e) => {
            eprintln!("perfbench: fig13 pass failed: {e}");
            let secs = t0.elapsed().as_secs_f64();
            return Pass {
                secs,
                same: false,
                totals: None,
                open_s,
                run_s: 0.0,
                json_s: 0.0,
                span_lookups: 0,
            };
        }
    };
    let engine = Engine::sequential().with_cache(store.clone());
    let (report, run_s) = timed(|| {
        let _run = gradpim_obs::span("bench.spec.run", "bench");
        spec.run(&engine)
    });
    let (doc, json_s) = timed(|| {
        let _json = gradpim_obs::span("bench.report.to_json", "bench");
        report.map(|r| report::to_json(&r))
    });
    drop(pass_span);
    let secs = t0.elapsed().as_secs_f64();
    Pass {
        secs,
        same: doc.is_ok_and(|d| d == cold),
        totals: Some(store.totals()),
        open_s,
        run_s,
        json_s,
        span_lookups: 0,
    }
}

pub fn run(plan: &Plan) -> Result<Run, String> {
    run_over(plan, None)
}

/// The workload over `nets` (`None`: every network, 176 row groups).
pub fn run_over(plan: &Plan, nets: Option<Vec<String>>) -> Result<Run, String> {
    let spec = spec(plan.seed, nets);
    let cpus = Cpus::each();
    let mut fills = Vec::new();
    let (kept_fill, setup_s) = harness::median_setup(&cpus, SETUP_REPS, || {
        static STORES: AtomicUsize = AtomicUsize::new(0);
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let dir =
            ScratchDir::fresh(plan.out_dir.join(format!("fig13-store.{}.{n}", std::process::id())));
        let f = fill(&spec, dir);
        fills.push((f.cold.clone(), f.totals));
        f
    });
    let cold = kept_fill.cold.clone().map_err(|e| format!("fig13 cold fill failed: {e}"))?;
    let expected = Expected::of(&spec)?;
    // The cold report must pass the report checks, and every fill must
    // write the same report and the same number of entries.
    let cold_ok = check_report(&cold, &expected, None).ok()
        && fills.iter().all(|(c, t)| {
            c.as_deref() == Ok(cold.as_str()) && t.map(|t| t.puts) == fills[0].1.map(|t| t.puts)
        });

    let mut kept = Vec::new();
    let mut traced_passes = 0;
    let passes = harness::run_split(&cpus, plan.budget, plan.trace, |traced| {
        let mut p = pass(&spec, kept_fill.dir.path(), &cold);
        if traced {
            let recorded = gradpim_obs::drain_spans();
            p.span_lookups = spans::analyze(&recorded).lookups;
            traced_passes += 1;
            if traced_passes <= TRACE_PASSES {
                kept.extend(recorded);
            }
        }
        p
    });

    let attempted = passes.all().count() as u64;
    let mut failed = passes.all().filter(|p| !cold_ok || !p.served(expected.groups)).count() as u64;

    let wall_s = typical_of(&passes.untraced, |p| p.secs);
    let (values, trace_file) = if plan.trace {
        let (u, t) = (&passes.untraced, &passes.traced);
        // The program's own counters and spans must agree with the wrapper:
        // every lookup a hit, one `cache.lookup` span per lookup.
        let counters = gradpim_obs::registry().counters;
        let hits: f64 = t.iter().map(|(_, p)| p.total(|t| t.hits)).sum();
        if counters.get("cache.hit").copied().unwrap_or(0) as f64 != hits
            || counters.get("cache.miss").copied().unwrap_or(0) != 0
            || t.iter().any(|(_, p)| p.span_lookups as f64 != p.total(|t| t.gets))
        {
            failed += 1;
        }
        let mut v = Values::zeros(PER_LAYER);
        v.set(
            "engine.cache.get_us",
            typical_of(u, |p| ratio(p.total(|t| t.get_ns), p.total(|t| t.gets))) / 1e3,
        );
        v.set("engine.cache.lookups", typical_of(u, |p| p.total(|t| t.gets)));
        v.set(
            "engine.cache.hit_frac",
            typical_of(u, |p| ratio(p.total(|t| t.hits), p.total(|t| t.gets))),
        );
        v.set("engine.cache.bytes_read", typical_of(u, |p| p.total(|t| t.bytes_read)));
        v.set("engine.cache.open_us", typical_of(u, |p| p.open_s) * 1e6);
        let fill_totals: Vec<Totals> = fills.iter().filter_map(|(_, t)| *t).collect();
        v.set(
            "engine.cache.put_us",
            med(&fill_totals, |t| ratio(t.put_ns as f64, t.puts as f64)) / 1e3,
        );
        v.set("engine.cache.puts", med(&fill_totals, |t| t.puts as f64));
        v.set(
            "engine.serialize.run_us",
            typical_of(u, |p| p.run_s - p.total(|t| t.get_ns) / 1e9) * 1e6,
        );
        v.set("engine.report.to_json_us", typical_of(u, |p| p.json_s) * 1e6);
        v.set("obs.trace_overhead", ratio(typical_of(t, |p| p.secs), wall_s));
        let name = format!("fig13-warm.seed{}.trace.json", plan.seed);
        (v, Some(harness::write_trace(&plan.out_dir, &name, &kept)?))
    } else {
        (harness::end_to_end(wall_s, setup_s), None)
    };
    Ok(Run {
        outcome: Outcome { attempted, failed, values },
        digest: digest_of(&cold),
        passes: attempted as usize,
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_engine::cache::CacheBackend;
    use std::path::PathBuf;
    use std::time::Duration;

    fn small_plan(seed: u64, trace: bool) -> Plan {
        Plan { seed, budget: Duration::from_millis(50), trace, out_dir: crate::tests::out_dir() }
    }

    fn one_net() -> Option<Vec<String>> {
        Some(vec!["MLP1".into()])
    }

    #[test]
    fn warm_passes_hit_every_group() {
        let _serial = crate::tests::serial();
        let run = run_over(&small_plan(5, true), one_net()).unwrap();
        assert_eq!(run.outcome.failed, 0, "{run:?}");
        let v = &run.outcome.values;
        assert_eq!(v.get("engine.cache.hit_frac"), Some(1.0));
        assert!(v.get("engine.cache.lookups").unwrap() > 0.0);
        assert!(v.get("engine.cache.puts").unwrap() > v.get("engine.cache.lookups").unwrap());
    }

    /// A store filled for `spec`, its cold report, and the key and path of
    /// one stored row group.
    fn filled(spec: &ExperimentSpec, name: &str) -> (Fill, String, String, PathBuf) {
        let dir = ScratchDir::fresh(
            crate::tests::out_dir().join(format!("{name}.{}", std::process::id())),
        );
        let f = fill(spec, dir);
        let cold = f.cold.clone().unwrap();
        // An entry file is a magic line, the key's length, the key, then
        // the value; row-group keys hold no newline.
        let (key, path) = std::fs::read_dir(f.dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .find_map(|p| {
                let body = std::fs::read_to_string(&p).ok()?;
                let key = body.split('\n').nth(2).filter(|k| k.starts_with("group/v1/"))?;
                Some((key.to_string(), p))
            })
            .expect("a stored row group");
        (f, cold, key, path)
    }

    #[test]
    fn a_forced_cache_miss_fails_the_pass() {
        let _serial = crate::tests::serial();
        let spec = spec(6, one_net());
        let groups = Expected::of(&spec).unwrap().groups;
        let (f, cold, _, group) = filled(&spec, "forced-miss");
        assert!(pass(&spec, f.dir.path(), &cold).served(groups));
        // Corrupt one stored row group: the next pass misses it, simulates
        // the group again, and serves the same bytes — still a failed pass.
        std::fs::write(&group, "corrupted").unwrap();
        let missed = pass(&spec, f.dir.path(), &cold);
        assert!(missed.same);
        assert!(!missed.served(groups), "the corrupted group must count as a miss");
    }

    #[test]
    fn a_group_with_a_wrong_row_count_fails_the_pass() {
        let _serial = crate::tests::serial();
        let spec = spec(8, one_net());
        let groups = Expected::of(&spec).unwrap().groups;
        let (f, cold, key, _) = filled(&spec, "wrong-rows");
        // Store the group with one row too many: the store still returns
        // it (a raw hit), the engine rejects it on load, simulates the
        // group again and serves the same bytes — still a failed pass.
        let store = DiskCache::open(f.dir.path()).unwrap();
        let mut group = report::from_json(&store.get(&key).unwrap()).unwrap();
        group.push(group.rows[0].clone());
        store.put(&key, &report::to_json(&group));
        let rejected = pass(&spec, f.dir.path(), &cold);
        assert!(rejected.same);
        assert_eq!(rejected.totals.map(|t| t.misses()), Some(0), "every raw get hits");
        assert!(!rejected.served(groups), "a rejected group must fail the pass");
        // The engine wrote the group back, so the pass after it is served.
        assert!(pass(&spec, f.dir.path(), &cold).served(groups));
    }

    #[test]
    fn seeds_move_the_digest_not_the_metric_names() {
        let _serial = crate::tests::serial();
        let a = run_over(&small_plan(1, false), one_net()).unwrap();
        let b = run_over(&small_plan(2, false), one_net()).unwrap();
        assert_ne!(a.digest, b.digest);
        let names =
            |r: &Run| crate::metrics::result_line(&r.outcome, crate::metrics::END_TO_END).is_ok();
        assert!(names(&a) && names(&b));
    }
}
