//! Harness plumbing shared by every workload: seeded inputs, timers, the
//! timed pass loop, output digests, and host-side readings (peak RSS and a
//! fixed CPU probe).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gradpim_obs::SpanRec;
use gradpim_sim::sweeps::QuickCaps;

use crate::cpus::{typical, Cpus};
use crate::metrics::{Outcome, Values, END_TO_END};

/// What a workload is asked to do: inputs from `seed`, passes for `budget`,
/// and whether this is the traced run. Files go under `out_dir`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What a workload reports: the result line's content, a digest of its
/// simulated outputs, how many passes ran, and the trace it wrote.
#[derive(Debug, Clone)]
pub struct Run {
    pub outcome: Outcome,
    pub digest: String,
    pub passes: usize,
    pub trace_file: Option<PathBuf>,
}

/// The share of seed-driven variation in traffic sizes: enough to change
/// every simulated output, small enough to keep the work comparable.
pub const JITTER: f64 = 0.02;

/// `gradpim-cli`'s quick caps (bursts, params), moved by the seed.
pub fn quick_caps(seed: u64) -> QuickCaps {
    let mut rng = Rng::new(seed);
    Some((rng.jitter(4 * 1024, JITTER), rng.jitter(32 * 1024, JITTER) as usize))
}

/// SplitMix64: a tiny, well-mixed generator, so the same `--seed` always
/// yields the same inputs without any dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `base` moved by at most `frac` of itself, rounded to an integer: how
    /// a seed varies traffic sizes while keeping the work comparable.
    pub fn jitter(&mut self, base: u64, frac: f64) -> u64 {
        ((base as f64) * (1.0 + frac * self.unit())).round().max(1.0) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// 64-bit FNV-1a over a sequence of byte strings, rendered as hex: the
/// digest each run prints of its simulated outputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so ["ab", "c"] and ["a", "bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of one document.
pub fn digest_of(doc: &str) -> String {
    let mut d = Digest::default();
    d.update(doc.as_bytes());
    d.hex()
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `f` over `items`.
pub fn med<P>(items: &[P], f: impl Fn(&P) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(wall_s: f64, setup_s: f64) -> Values {
    let mut v = Values::zeros(END_TO_END);
    v.set("wall_s", wall_s);
    v.set("setup_s", setup_s);
    v.set("peak_rss_mb", peak_rss_mb());
    v
}

/// `num / den`, or 0 when the layer did no work (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `f` once and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Host seconds of a set-up, as the [`typical`] of `reps` repetitions
/// spread over `cpus` in contiguous blocks. Each repetition builds a fresh
/// state; all but the last are dropped outside the timer, so a one-off page
/// fault cannot move the figure.
pub fn median_setup<T>(cpus: &Cpus, reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let slot = i * cpus.slots() / reps;
        if samples.last().is_none_or(|(last, _)| *last != slot) {
            cpus.pin(slot);
        }
        let (state, secs) = timed(&mut setup);
        samples.push((slot, secs));
        // Dropping the previous state here keeps its teardown (e.g.
        // removing a scratch store) out of every timed window.
        drop(last.replace(state));
    }
    cpus.release();
    (last.expect("at least one set-up repetition"), typical(samples))
}

/// How long a one-thread run stays on one CPU before moving to the next:
/// long enough that the cold caches after a move are a small share of it.
const BLOCK: Duration = Duration::from_secs(1);

/// Calls `pass` until `budget` has elapsed, and at least `min` times, and
/// collects what each pass returns with the slot it ran on. The run moves
/// to the next of `cpus` between passes once it has spent [`BLOCK`] on the
/// current one, so passes longer than a block alternate strictly. The pass
/// times its own body.
pub fn run_passes<P>(
    cpus: &Cpus,
    budget: Duration,
    min: usize,
    mut pass: impl FnMut() -> P,
) -> Vec<(usize, P)> {
    let start = Instant::now();
    let mut out: Vec<(usize, P)> = Vec::new();
    let (mut slot, mut block_start) = (0, start);
    cpus.pin(slot);
    while out.len() < min || start.elapsed() < budget {
        if block_start.elapsed() >= BLOCK {
            slot = (slot + 1) % cpus.slots();
            block_start = Instant::now();
            cpus.pin(slot);
        }
        out.push((slot, pass()));
    }
    cpus.release();
    out
}

/// A run's passes, each with the slot it ran on: untraced ones, and — in a
/// traced run — traced ones.
#[derive(Debug)]
pub struct Passes<P> {
    pub untraced: Vec<(usize, P)>,
    pub traced: Vec<(usize, P)>,
}

impl<P> Passes<P> {
    /// Every pass, untraced first.
    pub fn all(&self) -> impl Iterator<Item = &P> {
        self.untraced.iter().chain(&self.traced).map(|(_, p)| p)
    }
}

/// The [`typical`] of `f` over slotted passes.
pub fn typical_of<P>(passes: &[(usize, P)], f: impl Fn(&P) -> f64) -> f64 {
    typical(passes.iter().map(|(slot, p)| (*slot, f(p))))
}

/// Runs `pass(traced)` for `budget` on `cpus`. Untraced runs trace nothing;
/// a traced run spends the first half untraced (the base of
/// `obs.trace_overhead`) and the second half with the program's spans and
/// metrics switched on. A traced pass drains the spans it recorded itself.
pub fn run_split<P>(
    cpus: &Cpus,
    budget: Duration,
    trace: bool,
    mut pass: impl FnMut(bool) -> P,
) -> Passes<P> {
    if !trace {
        return Passes {
            untraced: run_passes(cpus, budget, 3, || pass(false)),
            traced: Vec::new(),
        };
    }
    let untraced = run_passes(cpus, budget / 2, 1, || pass(false));
    gradpim_obs::reset();
    gradpim_obs::set_tracing(true);
    gradpim_obs::set_metrics(true);
    let traced = run_passes(cpus, budget / 2, 1, || pass(true));
    gradpim_obs::set_tracing(false);
    gradpim_obs::set_metrics(false);
    Passes { untraced, traced }
}

/// Writes a Chrome trace of `spans` to `dir/<name>` and returns its path.
pub fn write_trace(dir: &Path, name: &str, spans: &[SpanRec]) -> Result<PathBuf, String> {
    let path = dir.join(name);
    std::fs::write(&path, gradpim_engine::trace::export(spans))
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
    Ok(path)
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds a fixed pure-CPU loop takes: printed at the start and end
/// of every run, so a slow host can be told apart from a slow change.
pub fn host_probe_s() -> f64 {
    let (_, secs) = timed(|| {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = std::hint::black_box(x);
        }
        x
    });
    secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.jitter(1_000_000, 0.02)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        for v in draw(9) {
            assert!((980_000..=1_020_000).contains(&v), "{v}");
        }
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn digest_separates_parts() {
        let mut a = Digest::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Digest::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(digest_of("x"), digest_of("x"));
    }
}
