//! Content-addressed result caching: serve previously simulated work from
//! a store instead of re-simulating it, **without changing a single
//! byte** of any report.
//!
//! The cache is keyed at two levels, both derived from canonical,
//! deterministic renderings. No key can depend on hash-map order, because
//! the root `clippy.toml` disallows `HashMap` and `HashSet` workspace-wide,
//! and none on lossy float formatting: phase keys render every `f64` by
//! its `to_bits` pattern, and group keys by `Debug`, which round-trips
//! exactly:
//!
//! * **Row groups** — the runs of report rows that are computed together
//!   (see [`crate::serialize::ExperimentSpec::layout`]) are the unit of
//!   caching. Each group's key is the family name + quick caps + schema fingerprint +
//!   the `Debug` rendering of its specs ([`group_key`]); the value is the
//!   group's rows as a self-contained report JSON document
//!   ([`crate::report::to_json`]), schema-validated on the way back in.
//!   Re-runs and overlapping sweeps only simulate groups never seen.
//! * **Phases** — the runner plans the missed groups into
//!   `gradpim_sim::PhaseCall`s, dedupes them by their canonical
//!   `phase/v2/…` key ([`gradpim_sim::PhaseCall::key`]), and looks each
//!   distinct call up once per run ([`load_phase`]); each call it
//!   simulates is stored back from its lane as soon as it finishes
//!   ([`store_phase`]), with bit-exact `f64::to_bits` round-tripping. Identical phases are thus shared even across
//!   *different* group keys and across runs.
//!
//! Two backends: [`MemCache`] (in-process, for tests and one-shot reuse
//! within a run) and [`DiskCache`] (content-addressed files under
//! `--cache DIR` / `GRADPIM_CACHE`, which separate `gradpim-cli` runs may
//! share; writes are tmp-file + atomic rename, so a concurrent run never
//! reads a torn entry and a killed run never leaves one behind). Every lookup records `cache.hit` /
//! `cache.miss` counters and a `cache.lookup` span; stores record
//! `cache.bytes`.
//!
//! Keys name a computation's *inputs* — the specs and phase-call
//! arguments — but not the simulator code that computes it. For unchanged code a hit
//! substitutes for a re-computation of the very same simulation: values
//! round-trip bit-exactly, and a key mismatch inside a [`DiskCache`]
//! entry (hash collision, truncated write, foreign file) degrades to a
//! miss. A change to the simulator's code does **not** change any key, so
//! a store filled before the change keeps serving the old results: run
//! `gradpim-cli cache clear` after changing simulator code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gradpim_sim::phase::PhaseResult;
use gradpim_sim::report::{Report, SweepRow};
use gradpim_sim::sweeps::{QuickCaps, SweepFamily};

/// Environment variable naming the on-disk cache directory — the ambient
/// form of `gradpim-cli --cache DIR`.
pub const CACHE_DIR_ENV: &str = "GRADPIM_CACHE";

/// A content-addressed key → value store. Keys are canonical renderings
/// of the work they name; values are self-validating documents (report
/// JSON for row groups, [`PhaseResult::to_bits_string`] for phases).
///
/// Implementations must be safe under concurrent use from the pool's
/// lanes (and, for a shared directory, from other processes); `put` is
/// best-effort (a failed store is a future miss, never an error).
pub trait CacheBackend: Send + Sync + std::fmt::Debug {
    /// The stored value for `key`, if present and intact.
    fn get(&self, key: &str) -> Option<String>;

    /// Stores `value` under `key` (best-effort; last writer wins).
    fn put(&self, key: &str, value: &str);

    /// Whether `key` is present — a probe that must not count as a
    /// lookup. The engine itself no longer calls it; it stays for the
    /// implementors and callers outside this crate that use it.
    fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Entry count and total stored bytes.
    fn stats(&self) -> CacheStats;

    /// Removes every entry, returning how many were removed.
    fn clear(&self) -> usize;

    /// Scans the store for corrupt entries, returning one description
    /// per problem (empty = every entry is intact).
    fn verify(&self) -> Vec<String>;
}

/// Size summary of a store, for `gradpim-cli cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of stored entries.
    pub entries: usize,
    /// Total stored value bytes (excluding per-entry key/header
    /// overhead).
    pub bytes: u64,
}

/// An in-process [`CacheBackend`]: a mutex-guarded ordered map. The
/// backend for cache-correctness tests and for callers that want
/// phase-level deduplication within a single process without touching
/// disk.
#[derive(Debug, Default)]
pub struct MemCache {
    map: Mutex<BTreeMap<String, String>>,
}

impl MemCache {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, String>> {
        // A poisoned map only means another worker panicked mid-insert;
        // the map itself is still a valid cache (worst case: one entry
        // short).
        self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl CacheBackend for MemCache {
    fn get(&self, key: &str) -> Option<String> {
        self.locked().get(key).cloned()
    }

    fn put(&self, key: &str, value: &str) {
        self.locked().insert(key.to_string(), value.to_string());
    }

    fn contains(&self, key: &str) -> bool {
        self.locked().contains_key(key)
    }

    fn stats(&self) -> CacheStats {
        let map = self.locked();
        CacheStats { entries: map.len(), bytes: map.values().map(|v| v.len() as u64).sum() }
    }

    fn clear(&self) -> usize {
        let mut map = self.locked();
        let n = map.len();
        map.clear();
        n
    }

    fn verify(&self) -> Vec<String> {
        Vec::new()
    }
}

/// 64-bit FNV-1a — the std-only content hash behind [`DiskCache`] file
/// names. Collisions are tolerated, not assumed away: every entry stores
/// its full key and [`DiskCache::get`] compares it before trusting the
/// value.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const ENTRY_MAGIC: &str = "gradpim-cache v1";
const ENTRY_SUFFIX: &str = ".entry";

/// A content-addressed on-disk [`CacheBackend`]: one file per entry under
/// a root directory, named by the FNV-1a hash of the key. Entries carry a
/// magic line, the full key (length-prefixed, so keys may contain
/// anything), and the value; [`DiskCache::get`] returns `None` — a miss,
/// never a wrong value — for any file whose header or key does not match.
/// Writes go to a unique temp file and `rename` into place, so runs
/// sharing the directory can race freely and a killed run never leaves a
/// torn entry.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// A human-readable description when the directory cannot be created
    /// or is not writable — callers degrade to uncached execution with a
    /// logged diagnostic (see [`store_with_log`]), never silently.
    pub fn open(root: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(root)
            .map_err(|e| format!("cannot create cache dir {}: {e}", root.display()))?;
        // Probe writability now, so a read-only directory fails at
        // configuration time instead of degrading every put.
        let probe = root.join(format!(".probe.{}", std::process::id()));
        std::fs::write(&probe, b"probe")
            .map_err(|e| format!("cache dir {} is not writable: {e}", root.display()))?;
        let _ = std::fs::remove_file(&probe);
        Ok(Self { root: root.to_path_buf() })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{:016x}{ENTRY_SUFFIX}", fnv1a64(key.as_bytes())))
    }

    /// Splits a raw entry file into its (key, value) pair, or `None` if
    /// the header is malformed.
    fn parse_entry(body: &str) -> Option<(&str, &str)> {
        let rest = body.strip_prefix(ENTRY_MAGIC)?.strip_prefix('\n')?;
        let (len_line, rest) = rest.split_once('\n')?;
        let len: usize = len_line.parse().ok()?;
        if !rest.is_char_boundary(len) {
            return None;
        }
        let (key, rest) = rest.split_at(len);
        let value = rest.strip_prefix('\n')?;
        Some((key, value))
    }

    fn render_entry(key: &str, value: &str) -> String {
        format!("{ENTRY_MAGIC}\n{}\n{key}\n{value}", key.len())
    }

    fn entry_files(&self) -> Vec<PathBuf> {
        let Ok(dir) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = dir
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(ENTRY_SUFFIX))
            })
            .collect();
        files.sort();
        files
    }
}

/// Unique per-process temp-file counter, so two threads storing the same
/// key never interleave writes into one temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl CacheBackend for DiskCache {
    fn get(&self, key: &str) -> Option<String> {
        let body = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let (stored_key, value) = Self::parse_entry(&body)?;
        // A different key under the same hash is a collision: a miss.
        (stored_key == key).then(|| value.to_string())
    }

    fn put(&self, key: &str, value: &str) {
        let path = self.entry_path(key);
        let tmp = self.root.join(format!(
            ".{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, Self::render_entry(key, value)).is_ok()
            && std::fs::rename(&tmp, &path).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn contains(&self, key: &str) -> bool {
        let Ok(body) = std::fs::read_to_string(self.entry_path(key)) else {
            return false;
        };
        Self::parse_entry(&body).is_some_and(|(stored, _)| stored == key)
    }

    fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for path in self.entry_files() {
            let Ok(body) = std::fs::read_to_string(&path) else {
                continue;
            };
            if let Some((_, value)) = Self::parse_entry(&body) {
                stats.entries += 1;
                stats.bytes += value.len() as u64;
            }
        }
        stats
    }

    fn clear(&self) -> usize {
        let mut removed = 0;
        for path in self.entry_files() {
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for path in self.entry_files() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
            let Ok(body) = std::fs::read_to_string(&path) else {
                problems.push(format!("{name}: unreadable"));
                continue;
            };
            let Some((key, _)) = Self::parse_entry(&body) else {
                problems.push(format!("{name}: malformed entry header"));
                continue;
            };
            let expected = format!("{:016x}{ENTRY_SUFFIX}", fnv1a64(key.as_bytes()));
            if name != expected {
                problems.push(format!("{name}: stored key hashes to {expected}"));
            }
        }
        problems
    }
}

/// Looks one phase result up in `store` under its call's key: a value
/// that decodes bit-exactly ([`PhaseResult::from_bits_string`]) is a hit,
/// anything else a miss. Records `cache.hit`/`cache.miss` and a
/// `cache.lookup` span either way.
pub fn load_phase(store: &dyn CacheBackend, key: &str) -> Option<PhaseResult> {
    let _span = gradpim_obs::span("cache.lookup", "cache");
    let hit = store.get(key).and_then(|v| PhaseResult::from_bits_string(&v));
    gradpim_obs::counter_add(if hit.is_some() { "cache.hit" } else { "cache.miss" }, 1);
    hit
}

/// Stores one freshly simulated phase result under its call's key as
/// [`PhaseResult::to_bits_string`], recording `cache.bytes`.
pub fn store_phase(store: &dyn CacheBackend, key: &str, result: &PhaseResult) {
    let value = result.to_bits_string();
    gradpim_obs::counter_add("cache.bytes", value.len() as u64);
    store.put(key, &value);
}

/// The row-group cache key for one group of `F`'s specs: family name,
/// quick caps, a schema fingerprint (column names + kinds, so a schema
/// change invalidates every stored group of the family), and the `Debug`
/// rendering of the group's specs — which covers every simulated input by
/// the family's contract ([`SweepFamily::Spec`]).
pub fn group_key<F: SweepFamily>(quick: QuickCaps, group: &[F::Spec]) -> String {
    let mut key = format!("group/v1/{}/quick={quick:?}/schema=", F::NAME);
    for col in &F::schema().columns {
        let _ = write!(key, "{}:{};", col.name, col.kind.name());
    }
    let _ = write!(key, "/specs={group:?}");
    key
}

/// Looks one row group up in `store`: a schema- and row-count-validated
/// hit returns the group's rows, anything else (absent, corrupt, stale
/// schema) is a miss. Records `cache.hit`/`cache.miss` and a
/// `cache.lookup` span either way.
pub fn load_group<F: SweepFamily>(
    store: &dyn CacheBackend,
    key: &str,
    expected_rows: usize,
) -> Option<Vec<SweepRow>> {
    let _span = gradpim_obs::span("cache.lookup", "cache");
    let rows = store.get(key).and_then(|doc| {
        let report = crate::report::from_json(&doc).ok()?;
        (report.schema == F::schema() && report.rows.len() == expected_rows).then_some(report.rows)
    });
    gradpim_obs::counter_add(if rows.is_some() { "cache.hit" } else { "cache.miss" }, 1);
    rows
}

/// Stores one freshly computed row group under `key` as a self-contained
/// report document, recording `cache.bytes`.
pub fn store_group<F: SweepFamily>(store: &dyn CacheBackend, key: &str, rows: &[SweepRow]) {
    let mut report = Report::new(F::schema());
    for row in rows {
        report.push(row.clone());
    }
    let doc = crate::report::to_json(&report);
    gradpim_obs::counter_add("cache.bytes", doc.len() as u64);
    store.put(key, &doc);
}

/// Resolves the cache directory: the explicit `--cache DIR` flag wins,
/// then the `GRADPIM_CACHE` environment knob; `None` means caching is
/// off.
pub fn resolve_dir(flag: Option<&str>) -> Option<String> {
    flag.map(str::to_string).or_else(crate::env::cache_dir)
}

/// Opens the resolved on-disk store, routing any failure through `log`
/// with an explicit fallback message instead of silently degrading: a
/// `GRADPIM_CACHE` pointing at an unwritable path yields one diagnostic
/// and an uncached (but correct) run. Returns `None` when caching is off
/// or unavailable.
pub fn store_with_log(
    flag: Option<&str>,
    log: &mut dyn FnMut(&str),
) -> Option<Arc<dyn CacheBackend>> {
    let dir = resolve_dir(flag)?;
    match DiskCache::open(Path::new(&dir)) {
        Ok(store) => Some(Arc::new(store)),
        Err(why) => {
            log(&format!("{why}; caching disabled for this run"));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gradpim-cache-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_cache_round_trips_and_counts() {
        let cache = MemCache::new();
        assert_eq!(cache.get("k"), None);
        assert!(!cache.contains("k"));
        cache.put("k", "v1");
        cache.put("k2", "longer value");
        cache.put("k", "v2"); // last writer wins
        assert_eq!(cache.get("k").as_deref(), Some("v2"));
        assert!(cache.contains("k2"));
        assert_eq!(cache.stats(), CacheStats { entries: 2, bytes: 14 });
        assert!(cache.verify().is_empty());
        assert_eq!(cache.clear(), 2);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn disk_cache_round_trips_hostile_keys() {
        let root = scratch("round-trip");
        let cache = DiskCache::open(&root).unwrap();
        let keys = ["plain", "with\nnewline", "with\0nul", "unicode-é-键", ""];
        for (i, key) in keys.iter().enumerate() {
            cache.put(key, &format!("value-{i}"));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.get(key).as_deref(), Some(format!("value-{i}").as_str()), "{key:?}");
        }
        assert_eq!(cache.stats().entries, keys.len());
        assert!(cache.verify().is_empty(), "{:?}", cache.verify());
        assert_eq!(cache.clear(), keys.len());
        assert_eq!(cache.get("plain"), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_cache_treats_corruption_as_a_miss() {
        let root = scratch("corrupt");
        let cache = DiskCache::open(&root).unwrap();
        cache.put("key-a", "value-a");
        let path = cache.entry_path("key-a");

        // A foreign file under the right name: wrong magic → miss.
        std::fs::write(&path, "not a cache entry").unwrap();
        assert_eq!(cache.get("key-a"), None);
        assert!(!cache.contains("key-a"));
        assert_eq!(cache.verify().len(), 1);

        // A colliding key (same file, different stored key) → miss for
        // ours, and verify flags the mismatched hash.
        std::fs::write(&path, DiskCache::render_entry("impostor", "value-b")).unwrap();
        assert_eq!(cache.get("key-a"), None);
        assert_eq!(cache.get("impostor"), None, "impostor lives under key-a's hash");
        assert_eq!(cache.verify().len(), 1);

        // Restoring the real entry clears everything.
        cache.put("key-a", "value-a");
        assert_eq!(cache.get("key-a").as_deref(), Some("value-a"));
        assert!(cache.verify().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn phase_entries_round_trip_bit_exactly() {
        let store = MemCache::new();
        assert!(load_phase(&store, "phase/v2/test").is_none());
        let result = PhaseResult { scale: 0.5, time_ns: -0.0, ..PhaseResult::default() };
        store_phase(&store, "phase/v2/test", &result);
        let back = load_phase(&store, "phase/v2/test").expect("stored result");
        assert_eq!(back.to_bits_string(), result.to_bits_string());
        // A corrupted value degrades to a miss, not a panic or garbage.
        store.put("phase/v2/test", "pr1 junk");
        assert!(load_phase(&store, "phase/v2/test").is_none());
    }

    #[test]
    fn unwritable_cache_dir_logs_and_degrades() {
        // The directory path is occupied by a plain file, so open() must
        // fail (this works even as root, unlike permission bits).
        let root = scratch("unwritable");
        std::fs::create_dir_all(root.parent().unwrap()).unwrap();
        std::fs::write(&root, b"a file, not a directory").unwrap();
        let mut logged = Vec::new();
        let store =
            store_with_log(Some(root.to_str().unwrap()), &mut |m: &str| logged.push(m.to_string()));
        assert!(store.is_none());
        assert_eq!(logged.len(), 1, "{logged:?}");
        assert!(logged[0].contains("caching disabled for this run"), "{logged:?}");
        let _ = std::fs::remove_file(&root);
    }

    #[test]
    fn explicit_flag_resolves_without_env() {
        assert_eq!(resolve_dir(Some("/tmp/somewhere")).as_deref(), Some("/tmp/somewhere"));
    }

    #[test]
    fn group_key_distinguishes_family_quick_and_specs() {
        use gradpim_sim::sweeps::{DesignSpace, Scaling};
        use gradpim_workloads::models;
        let nets = [models::mlp()];
        let quick = Some((1500, 20_000));
        let design = DesignSpace::groups(&nets, quick);
        let scale = Scaling::groups(&nets, quick);
        let k1 = group_key::<DesignSpace>(quick, &design[0]);
        let k2 = group_key::<Scaling>(quick, &scale[0]);
        assert_ne!(k1, k2);
        assert_ne!(k1, group_key::<DesignSpace>(Some((1500, 20_001)), &design[0]));
        assert_ne!(k2, group_key::<Scaling>(quick, &scale[1]), "different node counts");
        assert!(k1.starts_with("group/v1/design-space/"), "{k1}");
    }
}
