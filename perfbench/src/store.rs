//! Cache backends the harness wraps around the engine's store: a timing and
//! counting wrapper (the `engine.cache` layer, timed from outside at
//! `CacheBackend::{get,put}`) and a key recorder that never hits.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gradpim_engine::cache::{CacheBackend, CacheStats};

/// Running totals of a [`Timed`] store. Relaxed atomics: plain
/// statistics that publish no other data.
#[derive(Debug, Default)]
struct Counters {
    gets: AtomicU64,
    hits: AtomicU64,
    get_ns: AtomicU64,
    bytes_read: AtomicU64,
    puts: AtomicU64,
    put_ns: AtomicU64,
}

/// A snapshot of a [`Timed`] store's totals; times in host nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub gets: u64,
    pub hits: u64,
    pub get_ns: u64,
    pub bytes_read: u64,
    pub puts: u64,
    pub put_ns: u64,
}

impl Totals {
    /// Lookups that found nothing usable.
    pub fn misses(&self) -> u64 {
        self.gets - self.hits
    }
}

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

/// Times and counts every `get` and `put` on the wrapped store, and opens a
/// `bench.cache.get` / `bench.cache.put` span around each when tracing.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    counters: Counters,
}

impl<S: CacheBackend> Timed<S> {
    pub fn new(inner: S) -> Self {
        Self { inner, counters: Counters::default() }
    }

    pub fn totals(&self) -> Totals {
        let c = &self.counters;
        let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Totals {
            gets: read(&c.gets),
            hits: read(&c.hits),
            get_ns: read(&c.get_ns),
            bytes_read: read(&c.bytes_read),
            puts: read(&c.puts),
            put_ns: read(&c.put_ns),
        }
    }
}

impl<S: CacheBackend> CacheBackend for Timed<S> {
    fn get(&self, key: &str) -> Option<String> {
        let _span = gradpim_obs::span("bench.cache.get", "bench");
        let t0 = Instant::now();
        let value = self.inner.get(key);
        add(&self.counters.get_ns, t0.elapsed().as_nanos() as u64);
        add(&self.counters.gets, 1);
        if let Some(v) = &value {
            add(&self.counters.hits, 1);
            add(&self.counters.bytes_read, v.len() as u64);
        }
        value
    }

    fn put(&self, key: &str, value: &str) {
        let _span = gradpim_obs::span("bench.cache.put", "bench");
        let t0 = Instant::now();
        self.inner.put(key, value);
        add(&self.counters.put_ns, t0.elapsed().as_nanos() as u64);
        add(&self.counters.puts, 1);
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn clear(&self) -> usize {
        self.inner.clear()
    }

    fn verify(&self) -> Vec<String> {
        self.inner.verify()
    }
}

/// Records every key stored and never hits: attached to an engine, every
/// phase still simulates, and the recorded `phase/…` keys say which
/// executions repeat an earlier one's exact inputs.
#[derive(Debug, Default)]
pub struct KeyRecorder {
    keys: Mutex<Vec<String>>,
}

impl KeyRecorder {
    pub fn keys(&self) -> Vec<String> {
        self.keys.lock().expect("key recorder lock poisoned by a panicking job").clone()
    }
}

impl CacheBackend for KeyRecorder {
    fn get(&self, _key: &str) -> Option<String> {
        None
    }

    fn put(&self, key: &str, _value: &str) {
        self.keys.lock().expect("key recorder lock poisoned by a panicking job").push(key.into());
    }

    fn contains(&self, _key: &str) -> bool {
        false
    }

    fn stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn clear(&self) -> usize {
        0
    }

    fn verify(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory at `path` (an old one is removed first).
    pub fn fresh(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_engine::cache::MemCache;

    #[test]
    fn timed_store_counts_hits_misses_and_bytes() {
        let store = Timed::new(MemCache::new());
        store.put("k", "value");
        assert_eq!(store.get("k").as_deref(), Some("value"));
        assert_eq!(store.get("absent"), None);
        let t = store.totals();
        assert_eq!((t.gets, t.hits, t.misses(), t.bytes_read, t.puts), (2, 1, 1, 5, 1));
    }

    #[test]
    fn key_recorder_never_hits() {
        let rec = KeyRecorder::default();
        rec.put("a", "1");
        rec.put("a", "1");
        assert_eq!(rec.get("a"), None);
        assert_eq!(rec.keys(), vec!["a".to_string(), "a".to_string()]);
    }
}
