//! Tracing from outside the program: in-memory spans around calls into
//! its public functions, and a timing decorator over its storage.
//!
//! Spans are kept in memory and written out once the run ends, so the
//! traced run does no I/O of its own while it measures.

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hem_server::{RealStorage, Storage};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `dsl.parse`.
    pub name: &'static str,
    /// Unique id (1-based).
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    /// Shared by every span of one operation (system, request, search).
    pub request: u64,
    /// Start, microseconds since the run's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// A fresh id for a span that is recorded once it ends, so its
    /// children can name it as parent.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span with a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            id,
            parent,
            request,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Records a span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Number of spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.name, s.id, s.parent, s.request, s.start_us, s.dur_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What the timed storage saw, split by the server step that caused it.
#[derive(Debug, Default, Clone)]
pub struct StorageStats {
    /// WAL appends of mutations.
    pub wal_appends: u64,
    /// Bytes of those appends.
    pub wal_bytes: u64,
    /// Durations of the fsyncs acknowledging mutations, in ms.
    pub wal_sync_ms: Vec<f64>,
    /// Session opens (first append to a new WAL, with its fsync).
    pub opens: u64,
    /// Checkpoints seen (temp-file writes).
    pub checkpoints: u64,
    /// Time inside checkpoint I/O, write through WAL truncation, in ms.
    pub checkpoint_ms: f64,
    /// Bytes of checkpoint images written.
    pub checkpoint_bytes: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    Mutate,
    Open,
    Checkpoint,
}

thread_local! {
    static STEP: Cell<Step> = const { Cell::new(Step::Mutate) };
}

/// [`RealStorage`] with every operation timed.
///
/// The server runs each request on one worker thread, so the step a
/// storage call belongs to is tracked per thread: the first append to a
/// WAL opens a session, a write of a `.ckpt.tmp` file starts a
/// checkpoint that ends with the fsync of the truncated WAL, and every
/// other WAL append and fsync acknowledges a mutation.
#[derive(Debug, Default)]
pub struct TimedStorage {
    inner: RealStorage,
    spans: Arc<Spans>,
    seen_wals: Mutex<HashSet<PathBuf>>,
    stats: Mutex<StorageStats>,
}

fn is_wal(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "wal")
}

impl TimedStorage {
    /// A timed storage recording its spans into `spans`.
    #[must_use]
    pub fn new(spans: Arc<Spans>) -> Self {
        TimedStorage {
            spans,
            ..TimedStorage::default()
        }
    }

    /// A copy of the statistics so far.
    #[must_use]
    pub fn stats(&self) -> StorageStats {
        self.stats.lock().expect("storage stats poisoned").clone()
    }

    fn timed<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> io::Result<T>,
    ) -> (io::Result<T>, f64) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.spans.record(name, 0, 0, start, end);
        (result, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Times a call and books it to the checkpoint when one is running.
    fn other<T>(&self, name: &'static str, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let (result, ms) = self.timed(name, f);
        if STEP.get() == Step::Checkpoint {
            self.stats
                .lock()
                .expect("storage stats poisoned")
                .checkpoint_ms += ms;
        }
        result
    }
}

impl Storage for TimedStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.other("storage.read", || self.inner.read(path))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.other("storage.file_len", || self.inner.file_len(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if !is_wal(path) {
            return self.other("storage.append", || self.inner.append(path, data));
        }
        let first = self
            .seen_wals
            .lock()
            .expect("storage stats poisoned")
            .insert(path.to_path_buf());
        let (result, _) = self.timed("wal.append", || self.inner.append(path, data));
        if first {
            STEP.set(Step::Open);
        } else if STEP.get() != Step::Checkpoint {
            STEP.set(Step::Mutate);
            let mut stats = self.stats.lock().expect("storage stats poisoned");
            stats.wal_appends += 1;
            stats.wal_bytes += data.len() as u64;
        }
        result
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let checkpoint = path.to_string_lossy().ends_with(".ckpt.tmp");
        if checkpoint {
            STEP.set(Step::Checkpoint);
            let mut stats = self.stats.lock().expect("storage stats poisoned");
            stats.checkpoints += 1;
            stats.checkpoint_bytes += data.len() as u64;
        }
        self.other("storage.write", || self.inner.write(path, data))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        if !is_wal(path) {
            return self.other("storage.sync", || self.inner.sync(path));
        }
        let (result, ms) = self.timed("wal.sync", || self.inner.sync(path));
        let mut stats = self.stats.lock().expect("storage stats poisoned");
        match STEP.get() {
            Step::Mutate => stats.wal_sync_ms.push(ms),
            Step::Open => stats.opens += 1,
            Step::Checkpoint => stats.checkpoint_ms += ms,
        }
        STEP.set(Step::Mutate);
        result
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.other("storage.truncate", || self.inner.truncate(path, len))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.other("storage.rename", || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.other("storage.remove", || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.other("storage.list", || self.inner.list(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.other("storage.create_dir_all", || self.inner.create_dir_all(dir))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.other("storage.sync_dir", || self.inner.sync_dir(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_steps_are_classified() {
        let dir = std::env::temp_dir().join(format!("hembench-trace-{}", std::process::id()));
        let spans = Arc::new(Spans::default());
        let storage = TimedStorage::new(spans.clone());
        storage.create_dir_all(&dir).expect("mkdir");
        let wal = dir.join("s.wal");
        storage.append(&wal, b"open").expect("append");
        storage.sync(&wal).expect("sync");
        for _ in 0..3 {
            storage.append(&wal, b"mutation").expect("append");
            storage.sync(&wal).expect("sync");
        }
        let tmp = dir.join("s.ckpt.tmp");
        storage.write(&tmp, b"image").expect("write");
        storage.sync(&tmp).expect("sync");
        storage
            .rename(&tmp, &dir.join("s.ckpt.00000001"))
            .expect("rename");
        storage.truncate(&wal, 0).expect("truncate");
        storage.sync(&wal).expect("sync");
        storage.append(&wal, b"mutation").expect("append");
        storage.sync(&wal).expect("sync");
        let stats = storage.stats();
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(stats.opens, 1);
        assert_eq!(stats.wal_appends, 4);
        assert_eq!(stats.wal_bytes, 32);
        assert_eq!(stats.wal_sync_ms.len(), 4);
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.checkpoint_bytes, 5);
        assert!(stats.checkpoint_ms > 0.0);
        assert!(spans.len() >= 14);
    }
}
