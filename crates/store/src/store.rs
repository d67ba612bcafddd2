//! The on-disk artifact store: one file per `(stage, fingerprint)` key.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   meta.json                     format marker, written once
//!   <stage>/<fingerprint>.bin     one artifact per content-addressed key
//! ```
//!
//! Each `.bin` file is a small header followed by the codec payload:
//!
//! ```text
//! magic   4 bytes   "TMRS"
//! version u16 LE    FORMAT_VERSION
//! length  u64 LE    payload byte count
//! check   u64 LE    FNV-1a over the payload
//! payload …
//! ```
//!
//! Writes go to a `.tmp-<pid>` sibling first and are moved into place with
//! `rename`, so readers never observe a half-written entry. Reads verify
//! magic, version, length and checksum; any mismatch (torn write that
//! survived a crash, bit rot, a format bump) counts as *corrupt* and is
//! treated as a miss — the artifact is recomputed and rewritten. The store
//! is therefore safe to share between concurrent processes: the worst case
//! under a racing writer is a duplicate computation, never a wrong artifact.

use crate::codec::Persist;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tmr_core::json::Json;
use tmr_core::pipeline::{CacheKey, Fingerprint};

/// Magic bytes leading every artifact file.
pub const MAGIC: [u8; 4] = *b"TMRS";

/// On-disk format version; bump on any codec or header change.
pub const FORMAT_VERSION: u16 = 2;

/// Environment variable naming the store root for [`Store::from_env`].
pub const CACHE_DIR_ENV: &str = "TMR_CACHE_DIR";

const HEADER_LEN: usize = 4 + 2 + 8 + 8;

/// FNV-1a 64-bit over a byte slice — the hash of the in-memory
/// fingerprints, applied to the payload for corruption detection.
fn checksum(bytes: &[u8]) -> u64 {
    Fingerprint::new().write_bytes(bytes).finish()
}

/// Point-in-time effectiveness counters of a [`Store`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Reads answered from disk.
    pub hits: u64,
    /// Reads that found no entry.
    pub misses: u64,
    /// Reads that found an entry but rejected it (bad magic, version,
    /// length, checksum or payload decode) — counted *in addition to* a miss.
    pub corrupt: u64,
    /// Entries written.
    pub writes: u64,
}

impl std::fmt::Display for DiskStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses on disk ({} writes{})",
            self.hits,
            self.misses,
            self.writes,
            if self.corrupt > 0 {
                format!(", {} corrupt", self.corrupt)
            } else {
                String::new()
            }
        )
    }
}

/// A content-addressed, disk-backed artifact store keyed by the pipeline's
/// `(stage, fingerprint)` cache keys.
///
/// The store is format-checked, checksummed and crash-safe (see the module
/// docs), and deliberately dumb otherwise: no eviction, no locking between
/// processes, no index — the filesystem is the index.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    stats: Mutex<DiskStats>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root` and stamps the
    /// format marker.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the root cannot be created or the
    /// format marker cannot be written.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let meta_path = root.join("meta.json");
        if !meta_path.exists() {
            let meta = Json::object([
                ("format", Json::from("tmr-store")),
                ("version", Json::from(u64::from(FORMAT_VERSION))),
            ]);
            fs::write(&meta_path, format!("{meta}\n"))?;
        }
        Ok(Self {
            root,
            stats: Mutex::default(),
        })
    }

    /// Opens the store named by the `TMR_CACHE_DIR` environment variable.
    /// Flows and sweeps never call this; binaries do, and attach the result
    /// with `store(...)`.
    ///
    /// Returns `None` when the variable is unset or empty. An unusable
    /// directory also yields `None` (with a note on stderr) rather than an
    /// error: disk persistence is an optimization, and a flow that cannot
    /// warm-start should still run.
    pub fn from_env() -> Option<std::sync::Arc<Self>> {
        let root = std::env::var(CACHE_DIR_ENV)
            .ok()
            .filter(|v| !v.is_empty())?;
        match Self::open(&root) {
            Ok(store) => Some(std::sync::Arc::new(store)),
            Err(error) => {
                eprintln!("tmr-store: ignoring {CACHE_DIR_ENV}={root}: {error}");
                None
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, key: CacheKey) -> PathBuf {
        self.root
            .join(key.stage)
            .join(format!("{:016x}.bin", key.fingerprint))
    }

    fn bump(&self, update: impl FnOnce(&mut DiskStats)) {
        update(&mut self.stats.lock().expect("store stats poisoned"));
    }

    /// Loads the raw payload stored under `key`, verifying the header and
    /// checksum. Corrupt or missing entries return `None`.
    pub fn load(&self, key: CacheKey) -> Option<Vec<u8>> {
        let mut span = tmr_trace::enabled().then(|| {
            let mut span = tmr_trace::span("store.read");
            span.attr("stage", key.stage);
            span.attr("fingerprint", format!("{:016x}", key.fingerprint));
            span
        });
        let path = self.path_of(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.bump(|s| s.misses += 1);
                if let Some(span) = &mut span {
                    span.attr("outcome", "miss");
                }
                return None;
            }
        };
        match Self::unwrap_payload(&bytes) {
            Some(payload) => {
                self.bump(|s| s.hits += 1);
                if let Some(span) = &mut span {
                    span.attr("outcome", "hit");
                    tmr_trace::event("store.hit")
                        .attr("stage", key.stage)
                        .attr("bytes", payload.len());
                }
                Some(payload)
            }
            None => {
                self.bump(|s| {
                    s.misses += 1;
                    s.corrupt += 1;
                });
                if let Some(span) = &mut span {
                    span.attr("outcome", "corrupt");
                }
                // Drop the bad entry so the rewrite is not racing a reader
                // that would re-flag it.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    fn unwrap_payload(bytes: &[u8]) -> Option<Vec<u8>> {
        if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
            return None;
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != FORMAT_VERSION {
            return None;
        }
        let length = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
        let check = u64::from_le_bytes(bytes[14..22].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != length || checksum(payload) != check {
            return None;
        }
        Some(payload.to_vec())
    }

    /// Loads and decodes the artifact stored under `key`. A payload that
    /// passes the checksum but fails to decode is counted as corrupt and
    /// removed, like any other bad entry.
    pub fn load_as<T: Persist>(&self, key: CacheKey) -> Option<T> {
        let payload = self.load(key)?;
        match T::from_bytes(&payload) {
            Ok(value) => Some(value),
            Err(_) => {
                self.bump(|s| {
                    s.corrupt += 1;
                    // The checksummed read above already counted a hit;
                    // reclassify it as a miss.
                    s.hits -= 1;
                    s.misses += 1;
                });
                let _ = fs::remove_file(self.path_of(key));
                None
            }
        }
    }

    /// Stores `payload` under `key`, atomically (write-then-rename).
    /// I/O failures are swallowed: persistence is best-effort.
    pub fn save(&self, key: CacheKey, payload: &[u8]) {
        let mut span = tmr_trace::enabled().then(|| {
            let mut span = tmr_trace::span("store.write");
            span.attr("stage", key.stage);
            span.attr("fingerprint", format!("{:016x}", key.fingerprint));
            span.attr("bytes", payload.len());
            span
        });
        let ok = self.try_save(key, payload).is_ok();
        if ok {
            self.bump(|s| s.writes += 1);
        }
        if let Some(span) = &mut span {
            span.attr("outcome", if ok { "written" } else { "failed" });
        }
    }

    fn try_save(&self, key: CacheKey, payload: &[u8]) -> io::Result<()> {
        let path = self.path_of(key);
        let dir = path.parent().expect("entry paths have a stage directory");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{:016x}-{}",
            key.fingerprint,
            std::process::id()
        ));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            file.write_all(&(payload.len() as u64).to_le_bytes())?;
            file.write_all(&checksum(payload).to_le_bytes())?;
            file.write_all(payload)?;
            file.sync_all()?;
        }
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(error) => {
                let _ = fs::remove_file(&tmp);
                Err(error)
            }
        }
    }

    /// Encodes and stores an artifact under `key`.
    pub fn save_value<T: Persist>(&self, key: CacheKey, value: &T) {
        self.save(key, &value.to_bytes());
    }

    /// Removes the entry under `key`, if present. Used to retire a
    /// campaign's partial prefix once the full result is stored.
    pub fn remove(&self, key: CacheKey) {
        let _ = fs::remove_file(self.path_of(key));
    }

    /// Returns `true` if an entry exists under `key` (without validating it).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.path_of(key).exists()
    }

    /// The store's counters.
    pub fn stats(&self) -> DiskStats {
        *self.stats.lock().expect("store stats poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("tmr-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn save_load_round_trip_with_stats() {
        let root = temp_root("roundtrip");
        let store = Store::open(&root).unwrap();
        let key = CacheKey::new("unit", 0xabcd);
        assert_eq!(store.load(key), None);
        store.save(key, b"artifact bytes");
        assert!(store.contains(key));
        assert_eq!(store.load(key).as_deref(), Some(b"artifact bytes".as_ref()));
        let stats = store.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.writes, stats.corrupt),
            (1, 1, 1, 0)
        );
        // The format marker exists and is one JSON object.
        let meta = fs::read_to_string(root.join("meta.json")).unwrap();
        tmr_core::json::validate(&meta).unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopened_store_serves_previous_writes() {
        let root = temp_root("reopen");
        let key = CacheKey::new("unit", 7);
        {
            let store = Store::open(&root).unwrap();
            store.save_value(key, &vec![1u64, 2, 3]);
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(store.load_as::<Vec<u64>>(key), Some(vec![1, 2, 3]));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_is_detected_and_cleared() {
        let root = temp_root("corrupt");
        let store = Store::open(&root).unwrap();
        let key = CacheKey::new("unit", 1);
        store.save(key, b"good payload");

        // Flip a payload byte on disk: checksum mismatch → miss + corrupt.
        let path = root.join("unit").join(format!("{:016x}.bin", 1u64));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(key), None);
        let stats = store.stats();
        assert_eq!((stats.corrupt, stats.misses), (1, 1));
        // The bad entry was dropped.
        assert!(!store.contains(key));

        // A truncated file is also rejected.
        store.save(key, b"good payload");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load(key), None);
        assert_eq!(store.stats().corrupt, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn undecodable_payload_counts_as_corrupt_miss() {
        let root = temp_root("decode");
        let store = Store::open(&root).unwrap();
        let key = CacheKey::new("unit", 2);
        // A valid checksummed entry whose payload is not a valid Vec<u64>.
        store.save(key, &[0xff; 3]);
        assert_eq!(store.load_as::<Vec<u64>>(key), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (0, 1, 1));
        assert!(!store.contains(key));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_version_is_a_miss() {
        let root = temp_root("version");
        let store = Store::open(&root).unwrap();
        let key = CacheKey::new("unit", 3);
        store.save(key, b"payload");
        let path = root.join("unit").join(format!("{:016x}.bin", 3u64));
        let mut bytes = fs::read(&path).unwrap();
        // An entry written by the previous format reads as a miss.
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(key), None);
        let _ = fs::remove_dir_all(&root);
    }
}
