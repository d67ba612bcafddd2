//! Disk-backed artifact store for the TMR pipeline.
//!
//! The facade's flows memoize expensive stages (synthesis, place-and-route,
//! golden simulation, fault campaigns) in an in-memory
//! [`ArtifactCache`](tmr_core::pipeline::ArtifactCache) keyed by `(stage,
//! fingerprint)`. This crate extends that scheme to disk:
//!
//! * [`Persist`] — a dependency-free canonical binary codec for
//!   the pipeline artifacts (netlists, routed designs, golden runs, campaign
//!   results and resumable campaign prefixes);
//! * [`Store`] — one checksummed, atomically-written file per key under a
//!   root directory (`TMR_CACHE_DIR` by convention), corrupt entries
//!   detected and treated as misses.
//!
//! The facade's flow layer (`tmr_fpga::flow`) looks a persisted stage up in
//! memory, then in the store, and computes it only when both miss, so flows
//! warm-start across processes: a second run of the same design skips
//! synthesis, placement, routing and simulation entirely.
//!
//! ```
//! use tmr_core::pipeline::CacheKey;
//! use tmr_store::{Persist, Store};
//!
//! let root = std::env::temp_dir().join(format!("tmr-store-doc-{}", std::process::id()));
//! let store = Store::open(&root).unwrap();
//! let key = CacheKey::new("demo", 0x1234);
//! store.save_value(key, &vec![1u64, 2, 3]);
//! assert_eq!(store.load_as::<Vec<u64>>(key), Some(vec![1, 2, 3]));
//! std::fs::remove_dir_all(&root).unwrap();
//! ```

mod codec;
mod persist;
mod store;

pub use codec::{ByteReader, ByteWriter, CodecError, Persist};
pub use persist::CampaignPrefix;
pub use store::{DiskStats, Store, CACHE_DIR_ENV, FORMAT_VERSION, MAGIC};
