//! Write-ahead event journal and snapshot store for the APPLE control plane.
//!
//! This crate is deliberately domain-agnostic: payloads are opaque byte
//! strings. The control plane (`apple-core`) defines what goes *inside* a
//! record; this crate guarantees what happens *around* it:
//!
//! - **Framing**: every record is length-prefixed and checksummed
//!   (`[len: u32 LE][crc32: u32 LE][payload]`), so a reader can walk the
//!   journal without any out-of-band index.
//! - **Torn-tail truncation**: a crash mid-append leaves a partial or
//!   corrupt final frame. Recovery detects it (short frame or checksum
//!   mismatch), truncates the journal back to the last valid frame
//!   boundary, and reports how many bytes were discarded.
//! - **Snapshots**: opaque state blobs keyed by a monotonically increasing
//!   sequence number, stored with the same checksummed envelope. Only the
//!   newest [`SNAPSHOTS_RETAINED`] are kept. An invalid (torn) snapshot is
//!   skipped and recovery falls back to the previous one, then to a redo
//!   of the whole journal, which is never compacted.
//! - **Storage trait**: [`JournalStore`] abstracts the byte sink so tests
//!   can run against an in-memory store (including one shared across a
//!   simulated crash boundary) while deployments use the file backend.
//!
//! Determinism: nothing in this crate consults a clock or an RNG. The
//! bytes written for a given payload sequence are a pure function of the
//! payloads, which is what makes the pinned-fixture format-stability tests
//! and the crash-point enumeration in `tests/recovery.rs` possible.

pub mod codec;
pub mod store;

mod crc;
mod wal;

pub use crc::crc32;
pub use store::{FileStore, JournalStore, MemStore, SharedMemStore, StoreError};
pub use wal::{
    Journal, JournalError, JournalStats, Recovered, FRAME_HEADER_BYTES, SNAPSHOTS_RETAINED,
};
