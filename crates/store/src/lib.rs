//! # resin-store — durable storage for persistent policies
//!
//! RESIN's central promise is that policies travel *with* data into
//! durable storage and come back on read (§3.4, §6.1). The in-memory SQL
//! engine and vfs uphold that within a process; this crate makes it hold
//! across process exits and crashes:
//!
//! * [`snapshot`] — a versioned binary image format whose header persists
//!   the **deduplicated policy table once**, with per-cell/per-span `u32`
//!   refs — the durable twin of the in-memory `Label` interning;
//! * [`wal`] — checksummed append-only record framing whose replay
//!   tolerates the torn tail an interrupted append leaves behind;
//! * [`segment`] — size-capped, rotating WAL segment files (`wal.000001`,
//!   …) whose concatenation in index order is the log;
//! * [`store::Store`] — one directory holding a manifest-based checkpoint
//!   (named, immutable part images) plus the WAL segments, with atomic
//!   checkpoints (temp file + rename), fsynced appends, compaction of
//!   covered segments, and sequence numbers that keep a crash between
//!   "rename manifest" and "delete covered segments" from double-applying
//!   operations. The store also owns the incremental-checkpoint rule:
//!   clients mark the parts their writes touch, and a checkpoint encodes
//!   exactly those (plus parts it has never written) and carries every
//!   other part over by reference;
//! * [`replica`] — WAL shipping (incremental directory copy) and
//!   read-only tailing, the transport under read replicas.
//!
//! Checkpoint parts are streamed everywhere they move — encoded into
//! their files, verified on recovery, decoded, and shipped — through one
//! 64 KiB window ([`io::HashWriter`] out, [`SnapshotReader`] in), so no
//! part image is ever held whole in memory.
//!
//! The store is deliberately *policy-oblivious*: policy bodies are opaque
//! strings in `resin_core`'s textual wire format, tokenized (never
//! deserialized) while building the table. Checkpointing and recovery
//! therefore work without any policy class being registered — the paper's
//! property that persisted policies outlive the code that produced them.
//!
//! The client layers live upstream and use [`Store`] directly: `resin_sql`
//! checkpoints one part per table and logs post-guard statements;
//! `resin_vfs` checkpoints its tree as one part and logs file operations.
//! Both recover by replaying the WAL onto the last complete checkpoint.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod error;
pub mod io;
#[cfg(test)]
#[path = "../../../tests/support/mutants.rs"]
mod mutants;
pub mod replica;
pub mod segment;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::{Result, StoreError};
pub use io::HashWriter;
pub use replica::{checkpoint_base_seq, read_checkpoint, ship, tail_records, ShipReport, Tailed};
pub use snapshot::{SnapshotReader, SnapshotWriter, SpanRef};
pub use store::{Part, Parts, Recovered, Recovery, Store, StoreStats};
