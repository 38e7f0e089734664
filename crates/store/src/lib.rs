//! pq-store: a segmented, indexed, crash-tolerant binary telemetry store
//! for PrintQueue checkpoint archives.
//!
//! PrintQueue's control plane freezes and polls the data-plane registers
//! continuously (§6.1–6.2); over a long run the checkpoint stream is far
//! too large to keep in RAM or to re-parse at query time. This
//! crate gives the analysis pipeline a durable home for that stream:
//!
//! * **`.pqa` format** ([`format`](mod@format)) — an append-only file of sealed
//!   segments, each CRC-32-protected and self-describing, closed by a
//!   trailer index (see the format module docs for the byte layout);
//! * **codec** ([`codec`]) — sparse, delta-compressed checkpoint bodies
//!   exploiting the mostly-empty register geometry, each queue-monitor
//!   chunk unchanged since the segment's previous checkpoint written as a
//!   one-byte reference, with allocation budgeting against adversarial
//!   input;
//! * **writer** ([`StoreWriter`]) — streaming, bounded-RAM appends with
//!   segment rotation and optional retention; [`SharedStoreWriter`]
//!   plugs into the analysis program's
//!   [`CheckpointSink`](pq_core::control::CheckpointSink) spill hook so
//!   checkpoints hit disk as they are polled;
//! * **reader** ([`StoreReader`]) — trailer-index fast path with
//!   forward-scan crash recovery; time-range queries decode only the
//!   segments whose checkpoint chains overlap the interval, and corrupt
//!   segments degrade to [`CoverageGap`](pq_core::control::CoverageGap)s
//!   instead of failing the file;
//! * **archives** ([`CheckpointArchive`]) — one port's decoded state in
//!   RAM, and whole-file [`read_archives`] / [`write_archives`] over
//!   `.pqa`, the only archive format;
//! * **replication** ([`replication`]) — CRC-verified seal-and-ship of a
//!   sealed archive to a replica peer with atomic publish, plus a
//!   segment-level audit that proves two replicas equivalent, backing
//!   the scale-out query tier's any-owner-can-answer contract.

pub mod archive;
pub mod codec;
pub mod crc;
pub mod format;
pub mod reader;
pub mod replication;
pub mod writer;

pub use archive::{archives_to_pqa, read_archives, write_archives, CheckpointArchive};
pub use codec::DecodeBudget;
pub use format::{PortMeta, SegmentMeta, KIND_CHECKPOINTS, KIND_RTT, KNOWN_KINDS};
pub use reader::{QueryStats, Recovery, SegmentCache, SegmentKey, StoreReader};
pub use replication::{ship_archive, verify_replica, ReplicaDivergence, ShipReport};
pub use writer::{SegmentPolicy, SharedStoreWriter, StoreWriter};
