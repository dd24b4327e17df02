//! `rexa-storage`: raw file-level storage.
//!
//! Two kinds of files back the unified buffer manager (paper Section III):
//!
//! * the **database file** ([`DatabaseFile`]) holds persistent data on
//!   fixed-size pages (DuckDB's default: 256 KiB). Pages are written once and
//!   never updated in place — the paper's buffer manager "does not support
//!   the notion of dirty pages", which is why evicting persistent data is
//!   free;
//! * **temporary files** ([`TempFileManager`]) receive spilled temporary
//!   pages. Fixed-size temporary pages share one slotted temp file whose
//!   slots are recycled; variable-size buffers each get their own file.
//!   The temp files are completely separate from the database file.
//!
//! This crate performs plain positioned I/O; all caching policy lives one
//! level up in `rexa-buffer`. Every operation goes through a pluggable
//! [`IoBackend`] — [`StdIo`] in production, a deterministic
//! [`FaultInjector`] in the chaos tests (see DESIGN.md §7, "S15 — Fault
//! model").

pub mod db_file;
pub mod io_backend;
pub mod temp_file;

pub use db_file::{BlockId, DatabaseFile};
pub use io_backend::{FaultInjector, FaultKind, FaultRule, IoBackend, IoOp, Schedule, StdIo};
pub use temp_file::{SlotId, TempFileManager, VarId};

/// DuckDB's fixed page size: 2^18 = 256 KiB, chosen for OLAP workloads
/// (64x the 4 KiB of most OLTP systems). rexa makes the page size a runtime
/// configuration so tests can exercise spilling cheaply, with this as the
/// default.
pub const DEFAULT_PAGE_SIZE: usize = 1 << 18;

/// Name a process-unique scratch directory under the system temp dir,
/// without creating it: whoever first writes there creates it (and reports
/// the error if it cannot).
pub fn scratch_path(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rexa-{label}-{}-{n}", std::process::id()))
}

/// Create a process-unique scratch directory under the system temp dir.
/// Used by tests, examples, and the benchmark harness for database and
/// spill files.
pub fn scratch_dir(label: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = scratch_path(label);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
