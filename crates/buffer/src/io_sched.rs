//! Background spill writer: eviction writes off the compute threads.
//!
//! The paper's premise is that an SSD only delivers its bandwidth at queue
//! depth: a single thread doing synchronous pwrite per page leaves most of
//! the device idle. The reservation path submits victim blocks to a small
//! writer pool instead of writing inline. The victim's bytes stay accounted
//! to its category until the write durably completes — memory accounting
//! never runs ahead of the disk. Write failures are *deferred*: the block
//! keeps its buffer, is re-enqueued for eviction, and the typed
//! [`SpillFailed`](rexa_exec::Error::SpillFailed) surfaces on the next
//! foreground reservation or at [`BufferManager::drain_io`], preserving the
//! retry/backoff and non-poisoning semantics of the synchronous path.
//!
//! The in-flight write volume is bounded (`io_writers * 16 * page_size`) so
//! a burst of evictions cannot queue an unbounded amount of memory that the
//! foreground believes is about to be freed. Reloads are not scheduled
//! here: a pin reads its block back synchronously.

use crate::handle::BlockHandle;
use crate::manager::BufferManager;
use parking_lot::{Condvar, Mutex};
use rexa_exec::{spawn_named, Error};
use rexa_obs::span::{self, cat as span_cat};
use rexa_obs::{Gauge, SpanBuffer};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

struct SchedState {
    /// Pending spill writes, one victim block each. A job holds a strong
    /// handle so the block cannot be destroyed mid-write; the worker drops
    /// it *before* signalling completion, so "drained" implies every
    /// destroy side-effect has run.
    writes: VecDeque<Arc<BlockHandle>>,
    /// Jobs popped by a worker but not yet completed.
    active: usize,
    /// Bytes of submitted-but-incomplete spill writes (the eviction path's
    /// admission bound).
    inflight_write_bytes: usize,
    /// Deferred background-write failures, surfaced on the next foreground
    /// reservation or drain.
    errors: VecDeque<Error>,
    shutdown: bool,
}

struct SchedShared {
    state: Mutex<SchedState>,
    /// Wakes workers: a job was queued or shutdown was signalled.
    work_cv: Condvar,
    /// Wakes foreground waiters: a job completed.
    done_cv: Condvar,
    queue_depth: Gauge,
}

/// Handle to the writer pool, owned by the [`BufferManager`].
pub(crate) struct IoScheduler {
    shared: Arc<SchedShared>,
    inflight_limit: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for IoScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.state.lock();
        f.debug_struct("IoScheduler")
            .field("queued", &s.writes.len())
            .field("active", &s.active)
            .field("inflight_write_bytes", &s.inflight_write_bytes)
            .finish()
    }
}

impl IoScheduler {
    /// Spawn `writers` spill-writer threads. `mgr` must be the weak self
    /// reference of the owning manager (workers upgrade it per job, so the
    /// pool never keeps the manager alive).
    pub(crate) fn start(
        writers: usize,
        inflight_limit: usize,
        mgr: Weak<BufferManager>,
        queue_depth: Gauge,
    ) -> Self {
        let shared = Arc::new(SchedShared {
            state: Mutex::new(SchedState {
                writes: VecDeque::new(),
                active: 0,
                inflight_write_bytes: 0,
                errors: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queue_depth,
        });
        let workers = (0..writers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let mgr = mgr.clone();
                spawn_named(format!("rexa-io-{i}"), move || {
                    worker_loop(&shared, &mgr, i)
                })
            })
            .collect();
        IoScheduler {
            shared,
            inflight_limit,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a victim for a background spill write if it fits under the
    /// in-flight byte bound. A single write is always admissible when
    /// nothing is in flight, so one oversized buffer cannot deadlock the
    /// reservation path.
    pub(crate) fn try_submit_write(&self, handle: Arc<BlockHandle>) -> bool {
        let bytes = handle.size();
        let mut s = self.shared.state.lock();
        if s.inflight_write_bytes > 0 && s.inflight_write_bytes + bytes > self.inflight_limit {
            return false;
        }
        s.inflight_write_bytes += bytes;
        s.writes.push_back(handle);
        self.shared.queue_depth.add(1);
        drop(s);
        self.shared.work_cv.notify_one();
        true
    }

    /// Take the deferred errors, returning the first. All are drained so a
    /// single burst of background failures cannot poison follow-up queries
    /// one error at a time.
    pub(crate) fn take_error(&self) -> Option<Error> {
        let mut s = self.shared.state.lock();
        let first = s.errors.pop_front();
        s.errors.clear();
        first
    }

    /// True while any job is queued or running.
    pub(crate) fn has_pending(&self) -> bool {
        let s = self.shared.state.lock();
        !s.writes.is_empty() || s.active > 0
    }

    /// The configured in-flight write byte bound.
    pub(crate) fn inflight_limit(&self) -> usize {
        self.inflight_limit
    }

    /// Block until a completion (or deferred error) is observed, bounded by
    /// a short timeout so a missed wakeup degrades to a retry, not a hang.
    pub(crate) fn wait_event(&self) {
        let mut s = self.shared.state.lock();
        if (s.writes.is_empty() && s.active == 0) || !s.errors.is_empty() {
            return;
        }
        self.shared
            .done_cv
            .wait_for(&mut s, Duration::from_millis(10));
    }

    /// Wait until every submitted job has completed.
    pub(crate) fn drain(&self) {
        let mut s = self.shared.state.lock();
        while !s.writes.is_empty() || s.active > 0 {
            self.shared
                .done_cv
                .wait_for(&mut s, Duration::from_millis(10));
        }
    }

    /// Signal shutdown and join the workers. Queued jobs are drained first;
    /// with the manager already unreachable they become no-ops.
    pub(crate) fn shutdown_and_join(&self) {
        self.shared.state.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &SchedShared, mgr: &Weak<BufferManager>, idx: usize) {
    // Span-buffer cache for the query currently tracing this manager:
    // registered once per (collector, I/O thread) and reused for every job,
    // keyed by the collector's process-unique id. Untraced queries pay one
    // failed `Weak` upgrade per job.
    let mut sbuf: Option<(u64, Arc<SpanBuffer>)> = None;
    loop {
        let handle = {
            let mut s = shared.state.lock();
            loop {
                if let Some(handle) = s.writes.pop_front() {
                    s.active += 1;
                    break handle;
                }
                if s.shutdown {
                    return;
                }
                shared.work_cv.wait(&mut s);
            }
        };
        let bytes = handle.size();
        // If the manager is gone (tear-down), the job is a no-op: the block
        // handles themselves are owned elsewhere and clean up on drop.
        let err = mgr.upgrade().and_then(|m| {
            let buf = m.span_collector().map(|sc| match &sbuf {
                Some((id, b)) if *id == sc.id() => Arc::clone(b),
                _ => {
                    let b = sc.track(format!("io {idx}"));
                    sbuf = Some((sc.id(), Arc::clone(&b)));
                    b
                }
            });
            let t = buf.as_ref().map(|b| b.now_ns());
            let r = m.bg_spill(&handle);
            if let (Some(b), Some(t)) = (&buf, t) {
                b.complete_async(
                    "spill_write",
                    span_cat::IO,
                    t,
                    span::arg1("bytes", bytes as u64),
                );
            }
            r
        });
        // Drop the strong handle before signalling: a foreground
        // drain-then-destroy must observe the destroy side-effects.
        drop(handle);
        let mut s = shared.state.lock();
        s.active -= 1;
        s.inflight_write_bytes -= bytes;
        if let Some(e) = err {
            s.errors.push_back(e);
        }
        shared.queue_depth.sub(1);
        drop(s);
        shared.done_cv.notify_all();
    }
}
