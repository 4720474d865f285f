//! The engine shared across sessions — epoch/snapshot reads.
//!
//! Sessions never lock the engine to run a query: [`SharedEngine::snapshot`]
//! clones an `Arc<Engine>` under a read lock held only for the clone
//! (a refcount bump), and the query runs entirely against that
//! immutable snapshot. DDL is serialized by its own mutex: it clones
//! the current engine (cheap — snapshot, plan cache, and metrics are
//! `Arc`-shared), lets `run_sql` build the next snapshot on the clone
//! (every table but the written one, and every index over them, is
//! shared with the current snapshot, not copied), and swaps the clone
//! in *only on success*, with its catalog epoch bumped. In-flight
//! queries keep their pre-DDL snapshot and finish against a
//! consistent catalog at the old epoch; the sharded plan cache
//! refuses their stale inserts by epoch pinning.
//!
//! Lock poisoning is tolerated: the locks only guard an `Arc` swap,
//! and every published engine was complete when it was stored, so a
//! panicking session must not take the server down with it.

use std::sync::{Arc, Mutex, PoisonError, RwLock};

use starmagic::Engine;
use starmagic_common::Result;

/// Epoch-snapshot shared engine: lock-free reads, serialized
/// copy-on-write DDL.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<SharedInner>,
}

struct SharedInner {
    /// The current engine. The lock is held only long enough to clone
    /// or replace the `Arc` — never across planning or execution.
    current: RwLock<Arc<Engine>>,
    /// Serializes DDL so two catalog changes cannot race the
    /// clone-mutate-swap cycle and lose one another's updates.
    ddl: Mutex<()>,
}

// The server hands `SharedEngine` to one thread per connection; this
// is the single point that demands `Engine: Send + Sync` (table
// batches and indexes are `Arc`-shared, the plan cache is
// lock-sharded internally).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<SharedEngine>();
};

impl SharedEngine {
    pub fn new(engine: Engine) -> SharedEngine {
        SharedEngine {
            inner: Arc::new(SharedInner {
                current: RwLock::new(Arc::new(engine)),
                ddl: Mutex::new(()),
            }),
        }
    }

    /// The current engine snapshot. Queries planned and executed
    /// against it see one consistent catalog at one epoch, no matter
    /// what DDL lands concurrently.
    pub fn snapshot(&self) -> Arc<Engine> {
        Arc::clone(
            &self
                .inner
                .current
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// The current catalog epoch (0 until the first DDL).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Run a catalog-mutating statement: clone the current engine,
    /// apply the statement to the clone, and publish it only if the
    /// statement succeeded. Returns the statement's result and the
    /// epoch it published (the pre-DDL epoch when the statement failed
    /// and nothing was swapped).
    pub fn run_ddl(&self, sql: &str) -> Result<(Option<starmagic::QueryResult>, u64)> {
        let _serial = self
            .inner
            .ddl
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut next = (*self.snapshot()).clone();
        let result = next.run_sql(sql)?;
        let epoch = next.epoch();
        let replaced = std::mem::replace(
            &mut *self
                .inner
                .current
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            Arc::new(next),
        );
        // The write guard is gone: if no session still holds the old
        // engine, freeing it (the replaced table version with it) must
        // not keep `snapshot` waiting.
        drop(replaced);
        Ok((result, epoch))
    }
}
