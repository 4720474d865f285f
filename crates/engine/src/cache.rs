//! Shared plan cache: normalized SQL → optimized plan.
//!
//! The cache keys on the *parameterized* query text produced by
//! [`starmagic_sql::parameterize`] — literals are lifted into `?N`
//! markers, so `WHERE deptno = 3` and `WHERE deptno = 7` share one
//! entry. A cached entry stores the post-rewrite, post-plan
//! [`Prepared`] graph with the parameter slots still in place, lowered
//! once by its first execution; every execution checks its binding and
//! runs that one plan with the bound values in a parameter vector
//! (`Engine::execute_cached`) — nothing is copied per request.
//!
//! Eviction is LRU over one bounded map behind one mutex (the capacity
//! is small enough that an O(n) scan for the oldest tick beats the
//! bookkeeping of a linked map). A request takes the lock once, for
//! one hash lookup.
//!
//! Invalidation is epoch-based. Every entry is pinned to the catalog
//! epoch that built it; a DDL bumps the engine's epoch and the cache
//! purges everything older ([`PlanCache::note_epoch`]). The pin also
//! closes the in-flight race: a session that planned against epoch E
//! but inserts after a concurrent DDL bumped to E+1 can never have its
//! stale plan served — the entry either is refused at insert or fails
//! the epoch check on lookup. Views, tables, and inserts all change
//! what a plan would look like or return, and correctness beats
//! cleverness here.
//!
//! Plans leave the map under the lock but are freed after it is
//! released, so a reader's lookup never waits on the drop of a purged
//! or evicted plan.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::Prepared;

/// Default number of plans an engine retains.
pub const DEFAULT_PLAN_CACHE_CAP: usize = 128;

/// Monotonically collected cache counters. `invalidations` counts
/// flush *events* (one per DDL statement), not evicted entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// A cached, parameterized plan plus the binding metadata needed to
/// execute it with fresh constants.
#[derive(Debug)]
pub struct CachedPlan {
    /// The normalized cache key: `strategy|user params|parameterized
    /// SQL`.
    pub key: String,
    /// The optimized plan, parameter slots intact.
    pub prepared: Prepared,
    /// Total parameter slots the plan expects (user markers plus
    /// extracted literals).
    pub param_count: usize,
    /// How many leading slots (`?1..?user_params`) were written by the
    /// user and must be supplied at execute time; slots above that
    /// hold the literals the normalizer extracted.
    pub user_params: usize,
    /// The catalog epoch this plan was optimized against. A lookup at
    /// any other epoch is a miss; the cache never serves a plan across
    /// a DDL boundary.
    pub epoch: u64,
}

struct Entry {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

/// The strategy component of a normalized cache key
/// (`strategy|user params|parameterized SQL`).
fn key_strategy(key: &str) -> &str {
    key.split('|').next().unwrap_or(key)
}

/// The map and its counters: everything the lock guards.
#[derive(Default)]
struct Lru {
    map: HashMap<String, Entry>,
    tick: u64,
    stats: CacheStats,
    /// The same counters split by the strategy component of the key
    /// (`CostBased` / `Original` / `Magic`). Per-strategy
    /// `invalidations` counts flushes that dropped at least one entry
    /// of that strategy — a flush of a cache holding only `Magic`
    /// plans is invisible to `Original`'s row.
    by_strategy: BTreeMap<String, CacheStats>,
}

impl Lru {
    fn strategy_stats(&mut self, key: &str) -> &mut CacheStats {
        self.by_strategy
            .entry(key_strategy(key).to_string())
            .or_default()
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Bounded LRU map of normalized key → plan behind one lock, plus the
/// newest epoch any DDL has announced. Shared (`Arc`) between every
/// clone of an engine, so all snapshots of one database see one cache.
pub struct PlanCache {
    lru: Mutex<Lru>,
    cap: usize,
    /// Inserts pinned to an epoch older than this are refused — the
    /// in-flight-query race closed at the door rather than on lookup.
    latest: AtomicU64,
}

impl PlanCache {
    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            lru: Mutex::new(Lru::default()),
            cap: cap.max(1),
            latest: AtomicU64::new(0),
        }
    }

    /// The lock, tolerating poisoning: the map holds only plans and
    /// counters, both valid at every instruction boundary.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// The counters split by strategy, sorted by strategy name. Every
    /// strategy that has performed at least one lookup (or lost an
    /// entry to eviction/flush) has a row; the rows sum to
    /// [`PlanCache::stats`].
    pub fn stats_by_strategy(&self) -> BTreeMap<String, CacheStats> {
        self.lock().by_strategy.clone()
    }

    /// Look up a plan built at `epoch`, counting the hit or miss and
    /// refreshing its recency on a hit. An entry pinned to an *older*
    /// epoch is stale for everyone and is dropped on sight; an entry
    /// pinned to a *newer* epoch is a plain miss — the caller is a
    /// reader on an old snapshot and must not evict a plan that is
    /// current for the rest of the engine.
    pub fn get(&self, key: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        let mut lru = self.lock();
        let tick = lru.touch();
        let mut stale = None;
        if let Some(e) = lru.map.get_mut(key) {
            if e.plan.epoch == epoch {
                e.last_used = tick;
                let plan = Arc::clone(&e.plan);
                lru.stats.hits += 1;
                lru.strategy_stats(key).hits += 1;
                return Some(plan);
            }
            if e.plan.epoch < epoch {
                stale = lru.map.remove(key);
            }
        }
        lru.stats.misses += 1;
        lru.strategy_stats(key).misses += 1;
        drop(lru);
        drop(stale);
        None
    }

    /// Count a hit on `key` without a lookup — a session ran a plan it
    /// holds, still current — refreshing the entry's recency if the
    /// cache still has it.
    pub fn note_hit(&self, key: &str) {
        let mut lru = self.lock();
        let tick = lru.touch();
        if let Some(e) = lru.map.get_mut(key) {
            e.last_used = tick;
        }
        lru.stats.hits += 1;
        lru.strategy_stats(key).hits += 1;
    }

    /// Insert a freshly optimized plan, evicting the least recently
    /// used entry when full, and return the shared handle. A plan
    /// pinned to an epoch older than the newest announced one is *not*
    /// stored — the optimizing session raced a DDL and its plan is
    /// already stale — but the caller still gets its handle and can
    /// execute it against the snapshot it was built from.
    pub fn insert(&self, plan: CachedPlan) -> Arc<CachedPlan> {
        let shared = Arc::new(plan);
        // Checked under the lock: a purge that announced a newer epoch
        // either ran before this insert (and is seen here) or runs
        // after it (and removes the entry).
        let mut lru = self.lock();
        if shared.epoch < self.latest.load(Ordering::Acquire) {
            return shared;
        }
        let mut victim = None;
        if !lru.map.contains_key(&shared.key) && lru.map.len() >= self.cap {
            if let Some(key) = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                victim = lru.map.remove(&key);
                lru.stats.evictions += 1;
                lru.strategy_stats(&key).evictions += 1;
            }
        }
        let last_used = lru.touch();
        let replaced = lru.map.insert(
            shared.key.clone(),
            Entry {
                plan: Arc::clone(&shared),
                last_used,
            },
        );
        drop(lru);
        drop((victim, replaced));
        shared
    }

    /// Announce a DDL's new epoch: refuse older inserts from now on
    /// and purge every entry built before `epoch`. One flush event is
    /// counted when anything was dropped, plus one per strategy that
    /// lost an entry, however many entries it lost.
    pub fn note_epoch(&self, epoch: u64) {
        self.latest.fetch_max(epoch, Ordering::AcqRel);
        let mut lru = self.lock();
        let stale: Vec<String> = lru
            .map
            .iter()
            .filter(|(_, e)| e.plan.epoch < epoch)
            .map(|(k, _)| k.clone())
            .collect();
        let purged: Vec<Entry> = stale.iter().filter_map(|k| lru.map.remove(k)).collect();
        if !purged.is_empty() {
            lru.stats.invalidations += 1;
            let strategies: BTreeSet<&str> = stale.iter().map(|k| key_strategy(k)).collect();
            for strategy in strategies {
                lru.strategy_stats(strategy).invalidations += 1;
            }
        }
        drop(lru);
        drop(purged);
    }

    /// Drop every entry at the user's request (`CACHE CLEAR`) without
    /// touching the counters.
    pub fn clear(&self) {
        let cleared = std::mem::take(&mut self.lock().map);
        drop(cleared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(key: &str) -> CachedPlan {
        plan_at(key, 0)
    }

    fn plan_at(key: &str, epoch: u64) -> CachedPlan {
        // A structurally minimal Prepared: cache tests never execute it.
        let qgm = starmagic_qgm::build_qgm(
            &starmagic_catalog::generator::benchmark_catalog(
                starmagic_catalog::generator::Scale::small(),
            )
            .unwrap(),
            &starmagic_sql::parse_query("SELECT empno FROM employee").unwrap(),
        )
        .unwrap();
        CachedPlan {
            key: key.to_string(),
            prepared: Prepared {
                qgm,
                columns: vec!["empno".to_string()],
                used_magic: false,
                cost_without_magic: 1.0,
                cost_with_magic: 1.0,
                lowered: std::sync::OnceLock::new(),
            },
            param_count: 0,
            user_params: 0,
            epoch,
        }
    }

    #[test]
    fn hit_miss_counting() {
        let c = PlanCache::new(4);
        assert!(c.get("a", 0).is_none());
        c.insert(plan("a"));
        assert!(c.get("a", 0).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = PlanCache::new(2);
        c.insert(plan("a"));
        c.insert(plan("b"));
        assert!(c.get("a", 0).is_some()); // refresh a; b is now LRU
        c.insert(plan("c"));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get("b", 0).is_none(), "b should have been evicted");
        assert!(c.get("a", 0).is_some());
        assert!(c.get("c", 0).is_some());
    }

    #[test]
    fn reinsert_does_not_evict() {
        let c = PlanCache::new(1);
        c.insert(plan("a"));
        c.insert(plan("a"));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn the_lru_runs_over_the_whole_capacity() {
        let c = PlanCache::new(DEFAULT_PLAN_CACHE_CAP);
        for i in 0..DEFAULT_PLAN_CACHE_CAP {
            c.insert(plan(&format!("Magic|0|SELECT {i}")));
        }
        assert_eq!(c.len(), DEFAULT_PLAN_CACHE_CAP);
        assert_eq!(c.stats().evictions, 0, "no entry leaves below capacity");
        c.insert(plan("Magic|0|SELECT one more"));
        assert_eq!(c.len(), DEFAULT_PLAN_CACHE_CAP);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get("Magic|0|SELECT 0", 0).is_none(), "the oldest went");
    }

    #[test]
    fn invalidate_counts_once_and_only_when_nonempty() {
        let c = PlanCache::new(4);
        c.note_epoch(1);
        assert_eq!(c.stats().invalidations, 0);
        c.insert(plan_at("a", 1));
        c.insert(plan_at("b", 1));
        c.note_epoch(2);
        assert_eq!(c.stats().invalidations, 1, "one DDL = one flush event");
        assert!(c.is_empty());
    }

    #[test]
    fn stats_split_by_strategy() {
        let c = PlanCache::new(4);
        assert!(c.get("Magic|0|SELECT 1", 0).is_none());
        c.insert(plan("Magic|0|SELECT 1"));
        assert!(c.get("Magic|0|SELECT 1", 0).is_some());
        assert!(c.get("Original|0|SELECT 1", 0).is_none());
        let by = c.stats_by_strategy();
        let magic = by.get("Magic").copied().unwrap();
        let orig = by.get("Original").copied().unwrap();
        assert_eq!((magic.hits, magic.misses), (1, 1));
        assert_eq!((orig.hits, orig.misses), (0, 1));
        // The per-strategy rows sum to the global counters.
        let total = c.stats();
        assert_eq!(magic.hits + orig.hits, total.hits);
        assert_eq!(magic.misses + orig.misses, total.misses);
    }

    #[test]
    fn evictions_charge_the_victims_strategy() {
        let c = PlanCache::new(1);
        c.insert(plan("Magic|0|SELECT 1"));
        c.insert(plan("Original|0|SELECT 1")); // evicts the Magic plan
        let by = c.stats_by_strategy();
        assert_eq!(by.get("Magic").copied().unwrap_or_default().evictions, 1);
        assert_eq!(by.get("Original").copied().unwrap_or_default().evictions, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidation_counts_once_per_affected_strategy() {
        let c = PlanCache::new(4);
        c.insert(plan_at("Magic|0|SELECT 1", 0));
        c.insert(plan_at("Magic|0|SELECT 2", 0));
        c.note_epoch(1); // only Magic entries present
        c.insert(plan_at("Original|0|SELECT 1", 1));
        c.note_epoch(2); // only Original entries present
        let by = c.stats_by_strategy();
        assert_eq!(
            by.get("Magic").copied().unwrap_or_default().invalidations,
            1,
            "two Magic entries in one flush = one event"
        );
        assert_eq!(
            by.get("Original")
                .copied()
                .unwrap_or_default()
                .invalidations,
            1
        );
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn clear_preserves_counters() {
        let c = PlanCache::new(4);
        c.insert(plan("a"));
        let _ = c.get("a", 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn epoch_mismatch_is_a_miss() {
        let c = PlanCache::new(4);
        c.insert(plan_at("a", 1));
        // A newer reader drops the stale entry on sight.
        assert!(c.get("a", 2).is_none());
        assert_eq!(c.len(), 0, "stale entry must be dropped");
        // An older reader misses but must not evict a current entry.
        c.insert(plan_at("b", 5));
        assert!(c.get("b", 3).is_none());
        assert_eq!(c.len(), 1, "current entry must survive an old reader");
        assert!(c.get("b", 5).is_some());
    }

    #[test]
    fn insert_refuses_stale_epochs() {
        let c = PlanCache::new(16);
        c.note_epoch(2);
        let handle = c.insert(plan_at("a", 1));
        assert_eq!(handle.key, "a", "caller still gets its plan");
        assert_eq!(c.len(), 0, "stale insert must not be stored");
        assert!(c.get("a", 1).is_none());
        c.insert(plan_at("a", 2));
        assert_eq!(c.len(), 1);
        assert!(c.get("a", 2).is_some());
    }

    #[test]
    fn note_epoch_counts_one_event() {
        let c = PlanCache::new(16);
        for i in 0..8 {
            c.insert(plan_at(&format!("Magic|0|SELECT {i}"), 0));
        }
        c.insert(plan_at("Original|0|SELECT 0", 0));
        c.note_epoch(1);
        assert_eq!(c.len(), 0);
        assert_eq!(
            c.stats().invalidations,
            1,
            "one DDL = one flush event, however many entries it dropped"
        );
        let by = c.stats_by_strategy();
        for strategy in ["Magic", "Original"] {
            assert_eq!(
                by.get(strategy).copied().unwrap_or_default().invalidations,
                1
            );
        }
        // An empty flush counts nothing.
        c.note_epoch(2);
        assert_eq!(c.stats().invalidations, 1);
    }
}
