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
//! Eviction is LRU over a bounded map (the capacity is small enough
//! that an O(n) scan for the oldest tick beats the bookkeeping of a
//! linked map).
//!
//! Invalidation is epoch-based. Every entry is pinned to the catalog
//! epoch that built it; a DDL bumps the engine's epoch and the cache
//! purges everything older ([`ShardedPlanCache::note_epoch`]). The
//! pin also closes the in-flight race: a session that planned against
//! epoch E but inserts after a concurrent DDL bumped to E+1 can never
//! have its stale plan served — the entry either is refused at insert
//! or fails the epoch check on lookup. Views, tables, and inserts all
//! change what a plan would look like or return, and correctness
//! beats cleverness here.
//!
//! [`ShardedPlanCache`] spreads the keys over N independently locked
//! [`PlanCache`] shards so concurrent sessions rarely contend on the
//! same mutex; each shard keeps its own LRU order and counters, which
//! the wrapper sums for reporting.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::Prepared;

/// Default number of plans an engine retains (across all shards).
pub const DEFAULT_PLAN_CACHE_CAP: usize = 128;

/// Number of independently locked shards in a [`ShardedPlanCache`].
pub const PLAN_CACHE_SHARDS: usize = 8;

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

    fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
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

/// Bounded LRU map of normalized key → plan. One shard of a
/// [`ShardedPlanCache`] (or a whole cache on its own in tests).
pub struct PlanCache {
    map: HashMap<String, Entry>,
    cap: usize,
    tick: u64,
    stats: CacheStats,
    /// The same counters split by the strategy component of the key
    /// (`CostBased` / `Original` / `Magic`). Per-strategy
    /// `invalidations` counts flushes that dropped at least one entry
    /// of that strategy — a flush of a cache holding only `Magic`
    /// plans is invisible to `Original`'s row.
    by_strategy: BTreeMap<String, CacheStats>,
}

impl PlanCache {
    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
            stats: CacheStats::default(),
            by_strategy: BTreeMap::new(),
        }
    }

    fn strategy_stats(&mut self, key: &str) -> &mut CacheStats {
        self.by_strategy
            .entry(key_strategy(key).to_string())
            .or_default()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The counters split by strategy, sorted by strategy name. Every
    /// strategy that has performed at least one lookup (or lost an
    /// entry to eviction/flush) has a row; the rows sum to
    /// [`PlanCache::stats`].
    pub fn stats_by_strategy(&self) -> BTreeMap<String, CacheStats> {
        self.by_strategy.clone()
    }

    /// Look up a plan built at `epoch`, counting the hit or miss and
    /// refreshing its recency on a hit. An entry pinned to an *older*
    /// epoch is stale for everyone and is dropped on sight; an entry
    /// pinned to a *newer* epoch is a plain miss — the caller is a
    /// reader on an old snapshot and must not evict a plan that is
    /// current for the rest of the engine.
    pub fn get(&mut self, key: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(key) {
            if e.plan.epoch == epoch {
                e.last_used = tick;
                let plan = Arc::clone(&e.plan);
                self.stats.hits += 1;
                self.strategy_stats(key).hits += 1;
                return Some(plan);
            }
            if e.plan.epoch < epoch {
                self.map.remove(key);
            }
        }
        self.stats.misses += 1;
        self.strategy_stats(key).misses += 1;
        None
    }

    /// Count a hit on `key` without a lookup — a session ran a plan it
    /// holds, still current — refreshing the entry's recency if the
    /// cache still has it.
    pub fn note_hit(&mut self, key: &str) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(key) {
            e.last_used = tick;
        }
        self.stats.hits += 1;
        self.strategy_stats(key).hits += 1;
    }

    /// Insert a freshly optimized plan, evicting the least recently
    /// used entry when full. Returns the shared handle.
    pub fn insert(&mut self, plan: CachedPlan) -> Arc<CachedPlan> {
        self.tick += 1;
        if !self.map.contains_key(&plan.key) && self.map.len() >= self.cap {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.stats.evictions += 1;
                self.strategy_stats(&victim).evictions += 1;
            }
        }
        let key = plan.key.clone();
        let shared = Arc::new(plan);
        self.map.insert(
            key,
            Entry {
                plan: Arc::clone(&shared),
                last_used: self.tick,
            },
        );
        shared
    }

    /// Drop every entry because the catalog changed (DDL). Counted in
    /// `stats.invalidations`; skipped entirely when already empty.
    pub fn invalidate(&mut self) {
        if !self.map.is_empty() {
            // One flush event per strategy that loses at least one
            // entry, however many it loses — mirroring the global
            // counter's event semantics.
            let dropped: BTreeSet<String> = self
                .map
                .keys()
                .map(|k| key_strategy(k).to_string())
                .collect();
            self.map.clear();
            self.stats.invalidations += 1;
            for strategy in dropped {
                self.by_strategy.entry(strategy).or_default().invalidations += 1;
            }
        }
    }

    /// Remove every entry pinned to an epoch older than `epoch`,
    /// returning the strategies that lost at least one entry. Counters
    /// are untouched — flush-event accounting belongs to the sharded
    /// wrapper, which sees all shards of one DDL at once.
    fn purge_stale(&mut self, epoch: u64) -> BTreeSet<String> {
        let stale: Vec<String> = self
            .map
            .iter()
            .filter(|(_, e)| e.plan.epoch < epoch)
            .map(|(k, _)| k.clone())
            .collect();
        let mut strategies = BTreeSet::new();
        for k in stale {
            self.map.remove(&k);
            strategies.insert(key_strategy(&k).to_string());
        }
        strategies
    }

    /// Drop every entry at the user's request (`\cache clear`) without
    /// touching the counters.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Entry count and counters of one shard, for `cache.shard.*`
/// reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    pub entries: usize,
    pub stats: CacheStats,
}

/// Per-DDL flush-event accounting shared across shards: `events`
/// counts DDL statements that dropped at least one entry anywhere;
/// `by_strategy` counts, per strategy, the events that dropped at
/// least one entry of that strategy.
#[derive(Default)]
struct FlushLog {
    events: u64,
    by_strategy: BTreeMap<String, u64>,
}

/// N independently locked [`PlanCache`] shards behind one epoch
/// counter. Keys spread by hash; concurrent sessions on different
/// keys lock different mutexes. Shared (`Arc`) between every clone of
/// an engine, so all snapshots of one database see one cache.
pub struct ShardedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
    /// The newest epoch any DDL has announced. Inserts pinned to an
    /// older epoch are refused — the in-flight-query race closed at
    /// the door rather than on lookup.
    latest: AtomicU64,
    flushes: Mutex<FlushLog>,
}

impl ShardedPlanCache {
    /// A cache of `cap` total entries spread over `shards` shards.
    pub fn new(cap: usize, shards: usize) -> ShardedPlanCache {
        let shards = shards.max(1);
        let per_shard = (cap / shards).max(1);
        ShardedPlanCache {
            shards: (0..shards)
                .map(|_| Mutex::new(PlanCache::new(per_shard)))
                .collect(),
            latest: AtomicU64::new(0),
            flushes: Mutex::new(FlushLog::default()),
        }
    }

    /// The default engine cache: [`DEFAULT_PLAN_CACHE_CAP`] entries
    /// over [`PLAN_CACHE_SHARDS`] shards.
    pub fn with_defaults() -> ShardedPlanCache {
        ShardedPlanCache::new(DEFAULT_PLAN_CACHE_CAP, PLAN_CACHE_SHARDS)
    }

    /// Which shard a key lands in (stable for the cache's lifetime;
    /// exposed so the engine can attribute `cache.shard.<i>` metrics).
    pub fn shard_index(&self, key: &str) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        #[allow(clippy::cast_possible_truncation)]
        {
            (h.finish() as usize) % self.shards.len()
        }
    }

    /// A shard's lock, tolerating poisoning: shards hold only plans
    /// and counters, both valid at every instruction boundary.
    fn shard(&self, i: usize) -> MutexGuard<'_, PlanCache> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a plan built at `epoch` (see [`PlanCache::get`] for the
    /// staleness rules).
    pub fn get(&self, key: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        self.shard(self.shard_index(key)).get(key, epoch)
    }

    /// Count a hit on `key` without a lookup ([`PlanCache::note_hit`]);
    /// returns the key's shard.
    pub fn note_hit(&self, key: &str) -> usize {
        let shard = self.shard_index(key);
        self.shard(shard).note_hit(key);
        shard
    }

    /// Insert a freshly optimized plan. A plan pinned to an epoch
    /// older than the newest announced one is *not* stored — the
    /// optimizing session raced a DDL and its plan is already stale —
    /// but the caller still gets its handle and can execute it against
    /// the snapshot it was built from.
    pub fn insert(&self, plan: CachedPlan) -> Arc<CachedPlan> {
        if plan.epoch < self.latest.load(Ordering::Acquire) {
            return Arc::new(plan);
        }
        self.shard(self.shard_index(&plan.key)).insert(plan)
    }

    /// Announce a DDL's new epoch: refuse older inserts from now on
    /// and purge every entry built before `epoch`. One flush event is
    /// counted when anything was dropped (matching the single-cache
    /// `invalidate` semantics, however many shards were hit).
    pub fn note_epoch(&self, epoch: u64) {
        self.latest.fetch_max(epoch, Ordering::AcqRel);
        let mut dropped: BTreeSet<String> = BTreeSet::new();
        for i in 0..self.shards.len() {
            dropped.extend(self.shard(i).purge_stale(epoch));
        }
        if !dropped.is_empty() {
            let mut log = self.flushes.lock().unwrap_or_else(PoisonError::into_inner);
            log.events += 1;
            for strategy in dropped {
                *log.by_strategy.entry(strategy).or_default() += 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard(i).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed counters across shards, plus the epoch-flush events.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for i in 0..self.shards.len() {
            total.absorb(self.shard(i).stats());
        }
        total.invalidations += self
            .flushes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events;
        total
    }

    /// Per-strategy counters summed across shards (rows still sum to
    /// [`ShardedPlanCache::stats`]).
    pub fn stats_by_strategy(&self) -> BTreeMap<String, CacheStats> {
        let mut merged: BTreeMap<String, CacheStats> = BTreeMap::new();
        for i in 0..self.shards.len() {
            for (k, s) in self.shard(i).stats_by_strategy() {
                merged.entry(k).or_default().absorb(s);
            }
        }
        let log = self.flushes.lock().unwrap_or_else(PoisonError::into_inner);
        for (k, &n) in &log.by_strategy {
            merged.entry(k.clone()).or_default().invalidations += n;
        }
        merged
    }

    /// Entry count and counters per shard, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len())
            .map(|i| {
                let s = self.shard(i);
                ShardStats {
                    entries: s.len(),
                    stats: s.stats(),
                }
            })
            .collect()
    }

    /// Drop every entry without touching the counters (`\cache
    /// clear`).
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.shard(i).clear();
        }
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
        let mut c = PlanCache::new(4);
        assert!(c.get("a", 0).is_none());
        c.insert(plan("a"));
        assert!(c.get("a", 0).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = PlanCache::new(2);
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
        let mut c = PlanCache::new(1);
        c.insert(plan("a"));
        c.insert(plan("a"));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_counts_once_and_only_when_nonempty() {
        let mut c = PlanCache::new(4);
        c.invalidate();
        assert_eq!(c.stats().invalidations, 0);
        c.insert(plan("a"));
        c.insert(plan("b"));
        c.invalidate();
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn stats_split_by_strategy() {
        let mut c = PlanCache::new(4);
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
        let mut c = PlanCache::new(1);
        c.insert(plan("Magic|0|SELECT 1"));
        c.insert(plan("Original|0|SELECT 1")); // evicts the Magic plan
        let by = c.stats_by_strategy();
        assert_eq!(by.get("Magic").copied().unwrap_or_default().evictions, 1);
        assert_eq!(by.get("Original").copied().unwrap_or_default().evictions, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidation_counts_once_per_affected_strategy() {
        let mut c = PlanCache::new(4);
        c.insert(plan("Magic|0|SELECT 1"));
        c.insert(plan("Magic|0|SELECT 2"));
        c.invalidate(); // only Magic entries present
        c.insert(plan("Original|0|SELECT 1"));
        c.invalidate(); // only Original entries present
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
        let mut c = PlanCache::new(4);
        c.insert(plan("a"));
        let _ = c.get("a", 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn epoch_mismatch_is_a_miss() {
        let mut c = PlanCache::new(4);
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
    fn sharded_insert_refuses_stale_epochs() {
        let c = ShardedPlanCache::new(16, 4);
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
    fn sharded_note_epoch_counts_one_event() {
        let c = ShardedPlanCache::new(16, 4);
        // Spread entries over several shards.
        for i in 0..8 {
            c.insert(plan_at(&format!("Magic|0|SELECT {i}"), 0));
        }
        assert!(c.len() > 1);
        c.note_epoch(1);
        assert_eq!(c.len(), 0);
        assert_eq!(
            c.stats().invalidations,
            1,
            "one DDL = one flush event, however many shards it hit"
        );
        let by = c.stats_by_strategy();
        assert_eq!(
            by.get("Magic").copied().unwrap_or_default().invalidations,
            1
        );
        // An empty flush counts nothing.
        c.note_epoch(2);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn sharded_stats_sum_across_shards() {
        let c = ShardedPlanCache::new(16, 4);
        for i in 0..8 {
            let key = format!("Magic|0|SELECT {i}");
            assert!(c.get(&key, 0).is_none());
            c.insert(plan_at(&key, 0));
            assert!(c.get(&key, 0).is_some());
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (8, 8));
        let shard_sum: u64 = c.shard_stats().iter().map(|s| s.stats.hits).sum();
        assert_eq!(shard_sum, 8);
        let entries: usize = c.shard_stats().iter().map(|s| s.entries).sum();
        assert_eq!(entries, c.len());
    }

    #[test]
    fn sharded_keys_spread_over_shards() {
        let c = ShardedPlanCache::new(64, 4);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64 {
            seen.insert(c.shard_index(&format!("Magic|0|SELECT {i}")));
        }
        assert!(seen.len() > 1, "64 keys must not all hash to one shard");
    }
}
