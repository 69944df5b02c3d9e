//! Algorithm 2: digest-guided data retrieval.
//!
//! [`Router::digest_probe`] is the algorithm's one transition rule:
//! after a miss at the new server, probe the old-mapping server only if
//! its broadcast digest vouches for the key. Three drivers share it
//! together with one [`TransitionManager`]: the synchronous reference
//! [`Router::fetch`] below, the discrete-event simulator (which attaches
//! latencies, `cluster.rs`), and the live TCP cluster client. Tests
//! cross-check the drivers against each other.

use proteus_cache::CacheEngine;
use proteus_ring::{hash::KeyHasher, PlacementStrategy, ServerId};
use proteus_sim::SimTime;
use proteus_store::ShardedStore;

use crate::metrics::FetchClass;
use crate::transition::TransitionManager;

/// The result of one Algorithm 2 fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchOutcome {
    /// The data (always retrieved; the database is authoritative).
    pub value: Vec<u8>,
    /// Which branch served it.
    pub class: FetchClass,
    /// The key's server under the new mapping.
    pub new_server: ServerId,
    /// The old-mapping server probed because its digest vouched for
    /// the key ([`Router::digest_probe`]), if any.
    pub old_server: Option<ServerId>,
}

/// The web tier's routing logic: consistent key→server mapping plus
/// Algorithm 2's transition-aware retrieval.
///
/// Every web server holds an identical `Router` (same strategy, same
/// hash seed), satisfying the paper's consistency objective without
/// coordination.
///
/// # Example
///
/// ```
/// use proteus_core::{Router, Scenario, TransitionManager};
/// use proteus_cache::{CacheConfig, CacheEngine};
/// use proteus_store::{ShardedStore, StoreConfig};
/// use proteus_sim::SimTime;
///
/// let router = Router::new(Scenario::Proteus.strategy(4, 0));
/// let mut caches: Vec<CacheEngine> = (0..4)
///     .map(|_| CacheEngine::new(CacheConfig::with_capacity(1 << 20)))
///     .collect();
/// let mut db = ShardedStore::new(StoreConfig::default());
/// let tm = TransitionManager::new(4, 4);
///
/// let out = router.fetch(b"page:1", SimTime::ZERO, &mut caches, &mut db, &tm, true);
/// assert_eq!(out.class, proteus_core::FetchClass::Database); // cold start
/// let out = router.fetch(b"page:1", SimTime::ZERO, &mut caches, &mut db, &tm, true);
/// assert_eq!(out.class, proteus_core::FetchClass::NewHit);
/// ```
pub struct Router {
    strategy: Box<dyn PlacementStrategy + Send + Sync>,
    hasher: KeyHasher,
}

impl Router {
    /// Creates a router over the given placement strategy, hashing keys
    /// with the default seed (all web servers must share it).
    #[must_use]
    pub fn new(strategy: Box<dyn PlacementStrategy + Send + Sync>) -> Self {
        Router {
            strategy,
            hasher: KeyHasher::default(),
        }
    }

    /// The key hash used for ring placement.
    #[must_use]
    pub fn key_hash(&self, key: &[u8]) -> u64 {
        self.hasher.hash_bytes(key)
    }

    /// The hasher behind [`key_hash`](Self::key_hash).
    #[must_use]
    pub fn hasher(&self) -> KeyHasher {
        self.hasher
    }

    /// The server responsible for `key` when `active` servers are on.
    #[must_use]
    pub fn server_for(&self, key: &[u8], active: usize) -> ServerId {
        self.strategy.server_for(self.key_hash(key), active)
    }

    /// The underlying strategy.
    #[must_use]
    pub fn strategy(&self) -> &(dyn PlacementStrategy + Send + Sync) {
        &*self.strategy
    }

    /// The server a key with hash `hash` and new-mapping server `home`
    /// lived on under the old mapping, if `window` is open at `now` and
    /// the two mappings differ: the stale copy a write must invalidate.
    #[must_use]
    pub fn moved_from(
        &self,
        hash: u64,
        home: ServerId,
        window: &TransitionManager,
        now: SimTime,
    ) -> Option<ServerId> {
        if !window.in_transition(now) {
            return None;
        }
        let old = self.strategy.server_for(hash, window.previous_active());
        (old != home).then_some(old)
    }

    /// Algorithm 2, line 6: after a miss at `home`, the old-mapping
    /// server to probe for `key` — its [`moved_from`](Self::moved_from)
    /// server, provided that server's broadcast digest contains the key.
    /// `None` sends the miss straight to the database.
    #[must_use]
    pub fn digest_probe(
        &self,
        key: &[u8],
        hash: u64,
        home: ServerId,
        window: &TransitionManager,
        now: SimTime,
    ) -> Option<ServerId> {
        self.moved_from(hash, home, window, now)
            .filter(|old| window.digest(old.index()).is_some_and(|d| d.contains(key)))
    }

    /// Algorithm 2, lines 1–15: fetch `key`, consulting the old
    /// server's digest during a transition window (when `use_digests`)
    /// and migrating hot data on demand; fall back to the database
    /// otherwise. The retrieved value is always (re)inserted into the
    /// new server's cache (line 12).
    pub fn fetch(
        &self,
        key: &[u8],
        now: SimTime,
        caches: &mut [CacheEngine],
        db: &mut ShardedStore,
        transition: &TransitionManager,
        use_digests: bool,
    ) -> FetchOutcome {
        let hash = self.key_hash(key);
        let new_server = self.strategy.server_for(hash, transition.active());
        // Line 2: try the new location first.
        if let Some(v) = caches[new_server.index()].get(key, now) {
            return FetchOutcome {
                value: v.to_vec(),
                class: FetchClass::NewHit,
                new_server,
                old_server: None,
            };
        }
        // Lines 6-8: during a transition, consult the old server's digest.
        let old_server = self
            .digest_probe(key, hash, new_server, transition, now)
            .filter(|_| use_digests);
        if let Some(old) = old_server {
            if let Some(v) = caches[old.index()].get(key, now) {
                let value = v.to_vec();
                // Line 12: install at the new location.
                caches[new_server.index()].put(key, value.clone(), now);
                return FetchOutcome {
                    value,
                    class: FetchClass::Migrated,
                    new_server,
                    old_server,
                };
            }
        }
        // Lines 9-11: the database tier is the last resort. A probe
        // that got here was a digest false positive.
        let value = db.fetch(key);
        caches[new_server.index()].put(key, value.clone(), now);
        FetchOutcome {
            value,
            class: if old_server.is_some() {
                FetchClass::DatabaseFalsePositive
            } else {
                FetchClass::Database
            },
            new_server,
            old_server,
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use proteus_bloom::{BloomConfig, BloomFilter, CountingBloomFilter};
    use proteus_cache::CacheConfig;
    use proteus_sim::SimDuration;
    use proteus_store::StoreConfig;

    fn setup(servers: usize) -> (Router, Vec<CacheEngine>, ShardedStore) {
        let router = Router::new(Scenario::Proteus.strategy(servers, 0));
        let caches = (0..servers)
            .map(|_| CacheEngine::new(CacheConfig::with_capacity(1 << 22)))
            .collect();
        let db = ShardedStore::new(StoreConfig::default());
        (router, caches, db)
    }

    #[test]
    fn cold_then_hot() {
        let (router, mut caches, mut db) = setup(4);
        let tm = TransitionManager::new(4, 4);
        let a = router.fetch(b"k", SimTime::ZERO, &mut caches, &mut db, &tm, true);
        assert_eq!(a.class, FetchClass::Database);
        let b = router.fetch(b"k", SimTime::ZERO, &mut caches, &mut db, &tm, true);
        assert_eq!(b.class, FetchClass::NewHit);
        assert_eq!(a.value, b.value);
        assert_eq!(db.total_fetches(), 1, "second fetch never reached the DB");
    }

    #[test]
    fn transition_migrates_hot_data_without_db_traffic() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        // Find a key that moves when server 4 turns off.
        let moving_key = (0..10_000u64)
            .map(|i| format!("page:{i}").into_bytes())
            .find(|k| router.server_for(k, 4).index() == 3 && router.server_for(k, 3).index() != 3)
            .expect("some key lives on s4");
        // Warm it on its old server.
        let warm = router.fetch(&moving_key, SimTime::ZERO, &mut caches, &mut db, &tm, true);
        assert_eq!(warm.class, FetchClass::Database);
        let db_before = db.total_fetches();
        // Scale 4 → 3 with a digest broadcast.
        tm.begin(SimTime::from_secs(1), 3, SimDuration::from_secs(10), |i| {
            caches[i].digest_snapshot()
        });
        let t = SimTime::from_secs(2);
        let got = router.fetch(&moving_key, t, &mut caches, &mut db, &tm, true);
        assert_eq!(got.class, FetchClass::Migrated);
        assert_eq!(got.value, warm.value);
        assert_eq!(db.total_fetches(), db_before, "migration avoided the DB");
        // Subsequent requests hit the new server directly (the
        // "only the first request reaches the old server" property).
        let again = router.fetch(&moving_key, t, &mut caches, &mut db, &tm, true);
        assert_eq!(again.class, FetchClass::NewHit);
    }

    #[test]
    fn without_digests_transition_goes_to_db() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        let moving_key = (0..10_000u64)
            .map(|i| format!("page:{i}").into_bytes())
            .find(|k| router.server_for(k, 4).index() == 3)
            .unwrap();
        router.fetch(&moving_key, SimTime::ZERO, &mut caches, &mut db, &tm, false);
        tm.begin(SimTime::from_secs(1), 3, SimDuration::from_secs(10), |i| {
            caches[i].digest_snapshot()
        });
        let before = db.total_fetches();
        let got = router.fetch(
            &moving_key,
            SimTime::from_secs(2),
            &mut caches,
            &mut db,
            &tm,
            false,
        );
        assert_eq!(got.class, FetchClass::Database);
        assert_eq!(db.total_fetches(), before + 1);
    }

    #[test]
    fn cold_data_during_transition_is_database_not_false_positive() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        tm.begin(SimTime::ZERO, 3, SimDuration::from_secs(10), |i| {
            caches[i].digest_snapshot() // all empty
        });
        let got = router.fetch(
            b"never-seen",
            SimTime::from_secs(1),
            &mut caches,
            &mut db,
            &tm,
            true,
        );
        assert_eq!(got.class, FetchClass::Database);
    }

    #[test]
    fn after_window_digests_are_not_consulted() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        let moving_key = (0..10_000u64)
            .map(|i| format!("page:{i}").into_bytes())
            .find(|k| router.server_for(k, 4).index() == 3 && router.server_for(k, 3).index() != 3)
            .unwrap();
        router.fetch(&moving_key, SimTime::ZERO, &mut caches, &mut db, &tm, true);
        tm.begin(SimTime::from_secs(1), 3, SimDuration::from_secs(2), |i| {
            caches[i].digest_snapshot()
        });
        // Past the deadline: Algorithm 2 line 6 no longer fires.
        let t_late = SimTime::from_secs(10);
        let got = router.fetch(&moving_key, t_late, &mut caches, &mut db, &tm, true);
        assert_eq!(got.class, FetchClass::Database);
    }

    #[test]
    fn one_rule_decides_the_probe_and_the_invalidation() {
        let (router, _, _) = setup(4);
        let key_where = |moves: bool| {
            (0..10_000u64)
                .map(|i| format!("page:{i}").into_bytes())
                .find(|k| (router.server_for(k, 4) != router.server_for(k, 3)) == moves)
                .expect("keys both move and stay on 4 -> 3")
        };
        let (moving, staying) = (key_where(true), key_where(false));
        let old = router.server_for(&moving, 4);
        let digest_of = |keys: &[&[u8]]| {
            let mut c = CountingBloomFilter::new(BloomConfig::new(1024, 4, 4));
            keys.iter().for_each(|k| c.insert(k));
            Some(c.snapshot())
        };
        // A 4 -> 3 window whose broadcast handed every old server `digest`.
        let window = |digest: Option<BloomFilter>| {
            let mut tm = TransitionManager::new(4, 4);
            tm.open(3, vec![digest; 4]);
            tm
        };
        let cases = [
            (
                "window closed",
                &moving,
                TransitionManager::new(4, 4),
                false,
                None,
            ),
            (
                "same server under both mappings",
                &staying,
                window(digest_of(&[&staying])),
                false,
                None,
            ),
            (
                "no digest for the old server",
                &moving,
                window(None),
                false,
                None,
            ),
            (
                "digest says no",
                &moving,
                window(digest_of(&[])),
                false,
                None,
            ),
            (
                "digest says yes",
                &moving,
                window(digest_of(&[&moving])),
                false,
                Some(old),
            ),
            (
                "invalidation target",
                &moving,
                window(digest_of(&[])),
                true,
                Some(old),
            ),
        ];
        for (case, key, tm, invalidate, expected) in cases {
            let hash = router.key_hash(key);
            let home = router.server_for(key, tm.active());
            let got = if invalidate {
                router.moved_from(hash, home, &tm, SimTime::ZERO)
            } else {
                router.digest_probe(key, hash, home, &tm, SimTime::ZERO)
            };
            assert_eq!(got, expected, "{case}");
        }
    }

    #[test]
    fn routing_is_consistent_across_router_instances() {
        let (a, _, _) = setup(8);
        let (b, _, _) = setup(8);
        for i in 0..1000u64 {
            let key = format!("page:{i}").into_bytes();
            for n in [2usize, 5, 8] {
                assert_eq!(a.server_for(&key, n), b.server_for(&key, n));
            }
        }
    }
}
