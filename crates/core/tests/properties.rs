//! Property-based tests for the core system's state machines.

use proptest::prelude::*;
use proteus_bloom::{BloomConfig, CountingBloomFilter};
use proteus_cache::{CacheConfig, CacheEngine};
use proteus_core::{
    FeedbackController, PowerState, ProvisioningPlan, Router, Scenario, TransitionManager,
};
use proteus_sim::{SimDuration, SimTime};
use proteus_store::{ShardedStore, StoreConfig};

fn empty_digest() -> proteus_bloom::BloomFilter {
    CountingBloomFilter::new(BloomConfig::new(64, 1, 2)).snapshot()
}

proptest! {
    /// The transition state machine keeps its invariants under any
    /// sequence of transitions: exactly `active` servers are
    /// On/Draining-free in the prefix, Off servers are outside, and
    /// Draining servers sit between `active` and `previous_active`.
    #[test]
    fn transition_state_machine_invariants(
        total in 2usize..12,
        targets in prop::collection::vec(1usize..12, 1..20),
        smooth in prop::collection::vec(any::<bool>(), 20),
    ) {
        let mut tm = TransitionManager::new(total, total);
        let mut now = SimTime::ZERO;
        for (step, (&target, &smooth)) in targets.iter().zip(&smooth).enumerate() {
            let target = target.min(total);
            now += SimDuration::from_secs(10);
            if smooth {
                tm.begin(now, target, SimDuration::from_secs(3), |_| empty_digest());
            } else {
                for _server in tm.switch_abrupt(target) {}
            }
            prop_assert_eq!(tm.active(), target, "step {}", step);
            // Active prefix is On or (transiently) never Off.
            for i in 0..tm.active() {
                prop_assert_eq!(tm.state(i), PowerState::On, "active server {} state", i);
            }
            // Servers beyond both mappings are Off or Draining.
            for i in tm.active().max(tm.previous_active())..total {
                prop_assert_eq!(tm.state(i), PowerState::Off, "outside server {}", i);
            }
            // Draining servers only exist between the two mappings.
            for i in 0..total {
                if tm.state(i) == PowerState::Draining {
                    prop_assert!(i >= tm.active() && i < tm.previous_active());
                }
            }
            // Finalize sometimes, mimicking drain deadlines.
            if step % 3 == 2 {
                for _server in tm.finalize() {}
                prop_assert_eq!(tm.previous_active(), tm.active());
            }
        }
    }

    /// Digest snapshots exist exactly for old-mapping servers while a
    /// window is open, and never after finalize.
    #[test]
    fn transition_digest_lifecycle(total in 2usize..10, target in 1usize..10) {
        let target = target.min(total);
        let mut tm = TransitionManager::new(total, total);
        tm.begin(SimTime::ZERO, target, SimDuration::from_secs(5), |_| empty_digest());
        if target != total {
            for i in 0..total {
                prop_assert_eq!(tm.digest(i).is_some(), i < total, "during window, server {}", i);
            }
        }
        tm.finalize();
        for i in 0..total {
            prop_assert!(tm.digest(i).is_none(), "after finalize, server {}", i);
        }
    }

    /// Load-proportional plans always respect bounds and track volume
    /// monotonically: a strictly larger volume never gets fewer servers.
    #[test]
    fn plan_respects_bounds_and_monotonicity(
        volumes in prop::collection::vec(1u64..1_000_000, 2..50),
        total in 2usize..32,
    ) {
        let min = (total / 3).max(1);
        let plan = ProvisioningPlan::load_proportional(&volumes, total, min);
        for (i, &n) in plan.counts().iter().enumerate() {
            prop_assert!((min..=total).contains(&n), "slot {} count {}", i, n);
        }
        for i in 0..volumes.len() {
            for j in 0..volumes.len() {
                if volumes[i] > volumes[j] {
                    prop_assert!(
                        plan.active_at(i) >= plan.active_at(j),
                        "volume {} > {} but servers {} < {}",
                        volumes[i], volumes[j], plan.active_at(i), plan.active_at(j)
                    );
                }
            }
        }
        // The peak slot gets everything.
        let peak = volumes.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0;
        prop_assert_eq!(plan.active_at(peak), total);
    }

    /// The feedback controller never leaves its bounds and always
    /// reacts in the correct direction.
    #[test]
    fn feedback_controller_direction(
        total in 2usize..20,
        current in 1usize..20,
        delay_ms in 0u64..5_000,
    ) {
        let current = current.min(total);
        let mut fc = FeedbackController::paper_defaults(total);
        let delay = SimDuration::from_millis(delay_ms);
        let next = fc.decide(current, delay);
        prop_assert!((1..=total).contains(&next));
        if delay > SimDuration::from_millis(500) {
            prop_assert!(next >= current, "over bound must not scale down");
        }
        if delay_ms < 100 {
            prop_assert!(next <= current, "deep headroom must not scale up");
        }
        prop_assert!((next as i64 - current as i64).abs() <= 1, "one step per slot");
    }

    /// Algorithm 2 always returns the authoritative value regardless of
    /// cache/transition state, for any interleaving of fetches and
    /// transitions.
    #[test]
    fn router_always_returns_authoritative_data(
        ops in prop::collection::vec((0u16..60, any::<bool>()), 1..60),
        servers in 2usize..6,
    ) {
        let router = Router::new(Scenario::Proteus.strategy(servers, 0));
        let mut caches: Vec<CacheEngine> = (0..servers)
            .map(|_| {
                CacheEngine::new(
                    CacheConfig::with_capacity(1 << 16)
                        .digest(BloomConfig::new(1 << 12, 4, 4)),
                )
            })
            .collect();
        let mut db = ShardedStore::new(StoreConfig { object_size: 64, ..StoreConfig::default() });
        let mut tm = TransitionManager::new(servers, servers);
        let mut now = SimTime::ZERO;
        let mut next_active = servers;
        for &(page, do_transition) in &ops {
            now += SimDuration::from_millis(200);
            if do_transition {
                next_active = if next_active > 1 { next_active - 1 } else { servers };
                let snapshots: Vec<_> =
                    caches.iter().map(CacheEngine::digest_snapshot).collect();
                tm.begin(now, next_active, SimDuration::from_secs(1), |i| {
                    snapshots[i].clone()
                });
            }
            let key = format!("page:{page}").into_bytes();
            let expect = proteus_store::generate_page_content(&key, 64);
            let out = router.fetch(&key, now, &mut caches, &mut db, &tm, true);
            prop_assert_eq!(&out.value, &expect, "wrong data for page {}", page);
            prop_assert!(out.new_server.index() < tm.active());
        }
    }
}
