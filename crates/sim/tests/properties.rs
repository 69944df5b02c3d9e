//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use proteus_sim::{EventQueue, Resource, SimDuration, SimRng, SimTime, TimeSeries};

proptest! {
    /// Popping the event queue always yields events in non-decreasing
    /// time order, regardless of insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Events scheduled at identical times pop in insertion order.
    #[test]
    fn event_queue_ties_are_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(t);
        for i in 0..n {
            q.schedule(at, i);
        }
        for expect in 0..n {
            let (_, got) = q.pop().unwrap();
            prop_assert_eq!(got, expect);
        }
    }

    /// A resource's grants never start before arrival, never overlap more
    /// than `servers` jobs, and starts are non-decreasing (FIFO).
    #[test]
    fn resource_grants_are_feasible(
        servers in 1usize..8,
        jobs in prop::collection::vec((0u64..10_000, 1u64..500), 1..200),
    ) {
        let mut arrivals: Vec<(u64, u64)> = jobs;
        arrivals.sort_unstable();
        let mut r = Resource::new(servers);
        let mut grants = Vec::new();
        let mut last_start = SimTime::ZERO;
        for &(at, svc) in &arrivals {
            let arrival = SimTime::from_nanos(at);
            let g = r.acquire(arrival, SimDuration::from_nanos(svc));
            prop_assert!(g.start >= arrival);
            prop_assert_eq!(g.end, g.start + SimDuration::from_nanos(svc));
            prop_assert!(g.start >= last_start, "FIFO start order");
            last_start = g.start;
            grants.push(g);
        }
        // At any grant start, at most `servers` jobs are simultaneously
        // in service (check at each start instant).
        for probe in &grants {
            let overlapping = grants
                .iter()
                .filter(|g| g.start <= probe.start && probe.start < g.end)
                .count();
            prop_assert!(overlapping <= servers, "{overlapping} > {servers}");
        }
    }

    /// TimeSeries totals are preserved regardless of where observations
    /// land, and per-slot sums add up to the grand total.
    #[test]
    fn time_series_conserves_mass(
        obs in prop::collection::vec((0u64..100_000, 0.0f64..100.0), 1..200),
        slots in 1usize..20,
    ) {
        let mut s = TimeSeries::new(SimDuration::from_nanos(1000), slots);
        let mut total = 0.0;
        for &(t, v) in &obs {
            s.add(SimTime::from_nanos(t), v);
            total += v;
        }
        prop_assert!((s.total() - total).abs() < 1e-6);
        prop_assert_eq!(s.counts().iter().sum::<u64>(), obs.len() as u64);
    }

    /// Forked RNG streams are deterministic functions of (seed, salt).
    #[test]
    fn rng_fork_is_deterministic(seed in any::<u64>(), salt in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..8 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }
}
