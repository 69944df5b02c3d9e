//! The smooth-provisioning transition state machine (Section IV).

use proteus_bloom::BloomFilter;
use proteus_sim::SimTime;

use crate::power::PowerState;

/// Tracks the provisioning state machine of the cache tier: which
/// servers are on/draining/off, the old and new key mappings during a
/// transition window, and the digest snapshots broadcast to the web
/// tier at transition start.
///
/// Protocol (Section IV): when `n(t) → n(t+1)`,
///
/// 1. digests of the servers active under the *old* mapping are
///    snapshot and broadcast ("at the beginning of the transition
///    stage, digests will be broadcasted to all web servers");
/// 2. for `TTL` seconds both mappings are live: requests go to the new
///    server first, then (digest permitting) to the old one
///    (Algorithm 2);
/// 3. after `TTL`, any departing server is safely powered off — every
///    hot item has been migrated on demand, every cold item may be
///    dropped.
///
/// The simulator, the reference [`Router`](crate::Router) and the live
/// cluster client all keep their window in this one type and decide
/// step 2 with [`Router::digest_probe`](crate::Router::digest_probe).
///
/// # Example
///
/// ```
/// use proteus_bloom::{BloomConfig, BloomFilter};
/// use proteus_core::TransitionManager;
/// use proteus_sim::{SimDuration, SimTime};
///
/// let mut tm = TransitionManager::new(4, 4);
/// let t0 = SimTime::from_secs(100);
/// tm.begin(t0, 3, SimDuration::from_secs(10), |_server| {
///     BloomFilter::new(BloomConfig::new(64, 1, 2))
/// });
/// assert!(tm.in_transition(t0 + SimDuration::from_secs(5)));
/// assert_eq!(tm.active(), 3);
/// assert_eq!(tm.previous_active(), 4);
/// ```
#[derive(Debug)]
pub struct TransitionManager {
    total: usize,
    active: usize,
    previous_active: usize,
    deadline: Option<SimTime>,
    states: Vec<PowerState>,
    digests: Vec<Option<BloomFilter>>,
}

impl TransitionManager {
    /// Creates the manager with `initial_active` of `total` servers on.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= initial_active <= total`.
    #[must_use]
    pub fn new(total: usize, initial_active: usize) -> Self {
        assert!(
            (1..=total).contains(&initial_active),
            "initial active count {initial_active} outside 1..={total}"
        );
        let mut states = vec![PowerState::Off; total];
        for s in states.iter_mut().take(initial_active) {
            *s = PowerState::On;
        }
        TransitionManager {
            total,
            active: initial_active,
            previous_active: initial_active,
            deadline: None,
            states,
            digests: vec![None; total],
        }
    }

    /// Total servers.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Active servers under the *new* (current) mapping.
    #[must_use]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Active servers under the *old* mapping (equal to
    /// [`active`](Self::active) outside a transition window).
    #[must_use]
    pub fn previous_active(&self) -> usize {
        self.previous_active
    }

    /// The power state of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> PowerState {
        self.states[i]
    }

    /// Whether a transition window is open at time `now`: opened, not
    /// finalized, and not past its deadline (if it has one).
    #[must_use]
    pub fn in_transition(&self, now: SimTime) -> bool {
        self.window_open() && self.deadline.is_none_or(|d| now < d)
    }

    /// The digest snapshot of server `i` taken at the start of the
    /// current window, if one is open and `i` was active under the old
    /// mapping.
    #[must_use]
    pub fn digest(&self, i: usize) -> Option<&BloomFilter> {
        self.digests.get(i).and_then(Option::as_ref)
    }

    /// Whether two mappings are live: a window was opened and not yet
    /// finalized (past its deadline or not).
    #[must_use]
    pub fn window_open(&self) -> bool {
        self.previous_active != self.active
    }

    /// Opens a transition to `new_active` servers at time `now` with a
    /// drain window of `ttl`. `snapshot` is called once per server
    /// active under the old mapping to capture its digest (the
    /// broadcast). A still-open previous window is finalized first.
    ///
    /// Calling with `new_active == active` is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `new_active` is outside `1..=total`.
    pub fn begin<F>(
        &mut self,
        now: SimTime,
        new_active: usize,
        ttl: proteus_sim::SimDuration,
        mut snapshot: F,
    ) where
        F: FnMut(usize) -> BloomFilter,
    {
        if self.window_open() {
            self.finalize();
        }
        if new_active == self.active {
            return;
        }
        // Broadcast: snapshot every server of the old configuration.
        let digests = (0..self.total)
            .map(|i| (i < self.active).then(|| snapshot(i)))
            .collect();
        self.open(new_active, digests);
        self.deadline = Some(now + ttl);
    }

    /// Opens a transition to `new_active` servers with a broadcast
    /// collected elsewhere: `digests[i]` is server `i`'s snapshot, or
    /// `None` where none could be taken (its keys then read as cold).
    /// The window has no deadline; it stays open until
    /// [`finalize`](Self::finalize), so a caller on a wall clock times
    /// the drain itself.
    ///
    /// # Panics
    ///
    /// Panics if a window is already open, if `new_active` equals the
    /// current count or is outside `1..=total`, or if `digests` does
    /// not hold one entry per server.
    pub fn open(&mut self, new_active: usize, digests: Vec<Option<BloomFilter>>) {
        self.check_range(new_active);
        assert!(!self.window_open(), "a transition window is already open");
        assert_ne!(new_active, self.active, "a window needs a new mapping");
        assert_eq!(digests.len(), self.total, "one digest slot per server");
        // At most one of the two ranges is non-empty.
        self.states[new_active.min(self.active)..self.active].fill(PowerState::Draining);
        self.states[self.active.min(new_active)..new_active].fill(PowerState::On);
        self.digests = digests;
        self.previous_active = self.active;
        self.active = new_active;
    }

    /// Closes the current window: draining servers power off, digests
    /// are dropped, and the old mapping is retired. Returns the servers
    /// that powered off (their caches should be cleared).
    pub fn finalize(&mut self) -> Vec<usize> {
        let mut powered_off = Vec::new();
        for (i, s) in self.states.iter_mut().enumerate() {
            if *s == PowerState::Draining {
                *s = PowerState::Off;
                powered_off.push(i);
            }
        }
        self.digests.iter_mut().for_each(|d| *d = None);
        self.previous_active = self.active;
        self.deadline = None;
        powered_off
    }

    /// Immediate (non-smooth) switch, as the Naive and Consistent
    /// scenarios do: the mapping changes and departing servers power
    /// off at once, losing their contents. A still-open smooth window
    /// is finalized first (its draining servers power off too).
    /// Returns all powered-off servers.
    ///
    /// # Panics
    ///
    /// Panics if `new_active` is outside `1..=total`.
    pub fn switch_abrupt(&mut self, new_active: usize) -> Vec<usize> {
        self.check_range(new_active);
        let mut powered_off = self.finalize();
        // At most one of the two ranges is non-empty.
        powered_off.extend(new_active..self.active);
        self.states[new_active.min(self.active)..self.active].fill(PowerState::Off);
        self.states[self.active.min(new_active)..new_active].fill(PowerState::On);
        self.active = new_active;
        self.previous_active = new_active;
        powered_off
    }

    fn check_range(&self, new_active: usize) {
        assert!(
            (1..=self.total).contains(&new_active),
            "new active count {new_active} outside 1..={}",
            self.total
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_bloom::{BloomConfig, CountingBloomFilter};
    use proteus_sim::SimDuration;

    fn digest_with(keys: &[&[u8]]) -> BloomFilter {
        let mut c = CountingBloomFilter::new(BloomConfig::new(1024, 4, 4));
        for k in keys {
            c.insert(k);
        }
        c.snapshot()
    }

    #[test]
    fn initial_states_follow_prefix() {
        let tm = TransitionManager::new(6, 4);
        for i in 0..4 {
            assert_eq!(tm.state(i), PowerState::On);
        }
        for i in 4..6 {
            assert_eq!(tm.state(i), PowerState::Off);
        }
        assert!(!tm.in_transition(SimTime::ZERO));
        assert_eq!(tm.digest(0), None);
    }

    #[test]
    fn scale_down_opens_window_with_digests() {
        let mut tm = TransitionManager::new(4, 4);
        let t = SimTime::from_secs(10);
        tm.begin(t, 2, SimDuration::from_secs(5), |i| {
            digest_with(&[format!("server{i}").as_bytes()])
        });
        assert_eq!(tm.active(), 2);
        assert_eq!(tm.previous_active(), 4);
        assert_eq!(tm.state(2), PowerState::Draining);
        assert_eq!(tm.state(3), PowerState::Draining);
        assert!(tm.in_transition(t + SimDuration::from_secs(4)));
        assert!(!tm.in_transition(t + SimDuration::from_secs(5)));
        // Digests exist for all four old-config servers.
        for i in 0..4 {
            assert!(tm.digest(i).is_some(), "digest {i}");
        }
        assert!(tm.digest(0).unwrap().contains(b"server0"));
    }

    #[test]
    fn finalize_powers_off_draining_servers() {
        let mut tm = TransitionManager::new(4, 4);
        tm.begin(SimTime::ZERO, 3, SimDuration::from_secs(5), |_| {
            digest_with(&[])
        });
        let off = tm.finalize();
        assert_eq!(off, vec![3]);
        assert_eq!(tm.state(3), PowerState::Off);
        assert_eq!(tm.previous_active(), 3);
        assert_eq!(tm.digest(0), None, "digests dropped");
        assert!(!tm.in_transition(SimTime::from_secs(6)));
    }

    #[test]
    fn scale_up_turns_servers_on_and_keeps_old_digests() {
        let mut tm = TransitionManager::new(5, 2);
        tm.begin(SimTime::ZERO, 4, SimDuration::from_secs(3), |i| {
            digest_with(&[format!("s{i}").as_bytes()])
        });
        assert_eq!(tm.state(2), PowerState::On);
        assert_eq!(tm.state(3), PowerState::On);
        assert_eq!(tm.previous_active(), 2);
        // Only the two old-config servers have digests.
        assert!(tm.digest(0).is_some() && tm.digest(1).is_some());
        assert!(tm.digest(2).is_none() && tm.digest(3).is_none());
    }

    #[test]
    fn overlapping_transition_finalizes_previous() {
        let mut tm = TransitionManager::new(6, 6);
        tm.begin(SimTime::ZERO, 5, SimDuration::from_secs(10), |_| {
            digest_with(&[])
        });
        // Second transition before the first drain ends.
        tm.begin(SimTime::from_secs(4), 4, SimDuration::from_secs(10), |_| {
            digest_with(&[])
        });
        assert_eq!(tm.state(5), PowerState::Off, "previous drain finalized");
        assert_eq!(tm.state(4), PowerState::Draining);
        assert_eq!(tm.active(), 4);
        assert_eq!(tm.previous_active(), 5);
    }

    #[test]
    fn no_op_transition_changes_nothing() {
        let mut tm = TransitionManager::new(4, 3);
        tm.begin(SimTime::ZERO, 3, SimDuration::from_secs(5), |_| {
            panic!("snapshot must not be called for a no-op")
        });
        assert!(!tm.in_transition(SimTime::ZERO));
        assert_eq!(tm.active(), 3);
    }

    #[test]
    fn abrupt_switch_has_no_window() {
        let mut tm = TransitionManager::new(4, 4);
        let off = tm.switch_abrupt(2);
        assert_eq!(off, vec![2, 3]);
        // An abrupt switch closes any open smooth window first.
        let mut tm2 = TransitionManager::new(4, 4);
        tm2.begin(SimTime::ZERO, 3, SimDuration::from_secs(10), |_| {
            digest_with(&[])
        });
        let off = tm2.switch_abrupt(3);
        assert_eq!(off, vec![3], "draining server powered off by abrupt switch");
        assert_eq!(tm2.state(3), PowerState::Off);
        assert!(!tm.in_transition(SimTime::ZERO));
        assert_eq!(tm.previous_active(), 2);
        let off = tm.switch_abrupt(3);
        assert!(off.is_empty());
        assert_eq!(tm.state(2), PowerState::On);
    }

    #[test]
    #[should_panic(expected = "outside 1..=4")]
    fn begin_validates_range() {
        let mut tm = TransitionManager::new(4, 2);
        tm.begin(SimTime::ZERO, 5, SimDuration::from_secs(1), |_| {
            digest_with(&[])
        });
    }
}
