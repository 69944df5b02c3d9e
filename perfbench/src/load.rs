//! The load generator: one thread, one request in flight, either as a
//! closed loop or as an open loop timed from each request's due time.

use std::time::{Duration, Instant};

/// A system under load. `issue` is the timed request. `prepare` runs
/// before the request is due and `settle` after its completion time was
/// taken, so making inputs and checking outputs are not charged to it.
pub trait Target {
    type Out;
    fn prepare(&mut self, _request: usize) {}
    fn issue(&mut self, request: usize) -> Self::Out;
    fn settle(&mut self, request: usize, out: Self::Out);
}

/// When one request was due, sent and completed, as offsets from the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency as the user sees it: from when the request was due.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent - self.due
    }
}

/// Sleeps until `at`, spinning only for the last stretch so wake-up
/// overshoot does not read as latency. Returns how long it spun.
fn wait_until(at: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(100);
    let mut spin_from = None;
    loop {
        let now = Instant::now();
        if now >= at {
            return spin_from.map_or(Duration::ZERO, |from| now - from);
        }
        let left = at - now;
        if left > SPIN * 2 {
            std::thread::sleep(left - SPIN);
        } else {
            spin_from.get_or_insert(now);
            std::hint::spin_loop();
        }
    }
}

/// Issues request `i` at `start + schedule[i]`, or as soon as the
/// previous one completes if that is later. Gives up (returning the
/// timings so far) once it is `give_up` behind schedule, so a wedged
/// target cannot hold the run hostage. Also returns how long the
/// generator spun waiting for due times, CPU time that is the
/// generator's and not the target's.
pub fn open_loop<T: Target>(
    target: &mut T,
    start: Instant,
    schedule: &[Duration],
    give_up: Duration,
) -> (Vec<Timing>, Duration) {
    let mut out = Vec::with_capacity(schedule.len());
    let mut spun = Duration::ZERO;
    for (i, &due) in schedule.iter().enumerate() {
        target.prepare(i);
        spun += wait_until(start + due);
        let sent = start.elapsed();
        if sent - due > give_up {
            break;
        }
        let result = target.issue(i);
        let done = start.elapsed();
        target.settle(i, result);
        out.push(Timing { due, sent, done });
    }
    (out, spun)
}

/// Issues requests back to back for `length`; each is due when sent.
pub fn closed_loop<T: Target>(target: &mut T, start: Instant, length: Duration) -> Vec<Timing> {
    let mut out = Vec::new();
    loop {
        target.prepare(out.len());
        let sent = start.elapsed();
        if sent >= length {
            return out;
        }
        let result = target.issue(out.len());
        let done = start.elapsed();
        target.settle(out.len(), result);
        out.push(Timing {
            due: sent,
            sent,
            done,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers instantly except for one request, which stalls.
    struct Stalls {
        at: usize,
        pause: Duration,
    }

    impl Target for Stalls {
        type Out = ();
        fn issue(&mut self, request: usize) {
            if request == self.at {
                std::thread::sleep(self.pause);
            }
        }
        fn settle(&mut self, _: usize, _: ()) {}
    }

    #[test]
    fn a_pause_is_charged_to_the_requests_due_during_it() {
        let pause = Duration::from_millis(60);
        let gap = Duration::from_millis(2);
        let schedule: Vec<Duration> = (0..100).map(|i| gap * i).collect();
        let mut target = Stalls { at: 10, pause };
        let (t, _) = open_loop(
            &mut target,
            Instant::now(),
            &schedule,
            Duration::from_secs(5),
        );
        assert_eq!(t.len(), 100);
        // Request 10 itself takes the whole pause.
        assert!(t[10].latency() >= pause);
        // Every request due while it stalled waits out the rest of the
        // pause, measured from its own due time.
        let stalled_until = t[10].done;
        for timing in &t[11..] {
            if timing.due < stalled_until {
                assert!(timing.latency() >= stalled_until - timing.due);
                assert!(timing.late() > Duration::ZERO);
            }
        }
        let stalled = t[11..].iter().filter(|x| x.due < stalled_until).count();
        assert!(
            stalled >= 25,
            "{stalled} requests due during a 60 ms pause at 2 ms spacing"
        );
        // Before the pause nothing waited on it, and long after it the
        // generator has caught up.
        assert!(t[..10].iter().all(|x| x.latency() < pause / 2));
        assert!(t[99].late() < pause / 2);
    }

    #[test]
    fn closed_loop_runs_for_its_length() {
        let mut target = Stalls {
            at: usize::MAX,
            pause: Duration::ZERO,
        };
        let t = closed_loop(&mut target, Instant::now(), Duration::from_millis(20));
        assert!(!t.is_empty());
        assert!(t.iter().all(|x| x.late() == Duration::ZERO));
        assert!(t.last().unwrap().sent < Duration::from_millis(20));
    }
}
