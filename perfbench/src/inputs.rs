//! Seeded workload inputs: keys, values, op sequences and open-loop
//! schedules. Everything here is a pure function of the seed, so the
//! same seed hands the program the same inputs on every run.

use std::time::Duration;

use proteus_sim::{SimDuration, SimRng};
use proteus_store::{content_size_for, generate_page_content, generate_sized_content};
use proteus_workload::{CompressedDay, DiurnalCurve, ReplayPacer, ZipfSampler};

/// Smallest and largest generated value, in bytes: around the paper's
/// 4 KB page objects, which is also the item size the default
/// `CacheConfig` sizes its digest for.
pub const VALUE_MIN: usize = 2048;
pub const VALUE_MAX: usize = 6144;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    /// Index into the workload's [`Keyspace`].
    pub key: u32,
}

/// The workload's keys. Popularity rank `r` maps to a seed-dependent
/// key, so the hottest keys land on different servers for different
/// seeds.
#[derive(Debug, Clone)]
pub struct Keyspace {
    keys: Vec<Vec<u8>>,
}

impl Keyspace {
    pub fn new(count: u32, seed: u64) -> Self {
        let mut ids: Vec<u32> = (0..count).collect();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x6b65_7973);
        for i in (1..ids.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        Keyspace {
            keys: ids
                .into_iter()
                .map(|id| format!("page:{id}").into_bytes())
                .collect(),
        }
    }

    /// Keys named by the DES trace's page ids, in page order.
    pub fn from_pages(pages: impl IntoIterator<Item = u64>) -> Self {
        Keyspace {
            keys: pages.into_iter().map(proteus_core::page_key).collect(),
        }
    }

    pub fn key(&self, i: u32) -> &[u8] {
        &self.keys[i as usize]
    }
}

/// The backing store's content for `key` before any write: the bytes a
/// read must return unless the benchmark itself wrote the key.
pub fn stored_value(key: &[u8]) -> Vec<u8> {
    generate_sized_content(key, VALUE_MIN, VALUE_MAX)
}

/// The value the `version`-th write of `key` stores: same size as the
/// stored content, different bytes for every version.
pub fn put_value(key: &[u8], version: u64) -> Vec<u8> {
    let mut tag = key.to_vec();
    tag.extend_from_slice(format!("#v{version}").as_bytes());
    generate_page_content(&tag, content_size_for(key, VALUE_MIN, VALUE_MAX))
}

/// `count` ops over `keys` keys drawn Zipf(`exponent`), each a `Put`
/// with probability `put_share`.
pub fn ops(seed: u64, keys: u32, exponent: f64, put_share: f64, count: usize) -> Vec<Op> {
    let zipf = ZipfSampler::new(u64::from(keys), exponent);
    let mut rng = SimRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let key = (zipf.sample(&mut rng) - 1) as u32;
            let kind = if rng.uniform_f64() < put_share {
                OpKind::Put
            } else {
                OpKind::Get
            };
            Op { kind, key }
        })
        .collect()
}

/// Due times of a Poisson open loop whose rate is a square wave:
/// `low` for the first half of every `period`, `high` for the second.
pub fn square_wave(
    seed: u64,
    low: f64,
    high: f64,
    period: Duration,
    length: Duration,
) -> Vec<Duration> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7371_7561);
    let half = period.as_secs_f64() / 2.0;
    let end = length.as_secs_f64();
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let rate = if ((t / half) as u64).is_multiple_of(2) {
            low
        } else {
            high
        };
        t += -rng.positive_uniform_f64().ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Due times of one compressed diurnal day lasting `length`, as
/// [`ReplayPacer`] releases them when polled every millisecond;
/// requests released by one poll are spread evenly over the
/// millisecond before it.
pub fn diurnal_day(
    mean_rate: f64,
    peak_to_nadir: f64,
    length: Duration,
) -> (CompressedDay, Vec<Duration>) {
    let period = SimDuration::from_secs(86_400);
    let compression = period.as_secs_f64() / length.as_secs_f64();
    let day = CompressedDay::new(
        DiurnalCurve::new(mean_rate, peak_to_nadir, period),
        compression,
    );
    let mut pacer = ReplayPacer::new(day);
    let step = Duration::from_millis(1);
    let mut due = Vec::new();
    let mut at = step;
    while at <= length {
        let n = pacer.due(at);
        for i in 0..n {
            due.push(at - step + step.mul_f64((i + 1) as f64 / n as f64));
        }
        at += step;
    }
    (day, due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_sequence() {
        let a = ops(11, 10_000, 0.99, 0.2, 50_000);
        let b = ops(11, 10_000, 0.99, 0.2, 50_000);
        assert_eq!(a, b);
        assert_ne!(a, ops(12, 10_000, 0.99, 0.2, 50_000));
        assert_eq!(Keyspace::new(1000, 5).keys, Keyspace::new(1000, 5).keys);
        let w = |s| {
            square_wave(
                s,
                500.0,
                1500.0,
                Duration::from_secs(2),
                Duration::from_secs(4),
            )
        };
        assert_eq!(w(3), w(3));
        assert_eq!(put_value(b"page:1", 7), put_value(b"page:1", 7));
        assert_ne!(put_value(b"page:1", 7), put_value(b"page:1", 8));
    }

    #[test]
    fn op_mix_follows_parameters() {
        let seq = ops(1, 1000, 0.99, 0.2, 100_000);
        let puts = seq.iter().filter(|o| o.kind == OpKind::Put).count() as f64;
        assert!((puts / 100_000.0 - 0.2).abs() < 0.01);
        assert!(seq.iter().all(|o| o.key < 1000));
    }

    #[test]
    fn schedules_are_sorted_and_paced() {
        let w = square_wave(
            9,
            500.0,
            1500.0,
            Duration::from_secs(2),
            Duration::from_secs(4),
        );
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
        // Two periods at a mean of 1000/s.
        assert!((w.len() as f64 - 4000.0).abs() < 300.0, "{}", w.len());
        let (day, d) = diurnal_day(200.0, 3.0, Duration::from_secs(2));
        assert!(d.windows(2).all(|p| p[0] <= p[1]));
        assert!((d.len() as f64 - day.expected_total()).abs() <= 2.0);
    }
}
