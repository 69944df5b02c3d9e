//! Single-threaded isolation replays of the workload's own keys and
//! ops against one layer at a time: ring, bloom, cache and wire.

use std::hint::black_box;
use std::time::Instant;

use proteus_bloom::{BloomFilter, DigestSnapshot};
use proteus_cache::{CacheConfig, ShardedEngine, SharedBytes};
use proteus_core::Scenario;
use proteus_net::{parse_raw_command, write_response, Response, WireBuf};
use proteus_ring::hash::KeyHasher;
use proteus_sim::SimTime;

use crate::inputs::{put_value, stored_value, Keyspace, Op, OpKind};
use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::median;

/// Ops replayed per layer; enough for stable ns/op, short enough that
/// the replays add seconds, not minutes, to a traced run.
const REPLAY_OPS: usize = 100_000;
/// Timed passes per replay; the median pass is reported.
const PASSES: usize = 5;

pub struct Replay<'a> {
    pub keyspace: &'a Keyspace,
    pub ops: &'a [Op],
    /// Cache servers in the workload's cluster (the ring's size).
    pub servers: usize,
    pub cache: CacheConfig,
}

/// Median over [`PASSES`] of `pass()`'s wall time per item.
fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&mut samples).unwrap_or(0.0)
}

impl Replay<'_> {
    fn ops(&self) -> &[Op] {
        &self.ops[..self.ops.len().min(REPLAY_OPS)]
    }

    /// Runs every replay, recording one span per replay in `spans`, and
    /// returns the engine the cache replay left (for the bloom replay
    /// when the workload has no live server engine).
    pub fn run(&self, report: &mut Report, spans: &SpanLog) -> ShardedEngine {
        let span = spans.open("replay.ring", 0);
        let ns = self.ring();
        spans.close(span, "");
        report.layer("ring.server_for_ns", ns, "ns", self.ops().len() as u64);

        let span = spans.open("replay.cache", 0);
        let engine = self.cache(report);
        spans.close(span, "");

        let span = spans.open("replay.wire", 0);
        let (parse, encode) = self.wire();
        spans.close(span, "");
        report.layer("wire.parse_ns", parse, "ns", self.ops().len() as u64);
        report.layer("wire.encode_ns", encode, "ns", self.ops().len() as u64);
        engine
    }

    fn ring(&self) -> f64 {
        let strategy = Scenario::Proteus.strategy(self.servers, 0);
        let hasher = KeyHasher::default();
        let keys: Vec<&[u8]> = self
            .ops()
            .iter()
            .map(|o| self.keyspace.key(o.key))
            .collect();
        per_item_ns(keys.len(), || {
            for key in &keys {
                black_box(strategy.server_for(hasher.hash_bytes(black_box(key)), self.servers));
            }
        })
    }

    /// Applies the op sequence to a fresh engine with the servers'
    /// configuration, filling misses as the cluster client would, then
    /// times get-only and put-only passes over the warmed engine.
    fn cache(&self, report: &mut Report) -> ShardedEngine {
        let now = SimTime::from_secs(1);
        let engine = ShardedEngine::new(self.cache);
        let mut writes: Vec<(u32, SharedBytes)> = Vec::new();
        for (i, op) in self.ops().iter().enumerate() {
            let key = self.keyspace.key(op.key);
            let value: SharedBytes = match op.kind {
                OpKind::Get => {
                    if engine.get(key, now).is_some() {
                        continue;
                    }
                    stored_value(key).into()
                }
                OpKind::Put => put_value(key, i as u64).into(),
            };
            engine.put(key, SharedBytes::clone(&value), now);
            writes.push((op.key, value));
        }
        let stats = engine.stats();
        let items = engine.len().max(1);
        let bytes_per_item = engine.bytes_used() as f64 / items as f64;

        let gets: Vec<&[u8]> = self
            .ops()
            .iter()
            .filter(|o| o.kind == OpKind::Get)
            .map(|o| self.keyspace.key(o.key))
            .collect();
        let get_ns = per_item_ns(gets.len(), || {
            for key in &gets {
                black_box(engine.get(key, now));
            }
        });
        let put_ns = per_item_ns(writes.len(), || {
            for (key, value) in &writes {
                black_box(engine.put(self.keyspace.key(*key), SharedBytes::clone(value), now));
            }
        });
        let n = self.ops().len() as u64;
        report.layer("cache.get_ns", get_ns, "ns", gets.len() as u64);
        report.layer("cache.put_ns", put_ns, "ns", writes.len() as u64);
        report.layer("cache.hit_ratio", stats.hit_ratio(), "ratio", stats.gets());
        report.layer(
            "cache.evictions_per_op",
            stats.evictions as f64 / n as f64,
            "ratio",
            n,
        );
        report.layer("cache.bytes_per_item", bytes_per_item, "B", items as u64);
        engine
    }

    /// Parses the workload's own commands from one byte stream, and
    /// encodes the responses a server would send back.
    fn wire(&self) -> (f64, f64) {
        let mut stream = Vec::new();
        let mut responses = Vec::new();
        for (i, op) in self.ops().iter().enumerate() {
            let key = self.keyspace.key(op.key);
            match op.kind {
                OpKind::Get => {
                    stream.extend_from_slice(b"get ");
                    stream.extend_from_slice(key);
                    stream.extend_from_slice(b"\r\n");
                    responses.push(Response::Value {
                        key: key.to_vec(),
                        flags: 0,
                        data: stored_value(key).into(),
                    });
                }
                OpKind::Put => {
                    let value = put_value(key, i as u64);
                    stream.extend_from_slice(
                        format!(
                            "set {} 0 0 {}\r\n",
                            String::from_utf8_lossy(key),
                            value.len()
                        )
                        .as_bytes(),
                    );
                    stream.extend_from_slice(&value);
                    stream.extend_from_slice(b"\r\n");
                    responses.push(Response::Stored);
                }
            }
        }
        let n = responses.len();
        let mut buf = WireBuf::new();
        let parse_ns = per_item_ns(n, || {
            let mut rest = stream.as_slice();
            while !rest.is_empty() {
                let (command, used) = parse_raw_command(rest, &mut buf)
                    .expect("generated commands are well formed")
                    .expect("generated commands are complete");
                black_box(&command);
                rest = &rest[used..];
            }
        });
        let mut out = Vec::with_capacity(1 << 16);
        let encode_ns = per_item_ns(n, || {
            for response in &responses {
                out.clear();
                write_response(&mut out, response).expect("writing to memory cannot fail");
                black_box(&out);
            }
        });
        (parse_ns, encode_ns)
    }
}

/// Times a digest snapshot of `engine` plus its serialisation (the
/// server's side of a digest broadcast) and `contains` over the
/// workload's keys on the result.
pub fn bloom(engine: &ShardedEngine, keyspace: &Keyspace, ops: &[Op], report: &mut Report) {
    let mut snapshot_ms = Vec::new();
    let mut filter: Option<BloomFilter> = None;
    let mut bytes = 0;
    for _ in 0..PASSES {
        let t = Instant::now();
        let f = engine.digest_snapshot();
        bytes = DigestSnapshot::from_filter(&f).to_bytes().len();
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        filter = Some(f);
    }
    let filter = filter.expect("at least one pass");
    let keys: Vec<&[u8]> = ops[..ops.len().min(REPLAY_OPS)]
        .iter()
        .map(|o| keyspace.key(o.key))
        .collect();
    let contains_ns = per_item_ns(keys.len(), || {
        for key in &keys {
            black_box(filter.contains(black_box(key)));
        }
    });
    report.layer(
        "bloom.snapshot_ms",
        median(&mut snapshot_ms).unwrap_or(0.0),
        "ms",
        PASSES as u64,
    );
    report.layer("bloom.digest_bytes", bytes as f64, "B", 1);
    report.layer("bloom.contains_ns", contains_ns, "ns", keys.len() as u64);
}
