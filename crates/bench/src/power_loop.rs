//! The full paper story as one self-driving run: a compressed diurnal
//! day replayed over live TCP against a controller-steered cluster.
//!
//! Four real cache servers come up all-on; a [`ReplayPacer`] walks a
//! [`CompressedDay`] (time compressed, load levels verbatim) through
//! the cluster client while a [`ClusterController`] closes the
//! observe → decide → actuate loop on its own cadence. This is
//! Figs. 10–11 of the paper shrunk from 24 hours to seconds: n(t)
//! follows the load curve down into the night and back up the morning
//! ramp, and the energy account lands near the proportional oracle.
//!
//! [`run`] asserts these gates:
//!
//! 1. **Zero client errors** — every replayed request completes even
//!    while transition windows open and close mid-stream, and the day
//!    carried real load.
//! 2. **Power proportionality** — measured joules stay within 1.5× the
//!    oracle (fewest balanced servers for the observed demand), and
//!    the cluster actually sheds machine-time (server-seconds well
//!    below all-on × elapsed).
//! 3. **Delay bound** — the worst windowed cluster p99 the controller
//!    observed stays under the paper's 0.5 s bound.
//! 4. **Both directions** — at least one scale-down and one scale-up
//!    window closed (a flat n(t) would trivially pass gate 2 at peak).
//! 5. **Gap-free trace** — `/trace.jsonl` replays every decision and
//!    the transition it caused with contiguous seqs, every
//!    `controller_decision` followed by its matching
//!    `transition_begin`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use proteus_agg::{http_get, json, ClusterObserver, ObserverConfig};
use proteus_cache::CacheConfig;
use proteus_core::Scenario;
use proteus_ctl::{ActuationConfig, ClusterController, PolicyConfig, StepAction, WallPolicy};
use proteus_net::{CacheServer, ClusterClient};
use proteus_obs::{MetricsServer, ScrapeLimits};
use proteus_sim::SimDuration;
use proteus_store::{ShardedStore, StoreConfig};
use proteus_workload::{CompressedDay, DiurnalCurve, ReplayPacer};

const N: usize = 4;
const CAPACITY_OPS: f64 = 100.0;
const MEAN_RATE: f64 = 200.0;
const PEAK_TO_NADIR: f64 = 3.0;

/// Replays one compressed day — 12 s of wall time when `smoke`, else
/// 30 s — and asserts every gate listed in the module docs, printing
/// one line per gate.
///
/// # Panics
///
/// Panics if a gate fails or the loopback cluster cannot be set up.
pub fn run(smoke: bool) {
    // Rates are replayed verbatim, so the controller faces the real
    // load levels either way.
    let compression = if smoke { 7200.0 } else { 2880.0 };
    let day = CompressedDay::new(
        DiurnalCurve::new(MEAN_RATE, PEAK_TO_NADIR, SimDuration::from_secs(86_400)),
        compression,
    );
    let wall_day = day.wall_day();
    let tick = Duration::from_millis(200);

    let servers: Vec<CacheServer> = (0..N)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(CacheServer::addr).collect();
    let endpoints: Vec<MetricsServer> = servers
        .iter()
        .map(|s| MetricsServer::spawn("127.0.0.1:0", s.metric_source()).unwrap())
        .collect();
    let client = Arc::new(RwLock::new(
        ClusterClient::connect(&addrs, Scenario::Proteus.strategy(N, 0)).unwrap(),
    ));
    let tracer = Arc::clone(client.read().tracer());
    let source = client.read().metric_source();
    let exposition =
        MetricsServer::spawn_traced("127.0.0.1:0", source, tracer, ScrapeLimits::default())
            .unwrap();

    let observer = Arc::new(ClusterObserver::new(ObserverConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(2),
        server_capacity_ops: CAPACITY_OPS,
        ..ObserverConfig::default()
    }));
    for e in &endpoints {
        observer.add_server(e.local_addr());
    }
    let policy = WallPolicy::new(PolicyConfig {
        min_servers: 1,
        max_step: 2,
        cooldown: Duration::from_millis(600),
        ..PolicyConfig::for_cluster(N, CAPACITY_OPS)
    });
    let bound = Duration::from_nanos(policy.config().points.bound_ns());
    let mut controller = ClusterController::new(
        Arc::clone(&observer),
        Arc::clone(&client),
        endpoints.iter().map(MetricsServer::local_addr).collect(),
        policy,
        ActuationConfig {
            boot_delay: Duration::from_millis(150),
            drain: Duration::from_millis(150),
        },
    );

    println!(
        "power_loop: {N} live servers, one simulated day in {:.0} s (compression {compression:.0}x), \
         load {:.0}..{:.0} ops/s",
        wall_day.as_secs_f64(),
        day.curve().nadir_rate(),
        day.curve().peak_rate()
    );

    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    let keys: Vec<Vec<u8>> = (0..400u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for k in &keys {
        client.read().fetch(k, &db).unwrap();
    }

    // --- Replay the day, controller online. -----------------------
    let mut pacer = ReplayPacer::new(day);
    let mut errors: u64 = 0;
    let mut cursor = 0usize;
    let mut shrinks = 0u32;
    let mut grows = 0u32;
    let mut n_min = N;
    let mut n_max = 0usize;
    let mut worst_p99 = Duration::ZERO;
    let start = Instant::now();
    let mut next_tick = Duration::ZERO;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= wall_day {
            break;
        }
        for _ in 0..pacer.due(elapsed) {
            let key = &keys[cursor % keys.len()];
            cursor += 1;
            if client.read().fetch(key, &db).is_err() {
                errors += 1;
            }
        }
        if elapsed >= next_tick {
            next_tick += tick;
            let report = controller.step();
            match report.action {
                StepAction::WindowClosed { from, to } if to < from => shrinks += 1,
                StepAction::WindowClosed { .. } => grows += 1,
                _ => {}
            }
            if let Some(p99) = report.signal.p99 {
                worst_p99 = worst_p99.max(p99);
            }
            let active = client.read().active();
            n_min = n_min.min(active);
            n_max = n_max.max(active);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    observer.tick();
    let meter = observer.energy();
    let elapsed = meter.elapsed().expect("energy was sampled").as_secs_f64();

    // --- Gate 1: zero client errors -------------------------------
    assert_eq!(errors, 0, "replayed requests must never error");
    assert!(pacer.issued() > 500, "the day must have carried real load");
    println!(
        "  replay             : {} requests issued, 0 errors, n(t) ranged {n_min}..{n_max}",
        pacer.issued()
    );

    // --- Gate 4: n(t) moved both directions -----------------------
    assert!(shrinks > 0, "the night must shed servers");
    assert!(grows > 0, "the morning ramp must grow them back");
    println!(
        "  transitions        : {shrinks} shrink(s), {grows} grow(s), {} decisions",
        controller.decisions()
    );

    // --- Gate 2: energy near the proportional oracle --------------
    let proportionality = meter.proportionality().expect("energy accumulated");
    assert!(
        proportionality <= 1.5,
        "measured energy must stay within 1.5x the oracle: {proportionality:.3}"
    );
    let all_on_fraction = meter.server_seconds() / (N as f64 * elapsed);
    assert!(
        all_on_fraction < 0.95,
        "the cluster never meaningfully powered down: {all_on_fraction:.3}"
    );
    println!(
        "  energy             : {:.1} J measured, {:.1} J oracle, proportionality {proportionality:.2}, \
         machine-time {:.0}% of all-on",
        meter.joules(),
        meter.oracle_joules(),
        all_on_fraction * 100.0
    );

    // --- Gate 3: delay bound held ---------------------------------
    assert!(
        worst_p99 < bound,
        "worst windowed p99 {worst_p99:?} must stay under the bound {bound:?}"
    );
    println!("  delay              : worst windowed p99 {worst_p99:?} (bound {bound:?})");

    // --- Gate 5: gap-free decision + transition trace -------------
    let body = http_get(
        exposition.local_addr(),
        "/trace.jsonl",
        Duration::from_millis(500),
        Duration::from_secs(2),
    )
    .unwrap();
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "the run must have produced trace events");
    let mut events = Vec::with_capacity(lines.len());
    let mut prev_seq: Option<u64> = None;
    for line in &lines {
        let event = json::parse(line).expect("every trace line parses alone");
        let seq = event.get("seq").unwrap().as_u64().unwrap();
        if let Some(prev) = prev_seq {
            assert_eq!(seq, prev + 1, "zero sequence gaps in the replay");
        }
        prev_seq = Some(seq);
        events.push(event);
    }
    let kind = |e: &json::Json| e.get("kind").unwrap().as_str().unwrap().to_string();
    let decisions: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|&(_, e)| kind(e) == "controller_decision")
        .map(|(i, _)| i)
        .collect();
    assert!(
        decisions.len() >= 2,
        "a whole day must actuate at least two decisions"
    );
    assert_eq!(
        decisions.len() as u64,
        controller.decisions(),
        "every actuated decision reached the trace"
    );
    for &i in &decisions {
        let begin = events[i + 1..]
            .iter()
            .find(|&e| kind(e) == "transition_begin")
            .expect("every decision is followed by its transition");
        assert_eq!(
            (events[i].get("from"), events[i].get("to")),
            (begin.get("from"), begin.get("to")),
            "decision must match the transition it actuated"
        );
    }
    println!(
        "  trace              : {} events, {} controller decisions, contiguous seqs",
        events.len(),
        decisions.len()
    );

    println!("power_loop gate passed");
    drop(exposition);
    drop(endpoints);
    for s in servers {
        s.stop();
    }
}
