//! Live workloads: in-process cache servers driven over loopback TCP
//! through `ClusterClient`, optionally steered by `ClusterController`
//! on its own actuator thread.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use proteus_agg::{ClusterObserver, ObserverConfig, WallEnergyMeter};
use proteus_cache::{CacheConfig, ShardedEngine, SharedBytes};
use proteus_core::Scenario;
use proteus_ctl::{ActuationConfig, ClusterController, PolicyConfig, StepAction, WallPolicy};
use proteus_net::{
    CacheServer, ClusterClient, ClusterFetch, ClusterStats, DbFallback, EngineKind, NetError,
    ServerConfig,
};
use proteus_obs::{FetchClassKind, HistogramSnapshot, MetricsServer, OpClass};

use crate::inputs::{put_value, stored_value, Keyspace, Op, OpKind};
use crate::load::{closed_loop, open_loop, Target, Timing};
use crate::spans::{Span, SpanLog};

/// Stale reads printed in full; the rest are only counted.
const PRINTED_MISMATCHES: u64 = 5;

#[derive(Debug, Clone)]
pub enum Load {
    /// One caller waiting for each reply.
    Closed,
    /// Requests due at these offsets from the start of the run.
    Open(Vec<Duration>),
}

#[derive(Debug, Clone, Copy)]
pub struct Control {
    /// One server's serving capacity in server-side ops/s.
    pub capacity_ops: f64,
    pub min_servers: usize,
    pub max_step: usize,
    pub cooldown: Duration,
    pub boot: Duration,
    pub drain: Duration,
    pub tick: Duration,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub servers: usize,
    pub cache: CacheConfig,
    /// Keys (by popularity rank) written into the cache at set-up,
    /// coldest first so the hottest are the most recently used.
    pub warm: u32,
    pub load: Load,
    pub length: Duration,
    pub control: Option<Control>,
}

/// One controller step as the actuator thread saw it.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub start: Duration,
    pub end: Duration,
    pub action: StepAction,
    pub p99: Option<Duration>,
    pub ops_per_sec: f64,
    /// Active servers after the step.
    pub active: usize,
}

pub struct ControlOutcome {
    pub steps: Vec<Step>,
    pub decisions: u64,
    pub backoffs: u64,
    pub scrape_failures: u64,
    pub energy: WallEnergyMeter,
    pub bound: Duration,
    pub capacity_ops: f64,
}

/// Counters read from the layers after the run.
pub struct LayerCounters {
    pub server_get: HistogramSnapshot,
    pub server_set: HistogramSnapshot,
    pub server_ops: u64,
    pub syscalls: u64,
    pub faults: ClusterStats,
    pub class_counts: Vec<(FetchClassKind, u64, HistogramSnapshot)>,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub db_fetches: u64,
}

pub struct Outcome {
    pub setup_s: f64,
    /// CPU time every thread of the process used while the load ran,
    /// less the open-loop generator's spinning for due times.
    pub cpu_s: f64,
    /// Process peak RSS when the run ended, in MiB.
    pub peak_rss_mb: f64,
    pub timings: Vec<Timing>,
    pub kinds: Vec<OpKind>,
    pub errors: u64,
    pub stale: u64,
    /// Whether the open loop gave up because it fell too far behind.
    pub gave_up: bool,
    pub control: Option<ControlOutcome>,
    pub counters: LayerCounters,
    pub spans: Vec<Span>,
}

/// The benchmark's backing store: generated content per key, or the
/// benchmark's own last write, which it also uses as the expected
/// value of every read.
pub struct BenchDb<'a> {
    shadow: RefCell<HashMap<Vec<u8>, Vec<u8>>>,
    fetches: Cell<u64>,
    spans: Option<&'a SpanLog>,
    request: Cell<u64>,
}

impl<'a> BenchDb<'a> {
    pub fn new(spans: Option<&'a SpanLog>) -> Self {
        BenchDb {
            shadow: RefCell::new(HashMap::new()),
            fetches: Cell::new(0),
            spans,
            request: Cell::new(0),
        }
    }

    pub fn write(&self, key: &[u8], value: Vec<u8>) {
        self.shadow.borrow_mut().insert(key.to_vec(), value);
    }

    pub fn matches(&self, key: &[u8], got: &[u8]) -> bool {
        match self.shadow.borrow().get(key) {
            Some(v) => v.as_slice() == got,
            None => stored_value(key) == got,
        }
    }
}

impl DbFallback for BenchDb<'_> {
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError> {
        let span = self
            .spans
            .map(|s| s.open("store.fetch", self.request.get()));
        self.fetches.set(self.fetches.get() + 1);
        let value = match self.shadow.borrow().get(key) {
            Some(v) => v.clone(),
            None => stored_value(key),
        };
        if let (Some(s), Some(span)) = (self.spans, span) {
            s.close(span, "");
        }
        Ok(value)
    }
}

fn class_name(class: ClusterFetch) -> &'static str {
    match class {
        ClusterFetch::Hit => "hit",
        ClusterFetch::Migrated => "migrated",
        ClusterFetch::Database => "database",
        ClusterFetch::Degraded => "degraded",
        ClusterFetch::FalsePositive => "false_positive",
        ClusterFetch::ReplicaHit => "replica_hit",
    }
}

pub fn action_name(action: StepAction) -> &'static str {
    match action {
        StepAction::Held(_) => "held",
        StepAction::BootScheduled { .. } => "boot_scheduled",
        StepAction::BootWait => "boot_wait",
        StepAction::WindowOpened { .. } => "window_opened",
        StepAction::DrainWait => "drain_wait",
        StepAction::WindowClosed { .. } => "window_closed",
        StepAction::BackedOff => "backed_off",
    }
}

struct Cluster {
    servers: Vec<CacheServer>,
    endpoints: Vec<MetricsServer>,
    client: Arc<RwLock<ClusterClient>>,
}

impl Cluster {
    fn start(spec: &Spec) -> Cluster {
        // One event loop per server: with four servers on two cores,
        // more loops only add scheduler noise to the tail.
        let config = ServerConfig {
            engine: EngineKind::Reactor { loops: 1 },
        };
        let servers: Vec<CacheServer> = (0..spec.servers)
            .map(|_| {
                CacheServer::spawn_with("127.0.0.1:0", spec.cache, config)
                    .expect("spawn cache server")
            })
            .collect();
        let endpoints = if spec.control.is_some() {
            servers
                .iter()
                .map(|s| {
                    MetricsServer::spawn("127.0.0.1:0", s.metric_source())
                        .expect("spawn metrics endpoint")
                })
                .collect()
        } else {
            Vec::new()
        };
        let addrs: Vec<SocketAddr> = servers.iter().map(CacheServer::addr).collect();
        let client = ClusterClient::connect(&addrs, Scenario::Proteus.strategy(spec.servers, 0))
            .expect("connect cluster client");
        Cluster {
            servers,
            endpoints,
            client: Arc::new(RwLock::new(client)),
        }
    }

    /// Writes keys `0..count` (hottest first in the keyspace) to their
    /// home servers with pipelined sets, coldest first.
    fn warm(&self, keyspace: &Keyspace, count: u32) {
        const BATCH: usize = 64;
        let client = self.client.read();
        let mut pending: Vec<Vec<(&[u8], SharedBytes)>> = vec![Vec::new(); self.servers.len()];
        let flush = |server: usize, batch: &mut Vec<(&[u8], SharedBytes)>| {
            client
                .client(server)
                .set_many(batch)
                .expect("warm cache server");
            batch.clear();
        };
        for i in (0..count).rev() {
            let key = keyspace.key(i);
            let server = client.server_for(key).index();
            pending[server].push((key, stored_value(key).into()));
            if pending[server].len() == BATCH {
                flush(server, &mut pending[server]);
            }
        }
        for (server, batch) in pending.iter_mut().enumerate() {
            if !batch.is_empty() {
                flush(server, batch);
            }
        }
    }

    fn stop(self) {
        drop(self.endpoints);
        drop(self.client);
        for s in self.servers {
            s.stop();
        }
    }
}

/// Starts the servers and the client and warms the cache, returning
/// the cluster and the wall time that took.
fn set_up(spec: &Spec, keyspace: &Keyspace) -> (Cluster, f64) {
    let t = Instant::now();
    let cluster = Cluster::start(spec);
    cluster.warm(keyspace, spec.warm);
    (cluster, t.elapsed().as_secs_f64())
}

/// Sets up a cluster as [`run`] does and tears it down again, returning
/// the set-up's wall time.
pub fn set_up_only(spec: &Spec, keyspace: &Keyspace) -> f64 {
    let (cluster, setup_s) = set_up(spec, keyspace);
    cluster.stop();
    setup_s
}

/// The generator's view of the cluster.
struct Driver<'a> {
    client: &'a RwLock<ClusterClient>,
    db: &'a BenchDb<'a>,
    keyspace: &'a Keyspace,
    ops: &'a [Op],
    spans: Option<&'a SpanLog>,
    /// The value the next `put` writes, made before it is due.
    pending: Vec<u8>,
    kinds: Vec<OpKind>,
    errors: u64,
    stale: u64,
}

enum Done {
    Read(Result<(SharedBytes, ClusterFetch), NetError>),
    Wrote(Result<(), NetError>),
}

impl Driver<'_> {
    fn op(&self, request: usize) -> Op {
        self.ops[request % self.ops.len()]
    }
}

impl Target for Driver<'_> {
    type Out = Done;

    fn prepare(&mut self, request: usize) {
        let op = self.op(request);
        if op.kind == OpKind::Put {
            // Write-through, as the application would: the store
            // first, then the cache.
            let key = self.keyspace.key(op.key);
            self.pending = put_value(key, request as u64);
            self.db.write(key, self.pending.clone());
        }
    }

    fn issue(&mut self, request: usize) -> Done {
        let op = self.op(request);
        let key = self.keyspace.key(op.key);
        let id = request as u64;
        let root = self.spans.map(|s| s.open("request", id));
        let lock = self.spans.map(|s| s.open("cluster.read_lock", id));
        let client = self.client.read();
        if let (Some(s), Some(lock)) = (self.spans, lock) {
            s.close(lock, "");
        }
        let done = match op.kind {
            OpKind::Get => {
                self.db.request.set(id);
                let span = self.spans.map(|s| s.open("cluster.fetch", id));
                let result = client.fetch(key, self.db);
                if let (Some(s), Some(span)) = (self.spans, span) {
                    s.close(
                        span,
                        result.as_ref().map_or("error", |(_, c)| class_name(*c)),
                    );
                }
                Done::Read(result)
            }
            OpKind::Put => {
                let span = self.spans.map(|s| s.open("cluster.put", id));
                let result = client.put(key, &self.pending);
                if let (Some(s), Some(span)) = (self.spans, span) {
                    s.close(span, "");
                }
                Done::Wrote(result)
            }
        };
        drop(client);
        if let (Some(s), Some(root)) = (self.spans, root) {
            s.close(root, "");
        }
        done
    }

    fn settle(&mut self, request: usize, out: Done) {
        let op = self.op(request);
        self.kinds.push(op.kind);
        match out {
            Done::Read(Ok((value, class))) => {
                let key = self.keyspace.key(op.key);
                if !self.db.matches(key, &value) {
                    self.stale += 1;
                    if self.stale <= PRINTED_MISMATCHES {
                        println!(
                            "stale read: request {request} key {} served as {} returned {} bytes that differ from the last write",
                            String::from_utf8_lossy(key),
                            class_name(class),
                            value.len()
                        );
                    }
                }
            }
            Done::Wrote(Ok(())) => {}
            Done::Read(Err(e)) | Done::Wrote(Err(e)) => {
                self.errors += 1;
                if self.errors <= PRINTED_MISMATCHES {
                    println!("error: request {request}: {e}");
                }
            }
        }
    }
}

/// Steps the controller every `tick` until `stop`, standing in for
/// the power switch: a server the controller powered off loses its
/// memory, as a real one would.
fn actuate(
    controller: &mut ClusterController,
    client: &RwLock<ClusterClient>,
    servers: &[CacheServer],
    stop: &AtomicBool,
    epoch: Instant,
    tick: Duration,
    spans: Option<&SpanLog>,
) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut next = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let start = Instant::now();
        let report = controller.step();
        let end = Instant::now();
        if let Some(s) = spans {
            s.record(
                "ctl.step",
                action_name(report.action),
                start,
                end,
                steps.len() as u64,
            );
        }
        if let StepAction::WindowClosed { from, to } = report.action {
            for server in servers.iter().take(from).skip(to) {
                server.with_engine(ShardedEngine::clear);
            }
        }
        steps.push(Step {
            start: start - epoch,
            end: end - epoch,
            action: report.action,
            p99: report.signal.p99,
            ops_per_sec: report.signal.ops_per_sec,
            active: client.read().active(),
        });
        next += tick;
        while !stop.load(Ordering::Relaxed) && Instant::now() < next {
            std::thread::sleep(
                Duration::from_millis(2).min(next.saturating_duration_since(Instant::now())),
            );
        }
    }
    steps
}

/// The servers' cumulative command counters, summed.
struct ServerTotals {
    get: HistogramSnapshot,
    set: HistogramSnapshot,
    ops: u64,
    syscalls: u64,
}

impl ServerTotals {
    fn read(servers: &[CacheServer]) -> ServerTotals {
        let mut totals = ServerTotals {
            get: HistogramSnapshot::empty(),
            set: HistogramSnapshot::empty(),
            ops: 0,
            syscalls: 0,
        };
        for s in servers {
            let ops = s.metrics().ops();
            totals.get.merge(&ops.snapshot(OpClass::Get));
            totals.set.merge(&ops.snapshot(OpClass::Set));
            totals.ops += ops.snapshot_merged().count();
            totals.syscalls += s.metrics().plane_syscalls();
        }
        totals
    }
}

/// How far behind schedule the open loop may fall before it gives up.
pub const GIVE_UP: Duration = Duration::from_secs(5);

/// Sets up, runs the load (and the controller, if any) for the spec's
/// length, reads the layers' counters, and hands the engine of server
/// 0 as the run left it to `probe` before tearing down.
pub fn run(
    spec: &Spec,
    keyspace: &Keyspace,
    ops: &[Op],
    traced: bool,
    probe: impl FnOnce(&ShardedEngine),
) -> Outcome {
    let (cluster, setup_s) = set_up(spec, keyspace);
    let observer = spec.control.map(|c| {
        let observer = Arc::new(ClusterObserver::new(ObserverConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            server_capacity_ops: c.capacity_ops,
            ..ObserverConfig::default()
        }));
        for e in &cluster.endpoints {
            observer.add_server(e.local_addr());
        }
        observer
    });
    let mut controller = spec.control.zip(observer.as_ref()).map(|(c, observer)| {
        let policy = WallPolicy::new(PolicyConfig {
            min_servers: c.min_servers,
            max_step: c.max_step,
            cooldown: c.cooldown,
            ..PolicyConfig::for_cluster(spec.servers, c.capacity_ops)
        });
        ClusterController::new(
            Arc::clone(observer),
            Arc::clone(&cluster.client),
            cluster
                .endpoints
                .iter()
                .map(MetricsServer::local_addr)
                .collect(),
            policy,
            ActuationConfig {
                boot_delay: c.boot,
                drain: c.drain,
            },
        )
    });

    // The warm-up's sets are the servers' too; layer numbers count
    // only what the load did.
    let before = ServerTotals::read(&cluster.servers);
    let cpu_before = crate::stats::process_cpu_s();
    let epoch = Instant::now();
    let capacity = match &spec.load {
        Load::Closed => 1 << 20,
        Load::Open(s) => s.len() * 4,
    };
    let gen_spans = traced.then(|| SpanLog::new(epoch, capacity));
    let db = BenchDb::new(gen_spans.as_ref());
    let stop = AtomicBool::new(false);
    let mut driver = Driver {
        client: &cluster.client,
        db: &db,
        keyspace,
        ops,
        spans: gen_spans.as_ref(),
        pending: Vec::new(),
        kinds: Vec::new(),
        errors: 0,
        stale: 0,
    };
    let mut gave_up = false;
    let mut generator_spin = Duration::ZERO;
    let (timings, steps, ctl_spans) = std::thread::scope(|scope| {
        let actuator = controller.as_mut().map(|controller| {
            let (client, servers, stop) = (&cluster.client, &cluster.servers, &stop);
            let tick = spec.control.map_or(Duration::ZERO, |c| c.tick);
            scope.spawn(move || {
                let spans = traced.then(|| SpanLog::new(epoch, 1024));
                let steps = actuate(
                    controller,
                    client,
                    servers,
                    stop,
                    epoch,
                    tick,
                    spans.as_ref(),
                );
                (steps, spans.map(SpanLog::into_spans).unwrap_or_default())
            })
        });
        let timings = match &spec.load {
            Load::Closed => closed_loop(&mut driver, epoch, spec.length),
            Load::Open(schedule) => {
                let (t, spun) = open_loop(&mut driver, epoch, schedule, GIVE_UP);
                generator_spin = spun;
                gave_up = t.len() < schedule.len();
                t
            }
        };
        stop.store(true, Ordering::Relaxed);
        let (steps, spans) = actuator
            .map(|a| a.join().expect("actuator thread panicked"))
            .unwrap_or_default();
        (timings, steps, spans)
    });
    let cpu_s = crate::stats::process_cpu_s() - cpu_before - generator_spin.as_secs_f64();

    let control = controller
        .zip(spec.control)
        .zip(observer)
        .map(|((controller, c), observer)| {
            observer.tick();
            ControlOutcome {
                steps,
                decisions: controller.decisions(),
                backoffs: controller.backoffs(),
                scrape_failures: observer.scrape_totals().1,
                energy: observer.energy(),
                bound: Duration::from_nanos(proteus_core::SetPoints::paper_defaults().bound_ns()),
                capacity_ops: c.capacity_ops,
            }
        });
    let Driver {
        kinds,
        errors,
        stale,
        ..
    } = driver;
    let counters = {
        let client = cluster.client.read();
        let after = ServerTotals::read(&cluster.servers);
        LayerCounters {
            server_get: after.get.saturating_delta(&before.get),
            server_set: after.set.saturating_delta(&before.set),
            server_ops: after.ops - before.ops,
            syscalls: after.syscalls - before.syscalls,
            faults: client.fault_stats(),
            class_counts: client.fetch_stats().snapshot_all(),
            trace_events: client.tracer().recorded(),
            trace_dropped: client.tracer().dropped(),
            db_fetches: db.fetches.get(),
        }
    };
    drop(db);
    let mut spans = gen_spans.map(SpanLog::into_spans).unwrap_or_default();
    let base = spans.len() as u32;
    spans.extend(ctl_spans.into_iter().map(|mut s| {
        if s.parent != crate::spans::NO_PARENT {
            s.parent += base;
        }
        s
    }));
    let outcome = Outcome {
        setup_s,
        cpu_s,
        peak_rss_mb: crate::stats::peak_rss_mb(),
        timings,
        kinds,
        errors,
        stale,
        gave_up,
        control,
        counters,
        spans,
    };
    cluster.servers[0].with_engine(probe);
    cluster.stop();
    outcome
}
