//! The web-tier cluster client: Algorithm 2 over live TCP servers,
//! degrading to the database when cache servers fail.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proteus_bloom::BloomFilter;
use proteus_cache::SharedBytes;
use proteus_core::hot_key::{ReplicaRings, SpaceSaving, TwoChoices};
use proteus_core::{Router, TransitionManager};
use proteus_obs::{
    trace_metrics, Counter, EventTracer, FetchClassKind, FetchLatencies, Gauge, Metric,
    MetricSource, TraceKind,
};
use proteus_ring::{PlacementStrategy, ServerId};
use proteus_sim::SimTime;
use proteus_store::ShardedStore;

use crate::client::{CacheClient, ClientConfig, ClientStats};
use crate::error::NetError;

/// The authoritative backing store a [`ClusterClient`] falls back to
/// when data is not in cache.
///
/// Implemented for [`ShardedStore`] out of the box; applications plug
/// in their own databases.
pub trait DbFallback {
    /// Fetches `key` from the authoritative store.
    ///
    /// # Errors
    ///
    /// Implementations surface their own transport failures as
    /// [`NetError`].
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError>;
}

impl DbFallback for Mutex<ShardedStore> {
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError> {
        Ok(self.lock().fetch(key))
    }
}

/// How a [`ClusterClient::fetch`] was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterFetch {
    /// Hit at the key's new-mapping server.
    Hit,
    /// Migrated on demand from the old server during a transition.
    Migrated,
    /// Fetched from the backing store (ordinary miss).
    Database,
    /// Fetched from the backing store because a cache server was
    /// unreachable: the paper's failure model — a dead cache reads as
    /// a miss, never as an outage. Counted separately so callers and
    /// benches can see failure-induced database load.
    Degraded,
    /// Fetched from the backing store after the old server's digest
    /// claimed the key but the old server missed: a Bloom-filter false
    /// positive (or a racing eviction on the departing server). The
    /// request pays one wasted cache round trip on top of the DB
    /// fetch, which is exactly the cost the paper's digest sizing
    /// trades against — so it gets its own class.
    FalsePositive,
    /// Hit at a non-home replica of a hot key: power-of-two-choices
    /// routing picked (or replica failover fell through to) a server
    /// other than the key's ring-0 owner. Only possible when the
    /// client was built with [`ClusterClient::connect_replicated`].
    ReplicaHit,
}

/// Maps the wire-level fetch classification onto the telemetry
/// registry's [`FetchClassKind`].
fn class_kind(class: ClusterFetch) -> FetchClassKind {
    match class {
        ClusterFetch::Hit => FetchClassKind::NewHit,
        ClusterFetch::Migrated => FetchClassKind::Migrated,
        ClusterFetch::Database => FetchClassKind::Database,
        ClusterFetch::Degraded => FetchClassKind::Degraded,
        ClusterFetch::FalsePositive => FetchClassKind::FalsePositive,
        ClusterFetch::ReplicaHit => FetchClassKind::ReplicaHit,
    }
}

/// Hot-key replication knobs for
/// [`ClusterClient::connect_replicated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotKeyConfig {
    /// Target number of distinct servers holding each hot key
    /// (including its home server). `1` disables replication.
    pub replicas: usize,
    /// Estimated fetch count at which a key is promoted to hot and
    /// replicated.
    pub hot_key_threshold: u64,
    /// Keys the space-saving sketch monitors; bounds detector memory.
    pub sketch_capacity: usize,
}

impl Default for HotKeyConfig {
    fn default() -> Self {
        HotKeyConfig {
            replicas: 2,
            hot_key_threshold: 64,
            sketch_capacity: 128,
        }
    }
}

/// Cumulative hot-key replication counters (see
/// [`ClusterClient::hot_key_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotKeyStats {
    /// Keys currently replicated (the hot-key gauge).
    pub replicated_keys: i64,
    /// Keys ever promoted to hot.
    pub promotions: u64,
    /// Replica invalidations issued by writes (one per key per
    /// non-home target server).
    pub invalidations: u64,
    /// Fetches served by a non-home replica
    /// ([`ClusterFetch::ReplicaHit`]).
    pub replica_hits: u64,
}

/// Per-server load estimate feeding the power-of-two-choices routing:
/// requests currently in flight plus an EWMA of recent get latency,
/// both maintained purely client-side.
#[derive(Debug, Default)]
struct ServerLoad {
    in_flight: AtomicU64,
    ewma_nanos: AtomicU64,
}

impl ServerLoad {
    /// A single comparable score: queue depth dominates, smoothed
    /// latency breaks ties between equally idle servers.
    fn score(&self) -> u64 {
        let in_flight = self.in_flight.load(Ordering::Relaxed);
        let ewma = self.ewma_nanos.load(Ordering::Relaxed);
        in_flight
            .saturating_add(1)
            .saturating_mul(ewma.saturating_add(1))
    }

    fn record(&self, elapsed_nanos: u64) {
        // EWMA with alpha = 1/4: old - old/4 + sample/4, relaxed (a
        // lost race just loses one smoothing step).
        let old = self.ewma_nanos.load(Ordering::Relaxed);
        self.ewma_nanos
            .store(old - old / 4 + elapsed_nanos / 4, Ordering::Relaxed);
    }
}

/// Everything the hot-key layer owns. Interior-mutable because
/// [`ClusterClient::fetch`] takes `&self`.
struct HotKeyState {
    config: HotKeyConfig,
    rings: ReplicaRings,
    sketch: Mutex<SpaceSaving>,
    /// Hot key → its distinct replica servers under the **current**
    /// active count, home server first. Recomputed against the new
    /// ring by `begin_transition`.
    replicated: Mutex<std::collections::HashMap<Vec<u8>, Vec<usize>>>,
    chooser: TwoChoices,
    loads: Vec<ServerLoad>,
    promotions: Counter,
    invalidations: Counter,
    hot_keys: Gauge,
}

/// Cumulative cluster-level fault counters (see
/// [`ClusterClient::fault_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Fetches served from the database because a cache server was
    /// unreachable ([`ClusterFetch::Degraded`]).
    pub degraded_fetches: u64,
    /// On-demand migrations skipped because the old-mapping server was
    /// unreachable during a transition.
    pub skipped_migrations: u64,
    /// Cache-install writes (the `set` after a DB fetch or migration)
    /// dropped because the target server was unreachable.
    pub dropped_installs: u64,
    /// Digest snapshots that could not be fetched at
    /// `begin_transition` (the affected server's keys fall through to
    /// the database instead of migrating).
    pub missing_digests: u64,
    /// Per-op retries summed over every server's client.
    pub retries: u64,
    /// Breaker trips summed over every server's client.
    pub breaker_trips: u64,
    /// Fast-fails summed over every server's client.
    pub fast_fails: u64,
}

#[derive(Debug, Default)]
struct AtomicClusterStats {
    degraded_fetches: AtomicU64,
    skipped_migrations: AtomicU64,
    dropped_installs: AtomicU64,
    missing_digests: AtomicU64,
}

/// The shape of an open (or just-closed) transition window: the
/// mapping it moved from/to and when the digest broadcast completed.
///
/// Returned by [`ClusterClient::transition_status`] while a window is
/// open and by [`ClusterClient::end_transition`] for the window it
/// closed, so a control loop can size drain timers off `since` and
/// log the from→to pair it actually actuated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionStatus {
    /// Active-server count under the old mapping.
    pub from: usize,
    /// Active-server count under the new mapping.
    pub to: usize,
    /// When the window opened (the digest broadcast finished and the
    /// mapping switched).
    pub since: Instant,
}

impl TransitionStatus {
    /// How long the window has been (or was) open.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.since.elapsed()
    }
}

/// The instant the live client reads its window at: a live window has
/// no deadline, so every instant reads the same.
const LIVE: SimTime = SimTime::ZERO;

/// A web server's view of the live cache cluster: one pooled client
/// per cache server, plus the same [`Router`] (placement strategy and
/// key hasher) and [`TransitionManager`] (current and previous
/// mappings, the digests broadcast at the last transition, each
/// server's power state) that the simulator drives.
///
/// Fetches run Algorithm 2 through the shared
/// [`Router::digest_probe`] rule with real sockets underneath — plus
/// the failure model the paper's power policy demands. A power policy
/// turns cache servers off *mid-traffic*, so an unreachable server is
/// business as usual here: transport failures degrade to the
/// authoritative store ([`ClusterFetch::Degraded`]) instead of
/// erroring, and each server's [`CacheClient`] retries, reconnects,
/// and fails fast through its circuit breaker.
pub struct ClusterClient {
    clients: Vec<CacheClient>,
    router: Router,
    window: TransitionManager,
    /// When the open window's digest broadcast completed, on the wall
    /// clock (the manager's own clock is simulated time).
    transition_since: Option<Instant>,
    stats: Arc<AtomicClusterStats>,
    fetches: Arc<FetchLatencies>,
    tracer: Arc<EventTracer>,
    hot: Option<HotKeyState>,
}

impl ClusterClient {
    /// Connects to every cache server (in provisioning order) with the
    /// default [`ClientConfig`] and starts with all of them active.
    ///
    /// # Errors
    ///
    /// Returns the first connection failure.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or its length differs from the
    /// strategy's `max_servers()`.
    pub fn connect(
        addrs: &[std::net::SocketAddr],
        strategy: Box<dyn PlacementStrategy + Send + Sync>,
    ) -> Result<ClusterClient, NetError> {
        ClusterClient::connect_with(addrs, strategy, ClientConfig::default())
    }

    /// [`connect`](Self::connect) with explicit per-server
    /// fault-tolerance tunables.
    ///
    /// # Errors
    ///
    /// Returns the first connection failure.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or its length differs from the
    /// strategy's `max_servers()`.
    pub fn connect_with(
        addrs: &[std::net::SocketAddr],
        strategy: Box<dyn PlacementStrategy + Send + Sync>,
        config: ClientConfig,
    ) -> Result<ClusterClient, NetError> {
        assert!(!addrs.is_empty(), "need at least one cache server");
        assert_eq!(
            addrs.len(),
            strategy.max_servers(),
            "strategy sized for a different cluster"
        );
        let clients = addrs
            .iter()
            .map(|&a| CacheClient::connect_with(a, config))
            .collect::<Result<Vec<_>, _>>()?;
        let tracer = Arc::new(EventTracer::default());
        for (i, client) in clients.iter().enumerate() {
            // One shared ring: breaker transitions interleave with the
            // cluster's own transition/migration events in seq order.
            client.attach_tracer(Arc::clone(&tracer), i as u32);
        }
        let n = clients.len();
        Ok(ClusterClient {
            clients,
            router: Router::new(strategy),
            window: TransitionManager::new(n, n),
            transition_since: None,
            stats: Arc::new(AtomicClusterStats::default()),
            fetches: Arc::new(FetchLatencies::default()),
            tracer,
            hot: None,
        })
    }

    /// [`connect_with`](Self::connect_with) plus hot-key replication:
    /// the client tracks its own per-key fetch counts in a bounded
    /// space-saving sketch, replicates keys whose estimated count
    /// crosses `hot.hot_key_threshold` to `hot.replicas` distinct
    /// servers, routes replicated reads with power-of-two-choices by
    /// its own in-flight/latency load estimate, and invalidates every
    /// replica on [`put`](Self::put).
    ///
    /// Replica 0 of any key is its ordinary home server, so keys that
    /// never get hot behave exactly as with
    /// [`connect_with`](Self::connect_with).
    ///
    /// # Errors
    ///
    /// Returns the first connection failure.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or its length differs from the
    /// strategy's `max_servers()`, or if `hot.replicas == 0` or
    /// `hot.sketch_capacity == 0`.
    pub fn connect_replicated(
        addrs: &[std::net::SocketAddr],
        strategy: Box<dyn PlacementStrategy + Send + Sync>,
        config: ClientConfig,
        hot: HotKeyConfig,
    ) -> Result<ClusterClient, NetError> {
        let mut client = ClusterClient::connect_with(addrs, strategy, config)?;
        let n = client.clients.len();
        client.hot = Some(HotKeyState {
            config: hot,
            rings: ReplicaRings::new(client.router.hasher(), hot.replicas),
            sketch: Mutex::new(SpaceSaving::new(hot.sketch_capacity)),
            replicated: Mutex::new(std::collections::HashMap::new()),
            chooser: TwoChoices::new(),
            loads: (0..n).map(|_| ServerLoad::default()).collect(),
            promotions: Counter::new(),
            invalidations: Counter::new(),
            hot_keys: Gauge::new(),
        });
        Ok(client)
    }

    /// Currently active servers.
    #[must_use]
    pub fn active(&self) -> usize {
        self.window.active()
    }

    /// The server responsible for `key` at the current active count.
    #[must_use]
    pub fn server_for(&self, key: &[u8]) -> ServerId {
        self.home(self.router.key_hash(key))
    }

    /// The server responsible for a key hash at the current active count.
    fn home(&self, hash: u64) -> ServerId {
        self.router
            .strategy()
            .server_for(hash, self.window.active())
    }

    /// The routing window: the current and previous mappings, the
    /// digests broadcast at the last transition, and each server's
    /// power state.
    #[must_use]
    pub fn window(&self) -> &TransitionManager {
        &self.window
    }

    /// The per-server client, for inspecting breaker state and
    /// fault counters.
    #[must_use]
    pub fn client(&self, server: usize) -> &CacheClient {
        &self.clients[server]
    }

    /// Cluster-level fault counters, with the per-server client
    /// counters (retries, breaker trips, fast fails) summed in.
    #[must_use]
    pub fn fault_stats(&self) -> ClusterStats {
        let per_server: Vec<ClientStats> =
            self.clients.iter().map(CacheClient::fault_stats).collect();
        ClusterStats {
            degraded_fetches: self.stats.degraded_fetches.load(Ordering::Relaxed),
            skipped_migrations: self.stats.skipped_migrations.load(Ordering::Relaxed),
            dropped_installs: self.stats.dropped_installs.load(Ordering::Relaxed),
            missing_digests: self.stats.missing_digests.load(Ordering::Relaxed),
            retries: per_server.iter().map(|s| s.retries).sum(),
            breaker_trips: per_server.iter().map(|s| s.breaker_trips).sum(),
            fast_fails: per_server.iter().map(|s| s.fast_fails).sum(),
        }
    }

    /// Per-fetch-class counters and latency histograms: every
    /// [`fetch`](Self::fetch) records its end-to-end latency under its
    /// [`ClusterFetch`] class; batched hits from
    /// [`fetch_many`](Self::fetch_many) are counted but not timed
    /// (their latency is per-batch, not per-key).
    #[must_use]
    pub fn fetch_stats(&self) -> &FetchLatencies {
        &self.fetches
    }

    /// The transition/breaker event ring shared by this client and
    /// every per-server [`CacheClient`]. Inspect after a transition to
    /// see the ordered begin → digest broadcast → per-key migration →
    /// drain lifecycle.
    #[must_use]
    pub fn tracer(&self) -> &Arc<EventTracer> {
        &self.tracer
    }

    /// A pull-based registry source for this client's web-tier view of
    /// the cluster, suitable for [`proteus_obs::MetricsServer::spawn`]
    /// (pair with [`MetricsServer::spawn_traced`] and
    /// [`tracer`](Self::tracer) to also serve the transition trace at
    /// `/trace.jsonl`): per-fetch-class counters and latency
    /// histograms, the cluster fault counters, and trace ring health.
    ///
    /// [`MetricsServer::spawn_traced`]: proteus_obs::MetricsServer::spawn_traced
    #[must_use]
    pub fn metric_source(&self) -> MetricSource {
        let stats = Arc::clone(&self.stats);
        let fetches = Arc::clone(&self.fetches);
        let tracer = Arc::clone(&self.tracer);
        Arc::new(move || {
            let mut out = Vec::new();
            for (class, count, snap) in fetches.snapshot_all() {
                out.push(
                    Metric::counter("proteus_client_fetches_total", count)
                        .with_label("class", class.name()),
                );
                out.push(
                    Metric::histogram("proteus_client_fetch_latency_seconds", snap)
                        .with_label("class", class.name()),
                );
            }
            out.push(Metric::counter(
                "proteus_client_degraded_fetches_total",
                stats.degraded_fetches.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "proteus_client_skipped_migrations_total",
                stats.skipped_migrations.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "proteus_client_dropped_installs_total",
                stats.dropped_installs.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "proteus_client_missing_digests_total",
                stats.missing_digests.load(Ordering::Relaxed),
            ));
            out.extend(trace_metrics(&tracer));
            out
        })
    }

    /// Hot-key replication counters, or `None` if this client was not
    /// built with [`connect_replicated`](Self::connect_replicated).
    #[must_use]
    pub fn hot_key_stats(&self) -> Option<HotKeyStats> {
        self.hot.as_ref().map(|hot| HotKeyStats {
            replicated_keys: hot.hot_keys.get(),
            promotions: hot.promotions.get(),
            invalidations: hot.invalidations.get(),
            replica_hits: self.fetches.count(FetchClassKind::ReplicaHit),
        })
    }

    /// The distinct replica servers currently assigned to `key`, home
    /// first, or `None` if the key is not replicated (or replication
    /// is off).
    #[must_use]
    pub fn replicas_of(&self, key: &[u8]) -> Option<Vec<usize>> {
        self.hot.as_ref()?.replicated.lock().get(key).cloned()
    }

    /// Begins a provisioning transition to `new_active` servers: pulls
    /// a fresh digest snapshot from every server active under the old
    /// mapping (the broadcast, issued to all servers **in parallel**,
    /// so the wall time is one server's round trips, not the sum),
    /// then switches the mapping. Call
    /// [`end_transition`](Self::end_transition) after the hot-TTL
    /// window elapses and the departing servers have powered off.
    ///
    /// Overlapping transitions are **rejected**: chaining 4→3→2
    /// without an intervening `end_transition` would overwrite the old
    /// mapping and the digest broadcast, stranding keys that only live
    /// on the original old server. Callers drive one window at a time
    /// (the paper's Algorithm 2 likewise assumes a single old/new
    /// mapping pair); finish the first window, then start the next.
    ///
    /// A server whose digest cannot be fetched (powered off early,
    /// crashed) does not fail the transition: its digest is recorded
    /// as missing, and keys that only lived there fall through to the
    /// database — a dead cache reads as a miss.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::TransitionInProgress`] if a transition
    /// window is already open.
    ///
    /// # Panics
    ///
    /// Panics if `new_active` is outside `1..=total`.
    pub fn begin_transition(&mut self, new_active: usize) -> Result<(), NetError> {
        assert!(
            (1..=self.clients.len()).contains(&new_active),
            "active count {new_active} outside 1..={}",
            self.clients.len()
        );
        let active = self.active();
        if new_active == active {
            return Ok(());
        }
        if self.transition_active() {
            return Err(NetError::TransitionInProgress);
        }
        self.tracer.record(TraceKind::TransitionBegin {
            from: active as u32,
            to: new_active as u32,
        });
        let mut digests = vec![None; self.clients.len()];
        // Broadcast in parallel: every server snapshots and uploads its
        // digest concurrently (scoped threads borrowing the clients),
        // so the wall time of the broadcast is the *slowest* server's
        // round trips, not the sum over servers — at paper scale the
        // difference between a transition that starts in milliseconds
        // and one that takes seconds. Results are joined in server
        // order, so the trace stream stays deterministic.
        let results: Vec<Result<Option<BloomFilter>, NetError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..active]
                .iter()
                .map(|client| scope.spawn(move || client.snapshot_digest()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("digest broadcast thread panicked"))
                .collect()
        });
        for (i, result) in results.into_iter().enumerate() {
            let ok = match result {
                Ok(digest) => {
                    digests[i] = digest;
                    true
                }
                Err(e) if e.is_transport() => {
                    self.stats.missing_digests.fetch_add(1, Ordering::Relaxed);
                    false
                }
                Err(e) => return Err(e),
            };
            let server = i as u32;
            self.tracer
                .record(TraceKind::DigestBroadcast { server, ok });
        }
        self.window.open(new_active, digests);
        self.transition_since = Some(Instant::now());
        // Replica sets are a function of the active prefix: recompute
        // every hot key's set against the new ring so no replica points
        // at a drained/powered-off server. Newly added replicas start
        // cold and are backfilled lazily by the next read that misses
        // there (`try_replicas` re-installs on the servers it probed
        // and missed), so no bulk copy happens at transition time.
        if let Some(hot) = &self.hot {
            for (key, set) in hot.replicated.lock().iter_mut() {
                *set = hot.rings.replica_set(key, |h| self.home(h).index());
            }
        }
        Ok(())
    }

    /// Whether a transition window is currently open. A control loop
    /// polls this before [`begin_transition`](Self::begin_transition)
    /// and backs off instead of eating a
    /// [`NetError::TransitionInProgress`] rejection.
    #[must_use]
    pub fn transition_active(&self) -> bool {
        self.window.window_open()
    }

    /// The open transition window's shape, or `None` when no window is
    /// open. The `since` timestamp is when the digest broadcast
    /// completed, so `status.elapsed()` is how long keys have been
    /// draining under the dual mapping.
    #[must_use]
    pub fn transition_status(&self) -> Option<TransitionStatus> {
        let since = self.transition_since?;
        Some(TransitionStatus {
            from: self.window.previous_active(),
            to: self.window.active(),
            since,
        })
    }

    /// Ends the transition window: digests are dropped and the old
    /// mapping is retired. On a scale-down this is the point the
    /// departing servers can power off, so the tracer records a
    /// [`TraceKind::PowerOff`] per departing server after the drain.
    ///
    /// Returns the window it closed — the drain-completion signal a
    /// controller forwards to its power actuator — or `None` if no
    /// window was open (the call is then a no-op).
    pub fn end_transition(&mut self) -> Option<TransitionStatus> {
        let closed = self.transition_status()?;
        self.tracer.record(TraceKind::TransitionDrain {
            from: closed.from as u32,
            to: closed.to as u32,
        });
        for server in self.window.finalize() {
            self.tracer.record(TraceKind::PowerOff {
                server: server as u32,
            });
        }
        self.transition_since = None;
        Some(closed)
    }

    /// Installs `value` at `server` on a best-effort basis: an
    /// unreachable server just costs the cache fill, never the
    /// request. Semantic errors still surface. The shared buffer is
    /// written to the wire directly — a migration re-`set` reuses the
    /// allocation the `get` handed back, so the value crosses the web
    /// tier without ever being copied.
    fn install(&self, server: usize, key: &[u8], value: SharedBytes) -> Result<(), NetError> {
        match self.clients[server].set_shared(key, value) {
            Ok(()) => Ok(()),
            Err(e) if e.is_transport() => {
                self.stats.dropped_installs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Fetches from the database and best-effort installs at the
    /// new-mapping server.
    fn db_fetch<D: DbFallback + ?Sized>(
        &self,
        key: &[u8],
        db: &D,
        new_server: usize,
        class: ClusterFetch,
    ) -> Result<(SharedBytes, ClusterFetch), NetError> {
        if class == ClusterFetch::Degraded {
            self.stats.degraded_fetches.fetch_add(1, Ordering::Relaxed);
        }
        let value: SharedBytes = db.fetch(key)?.into();
        self.install(new_server, key, SharedBytes::clone(&value))?;
        Ok((value, class))
    }

    /// [`db_fetch`](Self::db_fetch) with the end-to-end latency
    /// recorded under the resulting class — the batch path's
    /// equivalent of [`fetch`](Self::fetch)'s instrumentation for keys
    /// that fall back to genuinely per-key database work.
    fn timed_db_fetch<D: DbFallback + ?Sized>(
        &self,
        key: &[u8],
        db: &D,
        new_server: usize,
        class: ClusterFetch,
    ) -> Result<(SharedBytes, ClusterFetch), NetError> {
        let begin = Instant::now();
        let result = self.db_fetch(key, db, new_server, class);
        if let Ok((_, class)) = &result {
            self.fetches.record(class_kind(*class), begin.elapsed());
        }
        result
    }

    /// Algorithm 2 against live servers: new server first; during a
    /// transition the old server's digest decides whether to migrate on
    /// demand; the backing store is the last resort. The value is
    /// installed at the new server on every non-hit path.
    ///
    /// Failure semantics: a transport failure at the new-mapping
    /// server degrades straight to the database
    /// ([`ClusterFetch::Degraded`]); a transport failure at the old
    /// server mid-transition skips the migration and falls through to
    /// the database likewise. A request only errors if the **database**
    /// errors (or a server returns a semantic error).
    ///
    /// # Errors
    ///
    /// Returns backing-store failures and semantic (non-transport)
    /// cache-server errors.
    pub fn fetch<D: DbFallback + ?Sized>(
        &self,
        key: &[u8],
        db: &D,
    ) -> Result<(SharedBytes, ClusterFetch), NetError> {
        let begin = Instant::now();
        let result = self.fetch_uninstrumented(key, db);
        if let Ok((_, class)) = &result {
            self.fetches.record(class_kind(*class), begin.elapsed());
        }
        result
    }

    /// The decision tree proper, without the latency bookkeeping:
    /// the hot-key replica path first (replicated keys route
    /// power-of-two-choices among their replicas), then the standard
    /// Algorithm 2 tree, then hot-key bookkeeping (sketch update,
    /// promotion, re-replication) on whatever the tree resolved.
    fn fetch_uninstrumented<D: DbFallback + ?Sized>(
        &self,
        key: &[u8],
        db: &D,
    ) -> Result<(SharedBytes, ClusterFetch), NetError> {
        let hash = self.router.key_hash(key);
        let home = self.home(hash);
        if let Some(hit) = self.try_replicas(key, home.index())? {
            if let Some(hot) = &self.hot {
                hot.sketch.lock().observe(key);
            }
            return Ok(hit);
        }
        let (value, class) = self.algorithm2_fetch(key, hash, home, db)?;
        self.hot_key_after_fetch(key, &value, home.index(), class)?;
        Ok((value, class))
    }

    /// Probes a replicated key's replica set: power-of-two-choices
    /// picks the first server by the client's own load estimate, the
    /// remaining replicas serve as failover (a miss or a dead server
    /// just moves to the next replica). On a hit, replicas that were
    /// probed and missed are backfilled best-effort — this is how
    /// replicas added by a transition's recompute warm up without a
    /// bulk copy.
    ///
    /// Returns `None` when the key is not replicated or no replica
    /// could serve it (the standard tree then resolves the fetch).
    fn try_replicas(
        &self,
        key: &[u8],
        home: usize,
    ) -> Result<Option<(SharedBytes, ClusterFetch)>, NetError> {
        let Some(hot) = &self.hot else {
            return Ok(None);
        };
        let Some(replicas) = hot.replicated.lock().get(key).cloned() else {
            return Ok(None);
        };
        if replicas.len() < 2 {
            return Ok(None);
        }
        let first = replicas[hot
            .chooser
            .choose(replicas.len(), |i| hot.loads[replicas[i]].score())];
        let order = std::iter::once(first).chain(replicas.iter().copied().filter(|&s| s != first));
        let mut missed = Vec::new();
        for server in order {
            let load = &hot.loads[server];
            load.in_flight.fetch_add(1, Ordering::Relaxed);
            let begin = Instant::now();
            let result = self.clients[server].get(key);
            load.in_flight.fetch_sub(1, Ordering::Relaxed);
            match result {
                Ok(found) => {
                    load.record(u64::try_from(begin.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    match found {
                        Some(value) => {
                            for &m in &missed {
                                self.install(m, key, SharedBytes::clone(&value))?;
                            }
                            let class = if server == home {
                                ClusterFetch::Hit
                            } else {
                                ClusterFetch::ReplicaHit
                            };
                            return Ok(Some((value, class)));
                        }
                        None => missed.push(server),
                    }
                }
                // A dead replica is routed around, not degraded: the
                // surviving replicas (or the standard tree) serve.
                Err(e) if e.is_transport() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Sketch update, hot-key promotion, and re-replication after the
    /// standard tree resolved a fetch. A key crossing the threshold is
    /// promoted: its distinct replica set is computed against the
    /// current ring and the just-fetched value is installed on every
    /// non-home replica. For an already-replicated key that the
    /// standard tree resolved (every replica missed or the value was
    /// just migrated/refetched), the non-home replicas are re-filled —
    /// excluding the home server the tree already installed at, so a
    /// migration install is never duplicated.
    fn hot_key_after_fetch(
        &self,
        key: &[u8],
        value: &SharedBytes,
        home: usize,
        class: ClusterFetch,
    ) -> Result<(), NetError> {
        let Some(hot) = &self.hot else {
            return Ok(());
        };
        if hot.config.replicas < 2 {
            return Ok(());
        }
        let count = hot.sketch.lock().observe(key);
        let existing = hot.replicated.lock().get(key).cloned();
        let set = match existing {
            Some(set) => {
                if class == ClusterFetch::Hit {
                    // Home served directly (e.g. the p2c probe raced a
                    // concurrent promotion): nothing to re-fill.
                    return Ok(());
                }
                set
            }
            None => {
                if count < hot.config.hot_key_threshold {
                    return Ok(());
                }
                let set = hot.rings.replica_set(key, |h| self.home(h).index());
                if set.len() < 2 {
                    return Ok(());
                }
                let mut map = hot.replicated.lock();
                map.insert(key.to_vec(), set.clone());
                hot.promotions.inc();
                hot.hot_keys.set(map.len() as i64);
                set
            }
        };
        for &server in set.iter().filter(|&&s| s != home) {
            self.install(server, key, SharedBytes::clone(value))?;
        }
        Ok(())
    }

    /// Stores `value` at `key`'s home server and invalidates every
    /// other copy a reader could still find: the non-home replicas of
    /// a hot key, and — mid-transition — the old-mapping server whose
    /// digest could otherwise resurrect the stale value through an
    /// on-demand migration.
    ///
    /// The home write and the invalidations are best-effort on
    /// transport failures (a dead server serves nothing; the paper's
    /// failure model treats it as a miss), so a write never errors
    /// because a replica is down.
    ///
    /// # Errors
    ///
    /// Returns semantic (non-transport) cache-server errors.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), NetError> {
        let home = self.server_for(key).index();
        self.install(home, key, value.into())?;
        self.invalidate_many(&[key])?;
        Ok(())
    }

    /// Invalidates every non-home copy of each key — hot-key replicas
    /// plus, mid-transition, the old-mapping server — batched into one
    /// pipelined [`CacheClient::delete_many`] per target server.
    /// Returns how many copies were actually deleted. Unreachable
    /// targets are skipped (best effort, like every install path).
    ///
    /// # Errors
    ///
    /// Returns semantic (non-transport) cache-server errors.
    pub fn invalidate_many(&self, keys: &[&[u8]]) -> Result<u64, NetError> {
        let mut per_server: std::collections::HashMap<usize, Vec<&[u8]>> =
            std::collections::HashMap::new();
        for &key in keys {
            let hash = self.router.key_hash(key);
            let home = self.home(hash);
            if let Some(old) = self.router.moved_from(hash, home, &self.window, LIVE) {
                per_server.entry(old.index()).or_default().push(key);
            }
            let home = home.index();
            if let Some(hot) = &self.hot {
                if let Some(set) = hot.replicated.lock().get(key) {
                    for &server in set.iter().filter(|&&s| s != home) {
                        let group = per_server.entry(server).or_default();
                        if !group.contains(&key) {
                            group.push(key);
                        }
                    }
                }
            }
        }
        let mut deleted = 0;
        for (server, group) in per_server {
            if let Some(hot) = &self.hot {
                hot.invalidations.add(group.len() as u64);
            }
            match self.clients[server].delete_many(&group) {
                Ok(n) => deleted += n,
                Err(e) if e.is_transport() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(deleted)
    }

    /// The standard Algorithm 2 tree: new server, then the old
    /// server's digest mid-transition, then the database.
    fn algorithm2_fetch<D: DbFallback + ?Sized>(
        &self,
        key: &[u8],
        hash: u64,
        home: ServerId,
        db: &D,
    ) -> Result<(SharedBytes, ClusterFetch), NetError> {
        let new_server = home.index();
        match self.clients[new_server].get(key) {
            Ok(Some(value)) => return Ok((value, ClusterFetch::Hit)),
            Ok(None) => {}
            Err(e) if e.is_transport() => {
                // The key's cache server is down: serve from the
                // authoritative store. No point attempting a migration
                // either — there is nowhere to install it.
                self.tracer.record(TraceKind::Degraded {
                    server: new_server as u32,
                });
                return self.db_fetch(key, db, new_server, ClusterFetch::Degraded);
            }
            Err(e) => return Err(e),
        }
        let Some(old) = self
            .router
            .digest_probe(key, hash, home, &self.window, LIVE)
        else {
            return self.db_fetch(key, db, new_server, ClusterFetch::Database);
        };
        let old = old.index();
        match self.clients[old].get(key) {
            Ok(Some(value)) => {
                // Same allocation all the way through: the buffer read
                // off the old server's socket is the one re-`set` at
                // the new server — a refcount bump, not a copy.
                self.install(new_server, key, SharedBytes::clone(&value))?;
                self.tracer.record(TraceKind::KeyMigrated {
                    from: old as u32,
                    to: new_server as u32,
                });
                Ok((value, ClusterFetch::Migrated))
            }
            // The digest vouched for the key but the old server missed:
            // a Bloom false positive (or the departing server evicted
            // it). The wasted round trip is classified, not hidden.
            Ok(None) => self.db_fetch(key, db, new_server, ClusterFetch::FalsePositive),
            Err(e) if e.is_transport() => {
                // The departing server died early; its hot keys fall
                // through to the database.
                self.stats
                    .skipped_migrations
                    .fetch_add(1, Ordering::Relaxed);
                self.tracer
                    .record(TraceKind::MigrationSkipped { server: old as u32 });
                self.db_fetch(key, db, new_server, ClusterFetch::Degraded)
            }
            Err(e) => Err(e),
        }
    }

    /// Batched Algorithm 2: fetches many keys with one pipelined
    /// multi-key get per involved server instead of one round trip per
    /// key. Keys are grouped by their new-mapping server and all
    /// requests are written before any response is awaited. The misses
    /// stay batched too: during a transition, old-server digest probes
    /// are pipelined per old server and the migration re-`set`s are
    /// batched per new server ([`CacheClient::set_many`]), so a batch
    /// that migrates M keys from one departing server pays two round
    /// trips, not 2·M. Only genuinely per-key work — database fetches
    /// and keys whose new-mapping server failed the batch — runs key
    /// by key.
    ///
    /// Per-server failures are isolated: one dead server degrades only
    /// its own key group (those keys take the single-key path, which
    /// serves them from the database), while every other group
    /// proceeds normally — and the dead server's circuit breaker makes
    /// the per-key fallback fail fast rather than paying a timeout per
    /// key.
    ///
    /// Results align with `keys`.
    ///
    /// # Errors
    ///
    /// Returns backing-store failures and semantic (non-transport)
    /// cache-server errors.
    pub fn fetch_many<D: DbFallback + ?Sized>(
        &self,
        keys: &[&[u8]],
        db: &D,
    ) -> Result<Vec<(SharedBytes, ClusterFetch)>, NetError> {
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for (pos, key) in keys.iter().enumerate() {
            groups
                .entry(self.server_for(key).index())
                .or_default()
                .push(pos);
        }
        // Phase 1: write every server's multi-get before reading any
        // response, overlapping the per-server round trips. A server
        // that fails the send just leaves its group unresolved for the
        // per-key phase.
        let mut failed: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut pending = Vec::with_capacity(groups.len());
        for (server, positions) in groups {
            let group_keys: Vec<&[u8]> = positions.iter().map(|&p| keys[p]).collect();
            match self.clients[server].send_get_many(&group_keys) {
                Ok(sent) => pending.push((server, positions, sent)),
                Err(e) if e.is_transport() => {
                    failed.insert(server);
                }
                Err(e) => return Err(e),
            }
        }
        // Phase 2: collect responses and slot the hits. A receive
        // failure likewise only abandons that server's group.
        let mut out: Vec<Option<(SharedBytes, ClusterFetch)>> = vec![None; keys.len()];
        for (server, positions, sent) in pending {
            match self.clients[server].recv_get_many(sent) {
                Ok(values) => {
                    for (pos, value) in positions.into_iter().zip(values) {
                        if let Some(data) = value {
                            // Batched hits are counted but not timed:
                            // the round trip was shared by the whole
                            // group, so a per-key latency would be
                            // fiction.
                            self.fetches.count_only(FetchClassKind::NewHit);
                            out[pos] = Some((data, ClusterFetch::Hit));
                        }
                    }
                }
                Err(e) if e.is_transport() => {
                    failed.insert(server);
                }
                Err(e) => return Err(e),
            }
        }
        // Phase 3: the remaining keys take the migration/database tail
        // of the decision tree — batched. Migration candidates (genuine
        // misses whose old-mapping digest vouches for the key) are
        // grouped by old server; keys whose new-mapping server already
        // failed keep the per-key path (the tripped breaker fails fast,
        // preserving the degraded semantics); everything else is an
        // ordinary database miss.
        // Duplicate keys resolve once: the first unresolved position
        // of each distinct key is its representative; the rest mirror
        // its result at the end. Without this, N copies of one key in
        // a batch would fetch the database N times, migrate (and
        // trace, and count) the same key N times, and re-install it N
        // times.
        let mut rep_of: std::collections::HashMap<&[u8], usize> = std::collections::HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        let mut probe_groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for pos in 0..keys.len() {
            if out[pos].is_some() {
                continue;
            }
            let key = keys[pos];
            match rep_of.entry(key) {
                std::collections::hash_map::Entry::Occupied(rep) => {
                    dups.push((pos, *rep.get()));
                    continue;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(pos);
                }
            }
            let hash = self.router.key_hash(key);
            let home = self.home(hash);
            let new_server = home.index();
            if failed.contains(&new_server) {
                out[pos] = Some(self.fetch(key, db)?);
                continue;
            }
            if let Some(old) = self
                .router
                .digest_probe(key, hash, home, &self.window, LIVE)
            {
                probe_groups.entry(old.index()).or_default().push(pos);
                continue;
            }
            out[pos] = Some(self.timed_db_fetch(key, db, new_server, ClusterFetch::Database)?);
        }
        // Probe each old server with one pipelined multi-get (all
        // requests written before any response is read), instead of one
        // round trip per migrating key.
        let mut probes_pending = Vec::with_capacity(probe_groups.len());
        let mut probes_failed: Vec<(usize, Vec<usize>)> = Vec::new();
        for (old, positions) in probe_groups {
            let group_keys: Vec<&[u8]> = positions.iter().map(|&p| keys[p]).collect();
            match self.clients[old].send_get_many(&group_keys) {
                Ok(sent) => probes_pending.push((old, positions, sent)),
                Err(e) if e.is_transport() => probes_failed.push((old, positions)),
                Err(e) => return Err(e),
            }
        }
        // Migration hits are re-`set` in per-new-server batches below;
        // digest false positives pay their classified database fetch.
        let mut installs: std::collections::HashMap<usize, Vec<(usize, usize, SharedBytes)>> =
            std::collections::HashMap::new();
        for (old, positions, sent) in probes_pending {
            match self.clients[old].recv_get_many(sent) {
                Ok(values) => {
                    for (pos, value) in positions.into_iter().zip(values) {
                        let key = keys[pos];
                        let new_server = self.server_for(key).index();
                        match value {
                            Some(data) => {
                                installs
                                    .entry(new_server)
                                    .or_default()
                                    .push((pos, old, data));
                            }
                            None => {
                                out[pos] = Some(self.timed_db_fetch(
                                    key,
                                    db,
                                    new_server,
                                    ClusterFetch::FalsePositive,
                                )?);
                            }
                        }
                    }
                }
                Err(e) if e.is_transport() => probes_failed.push((old, positions)),
                Err(e) => return Err(e),
            }
        }
        // An unreachable old server skips its whole group's migration:
        // each key is recorded exactly as the single-key path would
        // (skip counter, trace event, degraded database fetch).
        for (old, positions) in probes_failed {
            for pos in positions {
                self.stats
                    .skipped_migrations
                    .fetch_add(1, Ordering::Relaxed);
                self.tracer
                    .record(TraceKind::MigrationSkipped { server: old as u32 });
                let key = keys[pos];
                let new_server = self.server_for(key).index();
                out[pos] =
                    Some(self.timed_db_fetch(key, db, new_server, ClusterFetch::Degraded)?);
            }
        }
        // Batched installs: one pipelined `set` batch per new server.
        // The shared buffers read off the old servers' sockets go to
        // the wire without copying, and a batch whose target server
        // fails is dropped whole (best effort, like `install`).
        for (new_server, batch) in installs {
            let pairs: Vec<(&[u8], SharedBytes)> = batch
                .iter()
                .map(|(pos, _, data)| (keys[*pos], SharedBytes::clone(data)))
                .collect();
            match self.clients[new_server].set_many(&pairs) {
                Ok(()) => {}
                Err(e) if e.is_transport() => {
                    self.stats
                        .dropped_installs
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
            for (pos, old, data) in batch {
                self.tracer.record(TraceKind::KeyMigrated {
                    from: old as u32,
                    to: new_server as u32,
                });
                // Counted, not timed: the probe round trip and the
                // install were both shared by the group.
                self.fetches.count_only(FetchClassKind::Migrated);
                out[pos] = Some((data, ClusterFetch::Migrated));
            }
        }
        // Duplicate positions mirror their representative's resolution
        // (same shared buffer, same class — counted so every position
        // is accounted exactly once, like the phase-2 hits).
        for (pos, rep) in dups {
            let resolved = out[rep].clone().expect("representative resolved");
            self.fetches.count_only(class_kind(resolved.1));
            out[pos] = Some(resolved);
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect())
    }
}

impl fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterClient")
            .field("servers", &self.clients.len())
            .field("active", &self.active())
            .field("in_transition", &self.transition_active())
            .field("strategy", &self.router.strategy().name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CacheServer;
    use proteus_cache::CacheConfig;
    use proteus_ring::ProteusPlacement;
    use proteus_store::StoreConfig;

    fn cluster(n: usize) -> (Vec<CacheServer>, ClusterClient, Mutex<ShardedStore>) {
        let servers: Vec<CacheServer> = (0..n)
            .map(|_| {
                CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(4 << 20)).unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(CacheServer::addr).collect();
        let client = ClusterClient::connect_with(
            &addrs,
            Box::new(ProteusPlacement::generate(n)),
            ClientConfig::fast_failover(),
        )
        .unwrap();
        let db = Mutex::new(ShardedStore::new(StoreConfig {
            object_size: 64,
            ..StoreConfig::default()
        }));
        (servers, client, db)
    }

    #[test]
    fn fetch_cold_then_hot() {
        let (servers, client, db) = cluster(3);
        let (v1, how1) = client.fetch(b"page:1", &db).unwrap();
        assert_eq!(how1, ClusterFetch::Database);
        let (v2, how2) = client.fetch(b"page:1", &db).unwrap();
        assert_eq!(how2, ClusterFetch::Hit);
        assert_eq!(v1, v2);
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn live_scale_down_migrates_hot_keys_with_zero_db_traffic() {
        let (servers, mut client, db) = cluster(4);
        // Warm a set of keys.
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        let db_before = db.lock().total_fetches();
        // Scale 4 -> 3 with digest broadcast over the real protocol.
        client.begin_transition(3).unwrap();
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_ne!(
                how,
                ClusterFetch::Database,
                "hot key {:?} must not reach the database",
                String::from_utf8_lossy(k)
            );
        }
        assert_eq!(
            db.lock().total_fetches(),
            db_before,
            "zero database traffic during the smooth transition"
        );
        // And the amortization property: the keys now all hit directly.
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_eq!(how, ClusterFetch::Hit);
        }
        client.end_transition();
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn after_end_transition_cold_keys_go_to_db() {
        let (servers, mut client, db) = cluster(3);
        client.fetch(b"page:7", &db).unwrap();
        client.begin_transition(2).unwrap();
        client.end_transition();
        // A key that moved but was never migrated now comes from the DB.
        let moved: Vec<u8> = (0..1000u32)
            .map(|i| format!("cold:{i}").into_bytes())
            .find(|k| client.server_for(k).index() < 2)
            .unwrap();
        let (_, how) = client.fetch(&moved, &db).unwrap();
        assert_eq!(how, ClusterFetch::Database);
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn fetch_many_matches_per_key_fetch() {
        let (servers, client, db) = cluster(3);
        let keys: Vec<Vec<u8>> = (0..60u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        // Warm the even keys only.
        for k in keys.iter().step_by(2) {
            client.fetch(k, &db).unwrap();
        }
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let batched = client.fetch_many(&refs, &db).unwrap();
        assert_eq!(batched.len(), keys.len());
        for (i, (value, how)) in batched.iter().enumerate() {
            // Values always match a direct single-key fetch.
            let (single, _) = client.fetch(&keys[i], &db).unwrap();
            assert_eq!(value, &single, "key {i}");
            let expected = if i % 2 == 0 {
                ClusterFetch::Hit
            } else {
                ClusterFetch::Database
            };
            assert_eq!(*how, expected, "key {i}");
        }
        // The batch installed the misses; a re-run is all hits.
        for (_, how) in client.fetch_many(&refs, &db).unwrap() {
            assert_eq!(how, ClusterFetch::Hit);
        }
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn fetch_many_migrates_during_transition() {
        let (servers, mut client, db) = cluster(4);
        let keys: Vec<Vec<u8>> = (0..80u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        let db_before = db.lock().total_fetches();
        client.begin_transition(3).unwrap();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut migrated = 0;
        for (_, how) in client.fetch_many(&refs, &db).unwrap() {
            assert_ne!(how, ClusterFetch::Database);
            if how == ClusterFetch::Migrated {
                migrated += 1;
            }
        }
        assert_eq!(db.lock().total_fetches(), db_before);
        assert!(migrated > 0, "the scale-down must move some keys");
        // The batched re-`set`s landed: the same batch is now all hits
        // at the new mapping, with zero dropped installs.
        for (_, how) in client.fetch_many(&refs, &db).unwrap() {
            assert_eq!(how, ClusterFetch::Hit);
        }
        assert_eq!(client.fault_stats().dropped_installs, 0);
        client.end_transition();
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn fetch_many_skips_migration_when_old_server_dies() {
        let (mut servers, mut client, db) = cluster(4);
        let keys: Vec<Vec<u8>> = (0..80u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        // The digest broadcast succeeds, then the departing server dies
        // before its keys migrate: the batched probe to it fails, and
        // every candidate key must degrade to the database exactly as
        // the single-key path would.
        client.begin_transition(3).unwrap();
        servers.remove(3).stop();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let results = client.fetch_many(&refs, &db).unwrap();
        let mut degraded = 0;
        for (value, how) in &results {
            assert!(!value.is_empty());
            match how {
                ClusterFetch::Hit => {}
                ClusterFetch::Degraded => degraded += 1,
                other => panic!("unexpected class {other:?}"),
            }
        }
        assert!(degraded > 0, "some keys lived on the departed server");
        let stats = client.fault_stats();
        assert_eq!(
            stats.skipped_migrations, degraded as u64,
            "every degraded key must be a skipped migration"
        );
        client.end_transition();
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn begin_transition_noop_for_same_count() {
        let (servers, mut client, _db) = cluster(2);
        client.begin_transition(2).unwrap();
        assert_eq!(client.active(), 2);
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn overlapping_transitions_are_rejected_then_chain_cleanly() {
        let (servers, mut client, db) = cluster(4);
        let keys: Vec<Vec<u8>> = (0..60u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        // 4 -> 3 opens a window; 3 -> 2 inside it must be rejected (it
        // would overwrite previous_active and the digest broadcast,
        // stranding keys that only live on the original old server).
        client.begin_transition(3).unwrap();
        assert!(matches!(
            client.begin_transition(2),
            Err(NetError::TransitionInProgress)
        ));
        assert_eq!(client.active(), 3, "rejected call must not move state");
        // Driven one window at a time, the 4 -> 3 -> 2 double step keeps
        // every hot key out of the database.
        let db_before = db.lock().total_fetches();
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_ne!(how, ClusterFetch::Database);
        }
        client.end_transition();
        client.begin_transition(2).unwrap();
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_ne!(how, ClusterFetch::Database);
        }
        client.end_transition();
        assert_eq!(db.lock().total_fetches(), db_before);
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn transition_status_reports_the_open_window_and_its_close() {
        let (servers, mut client, _db) = cluster(4);
        assert!(!client.transition_active());
        assert_eq!(client.transition_status(), None);
        assert_eq!(
            client.end_transition(),
            None,
            "closing a window that never opened is a no-op"
        );

        client.begin_transition(3).unwrap();
        // The status accessor is the controller's back-off signal: it
        // must read true exactly while begin_transition would reject.
        assert!(client.transition_active());
        let open = client.transition_status().expect("window is open");
        assert_eq!((open.from, open.to), (4, 3));
        assert!(matches!(
            client.begin_transition(2),
            Err(NetError::TransitionInProgress)
        ));

        let closed = client.end_transition().expect("a window was open");
        assert_eq!((closed.from, closed.to), (4, 3));
        assert!(closed.since >= open.since);
        assert!(!client.transition_active());
        assert_eq!(client.transition_status(), None);

        // A same-count begin is a no-op and must not open a window.
        client.begin_transition(3).unwrap();
        assert!(!client.transition_active());
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn dead_server_degrades_to_database_not_error() {
        let (mut servers, client, db) = cluster(3);
        let keys: Vec<Vec<u8>> = (0..60u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        // Kill server 1; its keys must degrade to the DB, the rest hit.
        servers.remove(1).stop();
        let mut degraded = 0;
        let mut hits = 0;
        for k in &keys {
            let (value, how) = client.fetch(k, &db).unwrap();
            assert!(!value.is_empty());
            match how {
                ClusterFetch::Degraded => degraded += 1,
                ClusterFetch::Hit => hits += 1,
                other => panic!("unexpected class {other:?} for {k:?}"),
            }
            if client.server_for(k).index() == 1 {
                assert_eq!(how, ClusterFetch::Degraded);
            }
        }
        assert!(degraded > 0, "some keys lived on the dead server");
        assert!(hits > 0, "other servers keep serving");
        let stats = client.fault_stats();
        assert_eq!(stats.degraded_fetches, degraded);
        assert!(
            stats.breaker_trips >= 1,
            "repeated failures must trip the dead server's breaker"
        );
        for s in servers {
            s.stop();
        }
    }

    fn replicated_cluster(
        n: usize,
        hot: HotKeyConfig,
    ) -> (Vec<CacheServer>, ClusterClient, Mutex<ShardedStore>) {
        let servers: Vec<CacheServer> = (0..n)
            .map(|_| {
                CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(4 << 20)).unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(CacheServer::addr).collect();
        let client = ClusterClient::connect_replicated(
            &addrs,
            Box::new(ProteusPlacement::generate(n)),
            ClientConfig::fast_failover(),
            hot,
        )
        .unwrap();
        let db = Mutex::new(ShardedStore::new(StoreConfig {
            object_size: 64,
            ..StoreConfig::default()
        }));
        (servers, client, db)
    }

    #[test]
    fn fetch_many_with_duplicate_keys_resolves_each_key_once_mid_transition() {
        let (servers, mut client, db) = cluster(4);
        let warm: Vec<Vec<u8>> = (0..40u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &warm {
            client.fetch(k, &db).unwrap();
        }
        client.begin_transition(3).unwrap();
        // Each warm key three times, plus cold keys twice each, shuffled
        // into repeated runs so duplicates land in the same phase-3 pass.
        let cold: Vec<Vec<u8>> = (0..10u32)
            .map(|i| format!("cold:{i}").into_bytes())
            .collect();
        let mut batch: Vec<&[u8]> = Vec::new();
        for _ in 0..3 {
            batch.extend(warm.iter().map(Vec::as_slice));
        }
        for _ in 0..2 {
            batch.extend(cold.iter().map(Vec::as_slice));
        }
        let db_before = db.lock().total_fetches();
        let migrated_before = client
            .tracer()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::KeyMigrated { .. }))
            .count();
        let results = client.fetch_many(&batch, &db).unwrap();
        assert_eq!(results.len(), batch.len());
        // Every duplicate position mirrors its representative exactly.
        let mut first: std::collections::HashMap<&[u8], &(SharedBytes, ClusterFetch)> =
            std::collections::HashMap::new();
        for (key, resolved) in batch.iter().zip(&results) {
            let rep = first.entry(key).or_insert(resolved);
            assert_eq!(rep.0, resolved.0, "duplicate value diverged");
            assert_eq!(rep.1, resolved.1, "duplicate class diverged");
        }
        // One database fetch per *unique* cold key, not per position.
        assert_eq!(
            db.lock().total_fetches() - db_before,
            cold.len() as u64,
            "duplicates must not multiply database fetches"
        );
        // And one migration per unique migrating key, not per position.
        let migrated_events = client
            .tracer()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::KeyMigrated { .. }))
            .count()
            - migrated_before;
        let migrated_unique = first
            .values()
            .filter(|(_, how)| *how == ClusterFetch::Migrated)
            .count();
        assert!(migrated_unique > 0, "the scale-down must move some keys");
        assert_eq!(
            migrated_events, migrated_unique,
            "duplicates must not double-migrate"
        );
        // Values agree with the single-key path.
        for (key, (value, _)) in batch.iter().zip(&results) {
            let (single, _) = client.fetch(key, &db).unwrap();
            assert_eq!(value, &single);
        }
        client.end_transition();
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn hot_key_is_promoted_replicated_and_served_by_replicas() {
        let hot = HotKeyConfig {
            replicas: 3,
            hot_key_threshold: 10,
            sketch_capacity: 32,
        };
        let (servers, client, db) = replicated_cluster(4, hot);
        let (celebrity, _) = client.fetch(b"celebrity", &db).unwrap();
        for _ in 0..80 {
            let (v, how) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(v, celebrity);
            assert!(
                matches!(how, ClusterFetch::Hit | ClusterFetch::ReplicaHit),
                "hot key must stay cached, got {how:?}"
            );
        }
        let stats = client.hot_key_stats().unwrap();
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.replicated_keys, 1);
        assert!(
            stats.replica_hits > 0,
            "p2c must route some reads to non-home replicas"
        );
        let replicas = client.replicas_of(b"celebrity").unwrap();
        assert_eq!(replicas.len(), 3, "three distinct replicas");
        assert_eq!(
            replicas[0],
            client.server_for(b"celebrity").index(),
            "replica 0 is the home server"
        );
        // Every replica server really holds the value.
        for &s in &replicas {
            assert_eq!(
                client.client(s).get(b"celebrity").unwrap().as_deref(),
                Some(&celebrity[..])
            );
        }
        // A cold key stays un-replicated and behaves as ever.
        let (_, how) = client.fetch(b"cold:1", &db).unwrap();
        assert_eq!(how, ClusterFetch::Database);
        assert!(client.replicas_of(b"cold:1").is_none());
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn writes_invalidate_every_replica_with_no_stale_reads() {
        let hot = HotKeyConfig {
            replicas: 3,
            hot_key_threshold: 5,
            sketch_capacity: 32,
        };
        let (servers, client, db) = replicated_cluster(4, hot);
        for _ in 0..20 {
            client.fetch(b"celebrity", &db).unwrap();
        }
        let replicas = client.replicas_of(b"celebrity").unwrap();
        assert!(replicas.len() > 1);
        client.put(b"celebrity", b"rewritten").unwrap();
        // The home holds the new value; every other replica was
        // invalidated, not left stale.
        let home = client.server_for(b"celebrity").index();
        assert_eq!(
            client.client(home).get(b"celebrity").unwrap().as_deref(),
            Some(&b"rewritten"[..])
        );
        for &s in replicas.iter().filter(|&&s| s != home) {
            assert_eq!(
                client.client(s).get(b"celebrity").unwrap(),
                None,
                "replica {s} must be invalidated"
            );
        }
        let stats = client.hot_key_stats().unwrap();
        assert_eq!(stats.invalidations, (replicas.len() - 1) as u64);
        // Subsequent fetches only ever see the new value (replicas are
        // backfilled from the home copy, never from a stale one).
        for _ in 0..20 {
            let (v, _) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(&v[..], b"rewritten", "stale replica value resurfaced");
        }
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn transition_recomputes_replica_sets_against_the_new_ring() {
        let hot = HotKeyConfig {
            replicas: 2,
            hot_key_threshold: 5,
            sketch_capacity: 32,
        };
        let (servers, mut client, db) = replicated_cluster(4, hot);
        let (value, _) = client.fetch(b"celebrity", &db).unwrap();
        for _ in 0..20 {
            client.fetch(b"celebrity", &db).unwrap();
        }
        assert!(client.replicas_of(b"celebrity").is_some());
        // Scale down: every replica must point inside the new active
        // prefix, and reads must keep serving the same value with zero
        // errors across the whole window.
        client.begin_transition(2).unwrap();
        let replicas = client.replicas_of(b"celebrity").unwrap();
        assert!(
            replicas.iter().all(|&s| s < 2),
            "replica set {replicas:?} must live in the active prefix"
        );
        let db_before = db.lock().total_fetches();
        for _ in 0..30 {
            let (v, _) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(v, value);
        }
        assert_eq!(
            db.lock().total_fetches(),
            db_before,
            "the hot key must never fall through to the database"
        );
        client.end_transition();
        for _ in 0..10 {
            let (v, _) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(v, value);
        }
        for s in servers {
            s.stop();
        }
    }

    #[test]
    fn fetch_many_isolates_a_dead_server_to_its_key_group() {
        let (mut servers, client, db) = cluster(3);
        let keys: Vec<Vec<u8>> = (0..60u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        servers.remove(0).stop();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let results = client.fetch_many(&refs, &db).unwrap();
        for (k, (value, how)) in keys.iter().zip(&results) {
            assert!(!value.is_empty());
            if client.server_for(k).index() == 0 {
                assert_eq!(*how, ClusterFetch::Degraded, "dead group degrades");
            } else {
                assert_eq!(*how, ClusterFetch::Hit, "live groups are untouched");
            }
        }
        for s in servers {
            s.stop();
        }
    }
}
