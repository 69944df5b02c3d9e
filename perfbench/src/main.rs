//! The repository benchmark: end-to-end and per-layer numbers for the
//! Proteus cache cluster on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady_read --seed 1 --seconds 18 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it name every metric with its unit and sample count. See
//! `perfbench/README.md` for what each workload and metric means.

mod inputs;
mod layers;
mod live;
mod load;
mod report;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use proteus_cache::CacheConfig;
use proteus_ctl::StepAction;
use proteus_obs::FetchClassKind;

use inputs::{Keyspace, Op, OpKind};
use live::{Control, Load, Outcome, Spec};
use report::{Report, RESULT_E2E, RESULT_LAYERS};
use spans::SpanLog;
use stats::{max, median, ms, quantile, us};

/// Sub-runs per live run, each on a freshly set-up cluster, so that one
/// set of thread placements or one noisy stretch of the host sways only
/// part of the requests a run pools.
const SUBRUNS: usize = 3;

/// Set-ups timed per run: one per sub-run, the rest set up and torn
/// down again, so that `setup_s`, a median over them, is steadier than
/// a median of three.
const SETUPS: usize = 7;

/// The workloads `BENCHMARK.json` lists, in the order `--workload all`
/// runs them, before the extra ones.
const WORKLOADS: [&str; 4] = ["steady_read", "transition_reads", "diurnal_day", "sim_day"];

/// Workloads the command runs by name but `BENCHMARK.json` does not
/// list. `transition_churn` reads stale values after writes that cross
/// transition windows (see `perfbench/README.md`), so its result line
/// says `"correct": false` until the program stops serving them.
const EXTRA_WORKLOADS: [&str; 1] = ["transition_churn"];

/// The open loop counts as having fallen behind, and the run as
/// invalid, when its 99th-percentile send lateness exceeds this.
const LATE_LIMIT: Duration = Duration::from_millis(50);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 18,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = args.workload.as_str();
    if !WORKLOADS.contains(&name) && !EXTRA_WORKLOADS.contains(&name) && name != "all" {
        return Err(format!(
            "--workload must be one of {}, {} or all",
            WORKLOADS.join(", "),
            EXTRA_WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A live workload: the cluster spec and the seeded inputs it runs.
struct LiveWorkload {
    spec: Spec,
    keyspace: Keyspace,
    ops: Vec<Op>,
}

fn live_workload(name: &str, seed: u64, seconds: Duration) -> LiveWorkload {
    let cache = CacheConfig::with_capacity(16 << 20);
    let length = seconds / SUBRUNS as u32;
    match name {
        // ~8k values of 2-6 KB fill under half of the 4 x 16 MB cache.
        "steady_read" => LiveWorkload {
            spec: Spec {
                servers: 4,
                cache,
                warm: 8_000,
                load: Load::Closed,
                length,
                control: None,
            },
            keyspace: Keyspace::new(8_000, seed),
            ops: inputs::ops(seed, 8_000, 0.99, 0.05, 1 << 20),
        },
        "transition_reads" => churn(seed, length, cache, 0.0),
        "transition_churn" => churn(seed, length, cache, 0.2),
        // The power_loop day: mean 200 req/s, peak/nadir 3, one server
        // carries 100 ops/s.
        "diurnal_day" => {
            let (_, schedule) = inputs::diurnal_day(200.0, 3.0, length);
            LiveWorkload {
                ops: inputs::ops(seed, 2_000, 0.99, 0.0, schedule.len().max(1)),
                spec: Spec {
                    servers: 4,
                    cache,
                    warm: 2_000,
                    load: Load::Open(schedule),
                    length,
                    control: Some(Control {
                        capacity_ops: 100.0,
                        min_servers: 1,
                        max_step: 2,
                        cooldown: Duration::from_millis(600),
                        boot: Duration::from_millis(150),
                        drain: Duration::from_millis(150),
                        tick: Duration::from_millis(200),
                    }),
                },
                keyspace: Keyspace::new(2_000, seed),
            }
        }
        _ => unreachable!("checked by parse_args"),
    }
}

/// The square-wave churn workload with `put_share` of its ops writes.
/// ~36k values of 2-6 KB: about twice the 64 MB the four servers hold.
/// Low rate: two servers carry it; high rate: the policy wants all
/// four.
fn churn(seed: u64, length: Duration, cache: CacheConfig, put_share: f64) -> LiveWorkload {
    let schedule = inputs::square_wave(seed, 600.0, 1_800.0, length / 2, length);
    LiveWorkload {
        ops: inputs::ops(seed, 36_000, 0.99, put_share, schedule.len().max(1)),
        spec: Spec {
            servers: 4,
            cache,
            warm: 36_000,
            load: Load::Open(schedule),
            length,
            control: Some(Control {
                capacity_ops: 800.0,
                min_servers: 2,
                max_step: 2,
                cooldown: Duration::from_millis(600),
                boot: Duration::from_millis(150),
                drain: Duration::from_millis(300),
                tick: Duration::from_millis(200),
            }),
        },
        keyspace: Keyspace::new(36_000, seed),
    }
}

fn latencies(runs: &[Outcome], kind: OpKind) -> Vec<f64> {
    runs.iter()
        .flat_map(|o| o.timings.iter().zip(&o.kinds))
        .filter(|(_, k)| **k == kind)
        .map(|(t, _)| us(t.latency()))
        .collect()
}

/// For each controller step that opened a window, the worst due-time
/// latency of any request due while the step ran, in ms.
fn window_stalls(o: &Outcome) -> Vec<f64> {
    let Some(c) = &o.control else {
        return Vec::new();
    };
    c.steps
        .iter()
        .filter(|s| matches!(s.action, StepAction::WindowOpened { .. }))
        .filter_map(|s| {
            let due = o
                .timings
                .iter()
                .filter(|t| t.due >= s.start && t.due <= s.end);
            due.map(|t| ms(t.latency())).reduce(f64::max)
        })
        .collect()
}

/// The end-to-end metrics of a live run, pooled over its sub-runs,
/// plus its output checks. `setups` are set-up times of set-ups that
/// ran no load.
fn live_e2e(name: &str, w: &LiveWorkload, runs: &[Outcome], setups: &[f64]) -> Report {
    let mut report = Report::default();
    let scheduled: u64 = runs
        .iter()
        .map(|o| match &w.spec.load {
            Load::Open(s) => s.len() as u64,
            Load::Closed => o.timings.len() as u64,
        })
        .sum();
    let completed: u64 = runs.iter().map(|o| o.timings.len() as u64).sum();
    let errors: u64 = runs.iter().map(|o| o.errors).sum();
    let stale: u64 = runs.iter().map(|o| o.stale).sum();
    let failed = errors + stale + (scheduled - completed);
    let mut fetch = latencies(runs, OpKind::Get);
    let mut put = latencies(runs, OpKind::Put);
    let gets = fetch.len() as u64;
    let elapsed: f64 = runs
        .iter()
        .map(|o| o.timings.last().map_or(0.0, |t| t.done.as_secs_f64()))
        .sum();
    report.attempted = scheduled.max(1);
    report.failed = failed;

    let mut setup: Vec<f64> = runs
        .iter()
        .map(|o| o.setup_s)
        .chain(setups.iter().copied())
        .collect();
    report.e2e(
        "setup_s",
        median(&mut setup).unwrap_or(0.0),
        "s",
        setup.len() as u64,
    );
    report.e2e(
        "ops_per_s",
        completed as f64 / elapsed.max(1e-9),
        "1/s",
        completed,
    );
    let cpu_s: f64 = runs.iter().map(|o| o.cpu_s).sum();
    report.e2e(
        "cpu_us_per_op",
        cpu_s * 1e6 / completed.max(1) as f64,
        "us",
        completed,
    );
    let (p50, p99) = (
        quantile(&mut fetch, 0.5).unwrap_or(0.0),
        quantile(&mut fetch, 0.99).unwrap_or(0.0),
    );
    report.e2e("fetch_p50_us", p50, "us", gets);
    report.e2e("fetch_p99_us", p99, "us", gets);
    if runs.len() > 1 {
        let each: Vec<String> = runs
            .iter()
            .map(|o| {
                let mut v = latencies(std::slice::from_ref(o), OpKind::Get);
                format!("{:.1}", quantile(&mut v, 0.5).unwrap_or(0.0))
            })
            .collect();
        report.note(format!(
            "spread fetch_p50_us by sub-run: {} us",
            each.join(" ")
        ));
    }
    if !put.is_empty() {
        let n = put.len() as u64;
        report.e2e(
            "put_p50_us",
            quantile(&mut put, 0.5).unwrap_or(0.0),
            "us",
            n,
        );
        report.e2e(
            "put_p99_us",
            quantile(&mut put, 0.99).unwrap_or(0.0),
            "us",
            n,
        );
    }
    let db: u64 = runs
        .iter()
        .flat_map(|o| &o.counters.class_counts)
        .filter(|(kind, _, _)| {
            matches!(
                kind,
                FetchClassKind::Database | FetchClassKind::Degraded | FetchClassKind::FalsePositive
            )
        })
        .map(|(_, n, _)| n)
        .sum();
    report.e2e(
        "db_fetch_share",
        db as f64 / gets.max(1) as f64,
        "ratio",
        gets,
    );
    report.e2e(
        "error_share",
        failed as f64 / scheduled.max(1) as f64,
        "ratio",
        scheduled,
    );
    let controls: Vec<&live::ControlOutcome> =
        runs.iter().filter_map(|o| o.control.as_ref()).collect();
    if !controls.is_empty() {
        let mut stalls: Vec<f64> = runs.iter().flat_map(window_stalls).collect();
        let n = stalls.len() as u64;
        report.e2e(
            "transition_stall_ms",
            median(&mut stalls).unwrap_or(0.0),
            "ms",
            n,
        );
        let over: f64 = controls
            .iter()
            .flat_map(|c| {
                c.steps
                    .windows(2)
                    .filter(|p| p[0].p99.is_some_and(|p99| p99 > c.bound))
                    .map(|p| (p[1].start - p[0].start).as_secs_f64())
            })
            .fold(0.0, |a, b| a + b);
        let steps = controls.iter().map(|c| c.steps.len() as u64).sum();
        report.e2e("over_bound_s", over, "s", steps);
        if name == "diurnal_day" {
            let joules: f64 = controls.iter().map(|c| c.energy.joules()).sum();
            let oracle: f64 = controls.iter().map(|c| c.energy.oracle_joules()).sum();
            report.e2e(
                "joules_per_request",
                joules / completed.max(1) as f64,
                "J",
                completed,
            );
            report.e2e(
                "energy_ratio",
                joules / oracle.max(f64::MIN_POSITIVE),
                "ratio",
                steps,
            );
        }
    }
    // Later sub-runs repeat the first on a fresh cluster, and how much
    // of the freed one the allocator hands back varies from run to run;
    // the first sub-run's peak is the footprint of one set-up and run.
    report.e2e("peak_rss_mb", runs[0].peak_rss_mb, "MB", 1);

    report.note(format!(
        "check  stale_reads {stale} errors {errors} unsent {} of {scheduled} requests",
        scheduled - completed
    ));
    let gave_up = runs.iter().any(|o| o.gave_up);
    let mut valid = !gave_up;
    if matches!(w.spec.load, Load::Open(_)) {
        let mut late: Vec<f64> = runs
            .iter()
            .flat_map(|o| &o.timings)
            .map(|t| ms(t.late()))
            .collect();
        let late_p50 = quantile(&mut late, 0.5).unwrap_or(0.0);
        let late_p99 = quantile(&mut late, 0.99).unwrap_or(0.0);
        valid &= late_p99 <= ms(LATE_LIMIT);
        let mut service: Vec<f64> = runs
            .iter()
            .flat_map(|o| &o.timings)
            .map(|t| us(t.done - t.sent))
            .collect();
        report.note(format!(
            "check  generator {}: send lateness p50 {late_p50:.3} ms, p99 {late_p99:.3} ms, max {:.3} ms \
             (limit p99 {:.0} ms); sent-to-done p50 {:.1} us{}",
            if valid { "kept up" } else { "FELL BEHIND, run invalid" },
            max(&late).unwrap_or(0.0),
            ms(LATE_LIMIT),
            quantile(&mut service, 0.5).unwrap_or(0.0),
            if gave_up { "; gave up on the schedule" } else { "" }
        ));
    }
    report.correct = failed == 0 && valid;
    report
}

/// Per-layer metrics read from a traced live pass: counters the layers
/// export and the benchmark's own spans around its calls into them.
fn live_layers(o: &Outcome, report: &mut Report) {
    let c = &o.counters;
    let completed = o.timings.len().max(1) as f64;
    let q = |s: &proteus_obs::HistogramSnapshot, p: f64| s.quantile(p).map_or(0.0, us);
    report.layer(
        "plane.server_get_p50_us",
        q(&c.server_get, 0.5),
        "us",
        c.server_get.count(),
    );
    report.layer(
        "plane.server_set_p50_us",
        q(&c.server_set, 0.5),
        "us",
        c.server_set.count(),
    );
    report.layer(
        "plane.syscalls_per_op",
        c.syscalls as f64 / c.server_ops.max(1) as f64,
        "ratio",
        c.server_ops,
    );
    let per_1k = |n: u64| n as f64 * 1000.0 / completed;
    report.layer(
        "client.retries_per_1k",
        per_1k(c.faults.retries),
        "count",
        c.faults.retries,
    );
    report.layer(
        "client.breaker_trips_per_1k",
        per_1k(c.faults.breaker_trips),
        "count",
        c.faults.breaker_trips,
    );
    report.layer(
        "client.fast_fails_per_1k",
        per_1k(c.faults.fast_fails),
        "count",
        c.faults.fast_fails,
    );

    let self_ns = spans::self_times(&o.spans);
    let of = |name: &str| -> Vec<f64> {
        o.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e3)
            .collect()
    };
    let mut fetch_self: Vec<f64> = o
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "cluster.fetch")
        .map(|(_, t)| *t as f64 / 1e3)
        .collect();
    report.layer(
        "cluster.fetch_self_us",
        median(&mut fetch_self).unwrap_or(0.0),
        "us",
        fetch_self.len() as u64,
    );
    let mut lock = of("cluster.read_lock");
    let n = lock.len() as u64;
    report.layer(
        "cluster.read_lock_wait_us",
        median(&mut lock).unwrap_or(0.0),
        "us",
        n,
    );
    report.layer(
        "cluster.read_lock_wait_p99_us",
        quantile(&mut lock, 0.99).unwrap_or(0.0),
        "us",
        n,
    );
    report.layer(
        "cluster.read_lock_wait_max_us",
        max(&lock).unwrap_or(0.0),
        "us",
        n,
    );
    let fetches: u64 = c.class_counts.iter().map(|(_, n, _)| n).sum();
    for (kind, count, snap) in &c.class_counts {
        // `ClusterFetch::Hit`: served by the key's current owner.
        let class = match kind {
            FetchClassKind::NewHit => "hit",
            other => other.name(),
        };
        report.layer(
            &format!("cluster.class_share.{class}"),
            *count as f64 / fetches.max(1) as f64,
            "ratio",
            fetches,
        );
        if matches!(
            kind,
            FetchClassKind::NewHit | FetchClassKind::Migrated | FetchClassKind::Database
        ) {
            report.layer(
                &format!("cluster.class_p50_us.{class}"),
                q(snap, 0.5),
                "us",
                snap.count(),
            );
        }
    }
    report.layer(
        "cluster.missing_digests",
        c.faults.missing_digests as f64,
        "count",
        1,
    );
    report.layer(
        "cluster.dropped_installs",
        c.faults.dropped_installs as f64,
        "count",
        1,
    );
    report.layer(
        "cluster.skipped_migrations",
        c.faults.skipped_migrations as f64,
        "count",
        1,
    );
    let mut store = of("store.fetch");
    let gets = o.kinds.iter().filter(|k| **k == OpKind::Get).count().max(1);
    report.layer(
        "store.fetch_us",
        median(&mut store).unwrap_or(0.0),
        "us",
        store.len() as u64,
    );
    report.layer(
        "store.fetches_per_get",
        c.db_fetches as f64 / gets as f64,
        "ratio",
        gets as u64,
    );

    if let Some(ctl) = &o.control {
        let step_ms = |label: &str| -> Vec<f64> {
            ctl.steps
                .iter()
                .filter(|s| live::action_name(s.action) == label)
                .map(|s| ms(s.end - s.start))
                .collect()
        };
        for (metric, label) in [
            ("ctl.step_held_ms", "held"),
            ("ctl.step_open_ms", "window_opened"),
            ("ctl.step_close_ms", "window_closed"),
        ] {
            let mut v = step_ms(label);
            report.layer(metric, median(&mut v).unwrap_or(0.0), "ms", v.len() as u64);
        }
        let closed = |up: bool| {
            ctl.steps
                .iter()
                .filter(|s| matches!(s.action, StepAction::WindowClosed { from, to } if (to > from) == up))
                .count() as f64
        };
        report.layer("ctl.decisions", ctl.decisions as f64, "count", 1);
        report.layer("ctl.windows_up", closed(true), "count", 1);
        report.layer("ctl.windows_down", closed(false), "count", 1);
        report.layer("ctl.backoffs", ctl.backoffs as f64, "count", 1);
        report.layer(
            "ctl.mean_active",
            step_mean(ctl, |s| s.active as f64),
            "servers",
            ctl.steps.len() as u64,
        );
        report.layer(
            "agg.scrape_failures",
            ctl.scrape_failures as f64,
            "count",
            1,
        );
        report.layer("energy.joules", ctl.energy.joules(), "J", 1);
        report.layer("energy.oracle_joules", ctl.energy.oracle_joules(), "J", 1);
        report.layer("energy.server_seconds", ctl.energy.server_seconds(), "s", 1);
    }
    report.layer("obs.trace_events", c.trace_events as f64, "count", 1);
    report.layer("obs.trace_dropped", c.trace_dropped as f64, "count", 1);
    let mut late: Vec<f64> = o.timings.iter().map(|t| ms(t.late())).collect();
    report.layer(
        "gen.late_p99_ms",
        quantile(&mut late, 0.99).unwrap_or(0.0),
        "ms",
        late.len() as u64,
    );
    report.layer(
        "gen.late_max_ms",
        max(&late).unwrap_or(0.0),
        "ms",
        late.len() as u64,
    );
}

/// Time-weighted mean of `f` over the controller's steps.
fn step_mean(ctl: &live::ControlOutcome, f: impl Fn(&live::Step) -> f64) -> f64 {
    let (mut weighted, mut total) = (0.0, 0.0);
    for p in ctl.steps.windows(2) {
        let dt = (p[1].start - p[0].start).as_secs_f64();
        weighted += f(&p[0]) * dt;
        total += dt;
    }
    if total > 0.0 {
        weighted / total
    } else {
        0.0
    }
}

fn reconcile(name: &str, e2e: &Report, layers: &Report, o: &Outcome) -> Vec<String> {
    let l = |m: &str| layers.get(m).unwrap_or(0.0);
    match name {
        "steady_read" => {
            let server = l("plane.server_get_p50_us");
            let wire = (l("wire.parse_ns") + l("wire.encode_ns")) / 1e3;
            let measured = e2e.get("fetch_p50_us").unwrap_or(0.0);
            let rest = measured - server - wire;
            vec![format!(
                "reconcile fetch_p50_us {measured:.2} us = server get p50 {server:.2} + wire parse+encode {wire:.3} \
                 + {rest:.2} us ({:.0}%) not attributed to a layer: client code, socket syscalls, loopback and \
                 thread wake-ups, all inside cluster.fetch_self_us {:.2} us since no span runs inside ClusterClient",
                rest / measured.max(f64::MIN_POSITIVE) * 100.0,
                l("cluster.fetch_self_us")
            )]
        }
        "transition_reads" | "transition_churn" => vec![format!(
            "reconcile transition_stall_ms {:.3} ms vs ctl.step_open_ms {:.3} ms (the write lock is held for the \
             digest broadcast inside the step) and max cluster.read_lock_wait {:.3} ms",
            e2e.get("transition_stall_ms").unwrap_or(0.0),
            l("ctl.step_open_ms"),
            l("cluster.read_lock_wait_max_us") / 1e3
        )],
        "diurnal_day" => {
            let ctl = o.control.as_ref();
            let active = l("ctl.mean_active");
            // The proportional oracle: the fewest servers that carry
            // each step's observed load.
            let oracle = ctl.map_or(0.0, |c| {
                step_mean(c, |s| (s.ops_per_sec / c.capacity_ops).ceil().max(1.0))
            });
            vec![format!(
                "reconcile energy_ratio {:.3} vs ctl.mean_active {active:.3} / oracle servers {oracle:.3} = {:.3}; \
                 the gap is idle power of booting/draining servers and the load-proportional share of the watts",
                e2e.get("energy_ratio").unwrap_or(0.0),
                if oracle > 0.0 { active / oracle } else { 0.0 }
            )]
        }
        _ => Vec::new(),
    }
}

fn run_live(name: &str, args: &Args) -> Report {
    let length = Duration::from_secs(args.seconds);
    let w = live_workload(name, args.seed, length);
    let subruns: Vec<Outcome> = (0..SUBRUNS)
        .map(|_| live::run(&w.spec, &w.keyspace, &w.ops, false, |_| {}))
        .collect();
    // After the sub-runs, so that the first sub-run's peak RSS is that
    // of one set-up and run.
    let setups: Vec<f64> = (SUBRUNS..SETUPS)
        .map(|_| live::set_up_only(&w.spec, &w.keyspace))
        .collect();
    let mut report = live_e2e(name, &w, &subruns, &setups);
    if !args.trace {
        return report;
    }

    // The traced pass: same inputs, spans on, then the replays.
    let mut engine_layers = Report::default();
    let traced = live::run(&w.spec, &w.keyspace, &w.ops, true, |engine| {
        layers::bloom(engine, &w.keyspace, &w.ops, &mut engine_layers);
    });
    let traced_e2e = live_e2e(name, &w, std::slice::from_ref(&traced), &[]);
    let mut layer_report = Report::default();
    live_layers(&traced, &mut layer_report);
    layer_report.layers.extend(engine_layers.layers);
    let replay_spans = SpanLog::new(Instant::now(), 16);
    layers::Replay {
        keyspace: &w.keyspace,
        ops: &w.ops,
        servers: w.spec.servers,
        cache: w.spec.cache,
    }
    .run(&mut layer_report, &replay_spans);

    let overhead: Vec<String> = report
        .e2e
        .iter()
        .filter_map(|m| {
            let t = traced_e2e.get(&m.name)?;
            Some(format!(
                "overhead {:<22} untraced {:>14.4} traced {:>14.4} {}: {:+.4} ({:+.1}%)",
                m.name,
                m.value,
                t,
                m.unit,
                t - m.value,
                if m.value != 0.0 {
                    (t - m.value) / m.value * 100.0
                } else {
                    0.0
                }
            ))
        })
        .collect();
    report.notes.extend(overhead);
    for line in reconcile(name, &traced_e2e, &layer_report, &traced) {
        report.note(line);
    }
    let mut all_spans = traced.spans;
    all_spans.extend(replay_spans.into_spans());
    report.note(spans::write_out(name, args.seed, &all_spans));
    report.layers = layer_report.layers;
    report.correct &= traced_e2e.correct;
    report.attempted += traced_e2e.attempted;
    report.failed += traced_e2e.failed;
    report
}

fn run_one(name: &str, args: &Args) -> Report {
    if name == "sim_day" {
        let mut r = sim::run(
            args.seed,
            Duration::from_secs(args.seconds),
            SETUPS,
            args.trace,
        );
        if args.trace {
            r.note("overhead none: the simulator runs without spans; the replays follow it".into());
        }
        r
    } else {
        run_live(name, args)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|{}|all> --seed N --seconds N --trace 0|1",
                WORKLOADS.join("|"),
                EXTRA_WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().chain(&EXTRA_WORKLOADS).copied().collect()
    } else {
        vec![args.workload.as_str()]
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for name in names {
        println!(
            "{name:>16} seed {} seconds {} trace {} cores {cores}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let report = run_one(name, &args);
        report.print(name);
        let names: &[&str] = if args.trace {
            &RESULT_LAYERS
        } else {
            &RESULT_E2E
        };
        println!("{}", report.json(names));
    }
    ExitCode::SUCCESS
}
