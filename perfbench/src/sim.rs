//! `sim_day`: the half-day evaluation run through the discrete-event
//! simulator with the Proteus scenario, repeated for the run's length.

use std::time::{Duration, Instant};

use proteus_bench::{MEAN_RATE, MIN_SERVERS};
use proteus_cache::CacheConfig;
use proteus_core::{ClusterConfig, ClusterReport, ClusterSim, ProvisioningPlan, Scenario};
use proteus_workload::Trace;

use crate::inputs::{Keyspace, Op, OpKind};
use crate::layers::{self, Replay};
use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::{max, median, peak_rss_mb};

/// `Evaluation::short()` with the trace and simulator seeded from the
/// benchmark's seed instead of the figure binaries' fixed seeds.
fn config() -> ClusterConfig {
    let mut config = ClusterConfig::paper_scale();
    config.slots = 24;
    config
}

fn synthesize(config: &ClusterConfig, seed: u64) -> (Trace, ProvisioningPlan) {
    let trace = Trace::synthesize(&config.trace_config(MEAN_RATE), seed);
    let plan = ProvisioningPlan::load_proportional(
        &trace.requests_per_slot(config.slot, config.slots),
        config.cache_servers,
        MIN_SERVERS,
    );
    (trace, plan)
}

/// Everything a repeat of the same seeded run must reproduce exactly.
fn fingerprint(r: &ClusterReport) -> String {
    format!(
        "{:?} {:?} {} {} {:?}",
        r.counters,
        r.active_per_slot,
        r.total_energy_j.to_bits(),
        r.cache_energy_j.to_bits(),
        r.worst_bucket_quantile(0.999)
    )
}

pub fn run(seed: u64, seconds: Duration, setups: usize, traced: bool) -> Report {
    let config = config();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..setups {
        let t = Instant::now();
        inputs = Some(synthesize(&config, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (trace, plan) = inputs.expect("at least one set-up");

    let mut report = Report::default();
    let cpu_before = crate::stats::process_cpu_s();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(String, ClusterReport)> = None;
    let mut mismatched = 0u64;
    // At least two runs, so every run has a repeat to be checked
    // against.
    while walls.len() < 2 || start.elapsed() < seconds {
        let t = Instant::now();
        let result = ClusterSim::new(config.clone(), Scenario::Proteus, &trace, &plan, seed).run();
        walls.push(t.elapsed().as_secs_f64());
        let print = fingerprint(&result);
        match &first {
            None => first = Some((print, result)),
            Some((expected, _)) if *expected != print => {
                mismatched += 1;
                println!(
                    "output mismatch: run {} differs from run 1 of the same seed",
                    walls.len()
                );
            }
            Some(_) => {}
        }
    }
    let (_, result) = first.expect("at least one run");
    let requests = trace.len() as u64;
    let completed = result.completed_requests();
    if completed != requests {
        println!("output mismatch: {completed} requests completed of {requests} in the trace");
    }
    let runs = walls.len() as u64;
    report.attempted = requests * runs;
    report.failed = requests * mismatched
        + if completed == requests {
            0
        } else {
            requests - completed
        };
    report.correct = report.failed == 0;

    let total: f64 = walls.iter().sum();
    let cpu_s = crate::stats::process_cpu_s() - cpu_before;
    report.e2e(
        "setup_s",
        median(&mut setup_s).unwrap_or(0.0),
        "s",
        setup_s.len() as u64,
    );
    report.e2e("ops_per_s", (requests * runs) as f64 / total, "1/s", runs);
    report.e2e(
        "cpu_us_per_op",
        cpu_s * 1e6 / (requests * runs) as f64,
        "us",
        requests * runs,
    );
    report.e2e(
        "sim_requests_per_s",
        (requests * runs) as f64 / total,
        "1/s",
        runs,
    );
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let worst_p999 = result
        .worst_bucket_quantile(0.999)
        .map_or(0.0, |d| d.as_millis_f64());
    report.note(format!(
        "check  {runs} runs of the same seed identical: {}; {completed} of {requests} requests completed; \
         worst p99.9 {worst_p999:.1} ms, cache {:.3} Wh",
        mismatched == 0,
        result.cache_energy_wh()
    ));

    if traced {
        report.layer("des.wall_s", median(&mut walls).unwrap_or(0.0), "s", runs);
        report.layer("des.wall_max_s", max(&walls).unwrap_or(0.0), "s", runs);
        report.layer(
            "des.hit_ratio",
            result.counters.cache_hit_ratio(),
            "ratio",
            completed,
        );
        report.layer("des.worst_p999_ms", worst_p999, "ms", completed);
        report.layer("des.cache_wh", result.cache_energy_wh(), "Wh", 1);
        let keyspace =
            Keyspace::from_pages(0..=trace.records().iter().map(|r| r.page).max().unwrap_or(0));
        let ops: Vec<Op> = trace
            .records()
            .iter()
            .map(|r| Op {
                kind: OpKind::Get,
                key: r.page as u32,
            })
            .collect();
        let replay = Replay {
            keyspace: &keyspace,
            ops: &ops,
            servers: config.cache_servers,
            cache: CacheConfig::with_capacity(config.cache_capacity_bytes).hot_ttl(config.hot_ttl),
        };
        let spans = SpanLog::new(Instant::now(), 16);
        let engine = replay.run(&mut report, &spans);
        layers::bloom(&engine, &keyspace, &ops, &mut report);
        report.note(crate::spans::write_out(
            "sim_day",
            seed,
            &spans.into_spans(),
        ));
    }
    report
}
