//! Fig. 9: 99.9th-percentile response time over the day (480 buckets,
//! log scale) for all four scenarios — the paper's headline figure.
//!
//! Expected shape: `Naive` shows huge spikes at every provisioning
//! change (mass remapping → miss storm → database queueing);
//! `Consistent` shows smaller but visible bumps; `Proteus` tracks the
//! `Static` baseline with no transition spikes.
//!
//! Regenerate with: `cargo run --release -p proteus-bench --bin fig9_response_time`

use proteus_bench::{fmt_opt_ms, sparkline, write_csv, Evaluation};

fn main() {
    let eval = Evaluation::standard();
    let reports = eval.run_all();

    println!(
        "Fig. 9 — p99.9 response time per bucket ({} buckets over {} slots)",
        eval.config.response_buckets, eval.config.slots
    );

    // Log-scale sparklines, the visual analogue of the figure.
    println!("\nlog-scale profile per scenario:");
    for (sc, report) in &reports {
        let series: Vec<f64> = report
            .quantile_per_bucket(0.999)
            .iter()
            .map(|q| q.map_or(1e-3, |d| d.as_secs_f64()))
            .collect();
        // Downsample 480 buckets to 96 columns.
        let cols: Vec<f64> = series
            .chunks(5)
            .map(|c| c.iter().copied().fold(f64::MIN, f64::max))
            .collect();
        println!("{:>15} [{}]", sc.name(), sparkline(&cols, true));
    }

    // Numeric table on slot granularity (the worst bucket per slot).
    println!("\nworst in-slot p99.9 (ms):");
    print!("{:>4} {:>6}", "slot", "n(t)");
    for (sc, _) in &reports {
        print!(" {:>15}", sc.name());
    }
    println!();
    for slot in 0..eval.config.slots {
        print!("{:>4} {:>6}", slot, eval.plan.active_at(slot));
        for (_, report) in &reports {
            print!(
                " {:>15}",
                fmt_opt_ms(report.slot_worst_quantile(slot, 0.999))
            );
        }
        println!();
    }

    println!("\nsummary:");
    println!(
        "{:<16} {:>12} {:>14} {:>14} {:>10} {:>10}",
        "scenario", "hit ratio", "typical p99.9", "worst p99.9", "db total", "migrated"
    );
    for (sc, report) in &reports {
        println!(
            "{:<16} {:>11.1}% {:>12.0}ms {:>12.0}ms {:>10} {:>10}",
            sc.name(),
            report.counters.cache_hit_ratio() * 100.0,
            report
                .typical_bucket_quantile(0.999)
                .map_or(0.0, |d| d.as_millis_f64()),
            report
                .worst_bucket_quantile(0.999)
                .map_or(0.0, |d| d.as_millis_f64()),
            report.counters.database_total(),
            report.counters.migrated,
        );
    }
    // Plot-ready CSV: one row per bucket, one column per scenario (ms).
    let header: Vec<String> = std::iter::once("bucket".to_string())
        .chain(reports.iter().map(|(sc, _)| sc.name().to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let p999: Vec<_> = reports
        .iter()
        .map(|(_, r)| r.quantile_per_bucket(0.999))
        .collect();
    let rows = (0..eval.config.response_buckets).map(|b| {
        std::iter::once(b as f64)
            .chain(
                p999.iter()
                    .map(|q| q[b].map_or(f64::NAN, |d| d.as_millis_f64())),
            )
            .collect::<Vec<f64>>()
    });
    match write_csv("fig9_p999_ms", &header_refs, rows) {
        Ok(path) => println!("\nCSV written to {}", path.display()),
        Err(e) => eprintln!("\nCSV export failed: {e}"),
    }

    println!(
        "\npaper anchor: \"there is a huge response time spike\" for Naive at \
         every change of n(t); Consistent shows \"still considerable \
         performance degradation\"; with Proteus \"the delay spike is \
         clearly removed\" and matches Static."
    );
}
