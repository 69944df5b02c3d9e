//! The closed power loop over live TCP: one compressed diurnal day
//! replayed against a controller-steered four-server cluster, with the
//! energy, delay, direction and trace gates of
//! [`proteus_bench::power_loop`].
//!
//! `--smoke` is the CI entry point: one 12 s compressed day (the full
//! run takes 30 s).
//!
//! Run with: `cargo run --release -p proteus-bench --bin power_loop -- --smoke`

fn main() {
    proteus_bench::power_loop::run(std::env::args().any(|a| a == "--smoke"));
}
