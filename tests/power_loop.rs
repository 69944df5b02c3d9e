//! End-to-end acceptance of the closed power-control loop: four live
//! TCP cache servers, a controller steering them, and one compressed
//! diurnal day replayed through the cluster client — the paper's whole
//! Figs. 10–11 story. The scenario and its gates live in
//! [`proteus_bench::power_loop`], shared with the `power_loop` smoke
//! binary, so the test and the binary cannot drift apart.

#[test]
fn controller_replays_a_compressed_day_within_the_energy_and_delay_gates() {
    proteus_bench::power_loop::run(true);
}
