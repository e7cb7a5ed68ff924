//! Topology export: regenerate the paper's Fig. 6 panels as CSV files
//! plus a binary scenario snapshot, ready for any plotting tool.
//!
//! ```text
//! cargo run -p sag-sim --example topology_export -- [out_dir]
//! ```
//!
//! Writes `fig6_<panel>.csv` (kind,x,y,x2,y2 rows) and
//! `fig6_scenario.bin` (the exact scenario, reloadable via
//! `sag_sim::snapshot::decode`) into `out_dir` (default `target/fig6`).

use std::io::Write as _;

use sag_sim::experiments::fig6;
use sag_sim::snapshot;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/fig6".to_string());
    std::fs::create_dir_all(&out_dir)?;

    let seed = 7;
    let scenario = fig6::fig6_scenario(seed);
    let snap = snapshot::encode(&scenario);
    let snap_path = format!("{out_dir}/fig6_scenario.bin");
    std::fs::File::create(&snap_path)?.write_all(&snap)?;
    println!("wrote {snap_path} ({} bytes)", snap.len());

    for dump in fig6::fig6(seed) {
        let path = format!("{out_dir}/fig6_{}.csv", dump.name.replace('+', "_"));
        std::fs::write(&path, dump.to_csv())?;
        println!(
            "{:<10} {:>2} cover + {:>3} connect relays, {:>3} links -> {path}",
            dump.name,
            dump.coverage_relays.len(),
            dump.connectivity_relays.len(),
            dump.links.len(),
        );
    }

    // Prove the snapshot round-trips.
    let reloaded = snapshot::decode(&snap)?;
    assert_eq!(reloaded, scenario);
    println!("snapshot round-trip verified");
    Ok(())
}
