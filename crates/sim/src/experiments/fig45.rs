//! Fig. 4 (500×500) and Fig. 5 (800×800), panels (a)–(d): lower-tier
//! power (baseline / PRO / LPQC-optimal), running times (SAMC / IAC /
//! GAC), connectivity relay counts (MUST per BS vs MBMC), and upper-tier
//! power (baseline vs UCPO). Both figures share one engine parameterised
//! by field size.

use sag_core::mbmc::{mbmc, must};
use sag_core::pro::{baseline_power, optimal_power, pro};
use sag_core::ucpo::{baseline_upper_power, ucpo};

use crate::batch::sweep_multi_cached;
use crate::experiments::{build_cached, gac_grid_for, run_gac, run_iac, run_samc, run_samc_cached};
use crate::gen::ScenarioSpec;
use crate::runner::{sweep_multi, timed, SweepConfig};
use crate::table::Table;

/// User counts the paper sweeps on each field.
pub fn users_for_field(field: f64) -> Vec<usize> {
    if field <= 500.0 {
        vec![5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    } else {
        vec![20, 30, 40, 50, 60, 70]
    }
}

fn spec(field: f64, users: usize) -> ScenarioSpec {
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        snr_db: -15.0,
        n_base_stations: 4,
        ..Default::default()
    }
}

/// Panel (a): lower-tier power — all-Pmax baseline vs PRO vs the LPQC
/// optimum, on the SAMC coverage topology.
pub fn power_pro(field: f64, config: SweepConfig) -> Table {
    let users = users_for_field(field);
    let series = sweep_multi_cached(&users, 3, config, |ctx, n, seed| {
        let sp = spec(field, n);
        let sc = build_cached(ctx, &sp, seed);
        match run_samc_cached(ctx, &sp, seed).as_ref() {
            Some(sol) => {
                let base = baseline_power(&sc, sol).total();
                let reduced = pro(&sc, sol).total();
                let optimal = optimal_power(&sc, sol).ok().map(|a| a.total());
                vec![Some(base), Some(reduced), optimal]
            }
            None => vec![None, None, None],
        }
    });
    let mut t = Table::new(
        format!(
            "Fig {} (a) lower-tier power — {field:.0}x{field:.0}, SNR=-15dB",
            fig_no(field)
        ),
        "users",
        users.iter().map(|&u| u as f64).collect(),
    );
    let mut it = series.into_iter();
    t.push_series("baseline", it.next().expect("3 series"));
    t.push_series("PRO", it.next().expect("3 series"));
    t.push_series("optimal", it.next().expect("3 series"));
    t
}

/// Panel (b): wall-clock running time (milliseconds) of SAMC vs IAC vs
/// GAC. Milliseconds, because the table prints two decimals and SAMC
/// solves a Fig. 4/5 field in well under 10 ms.
///
/// Timings are taken inside the multi-threaded sweep, so absolute
/// times include CPU contention; only the *relative* ordering (the
/// paper's claim) should be read from this panel. Use `--threads 1` for
/// contention-free absolute numbers.
///
/// This panel deliberately stays on the *uncached* sweep path: it
/// measures solver wall-clock, and a cache hit would time the cache
/// instead of the solver.
pub fn running_times(field: f64, config: SweepConfig) -> Table {
    let users = users_for_field(field);
    let grid = gac_grid_for(field);
    let series = sweep_multi(&users, 3, config, |n, seed| {
        let sc = spec(field, n).build(seed);
        let (samc_out, samc_t) = timed(|| run_samc(&sc));
        let (iac_out, iac_t) = timed(|| run_iac(&sc));
        let (gac_out, gac_t) = timed(|| run_gac(&sc, grid));
        vec![
            samc_out.map(|_| samc_t * 1e3),
            iac_out.map(|_| iac_t * 1e3),
            gac_out.map(|_| gac_t * 1e3),
        ]
    });
    let mut t = Table::new(
        format!(
            "Fig {} (b) running time [ms] — {field:.0}x{field:.0}, SNR=-15dB",
            fig_no(field)
        ),
        "users",
        users.iter().map(|&u| u as f64).collect(),
    );
    let mut it = series.into_iter();
    t.push_series("SAMC", it.next().expect("3 series"));
    t.push_series("IAC", it.next().expect("3 series"));
    t.push_series("GAC", it.next().expect("3 series"));
    t
}

/// Panel (c): number of connectivity relays — MUST pinned to each of the
/// four BSs vs MBMC's nearest-BS trees.
pub fn connectivity(field: f64, config: SweepConfig) -> Table {
    let users = users_for_field(field);
    let series = sweep_multi_cached(&users, 5, config, |ctx, n, seed| {
        let sp = spec(field, n);
        let sc = build_cached(ctx, &sp, seed);
        match run_samc_cached(ctx, &sp, seed).as_ref() {
            Some(sol) => {
                let mut out: Vec<Option<f64>> = (0..4)
                    .map(|b| must(&sc, sol, b).ok().map(|p| p.n_relays() as f64))
                    .collect();
                out.push(mbmc(&sc, sol).ok().map(|p| p.n_relays() as f64));
                out
            }
            None => vec![None; 5],
        }
    });
    let mut t = Table::new(
        format!(
            "Fig {} (c) connectivity RSs — {field:.0}x{field:.0}, SNR=-15dB, 4 BSs",
            fig_no(field)
        ),
        "users",
        users.iter().map(|&u| u as f64).collect(),
    );
    let mut it = series.into_iter();
    for b in 1..=4 {
        t.push_series(format!("MUST BS{b}"), it.next().expect("5 series"));
    }
    t.push_series("MBMC", it.next().expect("5 series"));
    t
}

/// Panel (d): upper-tier power — all-Pmax baseline vs UCPO on the MBMC
/// topology.
pub fn power_ucpo(field: f64, config: SweepConfig) -> Table {
    let users = users_for_field(field);
    let series = sweep_multi_cached(&users, 2, config, |ctx, n, seed| {
        let sp = spec(field, n);
        let sc = build_cached(ctx, &sp, seed);
        match run_samc_cached(ctx, &sp, seed).as_ref() {
            Some(sol) => match mbmc(&sc, sol) {
                Ok(plan) => {
                    let base = baseline_upper_power(&sc, &plan).total();
                    let opt = ucpo(&sc, sol, &plan).total();
                    vec![Some(base), Some(opt)]
                }
                Err(_) => vec![None, None],
            },
            None => vec![None, None],
        }
    });
    let mut t = Table::new(
        format!(
            "Fig {} (d) upper-tier power — {field:.0}x{field:.0}, SNR=-15dB",
            fig_no(field)
        ),
        "users",
        users.iter().map(|&u| u as f64).collect(),
    );
    let mut it = series.into_iter();
    t.push_series("baseline", it.next().expect("2 series"));
    t.push_series("UCPO", it.next().expect("2 series"));
    t
}

fn fig_no(field: f64) -> u8 {
    if field <= 500.0 {
        4
    } else {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            runs: 1,
            base_seed: 7,
            threads: 4,
        }
    }

    #[test]
    fn pro_panel_ordering() {
        let t = power_pro(300.0, tiny()); // small custom field for speed
        for i in 0..t.xs.len() {
            let base = t.series[0].cells[i].mean;
            let pro = t.series[1].cells[i].mean;
            let opt = t.series[2].cells[i].mean;
            if let (Some(b), Some(p)) = (base, pro) {
                assert!(p <= b + 1e-9, "PRO must not exceed baseline");
            }
            if let (Some(p), Some(o)) = (pro, opt) {
                assert!(o <= p + 1e-6, "optimal must lower-bound PRO");
            }
        }
    }

    #[test]
    fn ucpo_panel_ordering() {
        let t = power_ucpo(300.0, tiny());
        for i in 0..t.xs.len() {
            if let (Some(b), Some(u)) = (t.series[0].cells[i].mean, t.series[1].cells[i].mean) {
                assert!(u <= b + 1e-9, "UCPO must not exceed baseline");
            }
        }
    }

    #[test]
    fn mbmc_beats_every_must() {
        let t = connectivity(300.0, tiny());
        let mbmc_series = &t.series[4];
        for i in 0..t.xs.len() {
            if let Some(m) = mbmc_series.cells[i].mean {
                for b in 0..4 {
                    if let Some(mu) = t.series[b].cells[i].mean {
                        assert!(
                            m <= mu + 1e-9,
                            "MBMC {m} worse than MUST BS{} {mu} at x={}",
                            b + 1,
                            t.xs[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn users_for_field_matches_paper() {
        assert_eq!(users_for_field(500.0).first(), Some(&5));
        assert_eq!(users_for_field(800.0), vec![20, 30, 40, 50, 60, 70]);
    }
}
