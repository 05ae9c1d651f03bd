//! Regenerate paper Figure 10: coherence protocol configuration vs
//! application performance — SPEC OMP2012 and SPEC MPI2007 proxies,
//! runtime normalized to the default (source snoop) configuration.
//!
//! Paper shape to reproduce: OMP within ±2% under home snoop except
//! 362.fma3d / 371.applu331 (~5% faster); those two degrade under COD (up
//! to +23% for applu331) while no OMP code benefits much; MPI is uniform —
//! slightly slower without Early Snoop, mostly faster with COD.

use hswx_bench::parallel_map;
use hswx_haswell::report::Table;
use hswx_haswell::CoherenceMode;
use hswx_workloads::proxy::relative_to_source;
use hswx_workloads::{mpi2007_proxies, omp2012_proxies, run_proxy};

fn main() {
    // A typo'd count must not silently fall back to the default: that
    // regenerates the figure with the wrong sampling and nobody notices.
    let accesses = match std::env::args().nth(1) {
        None => 4000usize,
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: bad accesses count {s:?} (usage: fig10 [ACCESSES])");
                std::process::exit(2);
            }
        },
    };

    let apps: Vec<_> = [
        ("OMP2012", omp2012_proxies()),
        ("MPI2007", mpi2007_proxies()),
    ]
    .into_iter()
    .flat_map(|(suite, apps)| apps.into_iter().map(move |app| (suite, app)))
    .collect();
    // Every (app, mode) run is an independent seeded simulation, so the
    // flat job list fans out over all host threads; rows are normalized
    // per app once every run is back.
    let modes = CoherenceMode::all();
    let jobs: Vec<(usize, CoherenceMode)> = (0..apps.len())
        .flat_map(|i| modes.map(|m| (i, m)))
        .collect();
    let runtimes = parallel_map(jobs, |&(i, mode)| {
        run_proxy(&apps[i].1, mode, accesses, 0xF16)
    });

    let mut t = Table::new(
        "fig10",
        &["application", "source snoop", "home snoop", "COD"],
    );
    for ((suite, app), rt) in apps.iter().zip(runtimes.chunks_exact(modes.len())) {
        let r = relative_to_source([rt[0], rt[1], rt[2]]);
        t.row(
            format!("{suite} {}", app.name),
            vec![
                format!("{:.3}", r[0]),
                format!("{:.3}", r[1]),
                format!("{:.3}", r[2]),
            ],
        );
    }
    print!("{}", t.to_text());
    hswx_bench::save_csv(&t, "results");
}
