//! Ablation: L3 victim-selection policy vs capacity-region behaviour.
//!
//! With a working set around the L3 capacity, the replacement policy
//! decides how gracefully latency degrades from the 21 ns L3 plateau to
//! the ~97 ns memory plateau: random replacement keeps a proportional
//! fraction of an oversized cyclic working set resident, while (P)LRU
//! evicts exactly what is about to be reused. Note the 20-way L3 is not a
//! power of two, so tree-PLRU uses its oldest-untouched fallback and
//! coincides with true LRU here.

use hswx_bench::parallel_map;
use hswx_engine::SimTime;
use hswx_haswell::microbench::{pointer_chase, Buffer};
use hswx_haswell::placement::{Level, Placement};
use hswx_haswell::report::{Figure, Series};
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, NodeId, Replacement};

fn run(policy: Replacement, size: u64) -> f64 {
    let mut cfg = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
    cfg.l3_replacement = policy;
    let mut sys = System::new(cfg);
    let buf = Buffer::on_node_dense(&sys, NodeId(0), size, 0);
    // Two sequential passes warm the L3 to steady state under the policy;
    // the chase then measures the surviving-resident fraction.
    let mut t = Placement::modified(&mut sys, CoreId(0), &buf.lines, Level::L3, SimTime::ZERO);
    for &l in &buf.lines {
        t = sys.read(CoreId(0), l, t).done;
        sys.demote_to_l3(CoreId(0), l, t);
    }
    pointer_chase(&mut sys, CoreId(0), &buf.lines, t, 3).ns_per_access
}

fn main() {
    let sizes: Vec<u64> = [16u64, 24, 28, 30, 32, 36, 48]
        .iter()
        .map(|m| m << 20)
        .collect();
    let policies = [
        ("true LRU", Replacement::Lru),
        ("tree PLRU", Replacement::TreePlru),
        ("random", Replacement::Random),
    ];
    // Each (policy, size) point builds its own system: run the whole grid
    // in parallel, then regroup it into one series per policy.
    let jobs: Vec<(Replacement, u64)> = policies
        .iter()
        .flat_map(|&(_, p)| sizes.iter().map(move |&s| (p, s)))
        .collect();
    let lats = parallel_map(jobs, |&(policy, size)| run(policy, size));
    let mut fig = Figure::new("ablate_replacement", "ns per load around L3 capacity");
    for (&(label, _), ys) in policies.iter().zip(lats.chunks_exact(sizes.len())) {
        let mut s = Series::new(label);
        for (&size, &y) in sizes.iter().zip(ys) {
            s.push(size as f64, y);
        }
        fig.add(s);
    }
    print!("{}", fig.to_text());
    hswx_bench::save_csv(&fig, "results");
}
