//! `simbench` — host-time benchmark of the hswx simulator.
//!
//! ```text
//! simbench --workload latency_sweep|stream_bandwidth|app_proxies
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates one pass of jobs from the seed, then runs whole passes
//! through `hswx_bench::parallel_try_map` (a closed loop with
//! `min(nproc, jobs)` workers) until `--seconds` have elapsed and the
//! workload's minimum pass count is reached. `--trace 0` reports the
//! end-to-end metrics of untraced passes; `--trace 1` interleaves
//! untraced and traced passes and reports the per-layer metrics. Every
//! run checks its outputs; the last line of standard output is a JSON
//! summary. See `simbench/README.md`.

mod check;
mod host;
mod jobs;
mod spans;
mod stats;

use check::{check_references, plausible, Artifacts, Digest};
use hswx_bench::parallel::parallel_try_map;
use hswx_engine::MetricsRegistry;
use jobs::{Job, Work, Workload};
use spans::{busy_frac, ns_between, Layer, LayerTotals, Tracer};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: simbench --workload latency_sweep|stream_bandwidth|app_proxies \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("simbench: error: {e}");
            std::process::exit(2);
        }
    }
}

/// One pass over the job list.
struct Pass {
    wall_ns: u64,
    /// Simulated result per job; `None` where the job panicked.
    values: Vec<Option<f64>>,
    /// Host time of every job that finished.
    job_ns: Vec<u64>,
    /// Jobs that panicked, with the panic message.
    panics: Vec<(usize, String)>,
    work: Work,
    /// Traced passes only: per-layer self times and registry counters.
    layers: Option<Result<LayerTotals, String>>,
    counters: Option<BTreeMap<String, u64>>,
}

fn run_pass(jobs: &[Job], traced: bool) -> Pass {
    let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
    let scope = registry.clone().map(MetricsRegistry::set_ambient);
    let t0 = Instant::now();
    let (results, failed) = parallel_try_map(jobs.iter().collect(), |job: &&Job| {
        let start = Instant::now();
        let mut tr = Tracer::new(start, traced);
        let out = jobs::run(job, &mut tr);
        let end = Instant::now();
        (out, ns_between(start, end), tr.finish(end))
    });
    let wall_ns = ns_between(t0, Instant::now());
    drop(scope);

    let mut pass = Pass {
        wall_ns,
        values: Vec::with_capacity(jobs.len()),
        job_ns: Vec::with_capacity(jobs.len()),
        panics: failed.into_iter().map(|f| (f.index, f.panic)).collect(),
        work: Work::default(),
        layers: None,
        counters: registry.map(|r| r.counters_snapshot().into_iter().collect()),
    };
    let mut totals = traced.then(|| Ok(LayerTotals::default()));
    for r in results {
        let Some((out, ns, spans)) = r else {
            pass.values.push(None);
            continue;
        };
        pass.values.push(Some(out.value));
        pass.job_ns.push(ns);
        pass.work += out.work;
        if let (Some(Ok(t)), Some(spans)) = (totals.as_mut(), spans) {
            if let Err(e) = t.add_job(&spans) {
                totals = Some(Err(e));
            }
        }
    }
    pass.layers = totals;
    pass
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload's path does not run).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median over passes of `f(pass)`.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Mean |relative error| of the paper anchors behind `w`, in percent.
/// `app_proxies` has no paper values of its own in the repository, so it
/// states the error of every latency and bandwidth anchor of the model
/// the proxies run on.
fn anchor_err_pct(w: Workload) -> f64 {
    use hswx_bench::{bandwidth_anchors, latency_anchors};
    let anchors = match w {
        Workload::LatencySweep => latency_anchors(),
        Workload::StreamBandwidth => bandwidth_anchors(),
        Workload::AppProxies => std::thread::scope(|s| {
            let lat = s.spawn(latency_anchors);
            let mut all = bandwidth_anchors();
            all.extend(lat.join().expect("latency anchors panicked"));
            all
        }),
    };
    100.0 * anchors.iter().map(|a| a.rel_err().abs()).sum::<f64>() / anchors.len() as f64
}

/// Set-up as a user of the workload pays it: generate the pass from the
/// seed and run its first reference job (whose inputs are the same for
/// every seed) once, untimed by the passes. Appends the time taken to
/// `times`.
fn set_up(w: Workload, seed: u64, times: &mut Vec<f64>) -> Vec<Job> {
    let t0 = Instant::now();
    let jobs = w.jobs(seed);
    let warm = jobs
        .iter()
        .find(|j| j.reference.is_some())
        .expect("every workload has a reference job");
    std::hint::black_box(jobs::run(warm, &mut Tracer::new(t0, false)).value);
    times.push(t0.elapsed().as_secs_f64());
    jobs
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn run(args: &Args) -> Result<bool, String> {
    let art = Artifacts::load(Path::new("results"))?;
    let host = host::HostFacts::collect();
    let w = args.workload;

    let mut setup_s = Vec::new();
    let jobs = set_up(w, args.seed, &mut setup_s);
    let workers = host.nproc.min(jobs.len());
    println!(
        "# simbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={} workers={} git_sha={} profile={} features={} seed={}",
        host.nproc, workers, host.git_sha, host.profile, host.features, args.seed
    );

    // Timed phase: whole passes until the time is up and the minimum
    // pass count is met; traced runs interleave untraced and traced
    // passes so both see the same host conditions. Set-up is repeated
    // between passes, so its median samples the same stretch of host
    // time as the passes do.
    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        plain.push(run_pass(&jobs, false));
        if args.trace {
            traced.push(run_pass(&jobs, true));
        }
        if plain.len() >= w.min_passes() && started.elapsed() >= deadline {
            break;
        }
        set_up(w, args.seed, &mut setup_s);
    }
    let peak_rss_mb = host::peak_rss_mb()?;
    println!(
        "# {} jobs per pass ({} checked against results/), {} untraced and {} traced passes",
        jobs.len(),
        jobs.iter().filter(|j| j.reference.is_some()).count(),
        plain.len(),
        traced.len()
    );

    // Output checks, on every pass.
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    for (k, pass) in plain.iter().chain(&traced).enumerate() {
        attempted += jobs.len();
        let mut bad: BTreeMap<usize, String> = pass.panics.iter().cloned().collect();
        for (i, v) in pass.values.iter().enumerate() {
            if let Some(v) = v.filter(|&v| !plausible(v)) {
                bad.entry(i).or_insert(format!("implausible result {v}"));
            }
        }
        let mut log = Vec::new();
        for (i, why) in check_references(&jobs, &pass.values, &art, &mut log) {
            bad.entry(i).or_insert(why);
        }
        if k == 0 {
            log.iter().for_each(|l| println!("# {l}"));
        }
        for (i, why) in &bad {
            eprintln!(
                "simbench: pass {k} job {i} failed: {why}\n  {}",
                jobs[*i].label()
            );
        }
        failed += bad.len();
    }
    let digest = Digest::of(&plain[0].values);
    if plain
        .iter()
        .chain(&traced)
        .any(|p| Digest::of(&p.values) != digest)
    {
        problems
            .push("result digest differs between passes (or between traced and untraced)".into());
    }
    println!("# digest {digest} over {} results", jobs.len());
    println!(
        "# fail_frac {} ({failed} of {attempted} jobs)",
        ratio(failed as f64, attempted as f64)
    );

    let metrics = if args.trace {
        per_layer(&plain, &traced, workers, &mut problems)
    } else {
        end_to_end(w, &jobs, &plain, &setup_s, peak_rss_mb)
    };

    let correct = failed == 0 && problems.is_empty();
    for p in &problems {
        eprintln!("simbench: check failed: {p}");
    }
    for m in &metrics {
        println!("{:<44} {:>16} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn end_to_end(
    w: Workload,
    jobs: &[Job],
    plain: &[Pass],
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let walls: Vec<f64> = plain.iter().map(|p| secs(p.wall_ns)).collect();
    let job_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.job_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let wall_s = stats::median(&walls);
    let (q1, q3) = stats::quartiles(&walls);
    println!(
        "# wall_s spread (IQR / median over {} passes): {}",
        walls.len(),
        (q3 - q1) / wall_s
    );

    // Job host times are printed but not gated: on a noisy host their
    // spread between runs exceeds the largest bound the benchmark may
    // set (see README.md).
    let pct =
        stats::tail_pct_for(w.min_passes() * jobs.len()).expect("minimum passes carry a tail");
    let tail = stats::tail(&job_ms, pct).map_or("n/a".to_string(), |t| {
        format!("{} ms ({} beyond)", t.value, t.beyond)
    });
    println!(
        "# job_p50_ms {} ms, job_tail_ms at p{pct} {tail}, over {} jobs",
        stats::median(&job_ms),
        job_ms.len()
    );

    let t0 = Instant::now();
    let anchor = anchor_err_pct(w);
    println!(
        "# anchor_err_pct computed untimed in {:.1} s",
        t0.elapsed().as_secs_f64()
    );

    vec![
        Metric {
            name: "wall_s",
            value: wall_s,
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: stats::median(setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
        Metric {
            name: "anchor_err_pct",
            value: anchor,
            unit: "%",
        },
    ]
}

fn per_layer(
    plain: &[Pass],
    traced: &[Pass],
    workers: usize,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    // Telescoping: per traced pass, layer self times + bench.other sum
    // exactly to the summed job time.
    let mut totals = Vec::with_capacity(traced.len());
    for p in traced {
        match p.layers.as_ref().expect("traced pass") {
            Ok(t) if t.telescopes() => totals.push(t.clone()),
            Ok(t) => problems.push(format!(
                "layer rows sum to {} ns, jobs to {} ns",
                t.self_ns.iter().sum::<u64>(),
                t.job_ns
            )),
            Err(e) => problems.push(format!("inconsistent spans: {e}")),
        }
    }
    if totals.is_empty() {
        return Vec::new();
    }
    let job_ns: u64 = totals.iter().map(|t| t.job_ns).sum();
    println!(
        "# layer self time over {} traced passes (rows telescope to {job_ns} ns of job time):",
        totals.len()
    );
    for layer in Layer::ALL {
        let ns: u64 = totals.iter().map(|t| t.get(layer)).sum();
        println!(
            "#   {:<34} {:>14} ns {:>6.2}%",
            layer.name(),
            ns,
            100.0 * ns as f64 / job_ns as f64
        );
    }

    // Registry counters are simulated, hence identical in every pass.
    let counters = traced[0].counters.clone().expect("traced pass");
    if traced
        .iter()
        .any(|p| p.counters.as_ref() != Some(&counters))
    {
        problems.push("simulated counters differ between traced passes".into());
    }
    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let fanout_n: f64 =
        (0..8).map(|i| c(&format!("snoop.fanout.{i}"))).sum::<f64>() + c("snoop.fanout.8plus");
    let fanout_sum: f64 = (0..8)
        .map(|i| i as f64 * c(&format!("snoop.fanout.{i}")))
        .sum::<f64>()
        + 8.0 * c("snoop.fanout.8plus");

    let work = traced[0].work;
    // Per-pass layer time, median over traced passes.
    let layer_s = |layer: Layer| {
        stats::median(
            &totals
                .iter()
                .map(|t| secs(t.get(layer)))
                .collect::<Vec<_>>(),
        )
    };
    let per_unit_ns = |layer: Layer, units: u64| ratio(layer_s(layer) * 1e9, units as f64);
    let walks = c("sys.walks");
    let untraced_job_ns = median_of(plain, |p| p.job_ns.iter().sum::<u64>() as f64);
    let overhead =
        median_of(traced, |p| p.wall_ns as f64) / median_of(plain, |p| p.wall_ns as f64) - 1.0;

    vec![
        Metric {
            name: "bench.parallel.threads",
            value: workers as f64,
            unit: "count",
        },
        Metric {
            name: "bench.parallel.busy_frac",
            value: median_of(traced, |p| {
                busy_frac(p.job_ns.iter().sum(), workers, p.wall_ns)
            }),
            unit: "ratio",
        },
        Metric {
            name: "core.system.new_ms",
            value: per_unit_ns(Layer::SystemNew, work.systems) / 1e6,
            unit: "ms/system",
        },
        Metric {
            name: "core.system.walks",
            value: walks,
            unit: "count/pass",
        },
        Metric {
            name: "core.system.rfos",
            value: c("sys.rfos"),
            unit: "count/pass",
        },
        Metric {
            name: "core.system.host_ns_per_walk",
            value: ratio(untraced_job_ns, walks),
            unit: "ns/walk",
        },
        Metric {
            name: "core.placement.s",
            value: layer_s(Layer::Placement),
            unit: "s/pass",
        },
        Metric {
            name: "core.placement.walks",
            value: work.placement_walks as f64,
            unit: "count/pass",
        },
        Metric {
            name: "core.placement.ns_per_walk",
            value: per_unit_ns(Layer::Placement, work.placement_walks),
            unit: "ns/walk",
        },
        Metric {
            name: "core.microbench.chase_s",
            value: layer_s(Layer::Chase),
            unit: "s/pass",
        },
        Metric {
            name: "core.microbench.chase_ns_per_walk",
            value: per_unit_ns(Layer::Chase, work.chase_walks),
            unit: "ns/walk",
        },
        Metric {
            name: "core.microbench.stream_read_ns_per_line",
            value: per_unit_ns(Layer::StreamRead, work.read_lines),
            unit: "ns/line",
        },
        Metric {
            name: "core.microbench.stream_write_ns_per_line",
            value: per_unit_ns(Layer::StreamWrite, work.write_lines),
            unit: "ns/line",
        },
        Metric {
            name: "core.microbench.stream_write_nt_ns_per_line",
            value: per_unit_ns(Layer::StreamWriteNt, work.nt_lines),
            unit: "ns/line",
        },
        Metric {
            name: "workloads.proxy.warm_s",
            value: layer_s(Layer::ProxyWarm),
            unit: "s/pass",
        },
        Metric {
            name: "workloads.proxy.access_s",
            value: stats::median(
                &totals
                    .iter()
                    .map(|t| secs(t.get(Layer::ProxyRun)) - secs(t.get(Layer::ProxyWarm)))
                    .collect::<Vec<_>>(),
            ),
            unit: "s/pass",
        },
        Metric {
            name: "coherence.snoops_sent",
            value: c("snoop.sent"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.snoop_fanout_mean",
            value: ratio(fanout_sum, fanout_n),
            unit: "snoops",
        },
        Metric {
            name: "coherence.dir_broadcasts",
            value: c("snoop.dir_broadcasts"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.directory.reads",
            value: c("directory.reads"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.directory.writes",
            value: c("directory.writes"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.hitme.hits",
            value: c("hitme.hits"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.hitme.misses",
            value: c("hitme.misses"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.hitme.evictions",
            value: c("hitme.evictions"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.hitme.hit_ratio",
            value: ratio(c("hitme.hits"), c("hitme.hits") + c("hitme.misses")),
            unit: "ratio",
        },
        Metric {
            name: "coherence.remote_cache_fwd",
            value: c("read.remote_cache_fwd"),
            unit: "count/pass",
        },
        Metric {
            name: "coherence.remote_dram_fwd",
            value: c("read.remote_dram_fwd"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.read.self_l1",
            value: c("read.self_l1"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.read.self_l2",
            value: c("read.self_l2"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.read.local_l3",
            value: c("read.local_l3"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.read.local_core",
            value: c("read.local_core"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.read.peer_l3",
            value: c("read.peer_l3"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.read.peer_core",
            value: c("read.peer_core"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.read.memory",
            value: c("read.memory"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.dram.reads",
            value: c("dram.reads"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.dram.writes",
            value: c("dram.writes"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.dram.row_conflicts",
            value: c("dram.row_conflicts"),
            unit: "count/pass",
        },
        Metric {
            name: "mem.dram.row_hit_ratio",
            value: ratio(
                c("dram.row_hits"),
                c("dram.row_hits") + c("dram.row_closed") + c("dram.row_conflicts"),
            ),
            unit: "ratio",
        },
        Metric {
            name: "mem.dram.writebacks",
            value: c("dram.writebacks"),
            unit: "count/pass",
        },
        Metric {
            name: "topology.qpi_bytes",
            value: c("qpi.bytes"),
            unit: "B/pass",
        },
        Metric {
            name: "trace.overhead_frac",
            value: overhead,
            unit: "ratio",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload app_proxies --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::AppProxies, 3, 10, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload app_proxies --seed 3 --seconds 0 --trace 1").is_err());
        assert!(args("--workload app_proxies --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload app_proxies --seed 3 --seconds 10").is_err());
        assert!(args("--workload app_proxies --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload app_proxies --seed 3 --seconds 10 --trace 0 --extra").is_err());
    }
}
