//! The three workloads: seeded job lists and the calls each job makes.
//!
//! Every job builds a cold simulator (or lets `run_proxy` build one) and
//! calls only public library functions; the benchmark times it from
//! outside. The seed picks the combinations, but each workload fixes how
//! many jobs of each cost class a pass holds, so the cost of a pass
//! varies little from seed to seed. Each workload also carries one job
//! whose inputs match a row of a committed artifact under `results/`,
//! checked on every run.

use crate::spans::{Layer, Tracer};
use hswx_bench::scenarios::level_of;
use hswx_engine::{DetRng, MetricsRegistry, SimTime};
use hswx_haswell::microbench::bandwidth::BandwidthMeasurement;
use hswx_haswell::microbench::{
    pointer_chase, stream_read_multi, stream_write_multi, stream_write_nt_multi, Buffer, LoadWidth,
};
use hswx_haswell::placement::{PlacedState, Placement};
use hswx_haswell::report::sweep_sizes;
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};
use hswx_topology::SystemTopology;
use hswx_workloads::{mpi2007_proxies, omp2012_proxies, run_proxy, AppProxy};
use std::sync::Arc;

/// The three snoop configurations of the paper.
pub const MODES: [CoherenceMode; 3] = [
    CoherenceMode::SourceSnoop,
    CoherenceMode::HomeSnoop,
    CoherenceMode::ClusterOnDie,
];

const MIB: u64 = 1 << 20;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LatencySweep,
    StreamBandwidth,
    AppProxies,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LatencySweep,
        Workload::StreamBandwidth,
        Workload::AppProxies,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LatencySweep => "latency_sweep",
            Workload::StreamBandwidth => "stream_bandwidth",
            Workload::AppProxies => "app_proxies",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Passes the timed phase completes even when `--seconds` runs out
    /// first, so that every timing rests on enough samples for its tail
    /// and for medians.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::LatencySweep => 3,
            Workload::StreamBandwidth => 4,
            Workload::AppProxies => 4,
        }
    }

    /// The job list of one pass for `seed`.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::LatencySweep => latency_jobs(seed),
            Workload::StreamBandwidth => stream_jobs(seed),
            Workload::AppProxies => proxy_jobs(seed),
        }
    }
}

/// A committed artifact cell a job's output must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// `results/fig4.csv`: the point `(series, x)`, compared exactly.
    Fig4 { series: &'static str, x: u64 },
    /// `results/table7.csv`: row × column, as the table prints it (`{:.1}`).
    Table7 {
        row: &'static str,
        col: &'static str,
    },
    /// `results/fig10.csv`: one mode of an application row. The cell is
    /// the runtime relative to source snoop, so the check needs the
    /// source-snoop job of the same row as well.
    Fig10 { row: String, mode: usize },
}

/// One unit of work: a simulation plus, optionally, the artifact cell it
/// must reproduce.
#[derive(Debug, Clone)]
pub struct Job {
    pub kind: Kind,
    pub reference: Option<Reference>,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Latency(LatencyJob),
    Stream(StreamJob),
    Proxy(ProxyJob),
}

/// Pointer-chase latency after state-controlled placement.
#[derive(Debug, Clone)]
pub struct LatencyJob {
    pub mode: CoherenceMode,
    pub state: PlacedState,
    pub placers: Vec<CoreId>,
    pub home: NodeId,
    pub measurer: CoreId,
    pub size: u64,
    pub chase_seed: u64,
}

/// Which streaming kernel a bandwidth job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    Read,
    Write,
    WriteNt,
}

/// Concurrent streams from several cores, each over its own buffer.
#[derive(Debug, Clone)]
pub struct StreamJob {
    pub mode: CoherenceMode,
    pub op: StreamOp,
    /// `(core, home node of its buffer, buffer slot)` per stream.
    pub streams: Vec<(CoreId, NodeId, u64)>,
    pub bytes_per_core: u64,
    /// Simulate every line (needed for writes to spill dirty lines).
    pub dense: bool,
}

/// One application proxy run.
#[derive(Debug, Clone)]
pub struct ProxyJob {
    pub app: AppProxy,
    pub mode: CoherenceMode,
    pub accesses: usize,
    pub seed: u64,
}

impl Job {
    /// One line naming every input, for failure reports and for
    /// comparing job lists.
    pub fn label(&self) -> String {
        match &self.kind {
            Kind::Latency(j) => format!(
                "latency {:?} {:?} placers={:?} home={} measurer={} size={} chase_seed={:#x}",
                j.mode,
                j.state,
                j.placers.iter().map(|c| c.0).collect::<Vec<_>>(),
                j.home.0,
                j.measurer.0,
                j.size,
                j.chase_seed
            ),
            Kind::Stream(j) => format!(
                "stream {:?} {:?} streams={:?} bytes_per_core={} dense={}",
                j.mode,
                j.op,
                j.streams
                    .iter()
                    .map(|&(c, h, s)| (c.0, h.0, s))
                    .collect::<Vec<_>>(),
                j.bytes_per_core,
                j.dense
            ),
            Kind::Proxy(j) => format!(
                "proxy {} {:?} accesses={} seed={:#x}",
                j.app.name, j.mode, j.accesses, j.seed
            ),
        }
    }
}

/// Units of work a job did in each layer, for per-unit host times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Simulators the job constructed itself.
    pub systems: u64,
    pub placement_walks: u64,
    pub chase_walks: u64,
    pub read_lines: u64,
    pub write_lines: u64,
    pub nt_lines: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.systems += o.systems;
        self.placement_walks += o.placement_walks;
        self.chase_walks += o.chase_walks;
        self.read_lines += o.read_lines;
        self.write_lines += o.write_lines;
        self.nt_lines += o.nt_lines;
    }
}

/// A job's simulated result (ns per load, GB/s, or simulated proxy ns)
/// and the work it did.
#[derive(Debug, Clone, Copy)]
pub struct JobOut {
    pub value: f64,
    pub work: Work,
}

/// Run `job`, recording a span around every layer call into `tr`.
pub fn run(job: &Job, tr: &mut Tracer) -> JobOut {
    match &job.kind {
        Kind::Latency(j) => run_latency(j, tr),
        Kind::Stream(j) => run_stream(j, tr),
        Kind::Proxy(j) => run_app(j, tr),
    }
}

fn run_latency(j: &LatencyJob, tr: &mut Tracer) -> JobOut {
    let level = level_of(j.mode, j.size);
    let mut sys = tr.span(Layer::SystemNew, || {
        System::new(SystemConfig::e5_2680_v3(j.mode))
    });
    let buf = tr.span(Layer::BufferAlloc, || {
        Buffer::on_node(&sys, j.home, j.size, 0)
    });
    let w0 = sys.txns();
    let t = tr.span(Layer::Placement, || {
        Placement::place(
            &mut sys,
            j.state,
            &j.placers,
            &buf.lines,
            level,
            SimTime::ZERO,
        )
    });
    let w1 = sys.txns();
    let m = tr.span(Layer::Chase, || {
        pointer_chase(&mut sys, j.measurer, &buf.lines, t, j.chase_seed)
    });
    let w2 = sys.txns();
    tr.span(Layer::SystemDrop, || drop(sys));
    let work = Work {
        systems: 1,
        placement_walks: w1 - w0,
        chase_walks: w2 - w1,
        ..Work::default()
    };
    JobOut {
        value: m.ns_per_access,
        work,
    }
}

/// The signature the three `stream_*_multi` kernels share.
type StreamKernel =
    fn(&mut System, &[(CoreId, &[LineAddr])], LoadWidth, SimTime) -> BandwidthMeasurement;

fn run_stream(j: &StreamJob, tr: &mut Tracer) -> JobOut {
    let mut sys = tr.span(Layer::SystemNew, || {
        System::new(SystemConfig::e5_2680_v3(j.mode))
    });
    let bufs: Vec<Buffer> = tr.span(Layer::BufferAlloc, || {
        j.streams
            .iter()
            .map(|&(_, home, slot)| {
                if j.dense {
                    Buffer::on_node_dense(&sys, home, j.bytes_per_core, slot)
                } else {
                    Buffer::on_node(&sys, home, j.bytes_per_core, slot)
                }
            })
            .collect()
    });
    let streams: Vec<(CoreId, &[LineAddr])> = j
        .streams
        .iter()
        .zip(&bufs)
        .map(|(&(c, _, _), b)| (c, b.lines.as_slice()))
        .collect();
    let (layer, kernel): (Layer, StreamKernel) = match j.op {
        StreamOp::Read => (Layer::StreamRead, stream_read_multi),
        StreamOp::Write => (Layer::StreamWrite, stream_write_multi),
        StreamOp::WriteNt => (Layer::StreamWriteNt, stream_write_nt_multi),
    };
    let m = tr.span(layer, || {
        kernel(&mut sys, &streams, LoadWidth::Avx256, SimTime::ZERO)
    });
    tr.span(Layer::SystemDrop, || drop(sys));
    let mut work = Work {
        systems: 1,
        ..Work::default()
    };
    *match j.op {
        StreamOp::Read => &mut work.read_lines,
        StreamOp::Write => &mut work.write_lines,
        StreamOp::WriteNt => &mut work.nt_lines,
    } = m.lines;
    JobOut {
        value: m.gb_s,
        work,
    }
}

fn run_app(j: &ProxyJob, tr: &mut Tracer) -> JobOut {
    if tr.is_on() {
        // The warm-up share of a proxy run: the same call at one access
        // per thread. Its counters go to a throwaway registry so the
        // traced counts describe exactly the jobs the untraced run does.
        tr.span(Layer::ProxyWarm, || {
            let _scope = MetricsRegistry::set_ambient(Arc::new(MetricsRegistry::new()));
            run_proxy(&j.app, j.mode, 1, j.seed)
        });
    }
    let ns = tr.span(Layer::ProxyRun, || {
        run_proxy(&j.app, j.mode, j.accesses, j.seed)
    });
    JobOut {
        value: ns,
        work: Work::default(),
    }
}

fn topologies() -> [SystemTopology; 3] {
    MODES.map(|m| {
        let cfg = SystemConfig::e5_2680_v3(m);
        SystemTopology::new(cfg.sockets, cfg.die, cfg.mode.cod())
    })
}

fn pick<T: Copy>(rng: &mut DetRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// A core of `node` other than every core in `not`.
fn pick_core(rng: &mut DetRng, topo: &SystemTopology, node: NodeId, not: &[CoreId]) -> CoreId {
    let free: Vec<CoreId> = topo
        .cores_of_node(node)
        .iter()
        .copied()
        .filter(|c| !not.contains(c))
        .collect();
    pick(rng, &free)
}

/// Where the placing cores sit relative to the measuring core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relation {
    /// The measurer places its own data.
    Local,
    /// Another core of the measurer's NUMA node places it.
    Node,
    /// A core of another NUMA node places it.
    Remote,
}

/// `latency_sweep`: every size of the paper's sweep in every snoop mode.
/// The ascending sizes are cut into blocks of three neighbours; within a
/// block the placed state and the placer relation follow two orthogonal
/// Latin squares over (size, mode), with offsets and level orders the
/// seed picks, so each pair of size, mode, state and relation levels
/// meets exactly once. The seed also picks the cores, the home node and
/// the chase order. A pass thus holds the same mix of job costs for
/// every seed while the seed still picks every combination.
fn latency_jobs(seed: u64) -> Vec<Job> {
    let topos = topologies();
    let mut rng = DetRng::new(seed).fork(1);
    let mut jobs = Vec::new();
    for block in sweep_sizes().chunks(3) {
        let mut states = [
            PlacedState::Modified,
            PlacedState::Exclusive,
            PlacedState::Shared,
        ];
        let mut rels = [Relation::Local, Relation::Node, Relation::Remote];
        rng.shuffle(&mut states);
        rng.shuffle(&mut rels);
        let (a, b) = (rng.below(3) as usize, rng.below(3) as usize);
        for (k, &size) in block.iter().enumerate() {
            for (m, topo) in topos.iter().enumerate() {
                let job = latency_job(
                    &mut rng,
                    topo,
                    m,
                    states[(k + m + a) % 3],
                    rels[(k + 2 * m + b) % 3],
                    size,
                );
                jobs.push(Job {
                    kind: Kind::Latency(job),
                    reference: None,
                });
            }
        }
    }
    jobs.push(fig4_reference_job());
    jobs
}

fn latency_job(
    rng: &mut DetRng,
    topo: &SystemTopology,
    mode: usize,
    state: PlacedState,
    rel: Relation,
    size: u64,
) -> LatencyJob {
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let mnode = pick(rng, &nodes);
    let measurer = pick(rng, topo.cores_of_node(mnode));
    let (pnode, first) = match rel {
        Relation::Local => (mnode, measurer),
        Relation::Node => (mnode, pick_core(rng, topo, mnode, &[measurer])),
        Relation::Remote => {
            let others: Vec<NodeId> = nodes.iter().copied().filter(|&n| n != mnode).collect();
            let pnode = pick(rng, &others);
            (pnode, pick_core(rng, topo, pnode, &[]))
        }
    };
    let mut placers = vec![first];
    if state == PlacedState::Shared {
        placers.push(pick_core(rng, topo, pnode, &[first, measurer]));
    }
    LatencyJob {
        mode: MODES[mode],
        state,
        placers,
        home: pick(rng, &nodes),
        measurer,
        size,
        chase_seed: rng.below(u64::MAX),
    }
}

/// Fig. 4, series "node S" at 1 MiB: core 1 and core 2 share the data,
/// core 0 chases it (the exact recipe of `hswx_bench::jobs::fig4`).
pub fn fig4_reference_job() -> Job {
    let job = LatencyJob {
        mode: CoherenceMode::SourceSnoop,
        state: PlacedState::Shared,
        placers: vec![CoreId(1), CoreId(2)],
        home: NodeId(0),
        measurer: CoreId(0),
        size: MIB,
        chase_seed: 0xC0FFEE,
    };
    Job {
        kind: Kind::Latency(job),
        reference: Some(Reference::Fig4 {
            series: "node S",
            x: MIB,
        }),
    }
}

/// Cores per stream job, and per-core buffer size of each kernel.
const STREAM_CORES: usize = 4;
const READ_BYTES: u64 = 8 * MIB;
const WRITE_BYTES: u64 = 2 * MIB;

/// `stream_bandwidth`: per pass, every kernel (read, RFO write,
/// non-temporal write) in every snoop mode, once to memory homed on the
/// cores' own node and once homed on another node. The seed picks the
/// node, the cores and the buffer slots; core counts and sizes are fixed
/// per job so a pass costs the same for every seed.
fn stream_jobs(seed: u64) -> Vec<Job> {
    let topos = topologies();
    let mut rng = DetRng::new(seed).fork(2);
    let mut jobs = Vec::new();
    for op in [StreamOp::Read, StreamOp::Write, StreamOp::WriteNt] {
        for (m, topo) in topos.iter().enumerate() {
            for remote in [false, true] {
                let nodes: Vec<NodeId> = topo.nodes().collect();
                let node = pick(&mut rng, &nodes);
                let home = if remote {
                    let others: Vec<NodeId> =
                        nodes.iter().copied().filter(|&n| n != node).collect();
                    pick(&mut rng, &others)
                } else {
                    node
                };
                let mut cores = topo.cores_of_node(node).to_vec();
                rng.shuffle(&mut cores);
                let mut slots: Vec<u64> = (0..16).collect();
                rng.shuffle(&mut slots);
                let streams = cores
                    .iter()
                    .zip(&slots)
                    .take(STREAM_CORES)
                    .map(|(&c, &s)| (c, home, s))
                    .collect();
                let (bytes_per_core, dense) = match op {
                    StreamOp::Read => (READ_BYTES, false),
                    StreamOp::Write | StreamOp::WriteNt => (WRITE_BYTES, true),
                };
                let job = StreamJob {
                    mode: MODES[m],
                    op,
                    streams,
                    bytes_per_core,
                    dense,
                };
                jobs.push(Job {
                    kind: Kind::Stream(job),
                    reference: None,
                });
            }
        }
    }
    jobs.push(table7_reference_job());
    jobs
}

/// Table VII, "local read, source snoop" with one core: core 0 streams
/// 8 MiB homed on node 0 from memory (the recipe of
/// `hswx_bench::scenarios::aggregate_read`).
pub fn table7_reference_job() -> Job {
    let job = StreamJob {
        mode: CoherenceMode::SourceSnoop,
        op: StreamOp::Read,
        streams: vec![(CoreId(0), NodeId(0), 0)],
        bytes_per_core: READ_BYTES,
        dense: false,
    };
    Job {
        kind: Kind::Stream(job),
        reference: Some(Reference::Table7 {
            row: "local read, source snoop",
            col: "1",
        }),
    }
}

/// Accesses per thread in every proxy job: Fig. 10's setting.
const PROXY_ACCESSES: usize = 4000;
/// The seed Fig. 10 runs every proxy with.
const FIG10_SEED: u64 = 0xF16;

fn app(name: &str) -> AppProxy {
    omp2012_proxies()
        .into_iter()
        .chain(mpi2007_proxies())
        .find(|a| a.name == name)
        .expect("proxy listed in hswx_workloads::suites")
}

/// `app_proxies`: the two sharing-heavy OpenMP codes the paper singles
/// out (362.fma3d, 371.applu331) and a local MPI code (122.tachyon), each
/// in every snoop mode with the run seed; plus the small-working-set
/// 350.md in every mode with Fig. 10's own seed, checked against
/// `results/fig10.csv`. The three seeded codes cost about the same per
/// run, so the job median falls among them for every seed.
fn proxy_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in ["362.fma3d", "371.applu331", "122.tachyon"] {
        let app = app(name);
        for mode in MODES {
            let job = ProxyJob {
                app: app.clone(),
                mode,
                accesses: PROXY_ACCESSES,
                seed,
            };
            jobs.push(Job {
                kind: Kind::Proxy(job),
                reference: None,
            });
        }
    }
    jobs.extend(fig10_reference_jobs());
    jobs
}

/// Fig. 10, row "OMP2012 350.md": the proxy in all three modes at the
/// figure's access count and seed.
pub fn fig10_reference_jobs() -> Vec<Job> {
    let app = app("350.md");
    MODES
        .iter()
        .enumerate()
        .map(|(mode, &m)| Job {
            kind: Kind::Proxy(ProxyJob {
                app: app.clone(),
                mode: m,
                accesses: PROXY_ACCESSES,
                seed: FIG10_SEED,
            }),
            reference: Some(Reference::Fig10 {
                row: "OMP2012 350.md".into(),
                mode,
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(w: Workload, seed: u64) -> Vec<String> {
        w.jobs(seed).iter().map(Job::label).collect()
    }

    #[test]
    fn same_seed_same_jobs_different_seed_different_jobs() {
        for w in Workload::ALL {
            assert_eq!(labels(w, 7), labels(w, 7), "{}", w.name());
            assert_ne!(labels(w, 7), labels(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn every_workload_keeps_its_reference_jobs_for_any_seed() {
        for seed in [0, 1, 2, 0xDEAD_BEEF] {
            for w in Workload::ALL {
                let refs = w
                    .jobs(seed)
                    .iter()
                    .filter(|j| j.reference.is_some())
                    .count();
                let want = if w == Workload::AppProxies { 3 } else { 1 };
                assert_eq!(refs, want, "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn latency_pass_crosses_every_pair_of_factors() {
        for seed in 0..20 {
            let jobs = latency_jobs(seed);
            let lat: Vec<&LatencyJob> = jobs
                .iter()
                .filter(|j| j.reference.is_none())
                .map(|j| match &j.kind {
                    Kind::Latency(l) => l,
                    _ => unreachable!("latency workload"),
                })
                .collect();
            assert_eq!(lat.len(), 3 * sweep_sizes().len());
            let states = [
                PlacedState::Modified,
                PlacedState::Exclusive,
                PlacedState::Shared,
            ];
            for (block, chunk) in lat.chunks(9).enumerate() {
                for mode in MODES {
                    for state in states {
                        let n = chunk
                            .iter()
                            .filter(|j| j.mode == mode && j.state == state)
                            .count();
                        assert_eq!(n, 1, "seed {seed} block {block}");
                    }
                }
                for size in chunk.iter().map(|j| j.size) {
                    let mut seen: Vec<PlacedState> = chunk
                        .iter()
                        .filter(|j| j.size == size)
                        .map(|j| j.state)
                        .collect();
                    seen.dedup();
                    assert_eq!(seen.len(), 3, "seed {seed} block {block}");
                }
            }
            for j in &lat {
                let mut p = j.placers.clone();
                p.dedup();
                assert_eq!(
                    p.len(),
                    if j.state == PlacedState::Shared { 2 } else { 1 },
                    "{j:?}"
                );
            }
        }
    }

    #[test]
    fn stream_pass_has_fixed_shape() {
        for seed in 0..10 {
            let jobs = stream_jobs(seed);
            assert_eq!(jobs.len(), 19);
            for j in &jobs[..18] {
                let Kind::Stream(s) = &j.kind else {
                    unreachable!("stream workload")
                };
                assert_eq!(s.streams.len(), STREAM_CORES);
            }
        }
    }
}
