//! Host-time spans recorded by the benchmark around each layer call.
//!
//! A traced job records one root span (the whole job, as the benchmark
//! times it) and one child span per call into a simulator layer. A
//! layer's self time is its span's duration minus what its children
//! cover; the root's self time is the `bench.other` residual. Self times
//! are whole nanoseconds, so the rows of a traced run telescope exactly:
//! their sum equals the summed job time, with no rounding slack.

use std::time::Instant;

/// The layer a span covers. `Other` labels the job's root span, whose
/// self time is the time spent outside every layer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Other,
    SystemNew,
    BufferAlloc,
    Placement,
    Chase,
    StreamRead,
    StreamWrite,
    StreamWriteNt,
    SystemDrop,
    ProxyWarm,
    ProxyRun,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::SystemNew,
        Layer::BufferAlloc,
        Layer::Placement,
        Layer::Chase,
        Layer::StreamRead,
        Layer::StreamWrite,
        Layer::StreamWriteNt,
        Layer::SystemDrop,
        Layer::ProxyWarm,
        Layer::ProxyRun,
        Layer::Other,
    ];

    /// Row name in the telescoping table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Other => "bench.other",
            Layer::SystemNew => "core.system.new",
            Layer::BufferAlloc => "core.buffer.alloc",
            Layer::Placement => "core.placement",
            Layer::Chase => "core.microbench.chase",
            Layer::StreamRead => "core.microbench.stream_read",
            Layer::StreamWrite => "core.microbench.stream_write",
            Layer::StreamWriteNt => "core.microbench.stream_write_nt",
            Layer::SystemDrop => "core.system.drop",
            Layer::ProxyWarm => "workloads.proxy.warm",
            Layer::ProxyRun => "workloads.proxy.run",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("listed in ALL")
    }
}

/// One recorded interval, in nanoseconds since the job started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span; `None` for a job's root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of every span (duration minus its direct children), or an
/// error when a child escapes its parent or two siblings overlap — the
/// cases in which self times would not add up to the root's duration.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut out = Vec::with_capacity(spans.len());
    for s in spans {
        out.push(
            s.end_ns
                .checked_sub(s.start_ns)
                .ok_or_else(|| format!("{s:?} ends before it starts"))?,
        );
    }
    for (p, parent) in spans.iter().enumerate() {
        let mut kids: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(p)).collect();
        kids.sort_by_key(|c| c.start_ns);
        let mut cursor = parent.start_ns;
        for c in kids {
            if c.start_ns < cursor || c.end_ns > parent.end_ns {
                return Err(format!(
                    "span {c:?} escapes its parent or overlaps a sibling"
                ));
            }
            cursor = c.end_ns;
            out[p] -= c.end_ns - c.start_ns;
        }
    }
    Ok(out)
}

/// Span recorder handed to a job: records when tracing is on, and only
/// calls through when it is off.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer for a job that started at `origin`.
    pub fn new(origin: Instant, on: bool) -> Self {
        let root = Span {
            layer: Layer::Other,
            parent: None,
            start_ns: 0,
            end_ns: 0,
        };
        Tracer {
            origin,
            spans: on.then(|| vec![root]),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Run `f` as a call into `layer`, recording its span when tracing.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let Some(spans) = self.spans.as_mut() else {
            return f();
        };
        let start_ns = ns_between(self.origin, Instant::now());
        let r = f();
        let end_ns = ns_between(self.origin, Instant::now());
        spans.push(Span {
            layer,
            parent: Some(0),
            start_ns,
            end_ns,
        });
        r
    }

    /// Close the root span at `end` (the instant the benchmark stops timing
    /// the job) and return the recorded spans, if tracing.
    pub fn finish(self, end: Instant) -> Option<Vec<Span>> {
        let mut spans = self.spans?;
        spans[0].end_ns = ns_between(self.origin, end);
        Some(spans)
    }
}

/// Whole nanoseconds from `a` to `b`.
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).expect("job shorter than 584 years")
}

/// Summed self time per layer over many traced jobs, plus the summed
/// root (job) durations the rows must telescope to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub self_ns: [u64; Layer::ALL.len()],
    pub job_ns: u64,
}

impl LayerTotals {
    /// Fold in one job's spans (root first).
    pub fn add_job(&mut self, spans: &[Span]) -> Result<(), String> {
        let selfs = self_times(spans)?;
        for (s, &t) in spans.iter().zip(&selfs) {
            self.self_ns[s.layer.index()] += t;
        }
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            self.job_ns += s.end_ns - s.start_ns;
        }
        Ok(())
    }

    /// Summed self time of `layer`, ns.
    pub fn get(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// The exact-sum check: the rows add up to the summed job time.
    pub fn telescopes(&self) -> bool {
        self.self_ns.iter().sum::<u64>() == self.job_ns
    }
}

/// Share of the workers' capacity spent in jobs: Σ job time ÷ (workers ×
/// wall time of the pass).
pub fn busy_frac(job_ns: u64, workers: usize, wall_ns: u64) -> f64 {
    job_ns as f64 / (workers as f64 * wall_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(Layer::Other, None, 0, 100),
            span(Layer::SystemNew, Some(0), 5, 25),
            span(Layer::Placement, Some(0), 30, 90),
            // A grandchild is charged to its parent, not to the root.
            span(Layer::Chase, Some(2), 40, 60),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![20, 20, 40, 20]);
    }

    #[test]
    fn rows_telescope_to_job_time() {
        let mut totals = LayerTotals::default();
        totals
            .add_job(&[
                span(Layer::Other, None, 0, 1_000),
                span(Layer::SystemNew, Some(0), 10, 110),
                span(Layer::Chase, Some(0), 110, 990),
            ])
            .unwrap();
        totals
            .add_job(&[
                span(Layer::Other, None, 0, 500),
                span(Layer::ProxyRun, Some(0), 1, 499),
            ])
            .unwrap();
        assert_eq!(totals.job_ns, 1_500);
        assert_eq!(totals.get(Layer::Other), 20 + 2);
        assert_eq!(totals.get(Layer::Chase), 880);
        assert!(totals.telescopes());
    }

    #[test]
    fn overlapping_or_escaping_children_are_rejected() {
        let overlap = [
            span(Layer::Other, None, 0, 100),
            span(Layer::SystemNew, Some(0), 0, 60),
            span(Layer::Chase, Some(0), 50, 90),
        ];
        assert!(self_times(&overlap).is_err());
        let escape = [
            span(Layer::Other, None, 0, 100),
            span(Layer::Chase, Some(0), 90, 120),
        ];
        assert!(self_times(&escape).is_err());
        assert!(LayerTotals::default().add_job(&escape).is_err());
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests_under_root() {
        let t0 = Instant::now();
        let mut off = Tracer::new(t0, false);
        assert_eq!(off.span(Layer::Chase, || 7), 7);
        assert!(off.finish(Instant::now()).is_none());

        let mut on = Tracer::new(t0, true);
        on.span(Layer::SystemNew, || std::hint::black_box(1 + 1));
        on.span(Layer::Chase, || std::hint::black_box(2 + 2));
        let spans = on.finish(Instant::now()).expect("traced");
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let mut totals = LayerTotals::default();
        totals.add_job(&spans).unwrap();
        assert!(totals.telescopes());
    }

    #[test]
    fn busy_frac_arithmetic() {
        // Two workers, 1 s pass, 1.5 s of jobs: 75 % busy.
        assert_eq!(busy_frac(1_500_000_000, 2, 1_000_000_000), 0.75);
        assert_eq!(busy_frac(4, 1, 4), 1.0);
    }
}
