//! Golden digests of every observation export.
//!
//! One deterministic read/write/`write_nt`/`flush` mix per coherence mode,
//! with injected QPI CRC bursts (recovered and exhausted), directory and
//! HitME read glitches and a poisoned line, runs with every observation
//! sink armed: a span tracer, a telemetry sampler and a user-armed
//! protocol transcript. The test FNV-digests, per mode:
//!
//! 1. the Chrome/Perfetto `chrome_json` export;
//! 2. every recorded walk's attribution rows and waterfall text;
//! 3. the telemetry CSV and OpenMetrics exports;
//! 4. the `take_trace()` transcript;
//! 5. the `SimError::diagnostic()` of monitor-armed failing walks (QPI
//!    link exhaustion, a poisoned line).
//!
//! Simulated results are pinned elsewhere (`golden_outcomes.rs`); this
//! file pins what the observers see, so a change to how walk steps are
//! reported must leave every byte of every export unchanged.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -p hswx-haswell --test
//! observation_golden -- --nocapture` to reprint the digests after an
//! *intentional* change to an export.

#![cfg(feature = "trace")]

use hswx_engine::{SimDuration, SimTime, SpanRecorder, TelemetryConfig, TelemetrySampler};
use hswx_haswell::monitor::MonitorConfig;
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn digest(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A line homed on the far socket: reaching it crosses QPI in every mode.
fn remote_line(sys: &System, off: u64) -> LineAddr {
    let far = NodeId(sys.topo.n_nodes() - 1);
    LineAddr(sys.topo.numa_base(far).line().0 + off)
}

/// Digests of the five exports, in module-doc order.
type Digests = [u64; 5];

const OPS: usize = 600;

fn observe(mode: CoherenceMode) -> Digests {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    sys.attach_tracer(SpanRecorder::with_capacity(1 << 20));
    sys.attach_sampler(TelemetrySampler::new(TelemetryConfig::default()));
    sys.trace_next();
    let max_retries = sys.link_retry_policy().max_retries;
    let n_cores = sys.topo.n_cores() as u64;
    let base0 = sys.topo.numa_base(NodeId(0)).line().0;
    let base1 = remote_line(&sys, 0).0;
    let poisoned = LineAddr(base1 + 3);
    let mut outcomes = String::new();
    let (mut t, mut latest) = (SimTime::ZERO, SimTime::ZERO);
    let mut s: u64 = 0x2545F4914F6CDD1D ^ mode as u64;
    for i in 0..OPS {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        match i % 101 {
            17 => sys.inject_qpi_crc(3),
            43 => sys.inject_dir_glitch(2),
            59 => sys.inject_hitme_glitch(2),
            83 => sys.inject_qpi_crc(max_retries + 1),
            97 => sys.inject_poison(poisoned),
            _ => {}
        }
        if i % 101 == 71 {
            // Bursts at one issue time: NT stores back up the core's
            // write-combining buffers, reads from every core queue for
            // home-agent trackers.
            for k in 0..24 {
                let o = sys.write_nt(CoreId(0), LineAddr(base1 + 8192 + k), t);
                outcomes.push_str(&format!("{i} nt {}\n", o.done.0));
            }
            for k in 0..n_cores {
                let line = LineAddr(base1 + 16_384 + 64 * i as u64 + k);
                let o = sys.try_read(CoreId(k as u16), line, t).map(|o| o.done.0);
                outcomes.push_str(&format!("{i} burst {o:?}\n"));
            }
        }
        let core = CoreId((s % n_cores) as u16);
        let base = if s & (1 << 20) == 0 { base0 } else { base1 };
        // A small hot set (private hits, F reclaims, forwards) plus cold
        // lines for capacity traffic.
        let off = if i % 7 == 0 { (s >> 24) % 4096 } else { (s >> 24) % 48 };
        let line = if i % 101 == 97 { poisoned } else { LineAddr(base + off) };
        if i % 11 == 5 {
            sys.demote_to_l2(core, line);
        }
        let res = match (s >> 40) % 8 {
            0..=3 => sys.try_read(core, line, t).map(|o| (o.done, Some(o.source))),
            4 | 5 => sys.try_write(core, line, t).map(|o| (o.done, Some(o.source))),
            6 => {
                let o = sys.write_nt(core, line, t);
                Ok((o.done, Some(o.source)))
            }
            _ => Ok((sys.flush(core, line, t), None)),
        };
        match res {
            Ok((done, source)) => {
                outcomes.push_str(&format!("{i} {} {source:?}\n", done.0));
                latest = latest.max(done);
            }
            Err(e) => outcomes.push_str(&format!("{i} error {e}\n")),
        }
        // Four ops share each issue time, so queues and trackers fill.
        if i % 4 == 3 {
            t = latest + SimDuration::from_ns(20.0);
        }
        if i % 101 == 97 {
            sys.clear_poison(poisoned);
        }
    }

    let rec = sys.take_tracer().expect("tracer attached");
    let mut walks = String::new();
    for w in rec.walks() {
        rec.validate_walk(w).expect("well-formed span tree");
        let attr = rec.attribution(w);
        walks.push_str(&format!("{:?} {:?}\n", attr.total, attr.rows));
        walks.push_str(&rec.waterfall(w));
    }
    assert!(rec.walks().count() > OPS / 2, "most ops should be traced walks");
    let sampler = sys.take_sampler().expect("sampler attached");
    let telemetry = format!("{}{}", sampler.to_csv(), sampler.to_openmetrics());
    let transcript: String =
        sys.take_trace().iter().map(|(t, step)| format!("{} {step:?}\n", t.0)).collect();
    // The outcomes ride along with the transcript: a reporting change
    // must not move a single simulated picosecond either.
    let transcript = format!("{outcomes}{transcript}");

    [
        digest(&rec.chrome_json()),
        digest(&walks),
        digest(&telemetry),
        digest(&transcript),
        digest(&monitored_failures(mode)),
    ]
}

/// Diagnostics of failing walks whose transcripts the monitor armed.
fn monitored_failures(mode: CoherenceMode) -> String {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    sys.enable_monitor(MonitorConfig::default());
    let max_retries = sys.link_retry_policy().max_retries;
    let mut t = SimTime::ZERO;
    let mut out = String::new();
    for off in 0..6 {
        let line = remote_line(&sys, off);
        t = sys.read(CoreId(0), line, t).done;
        t = sys.write(CoreId(1), line, t).done;
    }
    let far = remote_line(&sys, 40);
    sys.inject_qpi_crc(max_retries + 1);
    let err = sys.try_read(CoreId(0), far, t).expect_err("link exhaustion fails the walk");
    out.push_str(&err.diagnostic());
    let poisoned = remote_line(&sys, 2);
    sys.inject_poison(poisoned);
    let err = sys.try_write(CoreId(2), poisoned, t).expect_err("poisoned line is contained");
    out.push_str(&err.diagnostic());
    sys.inject_dir_glitch(1);
    sys.inject_hitme_glitch(1);
    sys.inject_qpi_crc(max_retries + 1);
    let err = sys.try_read(CoreId(3), remote_line(&sys, 41), t).expect_err("link exhaustion");
    out.push_str(&err.diagnostic());
    out
}

const GOLDEN: &[(CoherenceMode, Digests)] = &[
    (CoherenceMode::SourceSnoop, [0x7A94D9DCF810B25F, 0x095E61404EE7E877, 0x449ED5761C17AE7B, 0x8008AB1287918E64, 0xBF39FEFC2A24F5F8]),
    (CoherenceMode::HomeSnoop, [0xA69969C4E3B1C08F, 0x1DA9E62A3AF137D1, 0x812A1F43B7ACA93B, 0x228C2897A2C0E178, 0x7AE31F00E4036E36]),
    (CoherenceMode::ClusterOnDie, [0xB425D57FA2302E8A, 0xAE2789446E9F039B, 0x80DF0E9A8BF9CD24, 0x841A8A826F573C38, 0x6B562173A2EC9FB9]),
];

#[test]
fn observation_exports_match_golden_digests() {
    let got: Vec<(CoherenceMode, Digests)> =
        GOLDEN.iter().map(|&(mode, _)| (mode, observe(mode))).collect();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (mode, d) in &got {
            let hex: Vec<String> = d.iter().map(|x| format!("0x{x:016X}")).collect();
            println!("    (CoherenceMode::{mode:?}, [{}]),", hex.join(", "));
        }
    }
    const PARTS: [&str; 5] = ["chrome_json", "walks", "telemetry", "transcript", "diagnostics"];
    for ((mode, want), (_, have)) in GOLDEN.iter().zip(&got) {
        for (k, part) in PARTS.iter().enumerate() {
            assert_eq!(
                have[k], want[k],
                "{mode:?}: {part} digest 0x{:016X} != golden 0x{:016X}",
                have[k], want[k]
            );
        }
    }
}
