//! Recoverable-fault semantics: transparently healed transients must be
//! *timing-only* — a run that recovers from QPI CRC retransmits or
//! directory/HitME read glitches ends with the identical protocol state,
//! data sources, and statistics as a clean run — while unrecoverable
//! faults (retry-buffer exhaustion, poisoned lines) are contained to one
//! typed error without corrupting anything.

use hswx_engine::{CancelToken, SimTime};
use hswx_haswell::{CoherenceMode, SimError, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};

fn cod_system() -> System {
    System::new(SystemConfig::e5_2680_v3(CoherenceMode::ClusterOnDie))
}

fn source_system() -> System {
    System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop))
}

/// A remote read that crosses QPI and (in COD) consults the directory:
/// core 0 reads a line homed on the far socket.
fn remote_line(sys: &System) -> LineAddr {
    let far = NodeId(sys.topo.n_nodes() - 1);
    LineAddr(sys.topo.numa_base(far).line().0 + 5)
}

fn run_reads(sys: &mut System, line: LineAddr, n: u64) -> (SimTime, Vec<String>) {
    let mut t = SimTime::ZERO;
    let mut sources = Vec::new();
    for i in 0..n {
        let out = sys.read(CoreId(0), LineAddr(line.0 + i), t);
        sources.push(format!("{:?}", out.source));
        sys.flush(CoreId(0), LineAddr(line.0 + i), out.done);
        t = out.done + hswx_engine::SimDuration::from_ns(400.0);
    }
    (t, sources)
}

#[test]
fn crc_retransmits_are_timing_transparent() {
    for make in [cod_system as fn() -> System, source_system] {
        let mut clean = make();
        let mut faulty = make();
        let line = remote_line(&clean);
        faulty.inject_qpi_crc(3);

        let (_, src_clean) = run_reads(&mut clean, line, 4);
        let (_, src_faulty) = run_reads(&mut faulty, line, 4);

        assert_eq!(src_clean, src_faulty, "data sources must not change");
        assert_eq!(clean.state_digest(), faulty.state_digest());
        assert_eq!(clean.stats.total_reads(), faulty.stats.total_reads());
        assert_eq!(clean.stats.snoops_sent, faulty.stats.snoops_sent);
        assert_eq!(clean.recovery.crc_retries, 0);
        assert_eq!(faulty.recovery.crc_retries, 3, "all armed errors consumed");
        assert!(faulty.recovery.crc_messages >= 1);
    }
}

#[test]
fn crc_retransmits_cost_latency() {
    let mut clean = source_system();
    let mut faulty = source_system();
    let line = remote_line(&clean);
    faulty.inject_qpi_crc(4);
    let out_c = clean.read(CoreId(0), line, SimTime::ZERO);
    let out_f = faulty.read(CoreId(0), line, SimTime::ZERO);
    let tax = out_f.done.since(out_c.done).as_ns();
    // 4 retransmissions at t_qpi each, somewhere on the critical path —
    // at least one full retry must be visible end to end.
    assert!(tax >= clean.calib().t_qpi - 1e-9, "tax {tax} ns too small");
    assert_eq!(out_c.source, out_f.source);
}

#[test]
fn crc_storm_exhausts_retry_buffer_into_typed_error() {
    let mut sys = source_system();
    let line = remote_line(&sys);
    let max = sys.link_retry_policy().max_retries;
    sys.inject_qpi_crc(max + 5); // more corruptions than the buffer holds
    let err = sys.try_read(CoreId(0), line, SimTime::ZERO).unwrap_err();
    match err {
        SimError::QpiLinkFailure { retries, .. } => assert_eq!(retries, max),
        other => panic!("expected QpiLinkFailure, got {other}"),
    }
    assert_eq!(sys.recovery.link_failures, 1);
    // The failure is consumed: the next walk is not poisoned by it.
    let leftover = sys.try_read(CoreId(0), LineAddr(line.0 + 100), SimTime::from_ns(1e6));
    assert!(leftover.is_ok() || !matches!(leftover, Err(SimError::QpiLinkFailure { .. })));
}

#[test]
fn link_failure_in_write_nt_or_flush_is_not_charged_to_the_next_walk() {
    type Op = fn(&mut System, LineAddr);
    let ops: [(&str, Op); 2] = [
        ("write_nt", |sys, line| {
            sys.write_nt(CoreId(0), line, SimTime::ZERO);
        }),
        ("flush", |sys, line| {
            sys.flush(CoreId(0), line, SimTime::ZERO);
        }),
    ];
    for (name, op) in ops {
        let mut sys = source_system();
        let line = remote_line(&sys);
        let max = sys.link_retry_policy().max_retries;
        sys.inject_qpi_crc(max + 1);
        op(&mut sys, line);
        assert_eq!(sys.recovery.link_failures, 1, "{name}: the failure is still counted");
        let local = sys.try_read(CoreId(5), LineAddr(77), SimTime::from_ns(1e6));
        assert!(local.is_ok(), "{name}: unrelated local read failed: {:?}", local.err());
    }
}

#[test]
fn dir_and_hitme_glitches_heal_transparently() {
    let mut clean = cod_system();
    let mut faulty = cod_system();
    let line = remote_line(&clean);
    faulty.inject_dir_glitch(2);
    faulty.inject_hitme_glitch(2);

    let (_, src_clean) = run_reads(&mut clean, line, 4);
    let (_, src_faulty) = run_reads(&mut faulty, line, 4);

    assert_eq!(src_clean, src_faulty);
    assert_eq!(clean.state_digest(), faulty.state_digest());
    assert_eq!(
        format!("{:?}", clean.stats),
        format!("{:?}", faulty.stats),
        "recovery must not leak into Stats"
    );
    assert_eq!(faulty.recovery.dir_retries, 2);
    assert_eq!(faulty.recovery.hitme_retries, 2);
    assert_eq!(clean.recovery.total_events(), 0);
}

#[test]
fn glitch_latency_tax_is_visible() {
    let mut clean = cod_system();
    let mut faulty = cod_system();
    let line = remote_line(&clean);
    faulty.inject_dir_glitch(1);
    let out_c = clean.read(CoreId(0), line, SimTime::ZERO);
    let out_f = faulty.read(CoreId(0), line, SimTime::ZERO);
    assert!(
        out_f.done > out_c.done,
        "an ECC re-read must lengthen the directory-dependent read"
    );
}

#[test]
fn poisoned_line_is_contained() {
    let mut sys = cod_system();
    let good = LineAddr(10);
    let bad = LineAddr(11);
    // Warm both lines, then poison one.
    sys.read(CoreId(0), good, SimTime::ZERO);
    let digest_before = sys.state_digest();
    let txns_before = sys.txns();
    sys.inject_poison(bad);

    let err = sys.try_read(CoreId(0), bad, SimTime::from_ns(1000.0)).unwrap_err();
    assert!(matches!(err, SimError::Poisoned { line, .. } if line == bad));
    let err = sys.try_write(CoreId(0), bad, SimTime::from_ns(2000.0)).unwrap_err();
    assert!(matches!(err, SimError::Poisoned { .. }));

    // Containment: nothing changed, and other lines still work.
    assert_eq!(sys.state_digest(), digest_before);
    assert_eq!(sys.txns(), txns_before);
    assert_eq!(sys.recovery.poison_blocked, 2);
    assert!(sys.try_read(CoreId(0), good, SimTime::from_ns(3000.0)).is_ok());

    // Page retirement clears the marker.
    assert!(sys.clear_poison(bad));
    assert!(!sys.is_poisoned(bad));
    assert!(sys.try_read(CoreId(0), bad, SimTime::from_ns(4000.0)).is_ok());
}

#[test]
fn ambient_cancellation_aborts_walks() {
    let token = CancelToken::new();
    let _guard = CancelToken::set_ambient(token.clone());
    let mut sys = cod_system();
    assert!(sys.try_read(CoreId(0), LineAddr(1), SimTime::ZERO).is_ok());
    token.cancel();
    let err = sys.try_read(CoreId(0), LineAddr(2), SimTime::from_ns(500.0)).unwrap_err();
    assert!(matches!(err, SimError::Cancelled { .. }));
    let err = sys.try_write(CoreId(0), LineAddr(3), SimTime::from_ns(900.0)).unwrap_err();
    assert!(matches!(err, SimError::Cancelled { .. }));
}

#[test]
fn systems_without_ambient_token_never_cancel() {
    let mut sys = cod_system();
    for i in 0..64 {
        assert!(sys
            .try_read(CoreId(0), LineAddr(100 + i), SimTime::from_ns(i as f64 * 300.0))
            .is_ok());
    }
}

#[test]
fn state_digest_is_stable_and_sensitive() {
    let mut a = cod_system();
    let mut b = cod_system();
    assert_eq!(a.state_digest(), b.state_digest(), "empty systems agree");
    let (_, _) = run_reads(&mut a, LineAddr(42), 3);
    let (_, _) = run_reads(&mut b, LineAddr(42), 3);
    assert_eq!(a.state_digest(), b.state_digest(), "identical runs agree");
    b.read(CoreId(0), LineAddr(999), SimTime::from_ns(1e6));
    assert_ne!(a.state_digest(), b.state_digest(), "extra state changes digest");
}
