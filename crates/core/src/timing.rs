//! Integer-picosecond walk timing.
//!
//! [`Calib`] keeps every component cost as f64 nanoseconds: that is the
//! configuration, validation and snapshot format. A transaction walk,
//! though, only ever adds whole picoseconds to a [`SimTime`], and each
//! cost it adds is a constant of the [`System`](crate::System). So the
//! system rounds them once, when it is built (and again after
//! [`System::inject_calib`](crate::System::inject_calib)), with exactly the
//! `SimDuration::from_ns` expression the walk used to evaluate per
//! message. The walk path then does integer arithmetic only; outcomes are
//! bit-identical by construction, and `tests` below pins every entry to
//! the expression it replaces.

use crate::calib::Calib;
use hswx_engine::SimDuration;
use hswx_topology::{Endpoint, SystemTopology};

/// The calibrated durations a walk adds, pre-rounded to picoseconds.
///
/// Each field is `SimDuration::from_ns` of the [`Calib`] term of the same
/// name; the two `*_fwd_total` fields round the sum of the probe and its
/// forwarding extra, as the probe paths always charged them together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CalibPs {
    pub t_l1: SimDuration,
    pub t_l2: SimDuration,
    pub t_miss_path: SimDuration,
    pub t_fill: SimDuration,
    pub t_l3_tag: SimDuration,
    pub t_l3_array: SimDuration,
    pub t_probe: SimDuration,
    /// `t_probe + t_probe_l1_fwd`.
    pub t_probe_l1_fwd_total: SimDuration,
    /// `t_probe + t_probe_l2_fwd`.
    pub t_probe_l2_fwd_total: SimDuration,
    pub t_ha: SimDuration,
    pub t_ca_fwd: SimDuration,
    pub t_home_snoop_issue: SimDuration,
    pub t_mem_ctl: SimDuration,
    pub t_hitme: SimDuration,
    pub t_fwd_occ_miss: SimDuration,
    pub t_fwd_occ_l2: SimDuration,
    pub t_fwd_occ_l1: SimDuration,
}

impl CalibPs {
    fn new(c: &Calib) -> Self {
        let ns = SimDuration::from_ns;
        CalibPs {
            t_l1: ns(c.t_l1),
            t_l2: ns(c.t_l2),
            t_miss_path: ns(c.t_miss_path),
            t_fill: ns(c.t_fill),
            t_l3_tag: ns(c.t_l3_tag),
            t_l3_array: ns(c.t_l3_array),
            t_probe: ns(c.t_probe),
            t_probe_l1_fwd_total: ns(c.t_probe + c.t_probe_l1_fwd),
            t_probe_l2_fwd_total: ns(c.t_probe + c.t_probe_l2_fwd),
            t_ha: ns(c.t_ha),
            t_ca_fwd: ns(c.t_ca_fwd),
            t_home_snoop_issue: ns(c.t_home_snoop_issue),
            t_mem_ctl: ns(c.t_mem_ctl),
            t_hitme: ns(c.t_hitme),
            t_fwd_occ_miss: ns(c.t_fwd_occ_miss),
            t_fwd_occ_l2: ns(c.t_fwd_occ_l2),
            t_fwd_occ_l1: ns(c.t_fwd_occ_l1),
        }
    }
}

/// Everything a walk reads to time its steps: the pre-rounded calibration
/// terms plus a transit table over every ordered endpoint pair.
#[derive(Debug, Clone)]
pub(crate) struct WalkTiming {
    pub cal: CalibPs,
    /// `cal.transit(topo.distance(a, b))` at
    /// `a * n_endpoints + b`, in [`SystemTopology::endpoint_index`] order.
    transit: Box<[SimDuration]>,
    /// Socket of each endpoint index.
    socket: Box<[u8]>,
    n_endpoints: usize,
}

impl WalkTiming {
    pub(crate) fn new(cal: &Calib, topo: &SystemTopology) -> Self {
        let n = topo.n_endpoints();
        let eps: Vec<Endpoint> = (0..n).map(|i| topo.endpoint_at(i)).collect();
        let transit = eps
            .iter()
            .flat_map(|&a| eps.iter().map(move |&b| cal.transit(topo.distance(a, b))))
            .collect();
        let socket = eps.iter().map(|&e| topo.socket_of_endpoint(e).0).collect();
        WalkTiming {
            cal: CalibPs::new(cal),
            transit,
            socket,
            n_endpoints: n,
        }
    }

    /// Transit time from endpoint index `a` to `b`, and the sockets the
    /// two sit on (a message between different sockets crosses QPI).
    #[inline(always)]
    pub(crate) fn route(&self, a: usize, b: usize) -> (SimDuration, u8, u8) {
        (
            self.transit[a * self.n_endpoints + b],
            self.socket[a],
            self.socket[b],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceMode, SystemConfig};
    use crate::System;
    use hswx_engine::{SimTime, ThroughputResource};
    use hswx_mem::{CoreId, HaId, LineAddr, SliceId, SocketId};
    use hswx_topology::DieVariant;

    fn systems() -> impl Iterator<Item = System> {
        let dies = [
            DieVariant::EightCore,
            DieVariant::TwelveCore,
            DieVariant::EighteenCore,
        ];
        [
            CoherenceMode::SourceSnoop,
            CoherenceMode::HomeSnoop,
            CoherenceMode::ClusterOnDie,
        ]
        .into_iter()
        .flat_map(move |mode| {
            dies.into_iter().map(move |die| {
                System::new(SystemConfig {
                    die,
                    ..SystemConfig::e5_2680_v3(mode)
                })
            })
        })
    }

    fn all_endpoints(topo: &SystemTopology) -> Vec<Endpoint> {
        let s = topo.n_sockets();
        (0..topo.n_cores())
            .flat_map(|c| [Endpoint::Core(CoreId(c)), Endpoint::Slice(SliceId(c))])
            .chain((0..2 * s).map(|h| Endpoint::Ha(HaId(h))))
            .chain((0..s).map(|q| Endpoint::Qpi(SocketId(q))))
            .collect()
    }

    fn assert_table_matches(sys: &System, cal: &Calib) {
        let topo = &sys.topo;
        let timing = &sys.timing;
        let eps = all_endpoints(topo);
        for &a in &eps {
            for &b in &eps {
                let d = topo.distance(a, b);
                let (transit, sa, sb) =
                    timing.route(topo.endpoint_index(a), topo.endpoint_index(b));
                assert_eq!(transit, cal.transit(d), "{a:?} -> {b:?}");
                assert_eq!(sa, topo.socket_of_endpoint(a).0);
                assert_eq!(sb, topo.socket_of_endpoint(b).0);
                assert_eq!(
                    d.qpi > 0,
                    sa != sb,
                    "{a:?} -> {b:?} crosses QPI iff sockets differ"
                );
            }
        }
        // Exhaustive destructuring: a new `Calib` field does not compile
        // here until it is either given a table entry checked below or
        // marked as off the walk's per-message path.
        let Calib {
            core_ghz: _,
            avx_ghz: _,
            t_l1,
            t_l2,
            t_miss_path,
            t_fill,
            t_inject: _,
            t_hop: _,
            t_queue: _,
            t_qpi: _, // in the transit table; CRC replays use it live
            t_l3_tag,
            t_l3_array,
            t_probe,
            t_probe_l2_fwd,
            t_probe_l1_fwd,
            t_ha,
            t_ca_fwd,
            t_home_snoop_issue,
            t_mem_ctl,
            t_hitme,
            lfb_per_core: _,
            streamer_depth: _,
            t_uncore_gap: _,
            t_fwd_occ_miss,
            t_fwd_occ_l2,
            t_fwd_occ_l1,
            qpi_gb_s,
            l3_port_gb_s,
            l2_port_avx_gb_s: _,
            l2_port_sse_gb_s: _,
            trackers_source_remote: _,
            trackers_other: _,
            trackers_cod_remote: _,
            msg_data,
            msg_ctl,
        } = *cal;
        let ns = SimDuration::from_ns;
        // Likewise every table entry must be named here.
        let CalibPs {
            t_l1: l1,
            t_l2: l2,
            t_miss_path: miss_path,
            t_fill: fill,
            t_l3_tag: l3_tag,
            t_l3_array: l3_array,
            t_probe: probe,
            t_probe_l1_fwd_total: probe_l1,
            t_probe_l2_fwd_total: probe_l2,
            t_ha: ha,
            t_ca_fwd: ca_fwd,
            t_home_snoop_issue: snoop_issue,
            t_mem_ctl: mem_ctl,
            t_hitme: hitme,
            t_fwd_occ_miss: occ_miss,
            t_fwd_occ_l2: occ_l2,
            t_fwd_occ_l1: occ_l1,
        } = timing.cal;
        assert_eq!(l1, ns(t_l1));
        assert_eq!(l2, ns(t_l2));
        assert_eq!(miss_path, ns(t_miss_path));
        assert_eq!(fill, ns(t_fill));
        assert_eq!(l3_tag, ns(t_l3_tag));
        assert_eq!(l3_array, ns(t_l3_array));
        assert_eq!(probe, ns(t_probe));
        assert_eq!(probe_l1, ns(t_probe + t_probe_l1_fwd));
        assert_eq!(probe_l2, ns(t_probe + t_probe_l2_fwd));
        assert_eq!(ha, ns(t_ha));
        assert_eq!(ca_fwd, ns(t_ca_fwd));
        assert_eq!(snoop_issue, ns(t_home_snoop_issue));
        assert_eq!(mem_ctl, ns(t_mem_ctl));
        assert_eq!(hitme, ns(t_hitme));
        assert_eq!(occ_miss, ns(t_fwd_occ_miss));
        assert_eq!(occ_l2, ns(t_fwd_occ_l2));
        assert_eq!(occ_l1, ns(t_fwd_occ_l1));
        // Link bookings: QPI carries control and data messages, the L3
        // ports whole lines. (DRAM channels check theirs in `hswx_mem`.)
        let check = |r: &ThroughputResource, rate: f64, sizes: &[u64]| {
            for &bytes in sizes {
                assert_eq!(
                    r.duration(bytes),
                    SimDuration::for_bytes(bytes, rate),
                    "{bytes} B"
                );
            }
        };
        for q in &sys.qpi {
            check(q, qpi_gb_s, &[msg_ctl, msg_data]);
        }
        for p in &sys.l3_port {
            check(p, l3_port_gb_s, &[64]);
        }
    }

    #[test]
    fn tables_equal_the_expressions_they_replace() {
        for sys in systems() {
            let cal = *sys.calib();
            assert_table_matches(&sys, &cal);
        }
    }

    #[test]
    fn tables_track_scaled_and_injected_calibrations() {
        let cfg = SystemConfig {
            calib: Calib::haswell_ep().with_uncore_scale(1.3),
            ..SystemConfig::e5_2680_v3(CoherenceMode::ClusterOnDie)
        };
        let scaled = cfg.calib;
        let mut sys = System::new(cfg);
        assert_table_matches(&sys, &scaled);
        sys.inject_calib(|c| {
            c.t_qpi = -3.0;
            c.t_l3_array = f64::NAN;
            c.t_hop += 0.0137;
            // Sub-picosecond terms whose sum rounds up while each alone
            // rounds to zero: the probe sums must be rounded as sums.
            c.t_probe = 0.0004;
            c.t_probe_l1_fwd = 0.0004;
            c.t_probe_l2_fwd = 0.0004;
        });
        let cal = *sys.calib();
        assert_table_matches(&sys, &cal);
    }

    #[test]
    fn inject_calib_retimes_the_next_walk() {
        // A line modified by core 0 and pushed out to the L3 is served
        // from there on the next read: the local-L3 path, which charges
        // `t_l3_array` once.
        let run = |bump: f64| {
            let mut sys = System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop));
            let line = LineAddr(1 << 20);
            let t = sys.write(CoreId(0), line, SimTime::ZERO).done;
            sys.demote_to_l3(CoreId(0), line, t);
            sys.inject_calib(|c| c.t_l3_array += bump);
            let out = sys.read(CoreId(0), line, t);
            assert_eq!(out.source, hswx_coherence::DataSource::LocalL3);
            out.done.since(t)
        };
        assert_eq!(run(10.0), run(0.0) + SimDuration::from_ns(10.0));
    }
}
