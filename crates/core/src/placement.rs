//! Coherence-state placement — the paper's §V-B methodology.
//!
//! The paper's benchmarks "place cache lines in a fully specified
//! combination of core id, cache level, and coherence state" using plain
//! protocol operations:
//!
//! * **modified** — write the data;
//! * **exclusive** — write (invalidates all copies), `clflush` (removes the
//!   modified copy), read (fetches from memory in E);
//! * **shared/forward** — cache in exclusive, then have other cores read;
//!   the order of accesses determines which core (node) holds the Forward
//!   copy — the *last* reader does.
//!
//! Target cache levels are reached with controlled evictions, mirroring the
//! paper's "optional cache flushes evict all cache lines from higher cache
//! levels into the cache level that is large enough": demotions of clean
//! lines are *silent* (core-valid bits and directory state go stale exactly
//! as on hardware), dirty demotions write back.

use crate::batch::{Access, AccessOp, Issue, BATCH_CHUNK};
use crate::system::System;
use hswx_engine::{SimDuration, SimTime};
use hswx_mem::{CoreId, LineAddr};
use serde::{Deserialize, Serialize};

/// Coherence state a placement produces (paper Figure 4's series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacedState {
    /// Dirty in the placing core's caches.
    Modified,
    /// Clean and exclusively cached by the placing core.
    Exclusive,
    /// Shared by several cores/nodes; the last reader holds Forward.
    Shared,
}

/// Cache level the data is left in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Placing core's L1D.
    L1,
    /// Placing core's L2.
    L2,
    /// The node's L3 (private copies evicted).
    L3,
    /// Main memory (L3 copies evicted too — silently when clean).
    Memory,
}

/// Placement driver: runs the state recipes on a [`System`].
pub struct Placement;

impl Placement {
    /// Write `lines` on `core`, leaving them Modified at `level`.
    /// Returns the time placement finished.
    pub fn modified(
        sys: &mut System,
        core: CoreId,
        lines: &[LineAddr],
        level: Level,
        t0: SimTime,
    ) -> SimTime {
        let writes = lines.iter().map(|&l| Access::write(core, l));
        let t = Self::run_chain(sys, writes, t0);
        Self::demote(sys, core, lines, level, t)
    }

    /// Place `lines` Exclusive on `core` at `level` (write → flush → read).
    pub fn exclusive(
        sys: &mut System,
        core: CoreId,
        lines: &[LineAddr],
        level: Level,
        t0: SimTime,
    ) -> SimTime {
        let writes = lines.iter().map(|&l| Access::write(core, l));
        let flushes = lines
            .iter()
            .map(|&l| Access { core, line: l, op: AccessOp::Flush, issue: Issue::AfterPrev });
        let reads = lines.iter().map(|&l| Access::read(core, l));
        let t = Self::run_chain(sys, writes.chain(flushes).chain(reads), t0);
        Self::demote(sys, core, lines, level, t)
    }

    /// Share `lines` among `cores` (in access order: the **last** core ends
    /// up with the Forward copy / its node as forwarder), leaving every
    /// core's copy at `level`.
    pub fn shared(
        sys: &mut System,
        cores: &[CoreId],
        lines: &[LineAddr],
        level: Level,
        t0: SimTime,
    ) -> SimTime {
        assert!(!cores.is_empty());
        // The first core caches the data in state Exclusive at the target
        // level (its copies remain, demoting to Shared as others read).
        let t = Self::exclusive(sys, cores[0], lines, level, t0);
        let reads = cores[1..]
            .iter()
            .flat_map(|&c| lines.iter().map(move |&l| Access::read(c, l)));
        let t = Self::run_chain(sys, reads, t);
        let mut t_end = t;
        for &c in cores {
            t_end = Self::demote(sys, c, lines, level, t_end);
        }
        t_end
    }

    /// Run the recipe for `state`.
    pub fn place(
        sys: &mut System,
        state: PlacedState,
        cores: &[CoreId],
        lines: &[LineAddr],
        level: Level,
        t0: SimTime,
    ) -> SimTime {
        match state {
            PlacedState::Modified => Self::modified(sys, cores[0], lines, level, t0),
            PlacedState::Exclusive => Self::exclusive(sys, cores[0], lines, level, t0),
            PlacedState::Shared => Self::shared(sys, cores, lines, level, t0),
        }
    }

    /// Run a placement access chain through the batch engine: the first
    /// access issues at `t0`, each later one the instant its predecessor
    /// completed — exactly the sequential `write`/`flush`/`read` loops
    /// this replaced, including their panic-on-protocol-error behavior.
    ///
    /// The chain is streamed: one reused buffer of at most
    /// [`BATCH_CHUNK`] accesses is refilled from `accs` and submitted,
    /// each chunk re-anchored at the previous chunk's completion time, so
    /// the host holds one chunk however large the placed working set is.
    /// Any chunking of the chain is bit-identical: a chunk's `done` is the
    /// completion time its successor's `AfterPrev` would have read.
    fn run_chain(sys: &mut System, mut accs: impl Iterator<Item = Access>, t0: SimTime) -> SimTime {
        let mut chunk: Vec<Access> = Vec::with_capacity(accs.size_hint().0.min(BATCH_CHUNK));
        let mut t = t0;
        loop {
            chunk.clear();
            chunk.extend(accs.by_ref().take(BATCH_CHUNK));
            let Some(first) = chunk.first_mut() else { break };
            first.issue = Issue::At(t);
            let out = sys.run_batch(&chunk);
            for r in &out.replies {
                if let Err(e) = r {
                    panic!("simulation error: {}", e.diagnostic());
                }
            }
            t = out.done;
        }
        t
    }

    /// Controlled demotion of `core`'s copies of `lines` down to `level`.
    fn demote(
        sys: &mut System,
        core: CoreId,
        lines: &[LineAddr],
        level: Level,
        t: SimTime,
    ) -> SimTime {
        match level {
            Level::L1 => t,
            Level::L2 => {
                for &l in lines {
                    sys.demote_to_l2(core, l);
                }
                t + SimDuration::from_us(1.0)
            }
            Level::L3 => {
                for &l in lines {
                    sys.demote_to_l3(core, l, t);
                }
                t + SimDuration::from_us(1.0)
            }
            Level::Memory => {
                for &l in lines {
                    sys.demote_to_l3(core, l, t);
                }
                // Evict from every node that still caches the line.
                let nodes: Vec<_> = sys.topo.nodes().collect();
                for &l in lines {
                    for &n in &nodes {
                        if sys.l3_meta(n, l).is_some() {
                            sys.demote_to_memory(n, l, t);
                        }
                    }
                }
                t + SimDuration::from_us(1.0)
            }
        }
    }

    /// Level implied by a data-set size for a single placing core, used by
    /// size sweeps (capacities from the paper's Table II test system).
    pub fn level_for_size(sys: &System, bytes: u64) -> Level {
        let l1 = sys.cfg.l1.size_bytes;
        let l2 = sys.cfg.l2.size_bytes;
        // L3 capacity visible to one node.
        let slices = sys.topo.slices_of_node(sys.topo.nodes().next().expect("nodes")).len() as u64;
        let l3 = sys.cfg.l3_slice.size_bytes * slices;
        if bytes <= l1 {
            Level::L1
        } else if bytes <= l2 {
            Level::L2
        } else if bytes <= l3 {
            Level::L3
        } else {
            Level::Memory
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceMode, SystemConfig};
    use hswx_coherence::{CoreState, MesifState};

    fn sys(mode: CoherenceMode) -> System {
        System::new(SystemConfig::e5_2680_v3(mode))
    }

    fn lines(sys: &System, node: u8, n: u64) -> Vec<LineAddr> {
        let base = sys.topo.numa_base(hswx_mem::NodeId(node)).line();
        base.span(n).collect()
    }

    #[test]
    fn modified_in_l1_is_dirty_with_cv_set() {
        let mut s = sys(CoherenceMode::SourceSnoop);
        let ls = lines(&s, 0, 8);
        Placement::modified(&mut s, CoreId(0), &ls, Level::L1, SimTime::ZERO);
        for &l in &ls {
            assert_eq!(s.l1_state(CoreId(0), l), CoreState::Modified);
            let meta = s.l3_meta(hswx_mem::NodeId(0), l).expect("inclusive L3");
            assert_eq!(meta.state, MesifState::Modified);
            assert_eq!(meta.cv, 1, "placer's CV bit");
        }
    }

    #[test]
    fn modified_demoted_to_l3_clears_cv() {
        let mut s = sys(CoherenceMode::SourceSnoop);
        let ls = lines(&s, 0, 8);
        Placement::modified(&mut s, CoreId(0), &ls, Level::L3, SimTime::ZERO);
        for &l in &ls {
            assert_eq!(s.l1_state(CoreId(0), l), CoreState::Invalid);
            let meta = s.l3_meta(hswx_mem::NodeId(0), l).unwrap();
            assert_eq!(meta.state, MesifState::Modified);
            assert_eq!(meta.cv, 0, "writeback cleared the CV bit");
        }
    }

    #[test]
    fn exclusive_demoted_to_l3_leaves_stale_cv() {
        let mut s = sys(CoherenceMode::SourceSnoop);
        let ls = lines(&s, 0, 8);
        Placement::exclusive(&mut s, CoreId(0), &ls, Level::L3, SimTime::ZERO);
        for &l in &ls {
            assert_eq!(s.l1_state(CoreId(0), l), CoreState::Invalid);
            let meta = s.l3_meta(hswx_mem::NodeId(0), l).unwrap();
            assert_eq!(meta.state, MesifState::Exclusive);
            assert_eq!(meta.cv, 1, "silent eviction leaves the bit stale");
        }
    }

    #[test]
    fn shared_gives_forward_to_last_reader() {
        let mut s = sys(CoherenceMode::SourceSnoop);
        let ls = lines(&s, 0, 4);
        // core0 (socket 0) places; core12 (socket 1) reads last.
        Placement::shared(&mut s, &[CoreId(0), CoreId(12)], &ls, Level::L3, SimTime::ZERO);
        for &l in &ls {
            let home_meta = s.l3_meta(hswx_mem::NodeId(0), l).unwrap();
            assert_eq!(home_meta.state, MesifState::Shared);
            let reader_meta = s.l3_meta(hswx_mem::NodeId(1), l).unwrap();
            assert_eq!(reader_meta.state, MesifState::Forward);
        }
    }

    #[test]
    fn memory_demotion_empties_all_l3s() {
        let mut s = sys(CoherenceMode::SourceSnoop);
        let ls = lines(&s, 0, 4);
        Placement::shared(&mut s, &[CoreId(0), CoreId(12)], &ls, Level::Memory, SimTime::ZERO);
        for &l in &ls {
            assert!(s.l3_meta(hswx_mem::NodeId(0), l).is_none());
            assert!(s.l3_meta(hswx_mem::NodeId(1), l).is_none());
        }
    }

    #[test]
    fn cod_cross_node_share_sets_snoop_all_directory() {
        let mut s = sys(CoherenceMode::ClusterOnDie);
        let ls = lines(&s, 1, 4); // homed at node1
        // Reader in node0 (remote to home) pulls a Forward copy.
        let home_core = s.topo.cores_of_node(hswx_mem::NodeId(1))[0];
        Placement::shared(&mut s, &[home_core, CoreId(0)], &ls, Level::L3, SimTime::ZERO);
        for &l in &ls {
            assert_eq!(
                s.dir_state(l),
                hswx_coherence::DirState::SnoopAll,
                "AllocateShared forces snoop-all"
            );
        }
    }

    #[test]
    fn level_for_size_matches_capacities() {
        let s = sys(CoherenceMode::SourceSnoop);
        assert_eq!(Placement::level_for_size(&s, 16 * 1024), Level::L1);
        assert_eq!(Placement::level_for_size(&s, 128 * 1024), Level::L2);
        assert_eq!(Placement::level_for_size(&s, 8 * 1024 * 1024), Level::L3);
        assert_eq!(Placement::level_for_size(&s, 64 * 1024 * 1024), Level::Memory);
        let c = sys(CoherenceMode::ClusterOnDie);
        // COD: only half the L3 belongs to a node.
        assert_eq!(Placement::level_for_size(&c, 20 * 1024 * 1024), Level::Memory);
    }
}
