//! # hswx-mem — cache structures and DDR4 memory model
//!
//! Structural memory-system substrates for the Haswell-EP simulator:
//!
//! * [`addr`] — physical addresses and 64-byte cache-line addressing.
//! * [`cache`] — a generic set-associative cache array with true-LRU
//!   replacement, the container used for L1D, L2, L3 slices, and the HitME
//!   directory cache. The payload type is generic so the coherence crate can
//!   attach MESIF state and core-valid bits without this crate knowing about
//!   them.
//! * [`geometry`] — cache geometry presets matching the paper's test system
//!   (Table II): 32 KiB/8-way L1D, 256 KiB/8-way L2, 2.5 MiB/20-way L3 slices.
//! * [`dram`] — a DDR4-2133 channel/bank model with open-page policy and
//!   hit/closed/conflict row timing, plus a multi-channel memory controller
//!   front end with line-granular channel interleaving.
//!
//! Nothing in this crate is coherence-aware; it is pure structure + timing.

pub mod addr;
pub mod cache;
pub mod dram;
pub mod geometry;
pub mod ids;

pub use addr::{Addr, LineAddr, CACHE_LINE_BYTES};
pub use ids::{CoreId, HaId, NodeId, SliceId, SocketId};
pub use cache::{Replacement, SetAssocCache, MAX_WAYS};
pub use dram::{DdrTimings, DramChannel, MemoryController, RowOutcome};
pub use geometry::CacheGeometry;
