//! Dynamic instruction traces and synthetic workload generation.
//!
//! The paper drives its timing simulator with traces of SPEC 2000 integer
//! benchmarks compiled for the Alpha. Those binaries and traces are not
//! available here, so this crate substitutes *synthetic workload models*:
//! twelve parameterized generators (one per SPECint benchmark) that emit
//! dynamic instruction streams exhibiting the dataflow idioms the paper's
//! analysis revolves around — loop spines with ribs (`vpr`, Figure 7),
//! convergent dyadic dataflow (`bzip2`, Figure 3), divergent early-exit
//! search loops (Figure 12), pointer chasing (`mcf`), and so on. The
//! paper's conclusions are explicitly about these *properties of program
//! dataflow* (§2.1), which the generators expose with tunable branch
//! predictability and cache locality.
//!
//! # Example
//!
//! ```
//! use ccs_trace::{Benchmark, TraceBuilder};
//! use ccs_isa::{OpClass, Pc, StaticInst, ArchReg};
//!
//! // Generate a small vpr-like trace deterministically.
//! let trace = Benchmark::Vpr.generate(42, 1_000);
//! assert!(trace.len() >= 1_000);
//!
//! // Or build a trace by hand.
//! let mut b = TraceBuilder::new();
//! let ld = b.push_mem(StaticInst::new(Pc::new(0), OpClass::Load)
//!     .with_dst(ArchReg::int(1)), 0x1000);
//! let add = b.push_simple(StaticInst::new(Pc::new(4), OpClass::IntAlu)
//!     .with_src(ArchReg::int(1)).with_dst(ArchReg::int(2)));
//! let t = b.finish();
//! assert_eq!(t[add].deps[0], Some(ld));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behavior;
mod builder;
mod dynamic;
mod error;
mod memdep;
pub mod patterns;
pub mod program;
mod source;
mod stats;
mod store;
mod workloads;

pub use behavior::{AddrState, AddrStream, BranchBehavior, BranchState};
pub use builder::{Trace, TraceBuilder};
pub use dynamic::{DynIdx, DynInst};
pub use error::TraceError;
pub use source::{
    fnv1a, fnv1a_extend, SourceGenerator, SourceId, SourceRegistry, FNV_OFFSET, FNV_PRIME,
};
pub use stats::TraceStats;
pub use store::{TraceKey, TraceStore};
pub use workloads::{phased, try_phased, Benchmark, MAX_TRACE_LEN};
