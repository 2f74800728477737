//! LASERREPAIR: online false-sharing repair with a software store buffer
//! (paper Section 5).
//!
//! The three pieces:
//!
//! * [`plan::RepairPlan`] — the static analysis that decides which basic
//!   blocks to instrument, where to place flushes, which loads may
//!   speculatively skip the SSB, and whether repair is profitable at all;
//! * [`ssb::SoftwareStoreBuffer`] — the thread-private coalescing buffer;
//! * [`hook::SsbHook`] — the dynamic-instrumentation tool that applies the
//!   plan to a running machine through the Pin-like hook interface,
//!   preserving single-threaded semantics and TSO (flushes are hardware
//!   transactions).

pub mod hook;
pub mod plan;
pub mod ssb;

pub use hook::{SsbCosts, SsbHook, SsbStats, PREEMPTIVE_FLUSH_ENTRIES};
pub use plan::RepairPlan;
pub use ssb::{SoftwareStoreBuffer, SsbLookup};

#[cfg(test)]
mod tests;
