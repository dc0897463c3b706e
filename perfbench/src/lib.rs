//! The PTSBE data-collection benchmark: four workloads driven through
//! the public `ShotService` API, one per engine the router auto-selects.
//!
//! An untraced run ([`run::end_to_end`]) reports what a user of the
//! service sees; a traced run ([`run::traced`]) splits the same job into
//! the layers it crosses, timing the benchmark's own calls into each
//! layer and reading the stage totals the telemetry crate records. Both
//! run the correctness gate ([`run::gate`]) before any timing.

pub mod gate;
pub mod run;
pub mod sys;
pub mod workload;
