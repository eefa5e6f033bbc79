//! The dds benchmark: three seeded workloads that drive the workspace
//! through its public entry points and time them from outside.
//!
//! - [`sim`]: OTQ churn sweeps through `QueryScenario::run_in` and
//!   `fold_sweep` (simulator kernel, protocols, graph generators).
//! - [`check`]: the dds-check validation suite explored to a verdict
//!   through `explore_parallel_with` (fork, fingerprint, dedup).
//! - [`store`]: open-loop Poisson load from one `dds_svc::node::Host`
//!   against the `svc_seed`/`svc_replica` processes over UDS.
//!
//! Untraced runs give the end-to-end metrics; traced runs wrap the same
//! calls in timers and give the per-layer metrics (see `README.md`).

pub mod check;
pub mod procfs;
pub mod report;
pub mod sim;
pub mod store;

/// What one workload run measured, in the shape the CLI prints.
pub use report::Report;
