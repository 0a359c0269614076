//! One checked end-to-end benchmark of the xsac system.
//!
//! Three closed-loop workloads drive the program from outside through
//! its public API — subjects waiting for their authorized views,
//! a publisher waiting for versions to become servable, and the keyless
//! multi-tenant service between them — and check every delivered view
//! and every publication against an oracle. A separate traced run
//! attributes each session's and each publication's time to the layers
//! (`xml`, `xpath`, `core`, `index`, `crypto`, `soe`, `net`) through
//! benchmark-side spans around the calls into each layer.

pub mod bench;
pub mod churn;
pub mod inputs;
pub mod report;
pub mod subjects;
pub mod trace;
pub mod views;
