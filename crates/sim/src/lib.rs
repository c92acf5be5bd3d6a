//! # pgrid-sim
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§5) plus the §6 asymptotic comparison.
//!
//! Each experiment lives in [`experiments`] as a config struct (defaults =
//! the paper's parameters) and a `run` function returning both typed rows
//! and a renderable [`Table`]. All experiments are deterministic under a
//! fixed seed.
//!
//! | Id | Paper result | Module |
//! |----|--------------|--------|
//! | T1 | construction cost vs community size | [`experiments::t1`] |
//! | T2 | construction cost vs `maxl` | [`experiments::t2`] |
//! | T3 | construction cost vs `recmax` | [`experiments::t3`] |
//! | T4/T5 | construction cost vs `refmax`, recursion fan-out unbounded/bounded | [`experiments::t4t5`] |
//! | F4 | replica distribution of the 20000-peer grid | [`experiments::f4`] |
//! | §5.2 | search reliability at 30% availability | [`experiments::s52_search`] |
//! | F5 | fraction of replicas found vs messages, three strategies | [`experiments::f5`] |
//! | T6 | update/query cost tradeoff, repetitive vs non-repetitive search | [`experiments::t6`] |
//! | §6 | P-Grid vs central server scaling | [`experiments::s6_scaling`] |
//! | extra | P-Grid vs Gnutella flooding | [`experiments::flooding`] |
//! | extra | skewed key distributions (future-work §6) | [`experiments::skew`] |
//! | extra | failure injection + self-repair | [`experiments::repair`] |
//! | extra | corruption injection + self-stabilization | [`experiments::selfstab`] |
//! | extra | event-driven construction under churn | [`experiments::timeline`] |
//! | extra | client result caching under Zipf traffic | [`experiments::caching`] |
//! | extra | end-to-end search latency under delay models | [`experiments::latency`] |
//! | extra | multi-seed replication of T3 | [`experiments::variance`] |
//! | extra | mixed read/write workloads (empirical break-even) | [`experiments::mixed`] |
//! | extra | ablations of the design knobs | [`experiments::ablation`] |
//! | extra | parallel engine throughput (serial vs threaded vs compact table) | [`experiments::engine`] |
//! | extra | storage backend equivalence & throughput | [`experiments::store`] |
//!
//! Query workloads can execute across worker threads via [`engine`] — task-
//! sharded RNG streams and counters merged in task order keep every result
//! bit-identical for every thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod experiments;
mod report;
mod runner;
pub mod stats;
pub mod workload;

pub use engine::{
    run_query_plan, run_query_plan_batched, run_query_plan_batched_traced, run_query_plan_traced,
    run_sharded, QueryPlan, QueryRecord, QueryRunOutcome,
};
pub use report::{fmt_f, Table};
pub use runner::{built_grid, BuiltGrid};
// The sans-I/O protocol core, re-exported so experiment code can script
// event-level scenarios without a separate dependency.
pub use pgrid_proto::ProtocolPeer;
