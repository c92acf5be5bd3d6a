//! One module per paper table/figure (see the crate docs for the index).
//!
//! Conventions:
//!
//! * each experiment has a `Config` with `Default` set to the **paper's**
//!   parameters, and a `scaled(factor)`-style constructor or explicit small
//!   presets used by tests and Criterion benches;
//! * `run(&config)` is deterministic in `config.seed` and returns typed rows
//!   plus a [`crate::Table`] whose layout mirrors the paper's table.

pub mod ablation;
pub mod caching;
pub mod engine;
pub mod f4;
pub mod f5;
pub mod flooding;
pub mod latency;
pub mod mixed;
pub mod repair;
pub mod s52_search;
pub mod s6_scaling;
pub mod selfstab;
pub mod sizing;
pub mod skew;
pub mod store;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4t5;
pub mod t6;
pub mod timeline;
pub mod variance;
