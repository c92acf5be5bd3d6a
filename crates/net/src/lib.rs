//! # pgrid-net
//!
//! Simulated network substrate for P-Grid.
//!
//! The paper's system model (§2) is deliberately thin: peers have unique
//! addresses, are online with some probability, and online peers are
//! reachable reliably. This crate supplies that model plus the accounting
//! the evaluation needs:
//!
//! * [`PeerId`] — peer identity/address space;
//! * [`OnlineModel`] — availability models: [`AlwaysOnline`],
//!   per-probe [`BernoulliOnline`] (the paper's analysis model, §4),
//!   [`EpochOnline`] (a fixed random subset per measurement epoch), and
//!   time-driven [`SessionChurn`] (exponential on/off sessions — an
//!   extension beyond the paper's Bernoulli assumption);
//! * [`NetStats`] / [`Histogram`] — message and hop accounting (the paper
//!   counts "successful calls of the query operation to another peer");
//! * [`EventQueue`] — a discrete-event scheduler for time-driven simulations;
//! * [`DedupWindow`] — a two-generation dedup map whose entries expire
//!   when its owner rotates it, so dedup state is bounded by time rather
//!   than by a count (the node shell rotates once per resend horizon plus
//!   margin, 1 s; DESIGN.md §7);
//! * [`LatencyModel`] — per-message delay models for the event-driven mode;
//! * [`task_seed`] / [`splitmix64`] — deterministic per-task RNG stream
//!   derivation for the parallel experiment engine ([`NetStats`] shards merge
//!   with [`NetStats::merge`] / `+` / `Sum`);
//! * [`draw`] — bounded draws and shuffles for the hot paths, pinned to the
//!   `rand` stand-in's stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
pub mod draw;
mod events;
mod id;
mod latency;
mod online;
mod seed;
mod stats;

pub use bounded::DedupWindow;
pub use events::EventQueue;
pub use id::PeerId;
pub use latency::LatencyModel;
pub use online::{AlwaysOnline, BernoulliOnline, EpochOnline, OnlineModel, SessionChurn};
pub use seed::{splitmix64, task_seed};
pub use stats::{Histogram, MsgKind, NetStats};
