//! # pgrid-proto — the sans-I/O protocol core
//!
//! The P-Grid protocol logic — Fig. 2 search descent, Fig. 3 exchange
//! cases, insert/update forwarding, anti-entropy re-homing — implemented
//! **once**, as a deterministic state machine with no I/O of any kind.
//!
//! * [`route_step`] — the pure Fig. 2 routing decision, shared by the
//!   simulator's depth-first search and the live node's hop forwarding;
//! * [`classify`] / [`split_bits`] — the pure Fig. 3 case analysis, shared
//!   by the simulator's synchronous exchange and the live offer/answer
//!   handshake;
//! * [`RoutingTable`] — a peer's references per level in one buffer and
//!   the kernels that mix them, for the engine's peers and these alike;
//! * [`LeafIndex`] — a peer's leaf index and its insert rule, again for
//!   the engine's peers and these alike;
//! * [`ProtocolPeer`] — one peer's full protocol state, advanced by typed
//!   [`Event`]s into typed [`Effect`]s ([`ProtocolPeer::handle`]), with all
//!   randomness supplied through [`ProtoCtx`].
//!
//! Drivers own everything else: frames, retransmission, timeouts,
//! failover, threads, clocks. There is one, the node shell of `pgrid-node`,
//! over threads, sockets or a virtual clock. Because every protocol
//! decision (and every protocol RNG draw) lives here, a seeded run on the
//! virtual clock and a seeded threaded or socket run of the *same* peers
//! make identical decisions — which the differential tests in the
//! workspace root assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod fig2;
mod fig3;
mod leaf_index;
mod peer;
mod routing;

pub use event::{Effect, Event, TimerToken};
pub use fig2::{route_step, RouteStep};
pub use fig3::{classify, split_bits, ExchangeCase, SplitBitPolicy};
pub use leaf_index::{KeyEntries, LeafEntry, LeafIndex};
pub use peer::{
    ProtoCtx, ProtocolPeer, RouteDecision, ANSWER_CACHE_CAP, DEFAULT_RECMAX, DEFAULT_SUSPECT_AFTER,
    SEEN_CAP,
};
pub use routing::{random_select, union_into, LevelRefs, LevelRefsMut, RoutingTable};
