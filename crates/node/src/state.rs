//! The node's protocol decision logic lives in the sans-I/O core crate
//! (`pgrid-proto`), where it is shared with the deterministic simulator.
//! [`NodeState`] is the same type as [`pgrid_proto::ProtocolPeer`]; the I/O
//! shell in this crate is its live driver.

/// The protocol state machine of a live node (alias of
/// [`pgrid_proto::ProtocolPeer`]).
pub type NodeState = pgrid_proto::ProtocolPeer;
