//! Adversarial robustness of the live node: garbage frames, truncated
//! frames, unsolicited protocol messages — none may crash or wedge a node.
//! The node runs on the virtual clock, so every probe is answered (or not)
//! within a fixed span of virtual time.

use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use pgrid_keys::BitPath;
use pgrid_net::PeerId;
use pgrid_node::{NodeState, SimTransport, Transport};
use pgrid_trace::NullTracer;
use pgrid_wire::{encode_frame, Message};

const NODE: PeerId = PeerId(0);
const PROBE: PeerId = PeerId(1);

/// Hosts one node plus a probe client endpoint.
fn one_node() -> (
    SimTransport,
    Arc<Mutex<NodeState>>,
    Receiver<(PeerId, Message)>,
) {
    let transport = SimTransport::new();
    let state = Arc::new(Mutex::new(NodeState::new(NODE, 4, 2, 2)));
    transport.host(Arc::clone(&state), 99, None, Box::new(NullTracer));
    let probe_rx = transport.open_client(PROBE);
    (transport, state, probe_rx)
}

/// Runs the network until the probe receives a message, for at most two
/// seconds of virtual time.
fn recv(
    transport: &SimTransport,
    probe_rx: &Receiver<(PeerId, Message)>,
) -> Option<(PeerId, Message)> {
    let deadline = transport.now() + Duration::from_secs(2);
    transport.recv_client(probe_rx, deadline)
}

/// The node answers a ping — proof it is still alive and processing.
fn assert_alive(transport: &SimTransport, probe_rx: &Receiver<(PeerId, Message)>, nonce: u64) {
    assert!(transport.send(PROBE, NODE, encode_frame(&Message::Ping { nonce })));
    let (from, msg) = recv(transport, probe_rx).expect("node must answer pings");
    assert_eq!((from, msg), (NODE, Message::Pong { nonce }));
}

/// Tells the node to shut down, delivers the order, and evicts it.
fn stop(transport: &SimTransport) {
    transport.send(PROBE, NODE, encode_frame(&Message::Shutdown));
    transport.advance(Duration::ZERO);
    transport.evict(NODE);
}

#[test]
fn survives_garbage_frames() {
    let (transport, _state, probe_rx) = one_node();

    // Raw garbage of various shapes.
    for (i, payload) in [
        Bytes::from_static(b""),
        Bytes::from_static(b"\x00"),
        Bytes::from_static(b"\xff\xff\xff\xff"),
        Bytes::from(vec![0xAB; 300]),
    ]
    .into_iter()
    .enumerate()
    {
        transport.send(PROBE, NODE, payload);
        assert_alive(&transport, &probe_rx, i as u64);
    }

    // A frame with a valid length prefix but an unknown tag.
    let mut evil = BytesMut::new();
    evil.put_u32_le(1);
    evil.put_u8(250);
    transport.send(PROBE, NODE, evil.freeze());
    assert_alive(&transport, &probe_rx, 100);

    // A frame claiming a huge length (must be treated as incomplete and
    // dropped, not buffered forever or allocated eagerly).
    let mut huge = BytesMut::new();
    huge.put_u32_le(u32::MAX);
    huge.put_u8(0);
    transport.send(PROBE, NODE, huge.freeze());
    assert_alive(&transport, &probe_rx, 101);

    stop(&transport);
}

#[test]
fn ignores_unsolicited_protocol_messages() {
    let (transport, state, probe_rx) = one_node();

    // An answer to an exchange the node never initiated must not mutate it.
    let bogus_answer = Message::ExchangeAnswer {
        id: 424242,
        responder_path: BitPath::from_str_lossy("1"),
        take_bit: Some(1),
        adopt_refs: vec![(1, vec![PeerId(9)])],
        recurse_with: vec![PeerId(9)],
    };
    transport.send(PROBE, NODE, encode_frame(&bogus_answer));
    // Stray query results are likewise dropped.
    let stray_ok = Message::QueryOk {
        id: 7,
        responsible: PeerId(9),
        entries: vec![],
    };
    transport.send(PROBE, NODE, encode_frame(&stray_ok));
    assert_alive(&transport, &probe_rx, 0);

    let guard = state.lock().unwrap();
    assert!(
        guard.path.is_empty(),
        "unsolicited answer must not extend the path"
    );
    assert!(
        guard.refs.total_refs() == 0,
        "unsolicited answer must not install references"
    );
    drop(guard);

    stop(&transport);
}

#[test]
fn query_to_fresh_node_answers_locally() {
    let (transport, _state, probe_rx) = one_node();
    // A fresh node has the empty path: it is responsible for everything.
    let q = Message::Query {
        id: 5,
        origin: PROBE,
        key: BitPath::from_str_lossy("0101"),
        matched: 0,
        ttl: 8,
    };
    transport.send(PROBE, NODE, encode_frame(&q));
    match recv(&transport, &probe_rx).expect("answer") {
        (
            _,
            Message::QueryOk {
                id: 5, responsible, ..
            },
        ) => assert_eq!(responsible, NODE),
        other => panic!("expected QueryOk, got {other:?}"),
    }
    stop(&transport);
}
