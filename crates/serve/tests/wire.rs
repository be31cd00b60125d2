//! Loopback TCP integration tests: the happy path plus the robustness
//! contract — malformed frames, oversized frames, partial frames followed
//! by disconnects, idle timeouts, and concurrent clients. The server must
//! never panic and must keep serving other connections through all of it.

use assoc_serve::protocol::{read_frame, write_frame, Frame, MAX_RESPONSE_FRAME};
use assoc_serve::{Client, Dataset, Query, Response, ServerConfig, Store, DEFAULT_CACHE_ENTRIES};
use mining_types::{FrequentSet, Itemset};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn iset(raw: &[u32]) -> Itemset {
    Itemset::of(raw)
}

fn dataset() -> Dataset {
    let frequent: FrequentSet = [
        (iset(&[1]), 10),
        (iset(&[2]), 8),
        (iset(&[3]), 6),
        (iset(&[1, 2]), 5),
        (iset(&[1, 3]), 4),
        (iset(&[2, 3]), 4),
        (iset(&[1, 2, 3]), 3),
    ]
    .into_iter()
    .collect();
    let rules = assoc_rules::generate(&frequent, 0.0);
    Dataset {
        frequent,
        rules,
        num_transactions: 12,
    }
}

fn start_server(cfg: &ServerConfig) -> (Arc<Store>, assoc_serve::ServerHandle) {
    let store = Arc::new(Store::with_dataset(&dataset(), DEFAULT_CACHE_ENTRIES));
    let handle = assoc_serve::start(Arc::clone(&store), cfg).expect("bind loopback");
    (store, handle)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// Read the server's single response frame, then expect EOF (connection
/// dropped by the server).
fn expect_error_then_close(mut stream: TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let msg = match read_frame(&mut stream, MAX_RESPONSE_FRAME).expect("error response") {
        Frame::Payload(p) => match Response::decode(&p).expect("decodable response") {
            Response::Error(msg) => msg,
            other => panic!("expected error response, got {other:?}"),
        },
        other => panic!("expected payload, got {other:?}"),
    };
    match read_frame(&mut stream, MAX_RESPONSE_FRAME).expect("clean close") {
        Frame::Eof => {}
        other => panic!("expected EOF after error, got {other:?}"),
    }
    msg
}

#[test]
fn happy_path_round_trip() {
    let (_store, handle) = start_server(&test_config());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client.ping().unwrap();
    assert_eq!(client.support(iset(&[1, 2])).unwrap(), Some(5));
    assert_eq!(client.support(iset(&[7])).unwrap(), None);

    let subs = client.subsets(iset(&[1, 2, 3]), 100).unwrap();
    assert_eq!(subs.len(), 7);
    let sups = client.supersets(iset(&[2]), 100).unwrap();
    assert_eq!(
        sups.iter().map(|c| c.itemset.clone()).collect::<Vec<_>>(),
        vec![iset(&[1, 2]), iset(&[1, 2, 3]), iset(&[2]), iset(&[2, 3])]
    );

    let rules = client.rules_for(iset(&[2]), 5).unwrap();
    assert!(!rules.is_empty());
    for w in rules.windows(2) {
        assert!(w[0].confidence() >= w[1].confidence());
    }

    let top = client.top_k(1, 2).unwrap();
    assert_eq!(top[0].itemset, iset(&[1]));
    assert_eq!(top[0].support, 10);

    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"server\":{"), "{stats}");
    assert!(stats.contains("\"itemsets\":7"), "{stats}");

    let counters = handle.shutdown();
    assert_eq!(counters.connections, 1);
    assert!(counters.requests >= 8, "{counters:?}");
    assert_eq!(counters.protocol_errors, 0);
}

#[test]
fn malformed_frame_gets_error_and_close_but_server_keeps_serving() {
    let (_store, handle) = start_server(&test_config());
    let addr = handle.local_addr();

    // Unknown opcode.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, &[0xEE, 1, 2, 3]).unwrap();
    let msg = expect_error_then_close(raw);
    assert!(msg.contains("unknown opcode"), "{msg}");

    // Truncated body: Support announcing 4 items, carrying none.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, &[0x01, 4, 0]).unwrap();
    let msg = expect_error_then_close(raw);
    assert!(msg.contains("truncated"), "{msg}");

    // Trailing garbage after a valid Ping.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, &[0x00, 0xAB]).unwrap();
    let msg = expect_error_then_close(raw);
    assert!(msg.contains("trailing"), "{msg}");

    // The server is still healthy for new connections.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.support(iset(&[1])).unwrap(), Some(10));
    drop(client);

    let counters = handle.shutdown();
    assert_eq!(counters.protocol_errors, 3);
    assert_eq!(counters.connections, 4);
}

#[test]
fn oversized_frame_is_rejected_without_reading_it() {
    let (_store, handle) = start_server(&test_config());
    let addr = handle.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    // Announce a payload far beyond MAX_REQUEST_FRAME; send no payload.
    raw.write_all(&(64 * 1024 * 1024u32).to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let msg = expect_error_then_close(raw);
    assert!(msg.contains("exceeds request limit"), "{msg}");

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    drop(client);
    let counters = handle.shutdown();
    assert_eq!(counters.protocol_errors, 1);
}

#[test]
fn partial_frame_then_disconnect_does_not_disturb_the_server() {
    let (_store, handle) = start_server(&test_config());
    let addr = handle.local_addr();

    // Half a header.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[7, 0]).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // Full header, partial payload.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&10u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x01, 2]).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // Both were dropped server-side without poisoning anything.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.support(iset(&[2, 3])).unwrap(), Some(4));
    drop(client);
    handle.shutdown();
}

#[test]
fn idle_connection_is_dropped_after_the_read_timeout() {
    let cfg = ServerConfig {
        workers: 2,
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let (_store, handle) = start_server(&cfg);
    let addr = handle.local_addr();

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Say nothing; the server should hang up on us.
    let mut buf = [0u8; 1];
    let n = idle.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server should close the idle connection");

    // And it still serves fresh connections.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    drop(client);
    let counters = handle.shutdown();
    assert_eq!(counters.timeouts, 1);
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let cfg = ServerConfig {
        workers: 8,
        ..test_config()
    };
    let (_store, handle) = start_server(&cfg);
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..50 {
                    match (t + round) % 4 {
                        0 => assert_eq!(client.support(iset(&[1, 2])).unwrap(), Some(5)),
                        1 => assert_eq!(client.subsets(iset(&[1, 2, 3]), 100).unwrap().len(), 7),
                        2 => {
                            let top = client.top_k(0, 1).unwrap();
                            assert_eq!(top[0].support, 10);
                        }
                        _ => {
                            let rules = client.rules_for(iset(&[1]), 3).unwrap();
                            assert!(rules.len() <= 3);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let counters = handle.shutdown();
    assert_eq!(counters.connections, 8);
    assert_eq!(counters.requests, 8 * 50);
    assert_eq!(counters.protocol_errors, 0);
}

#[test]
fn reload_swaps_answers_without_restarting_the_server() {
    let (store, handle) = start_server(&test_config());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.support(iset(&[9])).unwrap(), None);

    let mut bigger = dataset();
    bigger.frequent.insert(iset(&[9]), 2);
    store.load(&bigger);

    // Same connection, new generation.
    assert_eq!(client.support(iset(&[9])).unwrap(), Some(2));
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"generation\":2"), "{stats}");
    drop(client);
    handle.shutdown();
}

#[test]
fn queries_behave_through_the_wire_exactly_as_in_process() {
    let (store, handle) = start_server(&test_config());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for q in [
        Query::Support {
            itemset: iset(&[1, 3]),
        },
        Query::Subsets {
            of: iset(&[1, 2]),
            limit: 5,
        },
        Query::Supersets {
            of: iset(&[3]),
            limit: 2,
        },
        Query::RulesFor {
            antecedent: iset(&[1, 2]),
            k: 4,
        },
        Query::TopK { size: 2, k: 3 },
    ] {
        let over_wire = client.query(&q).unwrap();
        let in_process = store.execute(&q);
        assert_eq!(over_wire, in_process, "{q:?}");
    }
    drop(client);
    handle.shutdown();
}
