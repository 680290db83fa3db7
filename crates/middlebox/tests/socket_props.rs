//! Socket-level torture tests: the framed protocol survives arbitrary
//! re-chunking across *real* kernel byte streams, and decodes exactly
//! what the in-process [`Duplex`] transport decodes.
//!
//! The TCP/Unix stream APIs guarantee bytes, not boundaries: a frame
//! written in one `write_all` can arrive split across many reads, and
//! many frames can coalesce into one. These tests force both — every
//! byte boundary, adversarial split schedules — and assert the decoded
//! frame sequence is byte-for-byte identical to the same stream pushed
//! through an in-process duplex pair.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixListener;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use rad_core::RadError;
use rad_middlebox::rpc::{Duplex, FrameCodec, Transport};
use rad_middlebox::SocketTransport;

/// Cuts `stream` into pieces following the cyclic `splits` schedule
/// (empty schedule = one piece).
fn cut(stream: &[u8], splits: &[usize]) -> Vec<Vec<u8>> {
    if splits.is_empty() {
        return vec![stream.to_vec()];
    }
    let mut pieces = Vec::new();
    let mut at = 0usize;
    let mut i = 0usize;
    while at < stream.len() {
        let take = splits[i % splits.len()].max(1).min(stream.len() - at);
        pieces.push(stream[at..at + take].to_vec());
        at += take;
        i += 1;
    }
    pieces
}

/// The next chunk a transport delivers, or `None` once the peer has
/// closed; a quiet-but-connected peer is simply waited on.
fn next_chunk<T: Transport>(transport: &T) -> Option<Bytes> {
    loop {
        match transport.recv(Duration::from_secs(1)) {
            Ok(chunk) => return Some(chunk),
            Err(RadError::RpcTimeout(_)) => {}
            Err(RadError::RpcDisconnected(_)) => return None,
            Err(e) => panic!("unexpected transport error: {e}"),
        }
    }
}

/// Drains every frame a transport delivers until the peer closes.
fn decode_all<T: Transport>(transport: &T) -> Vec<Vec<u8>> {
    let mut codec = FrameCodec::new();
    let mut frames = Vec::new();
    while let Some(chunk) = next_chunk(transport) {
        codec.push(&chunk);
        while let Some(frame) = codec.next_frame().expect("framing never breaks") {
            frames.push(frame.to_vec());
        }
    }
    frames
}

/// Writes `pieces` over a fresh TCP connection (separate thread,
/// flushing after every piece) and decodes on the accepting side.
fn decode_over_tcp(pieces: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    let writer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        for piece in &pieces {
            stream.write_all(piece).expect("write");
            stream.flush().expect("flush");
        }
        // Drop closes the socket: the reader sees EOF after the last
        // byte, never mid-frame.
    });
    let (conn, _) = listener.accept().expect("accept");
    let transport = SocketTransport::tcp(conn).expect("wrap");
    let frames = decode_all(&transport);
    writer.join().expect("writer thread");
    frames
}

/// Same, over a Unix-domain socket pair.
fn decode_over_unix(pieces: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "rad-sockprop-{}-{:x}.sock",
        std::process::id(),
        pieces.iter().map(Vec::len).sum::<usize>()
    ));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind unix");
    let writer_path = path.clone();
    let writer = std::thread::spawn(move || {
        let mut stream =
            std::os::unix::net::UnixStream::connect(&writer_path).expect("connect unix");
        for piece in &pieces {
            stream.write_all(piece).expect("write");
            stream.flush().expect("flush");
        }
    });
    let (conn, _) = listener.accept().expect("accept");
    let transport = SocketTransport::unix(conn).expect("wrap");
    let frames = decode_all(&transport);
    writer.join().expect("writer thread");
    let _ = std::fs::remove_file(&path);
    frames
}

/// Pushes the same pieces through an in-process duplex pair.
fn decode_over_duplex(pieces: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let (tx, rx) = Duplex::pair();
    for piece in &pieces {
        tx.send(Bytes::copy_from_slice(piece)).expect("send");
    }
    drop(tx);
    decode_all(&rx)
}

/// A frame split at *every* byte boundary still decodes: one TCP
/// stream carrying `len - 1` copies of the same frame, the i-th copy
/// split after its i-th byte.
#[test]
fn every_byte_boundary_split_decodes_over_tcp() {
    let payload = b"torture-frame: every boundary must hold".to_vec();
    let frame = FrameCodec::encode(&payload);
    let mut pieces = Vec::new();
    for i in 1..frame.len() {
        pieces.push(frame[..i].to_vec());
        pieces.push(frame[i..].to_vec());
    }
    let decoded = decode_over_tcp(pieces);
    assert_eq!(decoded.len(), frame.len() - 1);
    assert!(decoded.iter().all(|f| f == &payload));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any framed payload stream, cut by any split schedule, decodes
    /// to the same frames over real TCP, a real Unix socket, and the
    /// in-process duplex — byte for byte.
    #[test]
    fn tcp_unix_and_duplex_decode_identically(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300),
            1..8,
        ),
        splits in proptest::collection::vec(1usize..41, 0..24),
    ) {
        let mut stream = BytesMut::new();
        for p in &payloads {
            stream.put_slice(&FrameCodec::encode(p));
        }
        let pieces = cut(&stream, &splits);
        let over_duplex = decode_over_duplex(pieces.clone());
        prop_assert_eq!(&over_duplex, &payloads, "duplex reference must round-trip");
        let over_tcp = decode_over_tcp(pieces.clone());
        prop_assert_eq!(&over_tcp, &over_duplex, "TCP == duplex, byte for byte");
        let over_unix = decode_over_unix(pieces);
        prop_assert_eq!(&over_unix, &over_duplex, "Unix == duplex, byte for byte");
    }

    /// Oversized frames poison the codec identically whatever the
    /// transport delivered the bytes: the typed error names the same
    /// length and limit on a socket as in-process.
    #[test]
    fn oversize_poison_is_transport_independent(
        extra in 1usize..4096,
        cap in 32usize..256,
    ) {
        let len = cap + extra;
        let mut bad = BytesMut::with_capacity(4 + 8);
        bad.put_u32(len as u32);
        bad.put_slice(&[0u8; 8]);
        let bytes = bad.freeze();

        let mut in_process = FrameCodec::with_max_frame(cap);
        in_process.push(&bytes);
        let reference = in_process.next_frame().unwrap_err();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr");
        let sent = bytes.clone();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&sent).expect("write");
        });
        let (conn, _) = listener.accept().expect("accept");
        let transport = SocketTransport::tcp(conn).expect("wrap");
        let mut codec = FrameCodec::with_max_frame(cap);
        let mut socket_err = None;
        while let Some(chunk) = next_chunk(&transport) {
            codec.push(&chunk);
            if let Err(e) = codec.next_frame() {
                socket_err = Some(e);
                break;
            }
        }
        writer.join().expect("writer");
        // The 4-byte prefix always arrives eventually; the poison is
        // raised as soon as the codec sees it.
        let socket_err = socket_err.expect("socket codec must poison too");
        prop_assert_eq!(socket_err, reference);
    }
}
