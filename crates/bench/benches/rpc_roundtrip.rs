//! Criterion benches for the RPC substrate: framing, end-to-end
//! round trips through a lab-service session, and latency-model
//! sampling throughput (the machinery behind Fig. 4).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rad_core::{Command, CommandType, TraceMode};
use rad_middlebox::rpc::{Duplex, FrameCodec, RetryPolicy};
use rad_middlebox::{LabService, LatencyModel, ServerConfig};
use rad_workloads::RemoteSession;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_framing(c: &mut Criterion) {
    let payload = vec![0xabu8; 512];
    c.bench_function("frame_encode_decode_512B", |b| {
        b.iter(|| {
            let framed = FrameCodec::encode(&payload);
            let mut codec = FrameCodec::new();
            codec.push(&framed);
            codec.next_frame().unwrap().unwrap()
        })
    });
}

/// One lock-step query through a lab-service tenant over an in-process
/// duplex: session framing, dedup cache and tracer, no socket.
fn bench_rpc_roundtrip(c: &mut Criterion) {
    let server = LabService::new(ServerConfig::default()).start();
    let (client_side, server_side) = Duplex::pair();
    server.attach(server_side).unwrap();
    let mut session = RemoteSession::connect(client_side, "bench", RetryPolicy::default()).unwrap();
    session
        .issue(&Command::nullary(CommandType::InitIka))
        .unwrap()
        .unwrap();
    let query = Command::nullary(CommandType::IkaReadRatedSpeed);
    c.bench_function("rpc_roundtrip_query", |b| {
        b.iter(|| session.issue(&query).unwrap().unwrap())
    });
    session.bye().unwrap();
    server.drain().unwrap();
}

fn bench_latency_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency_sample");
    for mode in [TraceMode::Direct, TraceMode::Remote, TraceMode::Cloud] {
        let model = LatencyModel::for_mode(mode);
        group.bench_function(mode.to_string(), |b| {
            b.iter_batched(
                || ChaCha8Rng::seed_from_u64(7),
                |mut rng| {
                    let mut acc = 0u64;
                    for _ in 0..100 {
                        acc += model.sample(&mut rng).as_micros();
                    }
                    acc
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_framing,
    bench_rpc_roundtrip,
    bench_latency_models
);
criterion_main!(benches);
