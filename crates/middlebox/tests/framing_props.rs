//! Property tests on the RPC framing layer: any payload stream,
//! chunked any way, reassembles losslessly.

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rad_middlebox::rpc::FrameCodec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary payloads survive framing + arbitrary re-chunking.
    #[test]
    fn frames_reassemble_under_any_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..10,
        ),
        chunk in 1usize..37,
    ) {
        let mut stream = BytesMut::new();
        for p in &payloads {
            stream.put_slice(&FrameCodec::encode(p));
        }
        let mut codec = FrameCodec::new();
        let mut decoded: Vec<Vec<u8>> = Vec::new();
        for piece in stream.chunks(chunk) {
            codec.push(piece);
            while let Some(frame) = codec.next_frame().unwrap() {
                decoded.push(frame.to_vec());
            }
        }
        prop_assert_eq!(decoded, payloads);
    }

    /// `has_frame` predicts `next_frame` at every chunk boundary of any
    /// framed stream: it is true exactly when the next call returns a
    /// frame or an error instead of waiting for input, it consumes
    /// nothing (every frame still decodes, in order), and it stays true
    /// once an oversized length prefix has poisoned the codec.
    #[test]
    fn has_frame_is_true_exactly_when_next_frame_needs_no_input(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120),
            0..8,
        ),
        cuts in proptest::collection::vec(0usize..4096, 0..16),
        oversized_tail in any::<bool>(),
    ) {
        let mut stream = BytesMut::new();
        for p in &payloads {
            stream.put_slice(&FrameCodec::encode(p));
        }
        if oversized_tail {
            stream.put_u32(rad_middlebox::rpc::MAX_FRAME_BYTES as u32 + 1);
        }
        let stream: &[u8] = &stream;
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        bounds.push(stream.len());
        bounds.sort_unstable();
        let mut codec = FrameCodec::new();
        let mut decoded: Vec<Vec<u8>> = Vec::new();
        let mut poisoned = false;
        let mut start = 0;
        for end in bounds {
            codec.push(&stream[start..end]);
            start = end;
            loop {
                let ready = codec.has_frame();
                match codec.next_frame() {
                    Ok(Some(frame)) => {
                        prop_assert!(ready, "a buffered frame went unreported");
                        decoded.push(frame.to_vec());
                    }
                    Ok(None) => {
                        prop_assert!(!ready, "reported a frame that had not arrived");
                        break;
                    }
                    Err(_) => {
                        prop_assert!(ready, "an oversized prefix went unreported");
                        poisoned = true;
                        break;
                    }
                }
            }
        }
        prop_assert_eq!(decoded, payloads);
        prop_assert_eq!(poisoned, oversized_tail);
        if poisoned {
            prop_assert!(codec.has_frame(), "a poisoned codec answers without input");
            prop_assert!(codec.next_frame().is_err());
        }
    }

    /// A truncated stream never yields a phantom frame.
    #[test]
    fn truncation_yields_nothing_not_garbage(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        keep_fraction in 0.0f64..1.0,
    ) {
        let framed = FrameCodec::encode(&payload);
        let keep = ((framed.len() as f64) * keep_fraction) as usize;
        prop_assume!(keep < framed.len());
        let mut codec = FrameCodec::new();
        codec.push(&framed[..keep]);
        prop_assert_eq!(codec.next_frame().unwrap(), None);
    }

    /// Arbitrary garbage never panics the codec: every call yields a
    /// frame, `None`, or a typed [`rad_core::RadError`].
    #[test]
    fn garbage_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..400),
        chunk in 1usize..23,
    ) {
        let mut codec = FrameCodec::new();
        for piece in noise.chunks(chunk) {
            codec.push(piece);
            loop {
                match codec.next_frame() {
                    Ok(Some(frame)) => prop_assert!(frame.len() <= rad_middlebox::rpc::MAX_FRAME_BYTES),
                    Ok(None) => break,
                    Err(rad_core::RadError::Rpc(_))
                    | Err(rad_core::RadError::FrameTooLarge { .. }) => break,
                    Err(other) => return Err(TestCaseError::fail(format!("untyped error: {other}"))),
                }
            }
        }
    }

    /// A corrupted length prefix poisons the codec instead of hanging:
    /// the error is sticky until `reset`, after which fresh frames
    /// decode again.
    #[test]
    fn oversized_prefix_poisons_until_reset(
        excess in 1u32..u32::MAX / 2,
        payload in proptest::collection::vec(any::<u8>(), 0..50),
    ) {
        let bad_len = rad_middlebox::rpc::MAX_FRAME_BYTES as u32 + excess;
        let mut codec = FrameCodec::new();
        codec.push(&bad_len.to_be_bytes());
        prop_assert!(codec.next_frame().is_err(), "oversized prefix must error, not wait");
        prop_assert!(codec.next_frame().is_err(), "the poison is sticky");
        codec.reset();
        codec.push(&FrameCodec::encode(&payload));
        let recovered = codec.next_frame().unwrap().expect("frame after reset");
        prop_assert_eq!(recovered.as_ref(), payload.as_slice());
    }

    /// Concatenated frames in one chunk all come out, in order — the
    /// property idempotent replay of buffered responses relies on.
    #[test]
    fn concatenated_frames_decode_in_order(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120),
            1..8,
        ),
    ) {
        let mut stream = BytesMut::new();
        for p in &payloads {
            stream.put_slice(&FrameCodec::encode(p));
        }
        let mut codec = FrameCodec::new();
        codec.push(&stream);
        let mut decoded = Vec::new();
        while let Some(frame) = codec.next_frame().unwrap() {
            decoded.push(frame.to_vec());
        }
        prop_assert_eq!(decoded, payloads);
    }

    /// Flipping one byte of a framed stream either still decodes
    /// (payload corruption) or surfaces a typed error / short read —
    /// never a panic or an infinite loop.
    #[test]
    fn single_byte_corruption_is_contained(
        payload in proptest::collection::vec(any::<u8>(), 1..150),
        pos_fraction in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut framed = FrameCodec::encode(&payload).to_vec();
        let pos = ((framed.len() - 1) as f64 * pos_fraction) as usize;
        framed[pos] ^= flip;
        let mut codec = FrameCodec::new();
        codec.push(&framed);
        // Bounded loop: the codec must make progress or stop.
        for _ in 0..4 {
            match codec.next_frame() {
                Ok(Some(_)) | Ok(None) => break,
                Err(rad_core::RadError::Rpc(_))
                | Err(rad_core::RadError::FrameTooLarge { .. }) => { codec.reset(); }
                Err(other) => return Err(TestCaseError::fail(format!("untyped error: {other}"))),
            }
        }
    }

    /// Fault schedules are a pure function of (seed, lane, index):
    /// regenerating any window of the schedule reproduces it exactly.
    #[test]
    fn fault_schedules_are_deterministic(seed in any::<u64>(), len in 1u64..200) {
        use rad_middlebox::{FaultPlan, FaultProfile, Lane};
        let profile = FaultProfile {
            drop_prob: 0.1,
            duplicate_prob: 0.05,
            corrupt_prob: 0.05,
            reorder_prob: 0.05,
            delay_prob: 0.05,
            delay_chunks: 2,
            disconnect_after: Some(150),
        };
        let a = FaultPlan::new(seed, profile.clone());
        let b = FaultPlan::new(seed, profile);
        for lane in [Lane::Request, Lane::Response] {
            prop_assert_eq!(a.schedule(lane, len), b.schedule(lane, len));
            // Point queries agree with the bulk schedule.
            let sched = a.schedule(lane, len);
            for (i, &action) in sched.iter().enumerate() {
                prop_assert_eq!(b.action_for(lane, i as u64), action);
            }
        }
    }

    /// Latency models never produce negative or absurd samples.
    #[test]
    fn latency_samples_are_sane(seed in 0u64..500) {
        use rad_core::TraceMode;
        use rad_middlebox::LatencyModel;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for mode in [TraceMode::Direct, TraceMode::Remote, TraceMode::Cloud] {
            let model = LatencyModel::for_mode(mode);
            for _ in 0..50 {
                let s = model.sample(&mut rng);
                prop_assert!(s.as_millis_f64() < 10_000.0, "{mode}: {s}");
            }
        }
    }
}
