//! Property tests on trajectories, dynamics, and signal analysis.

#![allow(clippy::needless_range_loop)] // matrix checks read best indexed

use proptest::prelude::*;
use rad_power::{
    signal, CurrentProfile, PowerBlock, PowerSample, TrajectorySegment, Ur3e, Ur3eDynamics, JOINTS,
};

fn arb_pose() -> impl Strategy<Value = [f64; JOINTS]> {
    proptest::array::uniform6(-3.0f64..3.0)
}

fn arb_sample() -> impl Strategy<Value = PowerSample> {
    (
        0.0f64..1e3,
        arb_pose(),
        proptest::array::uniform6(-5.0f64..5.0),
        proptest::array::uniform6(-2.0f64..2.0),
    )
        .prop_map(|(t, pose, current, qd)| {
            let mut s = PowerSample::quiescent(t, pose);
            s.current_actual = current;
            s.qd_actual = qd;
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every planned move ends exactly at its target with zero
    /// velocity, whatever the endpoints and cruise speed.
    #[test]
    fn trajectories_reach_their_targets(
        start in arb_pose(),
        end in arb_pose(),
        v in 0.05f64..3.0,
    ) {
        let seg = TrajectorySegment::joint_move(start, end, v);
        let last = seg.sample(seg.duration() + 0.001);
        for j in 0..JOINTS {
            prop_assert!((last.q[j] - end[j]).abs() < 1e-9);
            prop_assert_eq!(last.qd[j], 0.0);
        }
    }

    /// Joint velocity never exceeds the commanded cruise velocity.
    #[test]
    fn velocity_respects_the_cruise_limit(
        start in arb_pose(),
        end in arb_pose(),
        v in 0.05f64..3.0,
    ) {
        let seg = TrajectorySegment::joint_move(start, end, v);
        for p in seg.sample_at(0.01) {
            for j in 0..JOINTS {
                prop_assert!(p.qd[j].abs() <= v + 1e-9);
            }
        }
    }

    /// Faster cruise never lengthens a move.
    #[test]
    fn duration_is_monotone_in_velocity(
        start in arb_pose(),
        end in arb_pose(),
        v in 0.05f64..1.0,
    ) {
        let slow = TrajectorySegment::joint_move(start, end, v).duration();
        let fast = TrajectorySegment::joint_move(start, end, v * 2.0).duration();
        prop_assert!(fast <= slow + 1e-9);
    }

    /// Gravity torque vanishes only through posture, never payload:
    /// adding payload never reduces the shoulder's absolute torque
    /// when the arm is extended forward.
    #[test]
    fn payload_never_reduces_extended_shoulder_torque(
        payload in 0.0f64..2.0,
        q1 in -1.4f64..-0.1,
        q2 in 0.1f64..1.4,
    ) {
        let dynamics = Ur3eDynamics::new();
        let q = [0.0, q1, q2, 0.0, 0.0, 0.0];
        prop_assume!((q1 + q2).cos() > 0.0 && q1.cos() > 0.0);
        let empty = dynamics.gravity_torques(&q, 0.0).0[1];
        let loaded = dynamics.gravity_torques(&q, payload).0[1];
        prop_assert!(loaded >= empty - 1e-12);
    }

    /// Pearson correlation is symmetric and bounded.
    #[test]
    fn pearson_is_symmetric_and_bounded(
        a in proptest::collection::vec(-100.0f64..100.0, 3..50),
        b in proptest::collection::vec(-100.0f64..100.0, 3..50),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        if let (Ok(r1), Ok(r2)) = (signal::pearson(a, b), signal::pearson(b, a)) {
            prop_assert!((r1 - r2).abs() < 1e-12);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r1));
        }
    }

    /// A series correlates perfectly with any positive affine image of
    /// itself.
    #[test]
    fn pearson_affine_invariance(
        a in proptest::collection::vec(-100.0f64..100.0, 3..40),
        scale in 0.1f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        let b: Vec<f64> = a.iter().map(|v| v * scale + shift).collect();
        if let Ok(r) = signal::pearson(&a, &b) {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {r}");
        }
    }

    /// Resampling to the same length is the identity; resampling
    /// preserves endpoints.
    #[test]
    fn resample_identity_and_endpoints(
        series in proptest::collection::vec(-10.0f64..10.0, 2..60),
        target in 2usize..80,
    ) {
        let same = signal::resample(&series, series.len());
        prop_assert_eq!(&same, &series);
        let re = signal::resample(&series, target);
        prop_assert_eq!(re.len(), target);
        prop_assert!((re[0] - series[0]).abs() < 1e-12);
        prop_assert!((re[target - 1] - series[series.len() - 1]).abs() < 1e-12);
    }

    /// Profiles are exactly reproducible per seed, whatever the pose
    /// pair and payload.
    #[test]
    fn profiles_are_deterministic(
        from in 0usize..6,
        to in 0usize..6,
        payload in 0.0f64..1.0,
        seed in 0u64..50,
    ) {
        prop_assume!(from != to);
        let arm = Ur3e::new();
        let seg = TrajectorySegment::joint_move(
            Ur3e::named_pose(from),
            Ur3e::named_pose(to),
            0.9,
        );
        let a = arm.current_profile(std::slice::from_ref(&seg), payload, seed);
        let b = arm.current_profile(std::slice::from_ref(&seg), payload, seed);
        prop_assert_eq!(a, b);
    }

    /// The fused one-pass Pearson agrees with the retired two-pass
    /// kernel on every input: same value within 1e-9, same error cases.
    #[test]
    fn fused_pearson_matches_reference(
        a in proptest::collection::vec(-100.0f64..100.0, 2..60),
        b in proptest::collection::vec(-100.0f64..100.0, 2..60),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        match (signal::pearson(a, b), signal::reference::pearson(a, b)) {
            (Ok(fused), Ok(two_pass)) => prop_assert!(
                (fused - two_pass).abs() < 1e-9,
                "fused {fused} vs reference {two_pass}"
            ),
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            (f, r) => prop_assert!(false, "divergent outcomes: {f:?} vs {r:?}"),
        }
    }

    /// The correlation matrix is exactly the pairwise fused kernel —
    /// reusing per-series moments must not change any entry beyond
    /// 1e-9 of the reference.
    #[test]
    fn pearson_matrix_matches_reference_pairs(
        series in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, 4..30),
            1..6,
        ),
        len in 4usize..30,
    ) {
        let trimmed: Vec<Vec<f64>> = series
            .iter()
            .map(|s| s.iter().copied().cycle().take(len).collect())
            .collect();
        let views: Vec<&[f64]> = trimmed.iter().map(Vec::as_slice).collect();
        if let Ok(matrix) = signal::pearson_matrix(&views) {
            for i in 0..views.len() {
                prop_assert_eq!(matrix[i][i], 1.0);
                for j in 0..views.len() {
                    let r = signal::reference::pearson(views[i], views[j]).unwrap();
                    prop_assert!(
                        (matrix[i][j] - r).abs() < 1e-9,
                        "entry ({i},{j}): {} vs {r}", matrix[i][j]
                    );
                }
            }
        }
    }

    /// The branch-free resampler is the reference resampler, sample
    /// for sample.
    #[test]
    fn branch_free_resample_matches_reference(
        series in proptest::collection::vec(-10.0f64..10.0, 2..60),
        target in 2usize..80,
    ) {
        let fused = signal::resample(&series, target);
        let reference = signal::reference::resample(&series, target);
        prop_assert_eq!(fused, reference);
    }

    /// Scattering samples into lanes and gathering them back is the
    /// identity, bit for bit, including through single-row views.
    #[test]
    fn power_block_round_trips_samples(
        samples in proptest::collection::vec(arb_sample(), 0..40),
    ) {
        let block = PowerBlock::from_samples(&samples);
        prop_assert_eq!(block.len(), samples.len());
        prop_assert_eq!(&block.to_samples(), &samples);
        for (row, sample) in block.iter().zip(&samples) {
            prop_assert_eq!(&row.to_sample(), sample);
        }
    }

    /// A block assembled from arbitrary chunk splits equals the block
    /// built in one shot — chunked hand-off loses or reorders nothing.
    #[test]
    fn power_block_append_is_chunking_invariant(
        samples in proptest::collection::vec(arb_sample(), 1..60),
        cuts in proptest::collection::vec(1usize..8, 1..12),
    ) {
        let whole = PowerBlock::from_samples(&samples);
        let mut chunked = PowerBlock::new();
        let mut start = 0;
        for &width in &cuts {
            if start >= whole.len() {
                break;
            }
            let end = (start + width).min(whole.len());
            chunked.append_range(&whole, start, end);
            start = end;
        }
        if start < whole.len() {
            chunked.append_range(&whole, start, whole.len());
        }
        prop_assert_eq!(chunked, whole);
    }

    /// Streaming Welford over arbitrary chunk splits is bit-identical
    /// to the batch kernel over the whole series — the push loop IS
    /// the batch loop, so no partition may change a single bit.
    #[test]
    fn streaming_moments_are_chunking_invariant(
        series in proptest::collection::vec(-1e3f64..1e3, 0..120),
        cuts in proptest::collection::vec(1usize..9, 1..12),
    ) {
        let batch = signal::moments(&series);
        let mut acc = signal::StreamingMoments::new();
        let mut start = 0;
        for &width in &cuts {
            if start >= series.len() {
                break;
            }
            let end = (start + width).min(series.len());
            acc.extend(&series[start..end]);
            start = end;
        }
        if start < series.len() {
            acc.extend(&series[start..]);
        }
        let streamed = acc.finish();
        prop_assert_eq!(streamed.n, batch.n);
        prop_assert_eq!(streamed.mean.to_bits(), batch.mean.to_bits());
        prop_assert_eq!(streamed.m2.to_bits(), batch.m2.to_bits());
    }

    /// Merging per-chunk Welford states (Chan's formula) agrees with
    /// one sequential pass to fine tolerance, wherever the split falls
    /// — including empty sides, which must be exact.
    #[test]
    fn streaming_moments_merge_matches_sequential(
        series in proptest::collection::vec(-1e3f64..1e3, 0..120),
        split in 0usize..120,
    ) {
        let split = split.min(series.len());
        let mut left = signal::StreamingMoments::new();
        left.extend(&series[..split]);
        let mut right = signal::StreamingMoments::new();
        right.extend(&series[split..]);
        let merged = left.merge(&right).finish();
        let sequential = signal::moments(&series);
        prop_assert_eq!(merged.n, sequential.n);
        if split == 0 || split == series.len() {
            // One side empty: merge must be the identity, bit for bit.
            prop_assert_eq!(merged.mean.to_bits(), sequential.mean.to_bits());
            prop_assert_eq!(merged.m2.to_bits(), sequential.m2.to_bits());
        } else {
            let scale = sequential.m2.abs().max(1.0);
            prop_assert!((merged.mean - sequential.mean).abs() <= 1e-9 * sequential.mean.abs().max(1.0));
            prop_assert!((merged.m2 - sequential.m2).abs() <= 1e-6 * scale);
        }
    }

    /// Merge is associative within tolerance: (a ⊕ b) ⊕ c ≈ a ⊕ (b ⊕ c).
    #[test]
    fn streaming_moments_merge_is_associative(
        a in proptest::collection::vec(-1e3f64..1e3, 0..40),
        b in proptest::collection::vec(-1e3f64..1e3, 0..40),
        c in proptest::collection::vec(-1e3f64..1e3, 0..40),
    ) {
        let acc = |xs: &[f64]| {
            let mut m = signal::StreamingMoments::new();
            m.extend(xs);
            m
        };
        let left = acc(&a).merge(&acc(&b)).merge(&acc(&c)).finish();
        let right = acc(&a).merge(&acc(&b).merge(&acc(&c))).finish();
        prop_assert_eq!(left.n, right.n);
        prop_assert!((left.mean - right.mean).abs() <= 1e-9 * left.mean.abs().max(1.0));
        prop_assert!((left.m2 - right.m2).abs() <= 1e-6 * left.m2.abs().max(1.0));
    }

    /// Streaming peak detection over arbitrary chunk splits is
    /// bit-identical to the batch kernel over the whole series.
    #[test]
    fn streaming_peaks_are_chunking_invariant(
        series in proptest::collection::vec(-10f64..10.0, 0..120),
        cuts in proptest::collection::vec(1usize..9, 1..12),
        prominence in 0.0f64..2.0,
    ) {
        let batch = signal::peak_stats(&series, prominence);
        let mut acc = signal::StreamingPeaks::new(prominence);
        let mut start = 0;
        for &width in &cuts {
            if start >= series.len() {
                break;
            }
            let end = (start + width).min(series.len());
            acc.extend(&series[start..end]);
            start = end;
        }
        if start < series.len() {
            acc.extend(&series[start..]);
        }
        let streamed = acc.finish();
        prop_assert_eq!(streamed.extrema, batch.extrema);
        prop_assert_eq!(streamed.peak_to_peak.to_bits(), batch.peak_to_peak.to_bits());
        prop_assert_eq!(streamed.mean_abs.to_bits(), batch.mean_abs.to_bits());
        prop_assert_eq!(streamed.rms.to_bits(), batch.rms.to_bits());
    }
}

/// Values that make slot sharing interesting: both zeros, two NaN
/// payloads, and a few ordinary values that repeat often.
fn arb_lane_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::from_bits(0x7ff8_0000_0000_0001)),
        Just(f64::from_bits(0xfff8_0000_0000_00ff)),
        Just(48.0),
        Just(-9.81),
        -5.0f64..5.0,
    ]
}

/// A block built with random repeated-lane declarations and random
/// values in its other lanes, with its all-owned `from_lanes` twin
/// built from the same values independently.
fn arb_shared_block() -> impl Strategy<Value = (PowerBlock, PowerBlock)> {
    (
        0usize..5,
        proptest::collection::vec((0..PowerSample::FIELD_COUNT, arb_lane_value()), 0..140),
        proptest::collection::vec(arb_lane_value(), PowerSample::FIELD_COUNT * 4),
    )
        .prop_map(|(ticks, repeated, values)| {
            let mut lanes: Vec<Vec<f64>> = (0..PowerSample::FIELD_COUNT)
                .map(|l| values[l * 4..][..ticks].to_vec())
                .collect();
            for &(l, v) in &repeated {
                lanes[l] = vec![v; ticks];
            }
            let mut block = PowerBlock::with_repeated_lanes(ticks, repeated.iter().copied());
            let declared: Vec<usize> = repeated.iter().map(|&(l, _)| l).collect();
            for l in (0..PowerSample::FIELD_COUNT).filter(|l| !declared.contains(l)) {
                block.lane_mut(l).copy_from_slice(&lanes[l]);
            }
            (block, PowerBlock::from_lanes(lanes).unwrap())
        })
}

/// Every lane's bits: compares blocks holding NaNs, and tells `0.0`
/// from `-0.0`.
fn lane_bits(block: &PowerBlock) -> Vec<Vec<u64>> {
    (0..PowerSample::FIELD_COUNT)
        .map(|l| block.lane(l).iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn row_bits(samples: &[PowerSample]) -> Vec<Vec<u64>> {
    samples
        .iter()
        .map(|s| s.to_row().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// One mutating call, applied alike to a shared block and its twin.
#[derive(Debug, Clone)]
enum Mutation {
    PushSample(Box<PowerSample>),
    PushRow(usize),
    Append,
    AppendRange(usize, usize),
    Clear,
    WriteLane(usize, usize, f64),
    Extend,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        arb_sample().prop_map(|s| Mutation::PushSample(Box::new(s))),
        (0usize..4).prop_map(Mutation::PushRow),
        Just(Mutation::Append),
        (0usize..4, 0usize..4).prop_map(|(a, b)| Mutation::AppendRange(a.min(b), a.max(b))),
        Just(Mutation::Clear),
        (0..PowerSample::FIELD_COUNT, 0usize..8, arb_lane_value())
            .prop_map(|(l, i, v)| Mutation::WriteLane(l, i, v)),
        Just(Mutation::Extend),
    ]
}

impl Mutation {
    fn apply(&self, block: &mut PowerBlock, other: &PowerBlock) {
        match *self {
            Mutation::PushSample(ref s) => block.push_sample(s),
            Mutation::PushRow(i) if i < other.len() => block.push_row(&other.row(i)),
            Mutation::PushRow(_) => {}
            Mutation::Append => block.append(other),
            Mutation::AppendRange(a, b) if b <= other.len() => block.append_range(other, a, b),
            Mutation::AppendRange(..) => {}
            Mutation::Clear => block.clear(),
            Mutation::WriteLane(l, i, v) => {
                if let Some(slot) = block.lane_mut(l).get_mut(i) {
                    *slot = v;
                }
            }
            Mutation::Extend => {
                let mut profile = CurrentProfile::from_block(std::mem::take(block));
                profile.extend(&CurrentProfile::from_block(other.clone()));
                *block = profile.into_block();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A block whose repeated lanes share slots reads exactly like its
    /// all-owned twin: same lane bits, same rows, same `==` outcome,
    /// and a clone that reads the same and holds no more bytes.
    #[test]
    fn shared_layout_reads_like_its_owned_twin(pair in arb_shared_block()) {
        let (block, twin) = pair;
        prop_assert_eq!(lane_bits(&block), lane_bits(&twin));
        prop_assert_eq!(row_bits(&block.to_samples()), row_bits(&twin.to_samples()));
        for (a, b) in block.iter().zip(twin.iter()) {
            prop_assert_eq!(row_bits(&[a.to_sample()]), row_bits(&[b.to_sample()]));
            prop_assert_eq!(a.is_quiescent(), b.is_quiescent());
        }
        // `==` is `f64 ==` lane by lane: NaN makes both comparisons
        // false, and nothing else tells the layouts apart.
        prop_assert_eq!(block == twin, twin == twin);
        prop_assert_eq!(twin == block, twin == twin);
        let copy = block.clone();
        prop_assert_eq!(lane_bits(&copy), lane_bits(&block));
        prop_assert_eq!(copy.approx_bytes(), block.approx_bytes());
        prop_assert!(block.approx_bytes() <= twin.approx_bytes());
    }

    /// After any sequence of mutating calls, a shared block and its
    /// twin still hold the same bits (writing a lane that owns its slot
    /// leaves the others shared, so the shared block may stay smaller).
    #[test]
    fn shared_layout_survives_every_mutation(
        pair in arb_shared_block(),
        others in arb_shared_block(),
        mutations in proptest::collection::vec(arb_mutation(), 1..6),
    ) {
        let ((mut shared, mut twin), (other, other_twin)) = (pair, others);
        for m in &mutations {
            m.apply(&mut shared, &other);
            m.apply(&mut twin, &other_twin);
            prop_assert_eq!(lane_bits(&shared), lane_bits(&twin), "after {:?}", m);
            prop_assert_eq!(shared.len(), twin.len());
            prop_assert!(shared.approx_bytes() <= twin.approx_bytes(), "after {:?}", m);
        }
    }
}
