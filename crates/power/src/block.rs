//! Columnar (struct-of-arrays) storage for power telemetry.
//!
//! [`PowerBlock`] is the power-plane counterpart of `rad_core`'s
//! `TraceBatch`: each of the 122 physical properties of a
//! [`PowerSample`] is one contiguous `f64` lane, tick-major. A
//! correlation over a joint-current series then reads one dense lane
//! instead of gathering a field out of 976-byte rows.
//!
//! A block keeps all its lanes in one lane-major slab, and a slot map
//! sends each lane to its place in the slab. Lanes declared to repeat
//! one value ([`PowerBlock::with_repeated_lanes`]) share a slot with the
//! other lanes repeating the same bits. Synthesis declares the 67 lanes
//! a motion holds constant and writes only the 55 that vary, so a
//! motion block stores at most 64 series instead of 122, in one
//! allocation. Readers never see the sharing, and every method that
//! appends, clears or writes a shared lane gives each lane its own slot
//! first.
//!
//! Lane order is pinned to [`PowerSample::to_row`] (declaration order),
//! so `block.lane(l)[i] == samples[i].to_row()[l]` — the CSV column
//! layout and the lane layout are the same thing. [`PowerRow`] gives a
//! zero-copy row view; [`PowerBlock::materialize`] and
//! [`PowerBlock::from_samples`] round-trip to the row representation.

use crate::sample::PowerSample;
use crate::JOINTS;

/// Base indices of each property group in the lane layout.
///
/// The layout is exactly [`PowerSample::to_row`] order: index `0` is
/// the timestamp, followed by twelve six-joint vectors, five
/// six-element TCP vectors, three three-element vectors, and ten
/// robot-level scalars. Vector groups expose their *base* index; lane
/// `base + j` holds component `j`.
pub mod lane {
    /// Seconds since the start of the recording.
    pub const TIMESTAMP: usize = 0;
    /// Target joint positions (rad), 6 lanes.
    pub const Q_TARGET: usize = 1;
    /// Actual joint positions (rad), 6 lanes.
    pub const Q_ACTUAL: usize = 7;
    /// Target joint velocities (rad/s), 6 lanes.
    pub const QD_TARGET: usize = 13;
    /// Actual joint velocities (rad/s), 6 lanes.
    pub const QD_ACTUAL: usize = 19;
    /// Target joint accelerations (rad/s²), 6 lanes.
    pub const QDD_TARGET: usize = 25;
    /// Actual joint accelerations (rad/s²), 6 lanes.
    pub const QDD_ACTUAL: usize = 31;
    /// Target joint currents (A), 6 lanes.
    pub const CURRENT_TARGET: usize = 37;
    /// Actual joint currents (A), 6 lanes — the §VI analysis signal.
    pub const CURRENT_ACTUAL: usize = 43;
    /// Joint moments (N·m), 6 lanes.
    pub const MOMENT_ACTUAL: usize = 49;
    /// Joint temperatures (°C), 6 lanes.
    pub const JOINT_TEMPERATURE: usize = 55;
    /// Joint bus voltages (V), 6 lanes.
    pub const JOINT_VOLTAGE: usize = 61;
    /// Joint control modes (vendor enum), 6 lanes.
    pub const JOINT_MODE: usize = 67;
    /// Target TCP pose, 6 lanes.
    pub const TCP_POSE_TARGET: usize = 73;
    /// Actual TCP pose, 6 lanes.
    pub const TCP_POSE_ACTUAL: usize = 79;
    /// Target TCP speed, 6 lanes.
    pub const TCP_SPEED_TARGET: usize = 85;
    /// Actual TCP speed, 6 lanes.
    pub const TCP_SPEED_ACTUAL: usize = 91;
    /// Generalized TCP force, 6 lanes.
    pub const TCP_FORCE: usize = 97;
    /// Tool accelerometer (m/s²), 3 lanes.
    pub const TOOL_ACCELEROMETER: usize = 103;
    /// Elbow position (m), 3 lanes.
    pub const ELBOW_POSITION: usize = 106;
    /// Elbow velocity (m/s), 3 lanes.
    pub const ELBOW_VELOCITY: usize = 109;
    /// Main robot supply voltage (V).
    pub const ROBOT_VOLTAGE: usize = 112;
    /// Total robot supply current (A).
    pub const ROBOT_CURRENT: usize = 113;
    /// Configured payload mass (kg).
    pub const PAYLOAD_MASS: usize = 114;
    /// Speed-scaling slider (0–1).
    pub const SPEED_SCALING: usize = 115;
    /// Digital input bits.
    pub const DIGITAL_INPUTS: usize = 116;
    /// Digital output bits.
    pub const DIGITAL_OUTPUTS: usize = 117;
    /// Safety status (vendor enum).
    pub const SAFETY_STATUS: usize = 118;
    /// Runtime state (vendor enum).
    pub const RUNTIME_STATE: usize = 119;
    /// Robot mode (vendor enum).
    pub const ROBOT_MODE: usize = 120;
    /// Tool output voltage (V).
    pub const TOOL_OUTPUT_VOLTAGE: usize = 121;

    /// Named scalar lanes and vector-group bases, for declarative
    /// configuration: `("robot_current", ROBOT_CURRENT)`, snake-case
    /// names matching the constants above.
    pub const NAMES: &[(&str, usize)] = &[
        ("timestamp", TIMESTAMP),
        ("q_target", Q_TARGET),
        ("q_actual", Q_ACTUAL),
        ("qd_target", QD_TARGET),
        ("qd_actual", QD_ACTUAL),
        ("qdd_target", QDD_TARGET),
        ("qdd_actual", QDD_ACTUAL),
        ("current_target", CURRENT_TARGET),
        ("current_actual", CURRENT_ACTUAL),
        ("moment_actual", MOMENT_ACTUAL),
        ("joint_temperature", JOINT_TEMPERATURE),
        ("joint_voltage", JOINT_VOLTAGE),
        ("joint_mode", JOINT_MODE),
        ("tcp_pose_target", TCP_POSE_TARGET),
        ("tcp_pose_actual", TCP_POSE_ACTUAL),
        ("tcp_speed_target", TCP_SPEED_TARGET),
        ("tcp_speed_actual", TCP_SPEED_ACTUAL),
        ("tcp_force", TCP_FORCE),
        ("tool_accelerometer", TOOL_ACCELEROMETER),
        ("elbow_position", ELBOW_POSITION),
        ("elbow_velocity", ELBOW_VELOCITY),
        ("robot_voltage", ROBOT_VOLTAGE),
        ("robot_current", ROBOT_CURRENT),
        ("payload_mass", PAYLOAD_MASS),
        ("speed_scaling", SPEED_SCALING),
        ("digital_inputs", DIGITAL_INPUTS),
        ("digital_outputs", DIGITAL_OUTPUTS),
        ("safety_status", SAFETY_STATUS),
        ("runtime_state", RUNTIME_STATE),
        ("robot_mode", ROBOT_MODE),
        ("tool_output_voltage", TOOL_OUTPUT_VOLTAGE),
    ];

    /// Resolves a snake-case lane name to its index (vector groups
    /// resolve to their base lane). `None` for unknown names.
    pub fn by_name(name: &str) -> Option<usize> {
        NAMES.iter().find(|(n, _)| *n == name).map(|&(_, idx)| idx)
    }
}

/// Number of lanes in a block, one per [`PowerSample`] property.
const LANES: usize = PowerSample::FIELD_COUNT;

// The slot map stores slots as `u8` and the sharing set as a `u128`.
const _: () = assert!(LANES <= 128);

/// The slot map of a block in which every lane owns its slot.
const OWNED: [u8; LANES] = {
    let mut slots = [0; LANES];
    let mut l = 0;
    while l < LANES {
        slots[l] = l as u8;
        l += 1;
    }
    slots
};

/// A columnar block of power-telemetry ticks.
///
/// The ticks live in one lane-major slab. A slot map sends each lane to
/// a slot of the slab: lane `l` is `slab[slot[l] * stride..][..len]`,
/// where `stride` is the ticks of room per slot. Lanes that
/// [`PowerBlock::with_repeated_lanes`] declares to repeat the same
/// value (compared by bits, so `0.0` and `-0.0` differ) share one slot;
/// every other lane has a slot of its own. Every method that appends,
/// clears or writes a shared lane first gives each lane its own slot,
/// so the layout never shows: [`PowerBlock::lane`] returns the same
/// `&[f64]` either way, `==` compares lane values with `f64 ==`, and
/// `clone` keeps the sharing.
///
/// # Examples
///
/// ```
/// use rad_power::{block::lane, PowerBlock, PowerSample};
///
/// let s = PowerSample::quiescent(0.25, [0.1; 6]);
/// let block = PowerBlock::from_samples(std::slice::from_ref(&s));
/// assert_eq!(block.len(), 1);
/// assert_eq!(block.lane(lane::TIMESTAMP), &[0.25]);
/// assert_eq!(block.materialize(0), s);
///
/// // Two lanes repeating 48 V share one slot; the block still reads
/// // like any other.
/// let mut volts = PowerBlock::with_repeated_lanes(
///     3,
///     [(lane::ROBOT_VOLTAGE, 48.0), (lane::JOINT_VOLTAGE, 48.0)],
/// );
/// volts.lane_mut(lane::TIMESTAMP).copy_from_slice(&[0.0, 0.04, 0.08]);
/// assert_eq!(volts.lane(lane::JOINT_VOLTAGE), &[48.0; 3]);
/// assert_eq!(volts.lane(lane::TIMESTAMP), &[0.0, 0.04, 0.08]);
/// ```
#[derive(Debug, Clone)]
pub struct PowerBlock {
    /// Lane-major storage, `stride` ticks of room per slot.
    slab: Vec<f64>,
    /// The slot of each lane. Slots are numbered in order of first use,
    /// so a block without shared slots maps lane `l` to slot `l`.
    slots: [u8; LANES],
    /// Bit `l` is set when lane `l` shares its slot with another lane.
    shared: u128,
    /// Ticks of room per slot.
    stride: usize,
    /// Ticks stored.
    len: usize,
}

impl Default for PowerBlock {
    fn default() -> Self {
        PowerBlock::new()
    }
}

/// Blocks are equal when they hold the same ticks: lanes compare value
/// by value with `f64 ==`, whatever slots they occupy.
impl PartialEq for PowerBlock {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && (0..LANES).all(|l| self.lane(l) == other.lane(l))
    }
}

impl PowerBlock {
    /// An empty block.
    pub fn new() -> Self {
        PowerBlock::with_capacity(0)
    }

    /// An empty block with room for `ticks` ticks in every lane.
    pub fn with_capacity(ticks: usize) -> Self {
        PowerBlock {
            slab: vec![0.0; LANES * ticks],
            slots: OWNED,
            shared: 0,
            stride: ticks,
            len: 0,
        }
    }

    /// A block of `ticks` ticks in which each `(lane, value)` of
    /// `repeated` holds `value` at every tick. The other lanes hold
    /// `0.0` until written through [`PowerBlock::lane_mut`].
    ///
    /// Repeated lanes whose values have the same bits share one slot,
    /// so the block stores each distinct series once, in one
    /// allocation. A lane declared twice keeps its last value.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is `>= PowerSample::FIELD_COUNT`.
    pub fn with_repeated_lanes(
        ticks: usize,
        repeated: impl IntoIterator<Item = (usize, f64)>,
    ) -> Self {
        let mut declared = [None; LANES];
        for (l, v) in repeated {
            declared[l] = Some(v);
        }
        // A varying lane takes a new slot; a repeated lane takes the
        // slot of the first lane repeating the same bits, or a new one.
        let mut slots = [0u8; LANES];
        let mut fills = [(0usize, 0.0f64); LANES];
        let (mut distinct, mut count) = (0, 0);
        for (slot, declared) in slots.iter_mut().zip(declared) {
            let same = declared.and_then(|v| {
                fills[..distinct]
                    .iter()
                    .find(|fill| fill.1.to_bits() == v.to_bits())
            });
            *slot = match same {
                Some(&(s, _)) => s,
                None => {
                    if let Some(v) = declared {
                        fills[distinct] = (count, v);
                        distinct += 1;
                    }
                    count += 1;
                    count - 1
                }
            } as u8;
        }
        let mut slab = vec![0.0; count * ticks];
        for &(s, v) in &fills[..distinct] {
            slab[s * ticks..][..ticks].fill(v);
        }
        let mut users = [0u8; LANES];
        for &s in &slots {
            users[usize::from(s)] += 1;
        }
        let shared = (0..LANES)
            .filter(|&l| users[usize::from(slots[l])] > 1)
            .fold(0, |set, l| set | 1 << l);
        PowerBlock {
            slab,
            slots,
            shared,
            stride: ticks,
            len: ticks,
        }
    }

    /// Number of ticks stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no ticks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all ticks, keeping lane capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.reserve_owned(0);
    }

    /// One property lane as a contiguous slice (zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if `index >= PowerSample::FIELD_COUNT`.
    pub fn lane(&self, index: usize) -> &[f64] {
        let start = usize::from(self.slots[index]) * self.stride;
        &self.slab[start..start + self.len]
    }

    /// The actual-current lane of one joint — the series analysed in
    /// §VI (Fig. 7a–7d).
    ///
    /// # Panics
    ///
    /// Panics if `joint >= 6`.
    pub fn current_lane(&self, joint: usize) -> &[f64] {
        assert!(joint < JOINTS, "joint index {joint} out of range");
        self.lane(lane::CURRENT_ACTUAL + joint)
    }

    /// One property lane, writable in place. A lane that shares its
    /// slot first gives every lane its own slot; a lane that owns its
    /// slot is written where it is, so filling the varying lanes of a
    /// [`PowerBlock::with_repeated_lanes`] block keeps its sharing.
    ///
    /// # Panics
    ///
    /// Panics if `index >= PowerSample::FIELD_COUNT`.
    pub fn lane_mut(&mut self, index: usize) -> &mut [f64] {
        assert!(index < LANES, "lane index {index} out of range");
        if self.shared >> index & 1 == 1 {
            self.reserve_owned(0);
        }
        let start = usize::from(self.slots[index]) * self.stride;
        &mut self.slab[start..start + self.len]
    }

    /// Every lane that owns its slot, writable at once: entry `l` is
    /// lane `l`'s ticks, or `None` when lane `l` shares its slot.
    /// Synthesis takes its varying lanes from here once per block and
    /// writes them tick-major.
    pub(crate) fn owned_lanes_mut(&mut self) -> [Option<&mut [f64]>; LANES] {
        let mut by_slot: [Option<&mut [f64]>; LANES] = std::array::from_fn(|_| None);
        if self.stride > 0 {
            for (slot, ticks) in by_slot
                .iter_mut()
                .zip(self.slab.chunks_exact_mut(self.stride))
            {
                *slot = Some(&mut ticks[..self.len]);
            }
        }
        std::array::from_fn(|l| match self.shared >> l & 1 {
            1 => None,
            _ if self.stride == 0 => Some(&mut [][..]),
            _ => by_slot[usize::from(self.slots[l])].take(),
        })
    }

    /// Gives every lane its own slot with room for `additional` more
    /// ticks. The slab is re-laid only when a slot is shared or full,
    /// and a full one at least doubles, so pushes stay amortized O(1).
    fn reserve_owned(&mut self, additional: usize) {
        let needed = self.len + additional;
        if self.shared == 0 && needed <= self.stride {
            return;
        }
        let stride = if needed <= self.stride {
            self.stride
        } else {
            needed.max(2 * self.stride)
        };
        let mut slab = vec![0.0; LANES * stride];
        for l in 0..LANES {
            slab[l * stride..][..self.len].copy_from_slice(self.lane(l));
        }
        *self = PowerBlock {
            slab,
            slots: OWNED,
            shared: 0,
            stride,
            len: self.len,
        };
    }

    /// Rebuilds a block from raw lanes — the decode half of a columnar
    /// serializer. Lane order matches [`PowerSample::to_row`] (the
    /// [`lane`] constants). Every lane gets its own slot.
    ///
    /// # Errors
    ///
    /// Returns [`rad_core::RadError::Store`] unless exactly
    /// [`PowerSample::FIELD_COUNT`] lanes of equal length are given.
    pub fn from_lanes(lanes: Vec<Vec<f64>>) -> Result<Self, rad_core::RadError> {
        if lanes.len() != LANES {
            return Err(rad_core::RadError::Store(format!(
                "power block needs {LANES} lanes, got {}",
                lanes.len()
            )));
        }
        let ticks = lanes[0].len();
        if let Some((i, l)) = lanes.iter().enumerate().find(|(_, l)| l.len() != ticks) {
            return Err(rad_core::RadError::Store(format!(
                "power lane {i} has {} ticks, expected {ticks}",
                l.len()
            )));
        }
        Ok(PowerBlock {
            slab: lanes.concat(),
            slots: OWNED,
            shared: 0,
            stride: ticks,
            len: ticks,
        })
    }

    /// Appends one row-form sample, scattering its fields into the
    /// lanes.
    pub fn push_sample(&mut self, s: &PowerSample) {
        self.reserve_owned(1);
        let tick = self.len;
        let mut lanes = self.slab.chunks_exact_mut(self.stride);
        let mut push = |v: f64| lanes.next().expect("lane count")[tick] = v;
        push(s.timestamp);
        for arr in [
            &s.q_target,
            &s.q_actual,
            &s.qd_target,
            &s.qd_actual,
            &s.qdd_target,
            &s.qdd_actual,
            &s.current_target,
            &s.current_actual,
            &s.moment_actual,
            &s.joint_temperature,
            &s.joint_voltage,
            &s.joint_mode,
        ] {
            for &v in arr {
                push(v);
            }
        }
        for arr in [
            &s.tcp_pose_target,
            &s.tcp_pose_actual,
            &s.tcp_speed_target,
            &s.tcp_speed_actual,
            &s.tcp_force,
        ] {
            for &v in arr {
                push(v);
            }
        }
        for arr in [&s.tool_accelerometer, &s.elbow_position, &s.elbow_velocity] {
            for &v in arr {
                push(v);
            }
        }
        for v in [
            s.robot_voltage,
            s.robot_current,
            s.payload_mass,
            s.speed_scaling,
            s.digital_inputs,
            s.digital_outputs,
            s.safety_status,
            s.runtime_state,
            s.robot_mode,
            s.tool_output_voltage,
        ] {
            push(v);
        }
        self.len += 1;
    }

    /// Appends one tick referenced by a [`PowerRow`] view.
    pub fn push_row(&mut self, row: &PowerRow<'_>) {
        self.reserve_owned(1);
        for l in 0..LANES {
            self.slab[l * self.stride + self.len] = row.value(l);
        }
        self.len += 1;
    }

    /// Appends all ticks of `other` (lane-wise `memcpy`).
    pub fn append(&mut self, other: &PowerBlock) {
        self.append_range(other, 0, other.len());
    }

    /// Appends the tick range `start..end` of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `start..end` is out of bounds.
    pub fn append_range(&mut self, other: &PowerBlock, start: usize, end: usize) {
        let added = other.lane(0)[start..end].len();
        self.reserve_owned(added);
        for l in 0..LANES {
            self.slab[l * self.stride + self.len..][..added]
                .copy_from_slice(&other.lane(l)[start..end]);
        }
        self.len += added;
    }

    /// Gathers tick `index` back into the row representation.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn materialize(&self, index: usize) -> PowerSample {
        assert!(index < self.len(), "tick index {index} out of range");
        let mut it = (0..LANES).map(|l| self.lane(l)[index]);
        let mut next = || it.next().expect("lane count");
        let vec6 = |next: &mut dyn FnMut() -> f64| {
            let mut out = [0.0; 6];
            for v in &mut out {
                *v = next();
            }
            out
        };
        let vec3 = |next: &mut dyn FnMut() -> f64| {
            let mut out = [0.0; 3];
            for v in &mut out {
                *v = next();
            }
            out
        };
        PowerSample {
            timestamp: next(),
            q_target: vec6(&mut next),
            q_actual: vec6(&mut next),
            qd_target: vec6(&mut next),
            qd_actual: vec6(&mut next),
            qdd_target: vec6(&mut next),
            qdd_actual: vec6(&mut next),
            current_target: vec6(&mut next),
            current_actual: vec6(&mut next),
            moment_actual: vec6(&mut next),
            joint_temperature: vec6(&mut next),
            joint_voltage: vec6(&mut next),
            joint_mode: vec6(&mut next),
            tcp_pose_target: vec6(&mut next),
            tcp_pose_actual: vec6(&mut next),
            tcp_speed_target: vec6(&mut next),
            tcp_speed_actual: vec6(&mut next),
            tcp_force: vec6(&mut next),
            tool_accelerometer: vec3(&mut next),
            elbow_position: vec3(&mut next),
            elbow_velocity: vec3(&mut next),
            robot_voltage: next(),
            robot_current: next(),
            payload_mass: next(),
            speed_scaling: next(),
            digital_inputs: next(),
            digital_outputs: next(),
            safety_status: next(),
            runtime_state: next(),
            robot_mode: next(),
            tool_output_voltage: next(),
        }
    }

    /// Builds a block from row-form samples.
    pub fn from_samples(samples: &[PowerSample]) -> Self {
        let mut block = PowerBlock::with_capacity(samples.len());
        for s in samples {
            block.push_sample(s);
        }
        block
    }

    /// Materializes every tick back into row form.
    pub fn to_samples(&self) -> Vec<PowerSample> {
        (0..self.len()).map(|i| self.materialize(i)).collect()
    }

    /// Zero-copy view of tick `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn row(&self, index: usize) -> PowerRow<'_> {
        assert!(index < self.len(), "tick index {index} out of range");
        PowerRow { block: self, index }
    }

    /// Iterates over all ticks as zero-copy views.
    pub fn iter(&self) -> impl Iterator<Item = PowerRow<'_>> {
        (0..self.len()).map(move |index| PowerRow { block: self, index })
    }

    /// Bytes of telemetry the block holds: one lane of ticks per slot,
    /// so lanes that share a slot count once.
    pub fn approx_bytes(&self) -> usize {
        self.slot_count() * self.len() * std::mem::size_of::<f64>()
    }

    /// Number of distinct slots (slots are numbered in order of first
    /// use, so the highest plus one).
    fn slot_count(&self) -> usize {
        self.slots.iter().max().map_or(0, |&s| usize::from(s) + 1)
    }
}

/// Zero-copy view of one tick of a [`PowerBlock`].
#[derive(Debug, Clone, Copy)]
pub struct PowerRow<'a> {
    block: &'a PowerBlock,
    index: usize,
}

impl<'a> PowerRow<'a> {
    /// One scalar property of this tick, by lane index.
    pub fn value(&self, lane: usize) -> f64 {
        self.block.lane(lane)[self.index]
    }

    /// Seconds since the start of the recording.
    pub fn timestamp(&self) -> f64 {
        self.value(lane::TIMESTAMP)
    }

    /// Actual current of one joint (A).
    ///
    /// # Panics
    ///
    /// Panics if `joint >= 6`.
    pub fn current_actual(&self, joint: usize) -> f64 {
        assert!(joint < JOINTS, "joint index {joint} out of range");
        self.value(lane::CURRENT_ACTUAL + joint)
    }

    /// Actual velocity of one joint (rad/s).
    ///
    /// # Panics
    ///
    /// Panics if `joint >= 6`.
    pub fn qd_actual(&self, joint: usize) -> f64 {
        assert!(joint < JOINTS, "joint index {joint} out of range");
        self.value(lane::QD_ACTUAL + joint)
    }

    /// Quiescence predicate, identical to
    /// [`PowerSample::is_quiescent`] but reading lanes in place.
    pub fn is_quiescent(&self) -> bool {
        (0..JOINTS).all(|j| self.qd_actual(j).abs() < 1e-3)
            && (0..JOINTS).all(|j| self.current_actual(j).abs() < 0.5)
    }

    /// Gathers this tick into an owned [`PowerSample`].
    pub fn to_sample(&self) -> PowerSample {
        self.block.materialize(self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varied_sample(i: usize) -> PowerSample {
        let mut s = PowerSample::quiescent(i as f64 * 0.040, [0.1 * i as f64; JOINTS]);
        for j in 0..JOINTS {
            s.qd_actual[j] = 0.01 * (i + j) as f64;
            s.current_actual[j] = -1.5 + 0.25 * (i * JOINTS + j) as f64;
            s.moment_actual[j] = (i as f64).sin() + j as f64;
        }
        s.payload_mass = 0.5;
        s.tcp_force[3] = 7.25;
        s
    }

    #[test]
    fn lane_layout_matches_to_row() {
        let s = varied_sample(3);
        let block = PowerBlock::from_samples(std::slice::from_ref(&s));
        let row = s.to_row();
        assert_eq!(row.len(), PowerSample::FIELD_COUNT);
        for (l, &v) in row.iter().enumerate() {
            assert_eq!(block.lane(l)[0], v, "lane {l} disagrees with to_row");
        }
        // Spot-check the published base constants against named fields.
        assert_eq!(block.lane(lane::TIMESTAMP)[0], s.timestamp);
        assert_eq!(block.lane(lane::CURRENT_ACTUAL + 2)[0], s.current_actual[2]);
        assert_eq!(block.lane(lane::MOMENT_ACTUAL + 5)[0], s.moment_actual[5]);
        assert_eq!(block.lane(lane::TCP_FORCE + 3)[0], s.tcp_force[3]);
        assert_eq!(block.lane(lane::PAYLOAD_MASS)[0], s.payload_mass);
        assert_eq!(
            block.lane(lane::TOOL_OUTPUT_VOLTAGE)[0],
            s.tool_output_voltage
        );
    }

    #[test]
    fn round_trip_preserves_samples() {
        let samples: Vec<PowerSample> = (0..17).map(varied_sample).collect();
        let block = PowerBlock::from_samples(&samples);
        assert_eq!(block.len(), samples.len());
        assert_eq!(block.to_samples(), samples);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(&block.materialize(i), s);
            assert_eq!(&block.row(i).to_sample(), s);
        }
    }

    #[test]
    fn row_view_agrees_with_sample_quiescence() {
        let quiet = PowerSample::quiescent(0.0, [0.2; JOINTS]);
        let busy = varied_sample(4);
        let block = PowerBlock::from_samples(&[quiet.clone(), busy.clone()]);
        assert_eq!(block.row(0).is_quiescent(), quiet.is_quiescent());
        assert_eq!(block.row(1).is_quiescent(), busy.is_quiescent());
        assert!(block.row(0).is_quiescent());
        assert!(!block.row(1).is_quiescent());
    }

    #[test]
    fn append_and_range_concatenate() {
        let a: Vec<PowerSample> = (0..5).map(varied_sample).collect();
        let b: Vec<PowerSample> = (5..9).map(varied_sample).collect();
        let mut block = PowerBlock::from_samples(&a);
        let tail = PowerBlock::from_samples(&b);
        block.append(&tail);
        let mut expected = a.clone();
        expected.extend(b.iter().cloned());
        assert_eq!(block.to_samples(), expected);

        let mut mid = PowerBlock::new();
        mid.append_range(&block, 2, 6);
        assert_eq!(mid.to_samples(), expected[2..6].to_vec());
    }

    #[test]
    fn push_row_copies_single_ticks() {
        let samples: Vec<PowerSample> = (0..6).map(varied_sample).collect();
        let block = PowerBlock::from_samples(&samples);
        let mut picked = PowerBlock::new();
        for row in block.iter().filter(|r| !r.is_quiescent()) {
            picked.push_row(&row);
        }
        let expected: Vec<PowerSample> = samples
            .iter()
            .filter(|s| !s.is_quiescent())
            .cloned()
            .collect();
        assert_eq!(picked.to_samples(), expected);
    }

    fn motion_block() -> PowerBlock {
        let seg = crate::TrajectorySegment::joint_move(
            crate::Ur3e::named_pose(0),
            crate::Ur3e::named_pose(1),
            0.8,
        );
        crate::Ur3e::new()
            .current_profile(&[seg], 0.25, 3)
            .into_block()
    }

    fn owned_twin(block: &PowerBlock) -> PowerBlock {
        PowerBlock::from_lanes((0..LANES).map(|l| block.lane(l).to_vec()).collect()).unwrap()
    }

    #[test]
    fn synthesized_motion_block_is_one_slab_of_at_most_64_slots() {
        let block = motion_block();
        assert!(block.len() > 10);
        assert!(block.slot_count() <= 64, "{} slots", block.slot_count());
        // All telemetry sits in one allocation sized to its slots.
        assert_eq!(block.slab.len(), block.slot_count() * block.len());
        assert_eq!(block.slab.capacity(), block.slab.len());
        // The varying lanes own the first 55 slots; equal constants,
        // such as the joint and robot supply voltages, share one.
        assert_eq!(&block.slots[..55], &OWNED[..55]);
        assert_eq!(
            block.slots[lane::JOINT_VOLTAGE],
            block.slots[lane::ROBOT_VOLTAGE]
        );
        assert_eq!(block, owned_twin(&block));
    }

    #[test]
    fn synthesized_motion_block_reports_the_bytes_it_holds() {
        let block = motion_block();
        let twin = owned_twin(&block);
        assert_eq!(twin.approx_bytes(), LANES * block.len() * 8);
        assert_eq!(block.approx_bytes(), block.slot_count() * block.len() * 8);
        assert!(block.approx_bytes() * LANES <= twin.approx_bytes() * 64);
    }

    #[test]
    fn bit_distinct_values_never_share_a_slot() {
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        let block = PowerBlock::with_repeated_lanes(
            3,
            [
                (1, 0.0),
                (2, -0.0),
                (3, 0.0),
                (4, nan_a),
                (5, nan_b),
                (6, nan_a),
                (7, -0.0),
            ],
        );
        let slot = |l: usize| block.slots[l];
        assert_eq!(slot(1), slot(3));
        assert_eq!(slot(2), slot(7));
        assert_eq!(slot(4), slot(6));
        assert_ne!(slot(1), slot(2));
        assert_ne!(slot(4), slot(5));
        assert_eq!(block.slot_count(), LANES - 3);
        for (l, bits) in [(2, (-0.0f64).to_bits()), (5, nan_b.to_bits())] {
            assert!(block.lane(l).iter().all(|v| v.to_bits() == bits));
        }
        // Lanes that own their slot are not marked shared.
        assert_eq!(
            block.shared,
            (1 << 1) | (1 << 3) | (1 << 2) | (1 << 7) | (1 << 4) | (1 << 6)
        );
    }

    #[test]
    fn writing_a_shared_lane_unshares_and_an_owned_lane_writes_in_place() {
        let mut block = PowerBlock::with_repeated_lanes(4, [(10, 2.0), (11, 2.0), (12, 3.0)]);
        let slab = block.slab.as_ptr();
        block.lane_mut(12)[1] = 9.0;
        block.lane_mut(0).copy_from_slice(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(block.slab.as_ptr(), slab, "owned lanes write in place");
        assert_eq!(block.lane(12), &[3.0, 9.0, 3.0, 3.0]);
        block.lane_mut(10)[0] = 5.0;
        assert_eq!(block.slots, OWNED);
        assert_eq!(block.lane(10), &[5.0, 2.0, 2.0, 2.0]);
        assert_eq!(block.lane(11), &[2.0; 4]);
        assert_eq!(block.lane(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn mutators_unshare_before_writing() {
        let shared = motion_block();
        let twin = owned_twin(&shared);
        let extra = PowerBlock::from_samples(&[varied_sample(1), varied_sample(2)]);
        type Mutator = fn(&mut PowerBlock, &PowerBlock);
        let cases: [(&str, Mutator); 5] = [
            ("push_sample", |b, _| b.push_sample(&varied_sample(7))),
            ("push_row", |b, x| b.push_row(&x.row(1))),
            ("append", |b, x| b.append(x)),
            ("append_range", |b, x| b.append_range(x, 1, 2)),
            ("clear", |b, _| b.clear()),
        ];
        for (name, mutate) in cases {
            let (mut a, mut b) = (shared.clone(), twin.clone());
            mutate(&mut a, &extra);
            mutate(&mut b, &extra);
            assert_eq!(a.slots, OWNED, "{name} leaves every lane its own slot");
            assert_eq!(a, b, "{name}");
            assert_eq!(a.to_samples(), b.to_samples(), "{name}");
        }
    }

    #[test]
    fn capacity_and_bytes_track_ticks() {
        let samples: Vec<PowerSample> = (0..8).map(varied_sample).collect();
        let mut block = PowerBlock::with_capacity(8);
        for s in &samples {
            block.push_sample(s);
        }
        assert_eq!(block.len(), 8);
        assert_eq!(block.approx_bytes(), 8 * PowerSample::FIELD_COUNT * 8);
        block.clear();
        assert!(block.is_empty());
        assert_eq!(block.approx_bytes(), 0);
    }
}
