//! A small CSV codec and the RAD export formats.
//!
//! RATracer's fallback sink is a `.csv` file; RAD itself is published
//! as CSV tables. This module implements RFC-4180-style quoting and
//! the two export schemas: trace objects (command dataset) and power
//! samples (power dataset).

use std::fmt::{self, Write as _};
use std::io::Write;

use rad_core::{
    Alert, Command, CommandType, DeviceId, DeviceKind, Label, ProcedureKind, RadError, RunId,
    SimDuration, SimInstant, TraceBatch, TraceGap, TraceId, TraceMode, TraceObject, TraceRow,
    Value,
};
use rad_power::{PowerBlock, PowerSample};

/// The streaming encoders build rows in a byte buffer and hand it to
/// the writer once it holds this many bytes, so a file of any size
/// costs one buffer of memory.
const FLUSH_BYTES: usize = 64 * 1024;

/// Encodes one CSV field, quoting when needed.
fn encode_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Appends `value`'s `Display` text to `out` as one field, quoted
/// exactly as [`encode_field`] quotes it; `scratch` holds the text.
fn push_field(out: &mut Vec<u8>, scratch: &mut String, value: &dyn fmt::Display) {
    scratch.clear();
    write!(scratch, "{value}").expect("formatting into a String cannot fail");
    if !scratch.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        out.extend_from_slice(scratch.as_bytes());
        return;
    }
    out.push(b'"');
    for (i, part) in scratch.split('"').enumerate() {
        if i > 0 {
            out.extend_from_slice(b"\"\"");
        }
        out.extend_from_slice(part.as_bytes());
    }
    out.push(b'"');
}

/// Appends one data row of the command-dataset export, newline
/// included: the bytes [`traces_to_csv`] writes for the same trace.
fn push_trace_row(out: &mut Vec<u8>, scratch: &mut String, t: &TraceRow<'_>) {
    let args = serde_json::to_string(t.args()).expect("values serialize");
    let ret = serde_json::to_string(t.return_value()).expect("values serialize");
    let fields: [&dyn fmt::Display; 10] = [
        &t.id().0,
        &t.timestamp().as_micros(),
        &t.device().kind(),
        &t.command_type().mnemonic(),
        &args,
        &t.mode(),
        &ret,
        &t.exception().unwrap_or_default(),
        &t.response_time().as_micros(),
        &t.procedure().paper_id(),
    ];
    for field in fields {
        push_field(out, scratch, field);
        out.push(b',');
    }
    if let Some(run) = t.run_id() {
        push_field(out, scratch, &run.0);
    }
    out.push(b'\n');
}

/// Encodes one row.
pub fn encode_row<S: AsRef<str>>(fields: &[S]) -> String {
    fields
        .iter()
        .map(|f| encode_field(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Splits one CSV line into fields, honouring quotes.
///
/// # Errors
///
/// Returns [`RadError::Store`] on unterminated quotes.
pub fn decode_row(line: &str) -> Result<Vec<String>, RadError> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        current.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => current.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut current)),
                other => current.push(other),
            }
        }
    }
    if in_quotes {
        return Err(RadError::Store(format!(
            "unterminated quote in csv line: {line}"
        )));
    }
    fields.push(current);
    Ok(fields)
}

/// Column headers of the command-dataset export.
pub const TRACE_HEADERS: [&str; 11] = [
    "trace_id",
    "timestamp_us",
    "device",
    "command",
    "args",
    "mode",
    "return_value",
    "exception",
    "response_time_us",
    "procedure",
    "run_id",
];

/// Serializes trace objects to a CSV document (with header row).
pub fn traces_to_csv(traces: &[TraceObject]) -> String {
    let mut out = String::new();
    out.push_str(&encode_row(&TRACE_HEADERS));
    out.push('\n');
    for t in traces {
        let args = serde_json::to_string(t.command().args()).expect("values serialize");
        let ret = serde_json::to_string(t.return_value()).expect("values serialize");
        let row = [
            t.id().0.to_string(),
            t.timestamp().as_micros().to_string(),
            t.device().kind().to_string(),
            t.command_type().mnemonic().to_owned(),
            args,
            t.mode().to_string(),
            ret,
            t.exception().unwrap_or_default().to_owned(),
            t.response_time().as_micros().to_string(),
            t.procedure().paper_id().to_owned(),
            t.run_id().map(|r| r.0.to_string()).unwrap_or_default(),
        ];
        out.push_str(&encode_row(&row));
        out.push('\n');
    }
    out
}

/// Streams the header row of the command-dataset export into `out`.
/// Pair with [`write_traces_csv_rows`] to export batch-by-batch with
/// bounded memory.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_traces_csv_header<W: Write + ?Sized>(out: &mut W) -> std::io::Result<()> {
    out.write_all(encode_row(&TRACE_HEADERS).as_bytes())?;
    out.write_all(b"\n")
}

/// Streams one batch's data rows (no header) into `out`. Byte-for-byte
/// identical to the corresponding slice of [`traces_to_csv`], but reads
/// the columns directly — no `TraceObject` materialization — and
/// writes each field straight into a byte buffer that is flushed to
/// `out` every 64 KiB.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_traces_csv_rows<W: Write + ?Sized>(
    out: &mut W,
    batch: &TraceBatch,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(FLUSH_BYTES);
    let mut scratch = String::new();
    for t in batch.iter() {
        push_trace_row(&mut buf, &mut scratch, &t);
        if buf.len() >= FLUSH_BYTES {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)
}

/// Streams a whole batch as a CSV document (header + rows) into `out`.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_traces_csv<W: Write + ?Sized>(out: &mut W, batch: &TraceBatch) -> std::io::Result<()> {
    write_traces_csv_header(out)?;
    write_traces_csv_rows(out, batch)
}

/// Parses a command-dataset CSV document produced by [`traces_to_csv`].
///
/// Labels are not stored per-row in the export (they live in the run
/// metadata table), so parsed traces carry [`Label::Unknown`] unless a
/// run id maps them back.
///
/// # Errors
///
/// Returns [`RadError::Store`] on malformed rows and propagates parse
/// failures of devices, commands, and numbers.
pub fn traces_from_csv(text: &str) -> Result<Vec<TraceObject>, RadError> {
    let (traces, issues) = traces_from_csv_report(text)?;
    match issues.into_iter().next() {
        None => Ok(traces),
        Some((line, reason)) => Err(RadError::Store(format!("row {line}: {reason}"))),
    }
}

/// Damaged CSV rows skipped by a lenient parse: `(1-based line number,
/// reason)` pairs.
pub type RowIssues = Vec<(usize, String)>;

/// Lenient variant of [`traces_from_csv`]: damaged rows are skipped and
/// reported as [`RowIssues`] instead of failing the whole document. A
/// missing or wrong header is still fatal — that is a different file,
/// not a damaged one.
///
/// # Errors
///
/// Returns [`RadError::Store`] only when the header row is absent or
/// wrong.
pub fn traces_from_csv_report(text: &str) -> Result<(Vec<TraceObject>, RowIssues), RadError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| RadError::Store("empty csv".into()))?;
    let header_fields = decode_row(header)?;
    if header_fields != TRACE_HEADERS {
        return Err(RadError::Store(format!("unexpected csv header: {header}")));
    }
    let mut traces = Vec::new();
    let mut issues = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_trace_row(line) {
            Ok(trace) => traces.push(trace),
            Err(e) => issues.push((lineno + 2, e.to_string())),
        }
    }
    Ok((traces, issues))
}

/// Parses one data row of a trace CSV.
fn parse_trace_row(line: &str) -> Result<TraceObject, RadError> {
    let fields = decode_row(line)?;
    if fields.len() != TRACE_HEADERS.len() {
        return Err(RadError::Store(format!(
            "row has {} fields, expected {}",
            fields.len(),
            TRACE_HEADERS.len()
        )));
    }
    let parse_u64 = |s: &str, what: &str| -> Result<u64, RadError> {
        s.parse()
            .map_err(|_| RadError::Store(format!("bad {what}: {s}")))
    };
    let device: DeviceKind = fields[2].parse()?;
    let command_type: CommandType = fields[3].parse()?;
    let args: Vec<Value> = serde_json::from_str(&fields[4])
        .map_err(|e| RadError::Store(format!("bad args json: {e}")))?;
    let ret: Value = serde_json::from_str(&fields[6])
        .map_err(|e| RadError::Store(format!("bad return json: {e}")))?;
    let mode = parse_mode(&fields[5])?;
    let procedure: ProcedureKind = fields[9].parse()?;
    let mut builder = TraceObject::builder(
        TraceId(parse_u64(&fields[0], "trace id")?),
        SimInstant::from_micros(parse_u64(&fields[1], "timestamp")?),
        DeviceId::primary(device),
        Command::new(command_type, args),
    )
    .mode(mode)
    .return_value(ret)
    .response_time(SimDuration::from_micros(parse_u64(
        &fields[8],
        "response time",
    )?));
    if !fields[7].is_empty() {
        builder = builder.exception(fields[7].clone());
    }
    if !fields[10].is_empty() {
        let run_id = RunId(
            fields[10]
                .parse()
                .map_err(|_| RadError::Store(format!("bad run id: {}", fields[10])))?,
        );
        builder = builder.run(procedure, run_id, Label::Unknown);
    }
    Ok(builder.build())
}

/// Column headers of the trace-gap export.
pub const GAP_HEADERS: [&str; 6] = [
    "timestamp_us",
    "device",
    "command",
    "intended_mode",
    "reason",
    "run_id",
];

fn parse_mode(s: &str) -> Result<TraceMode, RadError> {
    match s {
        "DIRECT" => Ok(TraceMode::Direct),
        "REMOTE" => Ok(TraceMode::Remote),
        "CLOUD" => Ok(TraceMode::Cloud),
        other => Err(RadError::Store(format!("bad mode: {other}"))),
    }
}

/// Serializes trace gaps to a CSV document (with header row).
pub fn gaps_to_csv(gaps: &[TraceGap]) -> String {
    let mut out = String::new();
    out.push_str(&encode_row(&GAP_HEADERS));
    out.push('\n');
    for g in gaps {
        let row = [
            g.timestamp.as_micros().to_string(),
            g.device.kind().to_string(),
            g.command.mnemonic().to_owned(),
            g.intended_mode.to_string(),
            g.reason.to_string(),
            g.run_id.map(|r| r.0.to_string()).unwrap_or_default(),
        ];
        out.push_str(&encode_row(&row));
        out.push('\n');
    }
    out
}

/// Parses a trace-gap CSV document produced by [`gaps_to_csv`].
///
/// # Errors
///
/// Returns [`RadError::Store`] on malformed rows and propagates parse
/// failures of devices, commands, and numbers.
pub fn gaps_from_csv(text: &str) -> Result<Vec<TraceGap>, RadError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| RadError::Store("empty csv".into()))?;
    if decode_row(header)? != GAP_HEADERS {
        return Err(RadError::Store(format!("unexpected csv header: {header}")));
    }
    let mut gaps = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields = decode_row(line)?;
        if fields.len() != GAP_HEADERS.len() {
            return Err(RadError::Store(format!(
                "row {} has {} fields, expected {}",
                lineno + 2,
                fields.len(),
                GAP_HEADERS.len()
            )));
        }
        let timestamp = fields[0]
            .parse()
            .map_err(|_| RadError::Store(format!("bad timestamp: {}", fields[0])))?;
        let device: DeviceKind = fields[1].parse()?;
        let command: CommandType = fields[2].parse()?;
        let mut gap = TraceGap::new(
            SimInstant::from_micros(timestamp),
            DeviceId::primary(device),
            command,
            parse_mode(&fields[3])?,
            fields[4].clone(),
        );
        if !fields[5].is_empty() {
            let run_id = fields[5]
                .parse()
                .map_err(|_| RadError::Store(format!("bad run id: {}", fields[5])))?;
            gap = gap.with_run(RunId(run_id));
        }
        gaps.push(gap);
    }
    Ok(gaps)
}

/// Column headers of the detection-alert export.
pub const ALERT_HEADERS: [&str; 7] = [
    "detector",
    "device",
    "run_id",
    "window_start_us",
    "window_end_us",
    "score",
    "threshold",
];

/// Serializes detection alerts to a CSV document (with header row).
///
/// Scores and thresholds use `f64`'s `Display`, which prints the
/// shortest digit string that parses back to the same bits — the
/// round-trip through [`alerts_from_csv`] is exact.
pub fn alerts_to_csv(alerts: &[Alert]) -> String {
    let mut out = String::new();
    out.push_str(&encode_row(&ALERT_HEADERS));
    out.push('\n');
    for a in alerts {
        let row = [
            a.detector.to_string(),
            a.device.to_string(),
            a.run_id.map(|r| r.0.to_string()).unwrap_or_default(),
            a.window_start.as_micros().to_string(),
            a.window_end.as_micros().to_string(),
            a.score.to_string(),
            a.threshold.to_string(),
        ];
        out.push_str(&encode_row(&row));
        out.push('\n');
    }
    out
}

/// Parses a detection-alert CSV document produced by [`alerts_to_csv`].
///
/// # Errors
///
/// Returns [`RadError::Store`] on a wrong header or malformed rows.
pub fn alerts_from_csv(text: &str) -> Result<Vec<Alert>, RadError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| RadError::Store("empty csv".into()))?;
    if decode_row(header)? != ALERT_HEADERS {
        return Err(RadError::Store(format!("unexpected csv header: {header}")));
    }
    let mut alerts = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields = decode_row(line)?;
        if fields.len() != ALERT_HEADERS.len() {
            return Err(RadError::Store(format!(
                "row {} has {} fields, expected {}",
                lineno + 2,
                fields.len(),
                ALERT_HEADERS.len()
            )));
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, RadError> {
            s.parse()
                .map_err(|_| RadError::Store(format!("bad {what}: {s}")))
        };
        let parse_f64 = |s: &str, what: &str| -> Result<f64, RadError> {
            s.parse()
                .map_err(|_| RadError::Store(format!("bad {what}: {s}")))
        };
        let device: DeviceKind = fields[1].parse()?;
        let run_id = if fields[2].is_empty() {
            None
        } else {
            Some(RunId(fields[2].parse().map_err(|_| {
                RadError::Store(format!("bad run id: {}", fields[2]))
            })?))
        };
        alerts.push(Alert {
            detector: fields[0].clone().into(),
            device,
            run_id,
            window_start: SimInstant::from_micros(parse_u64(&fields[3], "window start")?),
            window_end: SimInstant::from_micros(parse_u64(&fields[4], "window end")?),
            score: parse_f64(&fields[5], "score")?,
            threshold: parse_f64(&fields[6], "threshold")?,
        });
    }
    Ok(alerts)
}

/// Serializes power samples to a 122-column CSV document.
///
/// The row-oriented reference encoder (one `to_row` vector plus one
/// formatted string per field) that the tests compare
/// [`write_power_csv`] against; exports stream through
/// [`write_power_csv`], which is byte-identical.
pub fn power_to_csv(samples: &[PowerSample]) -> String {
    let mut out = String::new();
    out.push_str(&PowerSample::column_names().join(","));
    out.push('\n');
    for s in samples {
        let row: Vec<String> = s.to_row().iter().map(|v| format!("{v}")).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Streams a columnar power block to 122-column CSV. Rows are encoded
/// into one byte buffer that is flushed to `out` every 64 KiB — no
/// per-sample materialization and no per-field strings, so a
/// multi-gigabyte recording exports in bounded memory.
///
/// Each lane keeps its previous tick's bits and text: a value whose
/// bits repeat (constant and slowly-changing RTDE lanes) copies those
/// bytes instead of formatting again. The cache starts from row 0's
/// values, never from a sentinel, since every bit pattern is some
/// `f64`.
///
/// Byte-for-byte identical to [`power_to_csv`] over the same ticks
/// (both use `f64`'s `Display` and bare-comma joins; power column
/// names never need quoting).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_power_csv<W: Write + ?Sized>(out: &mut W, block: &PowerBlock) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(FLUSH_BYTES);
    buf.extend_from_slice(PowerSample::column_names().join(",").as_bytes());
    buf.push(b'\n');
    let lanes: Vec<&[f64]> = (0..PowerSample::FIELD_COUNT)
        .map(|l| block.lane(l))
        .collect();
    let mut cache: Vec<(u64, String)> = lanes
        .iter()
        .filter_map(|lane| lane.first())
        .map(|v| (v.to_bits(), v.to_string()))
        .collect();
    for i in 0..block.len() {
        for (l, (lane, (bits, text))) in lanes.iter().zip(&mut cache).enumerate() {
            if l > 0 {
                buf.push(b',');
            }
            let value = lane[i];
            if value.to_bits() != *bits {
                *bits = value.to_bits();
                text.clear();
                write!(text, "{value}").expect("formatting into a String cannot fail");
            }
            buf.extend_from_slice(text.as_bytes());
        }
        buf.push(b'\n');
        if buf.len() >= FLUSH_BYTES {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::SimInstant;

    fn sample_trace(id: u64, ct: CommandType) -> TraceObject {
        TraceObject::builder(
            TraceId(id),
            SimInstant::from_micros(1_000 * id),
            DeviceId::primary(ct.device()),
            Command::new(ct, vec![Value::Int(3), Value::Str("a,b \"q\"".into())]),
        )
        .mode(TraceMode::Remote)
        .return_value(Value::Bool(true))
        .response_time(SimDuration::from_millis(6))
        .run(ProcedureKind::JoystickMovements, RunId(2), Label::Benign)
        .build()
    }

    #[test]
    fn field_quoting_round_trips() {
        let nasty = ["plain", "with,comma", "with\"quote", "with\nnewline", ""];
        let row = encode_row(&nasty);
        let back = decode_row(&row).unwrap();
        assert_eq!(back, nasty);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(decode_row("\"oops").is_err());
    }

    #[test]
    fn traces_round_trip_through_csv() {
        let traces = vec![
            sample_trace(0, CommandType::Arm),
            sample_trace(1, CommandType::TecanGetStatus),
        ];
        let csv = traces_to_csv(&traces);
        let back = traces_from_csv(&csv).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in traces.iter().zip(&back) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.timestamp(), b.timestamp());
            assert_eq!(a.command(), b.command());
            assert_eq!(a.mode(), b.mode());
            assert_eq!(a.return_value(), b.return_value());
            assert_eq!(a.response_time(), b.response_time());
            assert_eq!(a.procedure(), b.procedure());
            assert_eq!(a.run_id(), b.run_id());
        }
    }

    #[test]
    fn streaming_writer_matches_string_serializer() {
        let traces = vec![
            sample_trace(0, CommandType::Arm),
            sample_trace(1, CommandType::TecanGetStatus),
        ];
        let batch = TraceBatch::from_traces(&traces);
        let mut streamed = Vec::new();
        write_traces_csv(&mut streamed, &batch).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), traces_to_csv(&traces));
    }

    #[test]
    fn exceptions_survive_round_trip() {
        let t = TraceObject::builder(
            TraceId(9),
            SimInstant::EPOCH,
            DeviceId::primary(DeviceKind::Quantos),
            Command::nullary(CommandType::StartDosing),
        )
        .exception("collision with ur3e arm")
        .build();
        let back = traces_from_csv(&traces_to_csv(&[t])).unwrap();
        assert_eq!(back[0].exception(), Some("collision with ur3e arm"));
    }

    #[test]
    fn header_mismatch_is_rejected() {
        assert!(traces_from_csv("a,b,c\n1,2,3\n").is_err());
        assert!(traces_from_csv("").is_err());
    }

    #[test]
    fn truncated_row_is_rejected() {
        let csv = traces_to_csv(&[sample_trace(0, CommandType::Arm)]);
        let mut lines: Vec<&str> = csv.lines().collect();
        let short = lines[1].rsplit_once(',').unwrap().0.to_owned();
        lines[1] = &short;
        assert!(traces_from_csv(&lines.join("\n")).is_err());
    }

    #[test]
    fn gaps_round_trip_through_csv() {
        let gaps = vec![
            TraceGap::new(
                SimInstant::from_micros(5_000),
                DeviceId::primary(DeviceKind::C9),
                CommandType::Arm,
                TraceMode::Remote,
                "middlebox unavailable",
            )
            .with_run(RunId(4)),
            TraceGap::new(
                SimInstant::from_micros(6_000),
                DeviceId::primary(DeviceKind::Ika),
                CommandType::InitIka,
                TraceMode::Cloud,
                "rpc retries exhausted, reason \"deadline\"",
            ),
        ];
        let csv = gaps_to_csv(&gaps);
        let back = gaps_from_csv(&csv).unwrap();
        assert_eq!(back, gaps);
    }

    #[test]
    fn gap_header_mismatch_is_rejected() {
        assert!(gaps_from_csv("a,b\n").is_err());
        assert!(gaps_from_csv("").is_err());
    }

    #[test]
    fn alerts_round_trip_through_csv_exactly() {
        let alerts = vec![
            Alert {
                detector: "perplexity".into(),
                device: DeviceKind::C9,
                run_id: Some(RunId(17)),
                window_start: SimInstant::from_micros(1_000),
                window_end: SimInstant::from_micros(9_500),
                score: 123.456789012345e3,
                threshold: 0.1 + 0.2, // not representable exactly: Display round-trips the bits
            },
            Alert {
                detector: "power.rms".into(),
                device: DeviceKind::Ur3e,
                run_id: None,
                window_start: SimInstant::EPOCH,
                window_end: SimInstant::from_micros(42),
                score: f64::MIN_POSITIVE,
                threshold: 3.0,
            },
        ];
        let csv = alerts_to_csv(&alerts);
        let back = alerts_from_csv(&csv).unwrap();
        assert_eq!(back, alerts, "bit-exact round trip");
    }

    #[test]
    fn alert_header_mismatch_is_rejected() {
        assert!(alerts_from_csv("a,b\n").is_err());
        assert!(alerts_from_csv("").is_err());
    }

    #[test]
    fn power_csv_has_122_columns_per_row() {
        let s = PowerSample::quiescent(0.0, [0.0; 6]);
        let csv = power_to_csv(&[s]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(header.split(',').count(), PowerSample::FIELD_COUNT);
        assert_eq!(row.split(',').count(), PowerSample::FIELD_COUNT);
    }

    #[test]
    fn streaming_power_csv_matches_row_serializer() {
        let mut s = PowerSample::quiescent(0.25, [0.1, -0.2, 0.3, -0.4, 0.5, -0.6]);
        s.current_actual = [1.5, -2.25, 0.125, 3.0, -0.0625, 17.375];
        s.qd_actual = [0.01, -0.02, 0.03, 0.0, -0.04, 0.05];
        let samples = vec![PowerSample::quiescent(0.0, [0.0; 6]), s];
        let block = rad_power::PowerBlock::from_samples(&samples);

        let mut streamed = Vec::new();
        write_power_csv(&mut streamed, &block).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), power_to_csv(&samples));
    }
}
