//! The declarative scenario plane: whole campaigns as JSON documents.
//!
//! A scenario document names everything a campaign run needs — seed,
//! scale, fault/crash plans, streaming-detector stack, transport, and
//! replay window — so the scenario matrix grows by committing files,
//! not by writing Rust. [`ScenarioSpec`] is the parsed form;
//! [`run_scenario`] executes one headless and returns a
//! [`ScenarioReport`] (the per-scenario bench JSON the CI matrix
//! uploads). The `rad` binary is a thin shell around these two.
//!
//! Parsing is strict everywhere: unknown fields are rejected with
//! their dotted path, seeds must be non-negative integers, and
//! probabilities are range-checked — see [`rad_core::spec`]. A
//! spec-built campaign is *the same code path* as a hand-wired one
//! ([`CampaignBuilder::from_spec`] feeds the same `CampaignSpec` the
//! setters populate), which is what the golden parity suite pins.
//!
//! # Examples
//!
//! ```
//! use rad_workloads::scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::from_json_str(
//!     r#"{
//!         "name": "smoke",
//!         "seed": 7,
//!         "campaign": {"supervised_only": true}
//!     }"#,
//! )?;
//! assert_eq!(spec.name, "smoke");
//! assert!(!spec.fillers);
//! // Canonical serialization round-trips losslessly.
//! let again = ScenarioSpec::from_json_str(&spec.to_json_string())?;
//! assert_eq!(spec, again);
//! # Ok::<(), rad_core::RadError>(())
//! ```

use std::path::Path;
use std::time::Instant;

use rad_core::{spec, RadError};
use rad_middlebox::server::SocketTransport;
use rad_middlebox::{FaultSpec, WireCodecKind};
use rad_store::export::export_rad_alerted;
use rad_store::segment::{SegmentOptions, SegmentSet, SegmentWriter};
use rad_store::DurableSpec;
use serde_json::{Map, Value as Json};

use crate::campaign::{CampaignBuilder, CampaignSpec};
use crate::detect::{detect_campaign_spec, fit_detector, DetectSpec};
use crate::remote::{CampaignScript, DriveReport, TenantSpec};

/// How a scenario reaches its lab devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Simulate in this process — the default, and the only mode that
    /// yields a local dataset/export bundle.
    InProcess,
    /// Replay the campaign script against a live `radd` server over
    /// TCP.
    Tcp,
    /// Replay over a Unix-domain socket.
    Unix,
}

/// The `transport` section of a scenario document.
///
/// ```json
/// {"mode": "tcp", "addr": "127.0.0.1:7171", "tenants": [{"tenant": "alice"}]}
/// ```
///
/// Absent, the scenario runs in-process. Socket modes require at
/// least one [`TenantSpec`]; `addr` (a TCP address or a socket path)
/// may be omitted and supplied at run time instead (`rad run --tcp` /
/// `--unix`).
#[derive(Debug, Clone, PartialEq)]
pub struct TransportSpec {
    /// How the campaign reaches its devices.
    pub mode: TransportMode,
    /// TCP address or Unix socket path, when pinned by the document.
    pub addr: Option<String>,
    /// Tenants to drive over the wire (socket modes only).
    pub tenants: Vec<TenantSpec>,
    /// Data-plane codec for the issue hot path (`"json"` default,
    /// `"binary"` for the columnar frame encoding; socket modes only).
    pub codec: WireCodecKind,
    /// In-flight request window for the issue hot path (socket modes
    /// only; 1 — lock-step — when omitted).
    pub pipeline_depth: Option<usize>,
}

impl TransportSpec {
    const FIELDS: &'static [&'static str] = &["mode", "addr", "tenants", "codec", "pipeline_depth"];

    fn in_process() -> Self {
        TransportSpec {
            mode: TransportMode::InProcess,
            addr: None,
            tenants: Vec::new(),
            codec: WireCodecKind::Json,
            pipeline_depth: None,
        }
    }

    fn from_json(value: &Json, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let mode = match spec::opt_str(map, ctx, "mode")? {
            None | Some("in_process") => TransportMode::InProcess,
            Some("tcp") => TransportMode::Tcp,
            Some("unix") => TransportMode::Unix,
            Some(other) => {
                return Err(RadError::spec(
                    spec::path(ctx, "mode"),
                    format!("unknown mode `{other}` (accepted: in_process, tcp, unix)"),
                ))
            }
        };
        let addr = spec::opt_str(map, ctx, "addr")?.map(str::to_string);
        let tenants = match map.get("tenants") {
            None | Some(Json::Null) => Vec::new(),
            Some(v) => {
                let tctx = spec::path(ctx, "tenants");
                let list = v
                    .as_array()
                    .ok_or_else(|| RadError::spec(&tctx, format!("expected an array, got {v}")))?;
                list.iter()
                    .enumerate()
                    .map(|(i, t)| TenantSpec::from_json(t, &format!("{tctx}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let codec = match spec::opt_str(map, ctx, "codec")? {
            None => WireCodecKind::Json,
            Some(name) => WireCodecKind::from_name(name).ok_or_else(|| {
                RadError::spec(
                    spec::path(ctx, "codec"),
                    format!("unknown codec `{name}` (accepted: json, binary)"),
                )
            })?,
        };
        let pipeline_depth = match spec::opt_u64(map, ctx, "pipeline_depth")? {
            None => None,
            Some(0) => {
                return Err(RadError::spec(
                    spec::path(ctx, "pipeline_depth"),
                    "must be at least 1",
                ))
            }
            Some(n) => Some(usize::try_from(n).map_err(|_| {
                RadError::spec(spec::path(ctx, "pipeline_depth"), "exceeds usize range")
            })?),
        };
        match mode {
            TransportMode::InProcess => {
                if !tenants.is_empty() {
                    return Err(RadError::spec(
                        spec::path(ctx, "tenants"),
                        "tenants require a socket mode (tcp or unix)",
                    ));
                }
                if addr.is_some() {
                    return Err(RadError::spec(
                        spec::path(ctx, "addr"),
                        "addr requires a socket mode (tcp or unix)",
                    ));
                }
                if codec != WireCodecKind::Json {
                    return Err(RadError::spec(
                        spec::path(ctx, "codec"),
                        "codec requires a socket mode (tcp or unix)",
                    ));
                }
                if pipeline_depth.is_some() {
                    return Err(RadError::spec(
                        spec::path(ctx, "pipeline_depth"),
                        "pipeline_depth requires a socket mode (tcp or unix)",
                    ));
                }
            }
            TransportMode::Tcp | TransportMode::Unix => {
                if tenants.is_empty() {
                    return Err(RadError::spec(
                        spec::path(ctx, "tenants"),
                        "socket modes require at least one tenant",
                    ));
                }
            }
        }
        Ok(TransportSpec {
            mode,
            addr,
            tenants,
            codec,
            pipeline_depth,
        })
    }

    fn to_json(&self) -> Json {
        let mut map = Map::new();
        map.insert(
            "mode".into(),
            Json::from(match self.mode {
                TransportMode::InProcess => "in_process",
                TransportMode::Tcp => "tcp",
                TransportMode::Unix => "unix",
            }),
        );
        if let Some(addr) = &self.addr {
            map.insert("addr".into(), Json::from(addr.clone()));
        }
        if !self.tenants.is_empty() {
            map.insert(
                "tenants".into(),
                Json::Array(self.tenants.iter().map(TenantSpec::to_json).collect()),
            );
        }
        if self.codec != WireCodecKind::Json {
            map.insert("codec".into(), Json::from(self.codec.as_name()));
        }
        if let Some(depth) = self.pipeline_depth {
            map.insert("pipeline_depth".into(), Json::from(depth as u64));
        }
        Json::Object(map)
    }
}

/// The `replay` section: after the campaign, seal it into columnar
/// segments and scan back only the rows whose timestamp falls in the
/// window — [`SegmentSet::scan_time_range`] as a scenario step.
///
/// ```json
/// {"window": {"start_us": 0, "end_us": 60000000}}
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySpec {
    /// Window start, microseconds (inclusive).
    pub start_us: u64,
    /// Window end, microseconds (inclusive).
    pub end_us: u64,
}

impl ReplaySpec {
    fn from_json(value: &Json, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, &["window"])?;
        let wctx = spec::path(ctx, "window");
        let wmap = spec::obj(spec::req(map, ctx, "window")?, &wctx)?;
        spec::known_fields(wmap, &wctx, &["start_us", "end_us"])?;
        let start_us = spec::req_u64(wmap, &wctx, "start_us")?;
        let end_us = spec::req_u64(wmap, &wctx, "end_us")?;
        if start_us > end_us {
            return Err(RadError::spec(
                wctx,
                format!("start_us {start_us} exceeds end_us {end_us}"),
            ));
        }
        Ok(ReplaySpec { start_us, end_us })
    }

    fn to_json(self) -> Json {
        let mut wmap = Map::new();
        wmap.insert("start_us".into(), Json::from(self.start_us));
        wmap.insert("end_us".into(), Json::from(self.end_us));
        let mut map = Map::new();
        map.insert("window".into(), Json::Object(wmap));
        Json::Object(map)
    }
}

/// A parsed scenario document — everything one campaign run needs.
///
/// See the module docs for the schema; DESIGN.md §14 is the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (stamped on reports and bench JSON).
    pub name: String,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Unsupervised-filler scale factor.
    pub scale: f64,
    /// Whether the unsupervised filler runs.
    pub fillers: bool,
    /// Whether the P5/P6 power experiments run.
    pub power_experiments: bool,
    /// Seeded wire-fault schedule, if any.
    pub faults: Option<FaultSpec>,
    /// Durable persistence (and optional crash injection), if any.
    pub durable: Option<DurableSpec>,
    /// Streaming detection stack, if any.
    pub detect: Option<DetectSpec>,
    /// How the campaign reaches its devices.
    pub transport: TransportSpec,
    /// Post-campaign time-window replay, if any.
    pub replay: Option<ReplaySpec>,
}

impl ScenarioSpec {
    const FIELDS: &'static [&'static str] = &[
        "name",
        "seed",
        "campaign",
        "faults",
        "durable",
        "detect",
        "transport",
        "replay",
    ];
    const CAMPAIGN_FIELDS: &'static [&'static str] =
        &["supervised_only", "scale", "fillers", "power_experiments"];

    /// Parses a scenario document from its JSON text.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on malformed JSON or any schema violation —
    /// every error names the dotted path of the offending field.
    pub fn from_json_str(text: &str) -> Result<Self, RadError> {
        let value: Json = serde_json::from_str(text)
            .map_err(|e| RadError::spec("", format!("not valid JSON: {e:?}")))?;
        Self::from_json(&value)
    }

    /// Parses a scenario document from a JSON value.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on any schema violation.
    pub fn from_json(value: &Json) -> Result<Self, RadError> {
        let map = spec::obj(value, "")?;
        spec::known_fields(map, "", Self::FIELDS)?;
        let name = spec::req_str(map, "", "name")?;
        if name.is_empty() {
            return Err(RadError::spec("name", "must not be empty"));
        }
        let seed = spec::req_u64(map, "", "seed")?;

        let defaults = CampaignSpec::new(seed);
        let (mut scale, mut fillers, mut power_experiments) =
            (defaults.scale, defaults.fillers, defaults.power_experiments);
        if let Some(c) = map.get("campaign").filter(|v| !v.is_null()) {
            let cctx = "campaign";
            let cmap = spec::obj(c, cctx)?;
            spec::known_fields(cmap, cctx, Self::CAMPAIGN_FIELDS)?;
            let supervised_only = spec::opt_bool(cmap, cctx, "supervised_only")?.unwrap_or(false);
            if supervised_only {
                // The shorthand IS the fillers/power toggle; naming
                // both invites silent contradiction.
                for key in ["fillers", "power_experiments"] {
                    if cmap.get(key).is_some_and(|v| !v.is_null()) {
                        return Err(RadError::spec(
                            spec::path(cctx, key),
                            "conflicts with supervised_only",
                        ));
                    }
                }
                fillers = false;
                power_experiments = false;
            } else {
                fillers = spec::opt_bool(cmap, cctx, "fillers")?.unwrap_or(fillers);
                power_experiments =
                    spec::opt_bool(cmap, cctx, "power_experiments")?.unwrap_or(power_experiments);
            }
            if let Some(s) = spec::opt_f64(cmap, cctx, "scale")? {
                if !s.is_finite() || s <= 0.0 {
                    return Err(RadError::spec(
                        spec::path(cctx, "scale"),
                        format!("scale {s} must be finite and positive"),
                    ));
                }
                scale = s;
            }
        }

        let faults = match map.get("faults") {
            None | Some(Json::Null) => None,
            Some(v) => Some(FaultSpec::from_json(v, "faults", seed)?),
        };
        let durable = match map.get("durable") {
            None | Some(Json::Null) => None,
            Some(v) => Some(DurableSpec::from_json(v, "durable")?),
        };
        let detect = match map.get("detect") {
            None | Some(Json::Null) => None,
            Some(v) => Some(DetectSpec::from_json(v, "detect")?),
        };
        let transport = match map.get("transport") {
            None | Some(Json::Null) => TransportSpec::in_process(),
            Some(v) => TransportSpec::from_json(v, "transport")?,
        };
        let replay = match map.get("replay") {
            None | Some(Json::Null) => None,
            Some(v) => Some(ReplaySpec::from_json(v, "replay")?),
        };
        if transport.mode != TransportMode::InProcess {
            // A socket scenario's data lives on the server; these
            // sections would silently do nothing over there.
            for (key, present) in [
                ("durable", durable.is_some()),
                ("detect", detect.is_some()),
                ("replay", replay.is_some()),
            ] {
                if present {
                    return Err(RadError::spec(
                        key,
                        "only in_process scenarios run this section locally",
                    ));
                }
            }
        }
        Ok(ScenarioSpec {
            name: name.to_string(),
            seed,
            scale,
            fillers,
            power_experiments,
            faults,
            durable,
            detect,
            transport,
            replay,
        })
    }

    /// Serializes the spec to its canonical JSON value: the
    /// `supervised_only` shorthand is expanded, every campaign toggle
    /// is explicit, and optional sections appear only when set —
    /// `from_json(to_json(s)) == s` always.
    pub fn to_json(&self) -> Json {
        let mut campaign = Map::new();
        campaign.insert("scale".into(), Json::from(self.scale));
        campaign.insert("fillers".into(), Json::from(self.fillers));
        campaign.insert(
            "power_experiments".into(),
            Json::from(self.power_experiments),
        );
        let mut map = Map::new();
        map.insert("name".into(), Json::from(self.name.clone()));
        map.insert("seed".into(), Json::from(self.seed));
        map.insert("campaign".into(), Json::Object(campaign));
        if let Some(faults) = &self.faults {
            map.insert("faults".into(), faults.to_json());
        }
        if let Some(durable) = &self.durable {
            map.insert("durable".into(), durable.to_json());
        }
        if let Some(detect) = &self.detect {
            map.insert("detect".into(), detect.to_json());
        }
        if self.transport != TransportSpec::in_process() {
            map.insert("transport".into(), self.transport.to_json());
        }
        if let Some(replay) = &self.replay {
            map.insert("replay".into(), replay.to_json());
        }
        Json::Object(map)
    }

    /// [`ScenarioSpec::to_json`] pretty-printed.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).unwrap_or_default()
    }

    /// The campaign configuration this scenario describes — feed it to
    /// [`CampaignBuilder::from_spec`].
    pub fn to_campaign_spec(&self) -> CampaignSpec {
        CampaignSpec {
            seed: self.seed,
            scale: self.scale,
            fillers: self.fillers,
            power_experiments: self.power_experiments,
            fault_plan: self.faults.as_ref().map(FaultSpec::to_plan),
            crash_plan: None,
            durable_options: self.durable.as_ref().map(DurableSpec::to_options),
        }
    }

    /// Whether the scenario's durable section schedules a crash — the
    /// kill/resume scenarios the runner completes via
    /// [`CampaignBuilder::resume_from`].
    pub fn injects_crash(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.crash.is_some())
    }
}

/// What one tenant's remote drive reported, named.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// The tenant that drove.
    pub tenant: String,
    /// The drive's report.
    pub report: DriveReport,
}

/// Everything one scenario run produced — the per-scenario bench JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Campaign seed.
    pub seed: u64,
    /// Trace objects in the dataset (in-process scenarios).
    pub traces: u64,
    /// Trace gaps recorded.
    pub gaps: u64,
    /// Supervised runs journaled.
    pub supervised_runs: u64,
    /// Whether a scheduled crash fired and the build was resumed.
    pub resumed_after_crash: bool,
    /// Alerts raised by the detection stack.
    pub alerts: u64,
    /// Files written to the export bundle (0 = no export requested).
    pub exported_files: u64,
    /// Rows inside the replay window, when a `replay` section ran.
    pub window_rows: Option<u64>,
    /// Segments the windowed scan pruned without opening, when a
    /// `replay` section ran.
    pub window_pruned: Option<u64>,
    /// Per-tenant drive outcomes (socket scenarios).
    pub tenants: Vec<TenantOutcome>,
    /// Wall-clock milliseconds for the whole scenario.
    pub elapsed_ms: u64,
}

impl ScenarioReport {
    /// The report as the bench JSON object the CI matrix uploads.
    pub fn to_json(&self) -> Json {
        let mut map = Map::new();
        map.insert("name".into(), Json::from(self.name.clone()));
        map.insert("seed".into(), Json::from(self.seed));
        map.insert("traces".into(), Json::from(self.traces));
        map.insert("gaps".into(), Json::from(self.gaps));
        map.insert("supervised_runs".into(), Json::from(self.supervised_runs));
        map.insert(
            "resumed_after_crash".into(),
            Json::from(self.resumed_after_crash),
        );
        map.insert("alerts".into(), Json::from(self.alerts));
        map.insert("exported_files".into(), Json::from(self.exported_files));
        if let Some(rows) = self.window_rows {
            map.insert("window_rows".into(), Json::from(rows));
        }
        if let Some(pruned) = self.window_pruned {
            map.insert("window_pruned".into(), Json::from(pruned));
        }
        if !self.tenants.is_empty() {
            let tenants: Vec<Json> = self
                .tenants
                .iter()
                .map(|t| {
                    let mut tm = Map::new();
                    tm.insert("tenant".into(), Json::from(t.tenant.clone()));
                    tm.insert("executed".into(), Json::from(t.report.executed));
                    tm.insert("resumed_at".into(), Json::from(t.report.resumed_at));
                    tm.insert("gaps".into(), Json::from(t.report.gaps.len() as u64));
                    tm.insert("completed".into(), Json::from(t.report.completed));
                    Json::Object(tm)
                })
                .collect();
            map.insert("tenants".into(), Json::Array(tenants));
        }
        map.insert("elapsed_ms".into(), Json::from(self.elapsed_ms));
        Json::Object(map)
    }
}

/// Where a scenario run may write.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Export-bundle directory (in-process scenarios; `None` = no
    /// export). Durable/kill-resume scenarios persist their store
    /// under `<out>/store`, or a temp directory when no out dir is
    /// given.
    pub out_dir: Option<std::path::PathBuf>,
    /// Overrides the document's `transport.addr` (the `rad run --tcp`
    /// / `--unix` flags).
    pub addr_override: Option<String>,
}

/// Executes a scenario headless: build (or build-crash-resume) the
/// campaign, run the detection stack, write the export bundle, replay
/// the time window — or, for socket scenarios, drive every tenant's
/// script against the live server.
///
/// # Errors
///
/// Propagates build, detection, export, scan, and transport failures.
/// A socket scenario with neither a document `addr` nor an override
/// is a [`RadError::Spec`].
pub fn run_scenario(spec: &ScenarioSpec, options: &RunOptions) -> Result<ScenarioReport, RadError> {
    let started = Instant::now();
    let mut report = ScenarioReport {
        name: spec.name.clone(),
        seed: spec.seed,
        ..ScenarioReport::default()
    };
    match spec.transport.mode {
        TransportMode::InProcess => run_in_process(spec, options, &mut report)?,
        TransportMode::Tcp | TransportMode::Unix => run_remote(spec, options, &mut report)?,
    }
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

fn run_in_process(
    spec: &ScenarioSpec,
    options: &RunOptions,
    report: &mut ScenarioReport,
) -> Result<(), RadError> {
    let builder = CampaignBuilder::from_spec(spec.to_campaign_spec());
    let dataset = if spec.durable.is_some() {
        let tmp;
        let store_dir = match &options.out_dir {
            Some(out) => out.join("store"),
            None => {
                tmp = std::env::temp_dir().join(format!(
                    "rad-scenario-{}-{}",
                    spec.name,
                    std::process::id()
                ));
                tmp.clone()
            }
        };
        let _ = std::fs::remove_dir_all(&store_dir);
        if spec.injects_crash() {
            // The scheduled crash kills the persisting build; a fresh
            // process (builder sans crash plan) recovers and finishes.
            match builder.build_resumable(&store_dir) {
                Ok(dataset) => dataset, // schedule never fired
                Err(_crash) => {
                    report.resumed_after_crash = true;
                    builder.resume_from(&store_dir)?
                }
            }
        } else {
            builder.build_resumable(&store_dir)?
        }
    } else {
        builder.build()
    };

    report.traces = dataset.command().len() as u64;
    report.gaps = dataset.command().gaps().len() as u64;
    report.supervised_runs = dataset.supervised_runs().len() as u64;

    let alerts = match &spec.detect {
        Some(detect) => {
            let detector = fit_detector(&dataset, detect.perplexity.order)?;
            let outcome = detect_campaign_spec(&dataset, &detector, detect)?;
            outcome.alerts
        }
        None => Vec::new(),
    };
    report.alerts = alerts.len() as u64;

    if let Some(out) = &options.out_dir {
        let files = export_rad_alerted(dataset.command(), dataset.power(), &alerts, out, None)?;
        report.exported_files = files as u64;
    }

    if let Some(replay) = &spec.replay {
        let seg_dir = match &options.out_dir {
            Some(out) => out.join("segments"),
            None => std::env::temp_dir().join(format!(
                "rad-scenario-seg-{}-{}",
                spec.name,
                std::process::id()
            )),
        };
        let _ = std::fs::remove_dir_all(&seg_dir);
        let mut writer = SegmentWriter::create(&seg_dir, SegmentOptions::default())?;
        writer.seal_traces(dataset.command().batch())?;
        let set = SegmentSet::open(&seg_dir)?;
        let scan = set.scan_time_range(replay.start_us, replay.end_us)?;
        report.window_pruned = Some(scan.pruned() as u64);
        let mut scan = scan;
        let mut rows = 0u64;
        while let Some(batch) = rad_core::TraceSource::next_batch(&mut scan)? {
            rows += batch.len() as u64;
        }
        report.window_rows = Some(rows);
        if options.out_dir.is_none() {
            let _ = std::fs::remove_dir_all(&seg_dir);
        }
    }
    Ok(())
}

fn run_remote(
    spec: &ScenarioSpec,
    options: &RunOptions,
    report: &mut ScenarioReport,
) -> Result<(), RadError> {
    let addr = options
        .addr_override
        .clone()
        .or_else(|| spec.transport.addr.clone())
        .ok_or_else(|| {
            RadError::spec(
                "transport.addr",
                "socket scenario needs an address (in the document or via --tcp/--unix)",
            )
        })?;
    let script = CampaignScript::supervised(spec.seed);
    for tenant in &spec.transport.tenants {
        let transport = match spec.transport.mode {
            TransportMode::Tcp => SocketTransport::connect_tcp(&addr)?,
            TransportMode::Unix => SocketTransport::connect_unix(Path::new(&addr))?,
            TransportMode::InProcess => unreachable!("run_remote is socket-only"),
        };
        let mut campaign = tenant
            .to_campaign(script.clone())
            .with_codec(spec.transport.codec);
        if let Some(depth) = spec.transport.pipeline_depth {
            campaign = campaign.with_pipeline_depth(depth);
        }
        let drive = campaign.resume_from(transport)?;
        report.tenants.push(TenantOutcome {
            tenant: tenant.tenant.clone(),
            report: drive,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(text: &str) -> Result<ScenarioSpec, RadError> {
        ScenarioSpec::from_json_str(text)
    }

    #[test]
    fn minimal_document_takes_full_scale_defaults() {
        let spec = minimal(r#"{"name": "m", "seed": 3}"#).unwrap();
        assert_eq!(spec.seed, 3);
        assert!(spec.fillers && spec.power_experiments);
        assert_eq!(spec.scale, 1.0);
        assert_eq!(spec.transport.mode, TransportMode::InProcess);
    }

    #[test]
    fn unknown_top_level_field_is_rejected_with_its_path() {
        let err = minimal(r#"{"name": "m", "seed": 3, "sed": 1}"#).unwrap_err();
        assert!(
            matches!(err, RadError::Spec { ref field, .. } if field == "sed"),
            "{err}"
        );
    }

    #[test]
    fn supervised_only_conflicts_with_explicit_toggles() {
        let err = minimal(
            r#"{"name": "m", "seed": 3,
                "campaign": {"supervised_only": true, "fillers": true}}"#,
        )
        .unwrap_err();
        assert!(
            matches!(err, RadError::Spec { ref field, .. } if field == "campaign.fillers"),
            "{err}"
        );
    }

    #[test]
    fn socket_mode_requires_tenants_and_rejects_local_sections() {
        let err = minimal(r#"{"name": "m", "seed": 3, "transport": {"mode": "tcp"}}"#).unwrap_err();
        assert!(err.to_string().contains("at least one tenant"), "{err}");

        let err = minimal(
            r#"{"name": "m", "seed": 3,
                "detect": {"perplexity": {"order": 2}},
                "transport": {"mode": "tcp", "tenants": [{"tenant": "a"}]}}"#,
        )
        .unwrap_err();
        assert!(
            matches!(err, RadError::Spec { ref field, .. } if field == "detect"),
            "{err}"
        );
    }

    #[test]
    fn canonical_serialization_round_trips() {
        let text = r#"{
            "name": "full",
            "seed": 21,
            "campaign": {"scale": 0.05, "fillers": true, "power_experiments": false},
            "faults": {"profile": {"drop": 0.1, "delay": 0.2, "delay_chunks": 3}},
            "durable": {"sync_every": 8,
                        "crash": {"at": {"site": "pre-fsync", "occurrence": 3}}},
            "detect": {"perplexity": {"order": 2,
                                      "policy": {"crossing": {"window": 16}},
                                      "threshold": {"fixed": 4.5}},
                       "power": {"lane": "robot_current", "rms_threshold": 0.8},
                       "chunk": 128},
            "replay": {"window": {"start_us": 0, "end_us": 1000000}}
        }"#;
        let spec = minimal(text).unwrap();
        let again = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn spec_built_builder_matches_hand_wired_fingerprint() {
        let spec =
            minimal(r#"{"name": "m", "seed": 9, "campaign": {"supervised_only": true}}"#).unwrap();
        let from_spec = CampaignBuilder::from_spec(spec.to_campaign_spec());
        let hand = CampaignBuilder::new(9).supervised_only();
        assert_eq!(format!("{from_spec:?}"), format!("{hand:?}"));
    }

    #[test]
    fn in_process_scenario_runs_headless() {
        let spec = minimal(
            r#"{"name": "headless", "seed": 5,
                "campaign": {"supervised_only": true},
                "detect": {"perplexity": {"order": 2}},
                "replay": {"window": {"start_us": 0, "end_us": 18446744073709551615}}}"#,
        )
        .unwrap();
        let report = run_scenario(&spec, &RunOptions::default()).unwrap();
        assert_eq!(report.supervised_runs, 25);
        assert!(report.traces > 0);
        // The all-time window sees every sealed row.
        assert_eq!(report.window_rows, Some(report.traces));
    }
}
