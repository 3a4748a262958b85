//! # hpcfail-cli
//!
//! The `hpcfail` command-line tool: generate calibrated synthetic traces,
//! summarize and analyze failure logs, convert formats, and self-validate
//! the generator. Every command reads its input through the one loader,
//! [`hpcfail_records::io::open_trace`], so every FILE may be native CSV,
//! a LANL export or a packed `.hpct` store.
//!
//! ```text
//! hpcfail generate [--seed N] [--system ID] [--out FILE]
//! hpcfail summary FILE
//! hpcfail analyze FILE [--system ID]
//! hpcfail repro [--trace FILE] [SECTION...]
//! hpcfail ablations
//! hpcfail quality FILE [--repair] [--out FILE]
//! hpcfail pack FILE [--out FILE.hpct]
//! hpcfail import-lanl FILE [--out FILE]
//! hpcfail validate [--seed N]
//! hpcfail serve [--trace FILE]... [--synth SEED] [--system ID] [--host H] [--port N]
//! hpcfail scenario plan SPEC
//! hpcfail scenario run SPEC [--out FILE] [--resume] [--workers N]
//! ```
//!
//! `repro` regenerates the paper's tables and figures and `ablations`
//! checks the generator's design choices; their committed outputs are
//! `experiments/repro_output.txt` and `experiments/ablations_output.txt`.
//!
//! The library surface exists so the command logic is unit-testable;
//! `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod repro;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hpcfail_core::report::{fmt_num, fmt_pct, TextTable};
use hpcfail_core::{rates, repair, rootcause, tbf};
use hpcfail_records::io::{open_trace, write_csv};
use hpcfail_records::quality::{audit, repair as repair_trace};
use hpcfail_records::{
    Catalog, FailureTrace, IngestPolicy, LenientIngest, QualityIssue, RootCause, SystemId,
    TraceIndex, TraceStore,
};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime).
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn usage_err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
    }
}

fn run_err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

/// The usage text.
pub const USAGE: &str = "\
hpcfail — toolkit for Schroeder & Gibson's DSN 2006 HPC failure study

Every FILE may be native CSV, a LANL export or a packed .hpct store;
the format is told from the file's contents. summary, analyze, repro
--trace, pack and import-lanl read FILE strictly: the first unparsable
row stops them with exit code 1, naming its line. 'hpcfail quality FILE
--repair --out FIXED' writes a trace they load.

USAGE:
  hpcfail generate [--seed N] [--system ID] [--out FILE]
      Generate a calibrated synthetic trace (whole site, or one system)
      and write it as CSV to --out (default: stdout path 'trace.csv').
  hpcfail summary FILE
      Print the composition of a trace.
  hpcfail analyze FILE [--system ID]
      Failure rates, repair statistics, and TBF fits for a trace.
  hpcfail repro [--trace FILE] [SECTION...]
      Regenerate the paper's tables and figures as text: every section,
      or only the named ones (table1, fig1 .. fig7, findings, ...; an
      unknown name lists them all). The trace is FILE, or else the
      seeded site trace. A section whose analysis cannot run on the
      loaded trace (too few records, say) prints a 'degraded:' line;
      'findings' checks the paper's Section-8 conclusions.
  hpcfail ablations
      Rerun the generator's ablation study on the seeded site trace:
      fit-selection criterion, bootstrap shape CI, Pareto rejection,
      and the generator without failure clustering.
  hpcfail quality FILE [--repair] [--out FILE]
      Ingest FILE leniently (quarantining bad rows), audit the accepted
      records for duplicates/overlaps/window violations, and with
      --repair apply the standard repair passes (writing the repaired
      trace to --out when given). A packed .hpct FILE is accepted
      whole. An --out ending in .hpct is written as a packed binary
      store, any other --out as CSV.
  hpcfail pack FILE [--out FILE.hpct]
      Build the trace index once and write it as a versioned, checksummed
      .hpct binary columnar store (default out: FILE with an .hpct
      extension). FILE may itself be a .hpct store (it is repacked).
      Packed traces open in O(1) per record — every FILE-taking command,
      serve --trace, and /v1/reload accept them transparently.
  hpcfail import-lanl FILE [--out FILE]
      Convert a trace (typically a LANL export) to the native CSV
      format.
  hpcfail validate [--seed N]
      Regenerate the site and check every calibration target.
  hpcfail serve [--trace FILE]... [--synth SEED] [--system ID]
                [--host H] [--port N]
      Serve the analyses over HTTP/JSON. Each --trace FILE becomes a
      tenant named after the file stem (packed .hpct stores open
      without a rebuild); --synth SEED adds a generated tenant named \"synth\"
      (whole site, or one system with --system). Port 0 picks an
      ephemeral port; the bound address is printed on startup. The
      server runs until POST /v1/shutdown, then drains in-flight
      requests and exits cleanly; overload is shed with 503 +
      Retry-After, and slow or stalled requests are cut off with 408.
  hpcfail scenario plan SPEC
      Validate a campaign spec (TOML) and print the expanded
      cell grid without running anything.
  hpcfail scenario run SPEC [--out FILE] [--resume] [--workers N]
      Run the campaign: every cell of the grid is evaluated on the
      worker pool, panics and per-cell errors become 'degraded' rows,
      and completed cells checkpoint to a journal next to the output
      (OUT.journal) so an interrupted run restarts with --resume
      skipping verified-complete cells. The results table goes to
      --out when given, otherwise stdout. Exit code 3 means the
      campaign completed but contains degraded cells.
  hpcfail help
      Show this message.";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `generate`
    Generate {
        /// RNG seed.
        seed: u64,
        /// Restrict to one system.
        system: Option<u32>,
        /// Output path.
        out: PathBuf,
    },
    /// `summary FILE`
    Summary(PathBuf),
    /// `analyze FILE [--system ID]`
    Analyze {
        /// Input trace.
        file: PathBuf,
        /// Focus the TBF analysis on one system (default 20).
        system: u32,
    },
    /// `repro [--trace FILE] [SECTION...]`
    Repro {
        /// Input trace (default: the seeded site trace).
        trace: Option<PathBuf>,
        /// The sections to render, in report order (empty: all).
        sections: Vec<String>,
    },
    /// `ablations`
    Ablations,
    /// `quality FILE [--repair] [--out FILE]`
    Quality {
        /// Input trace.
        file: PathBuf,
        /// Apply the repair passes after the audit.
        repair: bool,
        /// Where to write the repaired trace (with `--repair`): a packed
        /// store when it ends in `.hpct`, CSV otherwise.
        out: Option<PathBuf>,
    },
    /// `pack FILE [--out FILE.hpct]`
    Pack {
        /// Input trace.
        file: PathBuf,
        /// Output `.hpct` path (default: FILE with an `.hpct` extension).
        out: PathBuf,
    },
    /// `import-lanl FILE [--out FILE]`
    ImportLanl {
        /// Input trace.
        file: PathBuf,
        /// Native-CSV output path.
        out: PathBuf,
    },
    /// `validate [--seed N]`
    Validate {
        /// RNG seed.
        seed: u64,
    },
    /// `serve [--trace FILE]... [--synth SEED] [--system ID] [--host H] [--port N]`
    Serve {
        /// Trace files to load as tenants (named by file stem).
        traces: Vec<PathBuf>,
        /// Add a synthetic tenant named "synth", generated from this seed.
        synth: Option<u64>,
        /// Restrict the synthetic tenant to one system.
        system: Option<u32>,
        /// Bind host.
        host: String,
        /// Bind port (0 = ephemeral).
        port: u16,
    },
    /// `scenario plan SPEC`
    ScenarioPlan {
        /// Campaign spec file (TOML).
        spec: PathBuf,
    },
    /// `scenario run SPEC [--out FILE] [--resume] [--workers N]`
    ScenarioRun {
        /// Campaign spec file (TOML).
        spec: PathBuf,
        /// Where to write the results table (default: stdout).
        out: Option<PathBuf>,
        /// Resume from the journal instead of starting fresh.
        resume: bool,
        /// Worker pool size (default: HPCFAIL_THREADS or all cores).
        workers: Option<usize>,
    },
    /// `help`
    Help,
}

/// One command's arguments, split against the flags it declares.
struct Args<'a> {
    /// The command as named in messages (`analyze`, `scenario run`).
    cmd: &'a str,
    /// `(flag, value)` for every declared value flag, in order.
    values: Vec<(&'a str, &'a String)>,
    /// The declared switches that were given.
    switches: Vec<&'a str>,
    positional: Vec<&'a String>,
}

impl<'a> Args<'a> {
    /// Split `args` for `cmd`. A value flag takes the next argument; an
    /// undeclared `--flag` is a usage error that names it.
    fn split(
        cmd: &'a str,
        args: &'a [String],
        value_flags: &[&'a str],
        switches: &[&'a str],
    ) -> Result<Self, CliError> {
        let mut out = Args {
            cmd,
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(&name) = value_flags.iter().find(|&&f| f == a) {
                let value = it
                    .next()
                    .ok_or_else(|| usage_err(format!("{name} requires a value")))?;
                out.values.push((name, value));
            } else if let Some(&name) = switches.iter().find(|&&f| f == a) {
                out.switches.push(name);
            } else if a.starts_with("--") {
                return Err(usage_err(format!("unknown flag {a:?} for {cmd}")));
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// The first value given for `name`.
    fn value(&self, name: &str) -> Option<&'a String> {
        self.values
            .iter()
            .find(|(f, _)| *f == name)
            .map(|&(_, v)| v)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The command's one operand (`what` names it in the message).
    fn operand(&self, what: &str) -> Result<PathBuf, CliError> {
        match self.positional.as_slice() {
            [one] => Ok(PathBuf::from(one.as_str())),
            [] => Err(usage_err(format!(
                "{} requires exactly one {what}",
                self.cmd
            ))),
            [_, extra, ..] => Err(self.unexpected(extra)),
        }
    }

    /// Fails on any operand, for commands that take none.
    fn no_operand(&self) -> Result<(), CliError> {
        match self.positional.first() {
            Some(extra) => Err(self.unexpected(extra)),
            None => Ok(()),
        }
    }

    fn unexpected(&self, arg: &str) -> CliError {
        usage_err(format!("unexpected argument {arg:?} for {}", self.cmd))
    }
}

/// Parse a command line (excluding argv\[0\]).
///
/// # Errors
///
/// [`CliError`] with code 2 and a usage-style message, including for an
/// undeclared flag or a stray argument.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage_err(USAGE));
    };
    let parse_seed = |v: Option<&String>| -> Result<u64, CliError> {
        match v {
            Some(s) => s.parse().map_err(|_| usage_err(format!("bad seed {s:?}"))),
            None => Ok(hpcfail_synth::scenario::DEFAULT_SEED),
        }
    };
    let parse_system = |v: Option<&String>| -> Result<Option<u32>, CliError> {
        v.map(|s| {
            s.parse()
                .map_err(|_| usage_err(format!("bad system id {s:?}")))
        })
        .transpose()
    };

    match cmd.as_str() {
        "generate" => {
            let a = Args::split(cmd, rest, &["--seed", "--system", "--out"], &[])?;
            a.no_operand()?;
            let seed = parse_seed(a.value("--seed"))?;
            let system = parse_system(a.value("--system"))?;
            let out = a
                .value("--out")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("trace.csv"));
            Ok(Command::Generate { seed, system, out })
        }
        "summary" => Ok(Command::Summary(
            Args::split(cmd, rest, &[], &[])?.operand("FILE")?,
        )),
        "analyze" => {
            let a = Args::split(cmd, rest, &["--system"], &[])?;
            let system = parse_system(a.value("--system"))?.unwrap_or(20);
            Ok(Command::Analyze {
                file: a.operand("FILE")?,
                system,
            })
        }
        "repro" => {
            let a = Args::split(cmd, rest, &["--trace"], &[])?;
            let sections: Vec<String> = a.positional.iter().map(|s| s.to_string()).collect();
            if let Some(unknown) = sections
                .iter()
                .find(|s| !repro::SECTIONS.iter().any(|(name, _)| name == s))
            {
                let valid: Vec<&str> = repro::SECTIONS.iter().map(|(name, _)| *name).collect();
                return Err(usage_err(format!(
                    "unknown repro section {unknown:?}; sections: {}",
                    valid.join(" ")
                )));
            }
            Ok(Command::Repro {
                trace: a.value("--trace").map(PathBuf::from),
                sections,
            })
        }
        "ablations" => {
            Args::split(cmd, rest, &[], &[])?.no_operand()?;
            Ok(Command::Ablations)
        }
        "quality" => {
            let a = Args::split(cmd, rest, &["--out"], &["--repair"])?;
            let repair = a.switch("--repair");
            let out = a.value("--out").map(PathBuf::from);
            if out.is_some() && !repair {
                return Err(usage_err("quality --out requires --repair"));
            }
            Ok(Command::Quality {
                file: a.operand("FILE")?,
                repair,
                out,
            })
        }
        "pack" => {
            let a = Args::split(cmd, rest, &["--out"], &[])?;
            let file = a.operand("FILE")?;
            let out = a
                .value("--out")
                .map(PathBuf::from)
                .unwrap_or_else(|| file.with_extension("hpct"));
            Ok(Command::Pack { file, out })
        }
        "import-lanl" => {
            let a = Args::split(cmd, rest, &["--out"], &[])?;
            let out = a
                .value("--out")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("imported.csv"));
            Ok(Command::ImportLanl {
                file: a.operand("FILE")?,
                out,
            })
        }
        "validate" => {
            let a = Args::split(cmd, rest, &["--seed"], &[])?;
            a.no_operand()?;
            Ok(Command::Validate {
                seed: parse_seed(a.value("--seed"))?,
            })
        }
        "serve" => {
            let a = Args::split(
                cmd,
                rest,
                &["--trace", "--synth", "--system", "--host", "--port"],
                &[],
            )?;
            a.no_operand()?;
            let traces: Vec<PathBuf> = a
                .values
                .iter()
                .filter(|(f, _)| *f == "--trace")
                .map(|&(_, v)| PathBuf::from(v))
                .collect();
            let synth = a
                .value("--synth")
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| usage_err(format!("bad seed {s:?}")))
                })
                .transpose()?;
            let system = parse_system(a.value("--system"))?;
            let host = a
                .value("--host")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1".to_string());
            let port = match a.value("--port") {
                Some(s) => s
                    .parse::<u16>()
                    .map_err(|_| usage_err(format!("bad port {s:?}")))?,
                None => 7070,
            };
            if traces.is_empty() && synth.is_none() {
                return Err(usage_err(
                    "serve needs at least one tenant: --trace FILE and/or --synth SEED",
                ));
            }
            if system.is_some() && synth.is_none() {
                return Err(usage_err("serve --system requires --synth"));
            }
            Ok(Command::Serve {
                traces,
                synth,
                system,
                host,
                port,
            })
        }
        "scenario" => match rest.split_first() {
            Some((sub, tail)) if sub == "plan" => Ok(Command::ScenarioPlan {
                spec: Args::split("scenario plan", tail, &[], &[])?.operand("SPEC")?,
            }),
            Some((sub, tail)) if sub == "run" => {
                let a = Args::split("scenario run", tail, &["--out", "--workers"], &["--resume"])?;
                let workers = a
                    .value("--workers")
                    .map(|s| {
                        s.parse::<usize>()
                            .ok()
                            .filter(|&w| w > 0)
                            .ok_or_else(|| usage_err(format!("bad worker count {s:?}")))
                    })
                    .transpose()?;
                Ok(Command::ScenarioRun {
                    spec: a.operand("SPEC")?,
                    out: a.value("--out").map(PathBuf::from),
                    resume: a.switch("--resume"),
                    workers,
                })
            }
            _ => Err(usage_err("scenario requires a subcommand: plan or run")),
        },
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(usage_err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// Execute a command, returning the text to print.
///
/// # Errors
///
/// [`CliError`] with an exit code; callers print the message to stderr.
pub fn execute(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate { seed, system, out } => generate(*seed, *system, out),
        Command::Summary(file) => with_index(file, summary),
        Command::Analyze { file, system } => with_index(file, |index| analyze(index, *system)),
        Command::Repro { trace, sections } => match trace {
            Some(file) => with_index(file, |index| Ok(repro::render(index, sections))),
            None => Ok(repro::render(&seeded_site()?.index(), sections)),
        },
        Command::Ablations => ablations::render(&seeded_site()?).map_err(run_err),
        Command::Quality { file, repair, out } => quality(file, *repair, out.as_ref()),
        Command::Pack { file, out } => pack(file, out),
        Command::ImportLanl { file, out } => import_lanl(file, out),
        Command::Validate { seed } => validate(*seed),
        Command::Serve {
            traces,
            synth,
            system,
            host,
            port,
        } => serve(traces, *synth, *system, host, *port),
        Command::ScenarioPlan { spec } => scenario_plan(spec),
        Command::ScenarioRun {
            spec,
            out,
            resume,
            workers,
        } => scenario_run(spec, out.as_ref(), *resume, *workers),
    }
}

fn load_spec(path: &PathBuf) -> Result<hpcfail_scenario::CampaignSpec, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| run_err(format!("cannot open {}: {e}", path.display())))?;
    hpcfail_scenario::CampaignSpec::parse_bytes(&bytes)
        .map_err(|e| run_err(format!("invalid spec {}: {e}", path.display())))
}

fn scenario_plan(spec_path: &PathBuf) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    Ok(hpcfail_scenario::render_plan(&spec))
}

fn scenario_run(
    spec_path: &PathBuf,
    out: Option<&PathBuf>,
    resume: bool,
    workers: Option<usize>,
) -> Result<String, CliError> {
    let spec = load_spec(spec_path)?;
    // The journal lives next to whatever names the run: the output file
    // when given, else the spec itself.
    let journal = {
        let base = out.unwrap_or(spec_path);
        PathBuf::from(format!("{}.journal", base.display()))
    };
    let options = hpcfail_scenario::RunOptions {
        workers,
        journal: Some(&journal),
        resume,
        max_cells: None,
    };
    let result = hpcfail_scenario::run_campaign(&spec, &options)
        .map_err(|e| run_err(format!("campaign failed: {e}")))?;
    let table = hpcfail_scenario::render_results(&spec, &result);
    let text = match out {
        Some(path) => {
            std::fs::write(path, &table)
                .map_err(|e| run_err(format!("cannot write {}: {e}", path.display())))?;
            format!(
                "wrote {} cell results to {}\n{}",
                result.outcomes.len(),
                path.display(),
                hpcfail_scenario::render_summary(&result)
            )
        }
        None => table,
    };
    if result.is_degraded() {
        // Completed-with-degradations is a distinct exit code (3) so CI
        // can tell "campaign ran but some cells failed" from a crash.
        return Err(CliError {
            message: text,
            code: 3,
        });
    }
    Ok(text)
}

/// Build the serve-layer state for a `serve` invocation: one tenant per
/// trace file (named by stem) plus the optional synthetic tenant.
///
/// # Errors
///
/// [`CliError`] on duplicate tenant names, unreadable files, or a
/// failed synthesis.
pub(crate) fn build_serve_state(
    traces: &[PathBuf],
    synth: Option<u64>,
    system: Option<u32>,
) -> Result<std::sync::Arc<hpcfail_serve::AppState>, CliError> {
    let state = hpcfail_serve::AppState::new();
    for path in traces {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| usage_err(format!("cannot name a tenant after {}", path.display())))?;
        state
            .registry
            .insert(&name, hpcfail_serve::TenantSource::File(path.clone()))
            .map_err(|e| run_err(e.to_string()))?;
    }
    if let Some(seed) = synth {
        let trace = match system {
            Some(id) => hpcfail_synth::scenario::system_trace(SystemId::new(id), seed),
            None => hpcfail_synth::scenario::site_trace(seed),
        }
        .map_err(|e| run_err(format!("generation failed: {e}")))?;
        state
            .registry
            .insert(
                "synth",
                hpcfail_serve::TenantSource::Static(std::sync::Arc::new(trace)),
            )
            .map_err(|e| run_err(e.to_string()))?;
    }
    Ok(std::sync::Arc::new(state))
}

fn serve(
    traces: &[PathBuf],
    synth: Option<u64>,
    system: Option<u32>,
    host: &str,
    port: u16,
) -> Result<String, CliError> {
    let state = build_serve_state(traces, synth, system)?;
    let names = state.registry.names().join(", ");
    let config = hpcfail_serve::ServeConfig {
        addr: format!("{host}:{port}"),
        ..hpcfail_serve::ServeConfig::default()
    };
    hpcfail_serve::run(state, &config, |addr| {
        // The smoke test greps this exact line for the bound port, so
        // flush it before blocking in the accept loop. A closed stdout
        // must not take the server down.
        use std::io::Write as _;
        let mut out = std::io::stdout().lock();
        let _ = writeln!(
            out,
            "hpcfail serve listening on http://{addr} (tenants: {names})"
        )
        .and_then(|()| out.flush());
    })
    .map_err(|e| run_err(format!("cannot serve: {e}")))?;
    // `run` only returns after `POST /v1/shutdown` triggers a graceful
    // drain: the acceptor has stopped, in-flight requests finished (or
    // were shed at the drain deadline), and every worker has joined.
    Ok("hpcfail serve drained and stopped".to_string())
}

/// Read a trace file through the one loader, which tells a packed
/// `.hpct` store, a LANL export and native CSV apart by their contents.
fn read_input(path: &Path, policy: IngestPolicy) -> Result<LenientIngest, CliError> {
    open_trace(path, policy)
        .map_err(|e| run_err(format!("cannot open {}: {e}", path.display())))?
        .map_err(|e| run_err(format!("cannot parse {}: {e}", path.display())))
}

/// Load a trace strictly and run `f` on its index; a packed store opens
/// straight into it.
fn with_index(
    path: &Path,
    f: impl FnOnce(&TraceIndex) -> Result<String, CliError>,
) -> Result<String, CliError> {
    f(&read_input(path, IngestPolicy::FailFast)?.index)
}

/// The seeded synthetic site trace that `repro` and `ablations` read
/// when no trace is given.
fn seeded_site() -> Result<FailureTrace, CliError> {
    let seed = hpcfail_synth::scenario::DEFAULT_SEED;
    eprintln!("generating seeded site trace (seed {seed})…");
    hpcfail_synth::scenario::site_trace(seed)
        .map_err(|e| run_err(format!("generation failed: {e}")))
}

fn pack(file: &Path, out: &Path) -> Result<String, CliError> {
    let index = read_input(file, IngestPolicy::FailFast)?.index;
    let bytes = TraceStore::write(&index, out)
        .map_err(|e| run_err(format!("cannot write {}: {e}", out.display())))?;
    Ok(format!(
        "packed {} records into {} ({bytes} bytes, checksummed columnar store)",
        index.len(),
        out.display()
    ))
}

fn generate(seed: u64, system: Option<u32>, out: &PathBuf) -> Result<String, CliError> {
    let trace = match system {
        Some(id) => hpcfail_synth::scenario::system_trace(SystemId::new(id), seed),
        None => hpcfail_synth::scenario::site_trace(seed),
    }
    .map_err(|e| run_err(format!("generation failed: {e}")))?;
    let file = std::fs::File::create(out)
        .map_err(|e| run_err(format!("cannot create {}: {e}", out.display())))?;
    write_csv(&trace, file).map_err(|e| run_err(format!("write failed: {e}")))?;
    Ok(format!(
        "wrote {} records to {}",
        trace.len(),
        out.display()
    ))
}

fn summary(index: &TraceIndex) -> Result<String, CliError> {
    let all = index.all();
    let mut out = String::new();
    let _ = writeln!(out, "records: {}", index.len());
    if let (Some(first), Some(last)) = (all.first_start(), all.last_start()) {
        let _ = writeln!(out, "span:    {first} .. {last}");
    }
    let _ = writeln!(out, "systems: {}", index.systems().count());
    let mut t = TextTable::new(&["cause", "records", "share", "downtime share"]);
    let breakdown = rootcause::CauseBreakdown::from_view(&all);
    for cause in RootCause::ALL {
        t.row(&[
            cause.name(),
            &breakdown.count(cause).to_string(),
            &fmt_pct(breakdown.fraction_of_failures(cause)),
            &fmt_pct(breakdown.fraction_of_downtime(cause)),
        ]);
    }
    let _ = write!(out, "{}", t.render());
    Ok(out)
}

fn analyze(index: &TraceIndex, system: u32) -> Result<String, CliError> {
    let catalog = Catalog::lanl();
    let mut out = String::new();

    let rate_analysis = rates::analyze_indexed(index, &catalog)
        .map_err(|e| run_err(format!("rate analysis failed: {e}")))?;
    let mut t = TextTable::new(&["system", "failures/yr", "per proc/yr"]);
    for r in rate_analysis.rates.iter().filter(|r| r.failures > 0) {
        t.row(&[
            &r.system.to_string(),
            &fmt_num(r.per_year),
            &fmt_num(r.per_proc_year),
        ]);
    }
    let _ = writeln!(out, "failure rates (fig 2):\n{}", t.render());

    let table = repair::by_cause_indexed(index)
        .map_err(|e| run_err(format!("repair analysis failed: {e}")))?;
    let mut t = TextTable::new(&["cause", "mean (min)", "median (min)", "C^2"]);
    for row in &table.rows {
        let cause = row.cause.map(|c| c.to_string()).unwrap_or_default();
        t.row(&[
            &cause,
            &fmt_num(row.summary.mean),
            &fmt_num(row.summary.median),
            &fmt_num(row.summary.c2),
        ]);
    }
    let _ = writeln!(out, "repair times (table 2):\n{}", t.render());

    match tbf::analyze_indexed(index, tbf::View::SystemWide(SystemId::new(system)), None) {
        Ok(a) => {
            let _ = writeln!(
                out,
                "time between failures, system {system} (fig 6): {} gaps, C^2 {:.2}, \
                 zero-gap {}, weibull shape {}, hazard {}",
                a.n,
                a.c2,
                fmt_pct(a.zero_fraction),
                a.weibull_shape
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_default(),
                a.hazard_trend
            );
            for c in &a.fits.candidates {
                let _ = writeln!(
                    out,
                    "  fit {:<12} NLL {:.0}  KS {:.3}",
                    c.family, c.nll, c.ks
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "time between failures, system {system}: {e}");
        }
    }
    Ok(out)
}

fn quality(file: &Path, apply_repair: bool, out: Option<&PathBuf>) -> Result<String, CliError> {
    let policy = if apply_repair {
        IngestPolicy::Repair
    } else {
        IngestPolicy::Quarantine
    };
    let ingest = read_input(file, policy)?;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "ingest: {} data rows -> {} accepted, {} quarantined, {} repaired at ingest \
         (conserved: {})",
        ingest.total_rows,
        ingest.accepted(),
        ingest.quarantine.len(),
        ingest.repaired.len(),
        ingest.is_conserved()
    );
    for (class, count) in ingest.quarantine_counts() {
        let _ = writeln!(text, "  quarantined {class:<22} {count}");
    }
    for row in ingest.quarantine.iter().take(5) {
        let _ = writeln!(text, "  line {}: {}", row.line, row.issue);
    }
    if ingest.quarantine.len() > 5 {
        let _ = writeln!(text, "  ... {} more", ingest.quarantine.len() - 5);
    }

    let catalog = Catalog::lanl();
    let trace = ingest.index.all().to_trace();
    let report = audit(&trace, &catalog);
    let _ = writeln!(text, "audit:\n{report}");

    if apply_repair {
        let outcome = repair_trace(&trace, &catalog);
        let _ = writeln!(text, "repair:\n{outcome}");
        if let Some(path) = out {
            if path.extension().is_some_and(|ext| ext == "hpct") {
                let index = outcome.trace.index();
                TraceStore::write(&index, path)
                    .map_err(|e| run_err(format!("cannot write {}: {e}", path.display())))?;
                let _ = writeln!(
                    text,
                    "packed {} repaired records into {}",
                    outcome.trace.len(),
                    path.display()
                );
            } else {
                let output = std::fs::File::create(path)
                    .map_err(|e| run_err(format!("cannot create {}: {e}", path.display())))?;
                write_csv(&outcome.trace, output)
                    .map_err(|e| run_err(format!("write failed: {e}")))?;
                let _ = writeln!(
                    text,
                    "wrote {} repaired records to {}",
                    outcome.trace.len(),
                    path.display()
                );
            }
        }
    }
    Ok(text)
}

fn import_lanl(file: &Path, out: &Path) -> Result<String, CliError> {
    let ingest = read_input(file, IngestPolicy::FailFast)?;
    let output = std::fs::File::create(out)
        .map_err(|e| run_err(format!("cannot create {}: {e}", out.display())))?;
    write_csv(&ingest.index.all().to_trace(), output)
        .map_err(|e| run_err(format!("write failed: {e}")))?;
    let skipped = ingest
        .quarantine
        .iter()
        .filter(|q| q.issue == QualityIssue::InvertedInterval)
        .count();
    Ok(format!(
        "imported {} records ({skipped} glitched rows skipped) -> {}",
        ingest.accepted(),
        out.display()
    ))
}

fn validate(seed: u64) -> Result<String, CliError> {
    let report = hpcfail_synth::validate::validate_lanl(seed)
        .map_err(|e| run_err(format!("validation failed: {e}")))?;
    let mut out = String::new();
    let failures = report.failures();
    let _ = writeln!(
        out,
        "{} calibration targets checked, {} failed",
        report.checks.len(),
        failures.len()
    );
    for c in &failures {
        let _ = writeln!(
            out,
            "FAIL {}: expected {:.1}, measured {:.1} (tolerance {:.0}%)",
            c.target,
            c.expected,
            c.measured,
            c.tolerance * 100.0
        );
    }
    if failures.is_empty() {
        let _ = writeln!(out, "generator matches the paper's reported statistics");
        Ok(out)
    } else {
        Err(run_err(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::io::read_trace;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_generate_defaults_and_flags() {
        let cmd = parse(&args(&["generate"])).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                seed: hpcfail_synth::scenario::DEFAULT_SEED,
                system: None,
                out: PathBuf::from("trace.csv"),
            }
        );
        let cmd = parse(&args(&[
            "generate", "--seed", "7", "--system", "20", "--out", "x.csv",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                seed: 7,
                system: Some(20),
                out: PathBuf::from("x.csv")
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse(&args(&[])).unwrap_err().code, 2);
        assert_eq!(parse(&args(&["bogus"])).unwrap_err().code, 2);
        assert_eq!(parse(&args(&["generate", "--seed"])).unwrap_err().code, 2);
        assert_eq!(
            parse(&args(&["generate", "--seed", "x"])).unwrap_err().code,
            2
        );
        assert_eq!(parse(&args(&["summary"])).unwrap_err().code, 2);
        assert_eq!(parse(&args(&["summary", "a", "b"])).unwrap_err().code, 2);
        assert_eq!(
            parse(&args(&["analyze", "--system", "nope", "f.csv"]))
                .unwrap_err()
                .code,
            2
        );
        // An undeclared flag or a stray argument is a usage error that
        // names the argument.
        for (line, culprit) in [
            (&["validate", "--sed", "5"][..], "--sed"),
            (&["validate", "5"][..], "5"),
            (&["summary", "s20.csv", "--lanl"][..], "--lanl"),
            (&["quality", "f.csv", "--lanl"][..], "--lanl"),
            (&["pack", "f.csv", "--lanl"][..], "--lanl"),
            (&["serve", "--trace", "f.csv", "--lanl"][..], "--lanl"),
            (&["analyze", "f.csv", "--sytem", "7"][..], "--sytem"),
            (&["generate", "extra"][..], "extra"),
            (&["serve", "--synth", "1", "stray"][..], "stray"),
            (&["pack", "a.csv", "--repair"][..], "--repair"),
            (&["quality", "f.csv", "--repair", "--pack"][..], "--pack"),
            (&["scenario", "plan", "a.toml", "b.toml"][..], "b.toml"),
            (&["scenario", "run", "a.toml", "--resum"][..], "--resum"),
            (&["repro", "--trace", "s.csv", "--seed"][..], "--seed"),
            (&["repro", "fig6", "list"][..], "list"),
            (&["ablations", "fig6"][..], "fig6"),
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert_eq!(err.code, 2, "{line:?}");
            assert!(
                err.message.contains(&format!("{culprit:?}")),
                "{line:?}: {}",
                err.message
            );
        }
    }

    #[test]
    fn parse_file_commands() {
        assert_eq!(
            parse(&args(&["summary", "t.csv"])).unwrap(),
            Command::Summary(PathBuf::from("t.csv"))
        );
        assert_eq!(
            parse(&args(&["analyze", "t.csv"])).unwrap(),
            Command::Analyze {
                file: PathBuf::from("t.csv"),
                system: 20
            }
        );
        assert_eq!(
            parse(&args(&["analyze", "--system", "7", "t.csv"])).unwrap(),
            Command::Analyze {
                file: PathBuf::from("t.csv"),
                system: 7
            }
        );
        assert_eq!(
            parse(&args(&["import-lanl", "raw.csv", "--out", "native.csv"])).unwrap(),
            Command::ImportLanl {
                file: PathBuf::from("raw.csv"),
                out: PathBuf::from("native.csv"),
            }
        );
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parse_repro_and_ablations() {
        assert_eq!(
            parse(&args(&["repro"])).unwrap(),
            Command::Repro {
                trace: None,
                sections: vec![],
            }
        );
        assert_eq!(
            parse(&args(&["repro", "fig6", "--trace", "s.hpct", "findings"])).unwrap(),
            Command::Repro {
                trace: Some(PathBuf::from("s.hpct")),
                sections: args(&["fig6", "findings"]),
            }
        );
        assert_eq!(parse(&args(&["ablations"])).unwrap(), Command::Ablations);
        // An unknown section names every valid one.
        let err = parse(&args(&["repro", "fig8"])).unwrap_err();
        assert_eq!(err.code, 2);
        for (name, _) in repro::SECTIONS {
            assert!(err.message.contains(name), "{}", err.message);
        }
        assert_eq!(parse(&args(&["repro", "--trace"])).unwrap_err().code, 2);
    }

    /// The committed paper reproduction, as `main` prints it: the text
    /// plus one trailing newline.
    fn printed(command: &Command) -> String {
        format!("{}\n", execute(command).unwrap())
    }

    #[test]
    fn repro_matches_the_committed_golden() {
        let golden = include_str!("../../../experiments/repro_output.txt");
        let repro = Command::Repro {
            trace: None,
            sections: vec![],
        };
        assert!(
            printed(&repro) == golden,
            "repro drifted from experiments/repro_output.txt"
        );
    }

    #[test]
    fn ablations_match_the_committed_golden() {
        let golden = include_str!("../../../experiments/ablations_output.txt");
        assert!(
            printed(&Command::Ablations) == golden,
            "ablations drifted from experiments/ablations_output.txt"
        );
    }

    /// Two traces too thin for some sections, written under `name` in
    /// the temp dir: a header-only CSV and the seed-42 system-12 CSV.
    fn thin_traces(name: &str) -> [PathBuf; 2] {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let header_only = dir.join("header_only.csv");
        std::fs::write(
            &header_only,
            format!("{}\n", hpcfail_records::io::CSV_HEADER),
        )
        .unwrap();
        let sys12 = dir.join("sys12.csv");
        execute(&Command::Generate {
            seed: 42,
            system: Some(12),
            out: sys12.clone(),
        })
        .unwrap();
        [header_only, sys12]
    }

    #[test]
    fn repro_degrades_section_by_section_on_thin_traces() {
        for file in thin_traces("hpcfail_cli_repro_thin") {
            let text = execute(&Command::Repro {
                trace: Some(file.clone()),
                sections: vec![],
            })
            .unwrap();
            // Every section opens with its banner and then either renders
            // or says why it could not.
            for (name, _) in repro::SECTIONS {
                assert!(
                    text.contains(&format!("================= {name} =================")),
                    "{}: no {name} section",
                    file.display()
                );
            }
            assert!(text.contains("degraded:"), "{}: {text}", file.display());
        }
    }

    /// Each section rendered alone is byte-identical to its slice of the
    /// whole report, so which section fills a shared analysis first never
    /// shows in the text.
    #[test]
    fn repro_sections_render_alone_as_in_the_whole_report() {
        let site = seeded_site().unwrap().index();
        let thin = thin_traces("hpcfail_cli_repro_alone")
            .map(|file| read_input(&file, IngestPolicy::FailFast).unwrap().index);
        for (index, what) in [
            (&site, "site"),
            (&thin[0], "header-only"),
            (&thin[1], "sys12"),
        ] {
            let full = format!("{}\n", repro::render(index, &[]));
            let starts: Vec<usize> = repro::SECTIONS
                .iter()
                .map(|(name, _)| {
                    full.find(&format!("\n================= {name} =================\n"))
                        .unwrap_or_else(|| panic!("{what}: no {name} section"))
                })
                .chain([full.len()])
                .collect();
            for (i, (name, _)) in repro::SECTIONS.iter().enumerate() {
                assert_eq!(
                    format!("{}\n", repro::render(index, &[name.to_string()])),
                    full[starts[i]..starts[i + 1]],
                    "{what}: {name}"
                );
            }
        }
    }

    /// Every section of a repro report opens with its banner and then
    /// either renders or prints `degraded: experiment <name>: <cause>`.
    fn assert_every_section_renders_or_degrades(text: &str, what: &str) {
        let mut rest = text;
        for (name, _) in repro::SECTIONS {
            let banner = format!("================= {name} =================\n");
            let at = rest
                .find(&banner)
                .unwrap_or_else(|| panic!("{what}: no {name} section"));
            rest = &rest[at + banner.len()..];
            let body = &rest[..rest.find("\n================= ").unwrap_or(rest.len())];
            assert!(!body.trim().is_empty(), "{what}: {name} printed nothing");
            if let Some(line) = body
                .lines()
                .find(|l| l.starts_with("degraded: experiment "))
            {
                let cause = line
                    .strip_prefix(&format!("degraded: experiment {name}: "))
                    .unwrap_or_else(|| panic!("{what}: {name} printed {line:?}"));
                assert!(!cause.is_empty(), "{what}: {name} degraded without a cause");
            }
        }
    }

    #[test]
    fn repro_survives_damaged_input() {
        use hpcfail_records::{BinaryCorruptionPlan, BinaryFault, CorruptionPlan};
        let dir = std::env::temp_dir().join("hpcfail_cli_repro_damaged");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("sys20.csv");
        execute(&Command::Generate {
            seed: 42,
            system: Some(20),
            out: csv.clone(),
        })
        .unwrap();
        let hpct = dir.join("sys20.hpct");
        execute(&Command::Pack {
            file: csv.clone(),
            out: hpct.clone(),
        })
        .unwrap();
        let clean_csv = std::fs::read_to_string(&csv).unwrap();
        let clean_hpct = std::fs::read(&hpct).unwrap();

        let mut damaged = Vec::new();
        for (seed, rate) in [(1, 0.0), (2, 0.01), (3, 0.05), (4, 0.2), (5, 0.5), (6, 1.0)] {
            let text = CorruptionPlan::new(seed, rate).corrupt_csv(&clean_csv);
            // The lenient load keeps what parses; repro reports on it.
            let ingest = read_trace(text.as_bytes(), IngestPolicy::Quarantine).unwrap();
            let what = format!("csv seed {seed} rate {rate}");
            assert_every_section_renders_or_degrades(&repro::render(&ingest.index, &[]), &what);
            let path = dir.join(format!("damaged_{seed}.csv"));
            std::fs::write(&path, text).unwrap();
            damaged.push((path, what));
        }
        for fault in [
            BinaryFault::MidTruncate,
            BinaryFault::TornHeader,
            BinaryFault::BitFlips,
            BinaryFault::VersionSkew,
        ] {
            let plan = (0..)
                .map(BinaryCorruptionPlan::new)
                .find(|p| p.fault() == Some(fault))
                .unwrap();
            let path = dir.join(format!("damaged_{}.hpct", plan.seed));
            std::fs::write(&path, plan.corrupt_bytes(&clean_hpct)).unwrap();
            damaged.push((path, format!("hpct {fault:?} seed {}", plan.seed)));
        }
        for (path, what) in damaged {
            match execute(&Command::Repro {
                trace: Some(path),
                sections: vec![],
            }) {
                Ok(text) => assert_every_section_renders_or_degrades(&text, &what),
                Err(err) => {
                    assert_eq!(err.code, 1, "{what}: {err}");
                    assert!(err.message.starts_with("cannot parse"), "{what}: {err}");
                }
            }
        }
    }

    #[test]
    fn help_is_printable() {
        let text = execute(&Command::Help).unwrap();
        assert!(text.contains("generate"));
        assert!(text.contains("import-lanl"));
    }

    #[test]
    fn generate_summary_analyze_round_trip() {
        let dir = std::env::temp_dir().join("hpcfail_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sys12.csv");
        // Generate one small system.
        let msg = execute(&Command::Generate {
            seed: 42,
            system: Some(12),
            out: path.clone(),
        })
        .unwrap();
        assert!(msg.contains("wrote"));
        // Summarize it.
        let text = execute(&Command::Summary(path.clone())).unwrap();
        assert!(text.contains("records:"));
        assert!(text.contains("hardware"));
        // Analyze it (system 12 is the one present).
        let text = execute(&Command::Analyze {
            file: path.clone(),
            system: 12,
        })
        .unwrap();
        assert!(text.contains("failure rates"));
        assert!(text.contains("repair times"));
        assert!(text.contains("weibull"), "{text}");
    }

    #[test]
    fn parse_quality_flags() {
        assert_eq!(
            parse(&args(&["quality", "t.csv"])).unwrap(),
            Command::Quality {
                file: PathBuf::from("t.csv"),
                repair: false,
                out: None,
            }
        );
        assert_eq!(
            parse(&args(&[
                "quality",
                "--repair",
                "--out",
                "fixed.hpct",
                "t.csv"
            ]))
            .unwrap(),
            Command::Quality {
                file: PathBuf::from("t.csv"),
                repair: true,
                out: Some(PathBuf::from("fixed.hpct")),
            }
        );
        // --out without --repair is a usage error, as is a missing FILE.
        assert_eq!(
            parse(&args(&["quality", "--out", "x.csv", "t.csv"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(parse(&args(&["quality"])).unwrap_err().code, 2);
    }

    #[test]
    fn parse_pack_defaults_and_flags() {
        assert_eq!(
            parse(&args(&["pack", "t.csv"])).unwrap(),
            Command::Pack {
                file: PathBuf::from("t.csv"),
                out: PathBuf::from("t.hpct"),
            }
        );
        assert_eq!(
            parse(&args(&["pack", "raw.csv", "--out", "raw.packed"])).unwrap(),
            Command::Pack {
                file: PathBuf::from("raw.csv"),
                out: PathBuf::from("raw.packed"),
            }
        );
        assert_eq!(parse(&args(&["pack"])).unwrap_err().code, 2);
        assert_eq!(
            parse(&args(&["pack", "a.csv", "b.csv"])).unwrap_err().code,
            2
        );
    }

    #[test]
    fn pack_then_analyze_matches_the_csv_path() {
        let dir = std::env::temp_dir().join("hpcfail_cli_pack_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("sys12.csv");
        execute(&Command::Generate {
            seed: 42,
            system: Some(12),
            out: csv.clone(),
        })
        .unwrap();
        let hpct = dir.join("sys12.hpct");
        let msg = execute(&Command::Pack {
            file: csv.clone(),
            out: hpct.clone(),
        })
        .unwrap();
        assert!(msg.contains("packed"), "{msg}");
        assert!(msg.contains("checksummed"), "{msg}");
        // Every FILE-taking analysis accepts the packed store by sniff,
        // and its output is identical to the CSV path's.
        for cmd in [
            |p: PathBuf| Command::Summary(p),
            |p: PathBuf| Command::Analyze {
                file: p,
                system: 12,
            },
            |p: PathBuf| Command::Repro {
                trace: Some(p),
                sections: vec![],
            },
        ] {
            let from_csv = execute(&cmd(csv.clone())).unwrap();
            let from_hpct = execute(&cmd(hpct.clone())).unwrap();
            assert_eq!(from_csv, from_hpct);
        }
        // So do the converters: quality reports and repairs the store
        // like its CSV, ...
        let quality = |file: &PathBuf, out: &PathBuf| {
            let text = execute(&Command::Quality {
                file: file.clone(),
                repair: true,
                out: Some(out.clone()),
            })
            .unwrap();
            text.replace(&out.display().to_string(), "OUT")
        };
        let (fixed_csv, fixed_hpct) = (dir.join("fixed_csv.csv"), dir.join("fixed_hpct.csv"));
        assert_eq!(quality(&csv, &fixed_csv), quality(&hpct, &fixed_hpct));
        assert_eq!(
            std::fs::read(&fixed_csv).unwrap(),
            std::fs::read(&fixed_hpct).unwrap()
        );
        // ... repacking a store reproduces it byte for byte, ...
        let repacked = dir.join("repacked.hpct");
        execute(&Command::Pack {
            file: hpct.clone(),
            out: repacked.clone(),
        })
        .unwrap();
        assert_eq!(
            std::fs::read(&hpct).unwrap(),
            std::fs::read(&repacked).unwrap()
        );
        // ... and import-lanl unpacks it to the generated CSV.
        let unpacked = dir.join("unpacked.csv");
        execute(&Command::ImportLanl {
            file: hpct,
            out: unpacked.clone(),
        })
        .unwrap();
        assert_eq!(
            std::fs::read(&csv).unwrap(),
            std::fs::read(&unpacked).unwrap()
        );
    }

    #[test]
    fn quality_pack_emits_a_loadable_store() {
        let dir = std::env::temp_dir().join("hpcfail_cli_quality_pack_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.csv");
        let good = "20,22,110000000,110021600,compute,memory";
        std::fs::write(&path, format!("{good}\n{good}\n")).unwrap();
        let packed = dir.join("fixed.hpct");
        let text = execute(&Command::Quality {
            file: path,
            repair: true,
            out: Some(packed.clone()),
        })
        .unwrap();
        assert!(text.contains("packed 1 repaired records"), "{text}");
        let summary = execute(&Command::Summary(packed)).unwrap();
        assert!(summary.contains("records: 1"), "{summary}");
    }

    #[test]
    fn quality_audits_and_repairs_a_dirty_trace() {
        let dir = std::env::temp_dir().join("hpcfail_cli_quality_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.csv");
        // One good row, an exact duplicate of it, one mangled row, one
        // wrong-field-count row.
        let good = "20,22,110000000,110021600,compute,memory";
        std::fs::write(
            &path,
            format!("{good}\n{good}\nnot,a,row,at,all,zzz\n20,22,oops\n"),
        )
        .unwrap();

        let text = execute(&Command::Quality {
            file: path.clone(),
            repair: false,
            out: None,
        })
        .unwrap();
        assert!(text.contains("4 data rows"), "{text}");
        assert!(text.contains("conserved: true"), "{text}");
        assert!(text.contains("wrong-field-count"), "{text}");
        assert!(text.contains("exact-duplicate"), "{text}");

        let fixed = dir.join("fixed.csv");
        let text = execute(&Command::Quality {
            file: path,
            repair: true,
            out: Some(fixed.clone()),
        })
        .unwrap();
        assert!(text.contains("repair:"), "{text}");
        assert!(text.contains("wrote 1 repaired records"), "{text}");
        let repaired = execute(&Command::Summary(fixed)).unwrap();
        assert!(repaired.contains("records: 1"), "{repaired}");
    }

    #[test]
    fn missing_file_is_a_runtime_error() {
        let err = execute(&Command::Summary(PathBuf::from("/nonexistent/x.csv"))).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot open"));
    }

    #[test]
    fn import_lanl_round_trip() {
        let dir = std::env::temp_dir().join("hpcfail_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw_lanl.csv");
        std::fs::write(
            &raw,
            "system,node,started,fixed,cause\n20,22,06/28/1999 14:30,06/28/1999 20:45,hardware\n",
        )
        .unwrap();
        let out = dir.join("native.csv");
        let msg = execute(&Command::ImportLanl {
            file: raw,
            out: out.clone(),
        })
        .unwrap();
        assert!(msg.contains("imported 1 records"));
        let text = execute(&Command::Summary(out)).unwrap();
        assert!(text.contains("records: 1"));
    }

    #[test]
    fn parse_serve() {
        let cmd = parse(&args(&["serve", "--synth", "42", "--system", "20"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                traces: vec![],
                synth: Some(42),
                system: Some(20),
                host: "127.0.0.1".to_string(),
                port: 7070,
            }
        );
        let cmd = parse(&args(&[
            "serve", "--trace", "a.csv", "--trace", "b.csv", "--host", "0.0.0.0", "--port", "0",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                traces: vec![PathBuf::from("a.csv"), PathBuf::from("b.csv")],
                synth: None,
                system: None,
                host: "0.0.0.0".to_string(),
                port: 0,
            }
        );
        // No tenants, --system without --synth, bad port: usage errors.
        assert_eq!(parse(&args(&["serve"])).unwrap_err().code, 2);
        assert_eq!(
            parse(&args(&["serve", "--trace", "a.csv", "--system", "20"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            parse(&args(&["serve", "--synth", "1", "--port", "banana"]))
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn parse_scenario() {
        assert_eq!(
            parse(&args(&["scenario", "plan", "camp.toml"])).unwrap(),
            Command::ScenarioPlan {
                spec: PathBuf::from("camp.toml")
            }
        );
        assert_eq!(
            parse(&args(&["scenario", "run", "camp.toml"])).unwrap(),
            Command::ScenarioRun {
                spec: PathBuf::from("camp.toml"),
                out: None,
                resume: false,
                workers: None,
            }
        );
        assert_eq!(
            parse(&args(&[
                "scenario",
                "run",
                "--out",
                "res.txt",
                "--resume",
                "--workers",
                "4",
                "camp.toml"
            ]))
            .unwrap(),
            Command::ScenarioRun {
                spec: PathBuf::from("camp.toml"),
                out: Some(PathBuf::from("res.txt")),
                resume: true,
                workers: Some(4),
            }
        );
        // Missing subcommand, missing spec, extra spec, bad workers.
        assert_eq!(parse(&args(&["scenario"])).unwrap_err().code, 2);
        assert_eq!(parse(&args(&["scenario", "plan"])).unwrap_err().code, 2);
        assert_eq!(
            parse(&args(&["scenario", "run", "a.toml", "b.toml"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            parse(&args(&["scenario", "run", "--workers", "0", "a.toml"]))
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn scenario_plan_and_run_round_trip() {
        let dir = std::env::temp_dir().join("hpcfail_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("camp.toml");
        std::fs::write(
            &spec,
            "[campaign]\nname = \"cli-camp\"\nseed = 5\n[fleet]\nsystems = [12]\n\
             [grid]\nrate_scale = [1.0, 2.0]\n",
        )
        .unwrap();
        let plan = execute(&Command::ScenarioPlan { spec: spec.clone() }).unwrap();
        assert!(plan.contains("cells         2"), "{plan}");
        let out = dir.join("results.txt");
        let _ = std::fs::remove_file(dir.join("results.txt.journal"));
        let msg = execute(&Command::ScenarioRun {
            spec: spec.clone(),
            out: Some(out.clone()),
            resume: false,
            workers: Some(2),
        })
        .unwrap();
        assert!(msg.contains("wrote 2 cell results"), "{msg}");
        let table = std::fs::read_to_string(&out).unwrap();
        assert!(table.contains("fail/ny"), "{table}");
        // The journal landed next to the output; a --resume rerun skips
        // all completed cells and reproduces the same table.
        assert!(dir.join("results.txt.journal").exists());
        let msg = execute(&Command::ScenarioRun {
            spec,
            out: Some(out.clone()),
            resume: true,
            workers: Some(1),
        })
        .unwrap();
        assert!(msg.contains("2 resumed from journal"), "{msg}");
        assert_eq!(table, std::fs::read_to_string(&out).unwrap());
    }

    #[test]
    fn scenario_degraded_campaign_exits_3() {
        let dir = std::env::temp_dir().join("hpcfail_cli_scenario_degraded");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("poisoned.toml");
        std::fs::write(
            &spec,
            "[campaign]\nname = \"poisoned\"\nseed = 5\n[fleet]\nsystems = [12]\n\
             [grid]\nrate_scale = [1.0, 2.0]\n[chaos]\npanic_cells = [1]\n",
        )
        .unwrap();
        let _ = std::fs::remove_file(dir.join("poisoned.toml.journal"));
        let err = execute(&Command::ScenarioRun {
            spec,
            out: None,
            resume: false,
            workers: Some(2),
        })
        .unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("degraded [panic]"), "{}", err.message);
    }

    #[test]
    fn scenario_bad_spec_is_a_runtime_error() {
        let dir = std::env::temp_dir().join("hpcfail_cli_scenario_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("bad.toml");
        std::fs::write(&spec, "[campaign]\nname = \"x\"\n[fleet]\nsystems = [99]\n").unwrap();
        let err = execute(&Command::ScenarioPlan { spec }).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("invalid spec"), "{}", err.message);
        // Specs are TOML only: a JSON document fails on its first line.
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{"campaign": {"name": "j", "seed": 3}, "fleet": {"systems": [14]}}"#,
        )
        .unwrap();
        let err = execute(&Command::ScenarioPlan { spec }).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("invalid spec"), "{}", err.message);
        assert!(err.message.contains("line 1"), "{}", err.message);
    }

    #[test]
    fn serve_state_names_tenants_by_stem() {
        let dir = std::env::temp_dir().join("hpcfail_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mytrace.csv");
        execute(&Command::Generate {
            seed: 3,
            system: Some(20),
            out: path.clone(),
        })
        .unwrap();
        let state = build_serve_state(&[path], Some(5), Some(20)).unwrap();
        assert_eq!(
            state.registry.names(),
            vec!["mytrace".to_string(), "synth".to_string()]
        );
        assert!(!state.registry.get("mytrace").unwrap().is_empty());
    }
}
