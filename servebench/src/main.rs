//! Closed-loop serving benchmark for the HDX router.
//!
//! ```text
//! hdx-servebench --workload <warm_search|mixed_families|control_plane>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--data DIR] [--trace-file PATH]
//! ```
//!
//! One run drives an in-process `hdx_serve::Router`, served by
//! `Router::serve_tcp` on a loopback port:
//!
//! 1. builds the workload's bundles under `.bench_data/` in a separate
//!    process when they are missing (never timed);
//! 2. starts [`COLD_RUNS`] fresh processes that each load the bundle
//!    set and send one unit, giving `setup_s` and `first_report_ms`
//!    with nothing warm;
//! 3. loads the bundle set itself and sends the reference pass: a fixed
//!    set of units whose response digest and work counters are pinned
//!    in `pins.txt` (this is also the warm-up);
//! 4. runs the closed-loop clients on the seed's units for the given
//!    seconds, checking every response line.
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics. With `--trace 1` the cold processes write traces, step 4
//! runs untraced for half the time, and a fresh process repeats steps
//! 3 and 4 for the other half with the trace sink open; its trace is
//! validated, folded per layer, and the last line carries the
//! per-layer metrics. Either way the lines before it print every
//! metric by name with its unit.

mod fold;
mod harness;
mod workload;

use harness::{run_phase, Client, Limit, Phase};
use hdx_obs::{span, Stopwatch};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Stream, Workload};

/// Fresh processes per run that measure setup and the first report.
const COLD_RUNS: usize = 11;

/// Workload seed of the reference pass, whose bytes are pinned.
const REF_SEED: u64 = 0;

/// Units of a traced phase whose text is kept for the proto replay.
const KEEP_UNITS: usize = 256;

/// The counters of the exact work block: deterministic for a given
/// request set, so they must repeat exactly run after run.
const WORK_COUNTERS: [&str; 8] = [
    "engine.steps.hdx",
    "engine.epochs",
    "engine.meta.searches",
    "kernel.macs",
    "bank.compile",
    "catalog.hits",
    "router.proto_errors",
    "artifact.bundle_loads_bytes",
];

/// This commit's reference-pass digest and work block per workload.
const PINS: &str = include_str!("../pins.txt");

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Bench,
    Cold,
    Traced,
    Build,
}

struct Args {
    role: Role,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
    trace_file: Option<PathBuf>,
}

const USAGE: &str = "usage: hdx-servebench --workload <warm_search|mixed_families|control_plane> \
                     --seed <n> --seconds <s> --trace <0|1> [--data DIR] [--trace-file PATH]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() % 2 != 0 {
        return Err("flags take one value each".to_owned());
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", pair[0]))?;
        if ![
            "workload",
            "seed",
            "seconds",
            "trace",
            "data",
            "trace-file",
            "role",
        ]
        .contains(&key)
        {
            return Err(format!("unknown flag --{key}"));
        }
        if flags.insert(key, &pair[1]).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let need = |key: &str| {
        flags
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = Workload::parse(need("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", flags["workload"]))?;
    let role = match flags.get("role").copied().unwrap_or("bench") {
        "bench" => Role::Bench,
        "cold" => Role::Cold,
        "traced" => Role::Traced,
        "build" => Role::Build,
        other => return Err(format!("unknown role {other:?}")),
    };
    let (seed, seconds, trace) = if role == Role::Build {
        (0, 0.0, false)
    } else {
        let seed = need("seed")?
            .parse::<u64>()
            .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
        let seconds = if role != Role::Cold {
            need("seconds")?
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| "--seconds takes a positive number".to_owned())?
        } else {
            0.0
        };
        let trace = match flags.get("trace").copied() {
            Some("1") => true,
            Some("0") => false,
            None if role != Role::Bench => false,
            _ => return Err("--trace takes 0 or 1".to_owned()),
        };
        (seed, seconds, trace)
    };
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let data = cwd.join(flags.get("data").copied().unwrap_or(".bench_data"));
    let trace_file = flags.get("trace-file").map(|p| cwd.join(p));
    Ok(Args {
        role,
        workload,
        seed,
        seconds,
        trace,
        data,
        trace_file,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hdx-servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.role {
        Role::Build => harness::build_data(args.workload, &args.data),
        Role::Cold => cold(&args),
        Role::Traced => traced_role(&args),
        Role::Bench => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hdx-servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Small statistics
// ---------------------------------------------------------------------

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of unsorted samples (NaN when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn snapshot() -> BTreeMap<String, u64> {
    hdx_obs::snapshot().into_iter().collect()
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> u64 {
    let get = |m: &BTreeMap<String, u64>| m.get(key).copied().unwrap_or(0);
    get(after) - get(before)
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

// ---------------------------------------------------------------------
// Cold processes: setup and first report
// ---------------------------------------------------------------------

/// One fresh process: load the bundle set, wait until the router
/// answers a ping, then send the first reference unit. Prints one
/// `cold key=value …` line.
fn cold(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.trace_file {
        hdx_tensor::obs::init_trace_to(&path.to_string_lossy());
    }
    let sw = Stopwatch::start();
    let (router, _) = harness::setup(args.workload, &args.data)?;
    let addr = hdx_workload::spawn_tcp_router(router).map_err(|e| format!("cannot listen: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let pong = client
        .exchange("hdx1 ping id=0\n", 1)
        .map_err(|e| format!("ping: {e}"))?;
    if pong != ["hdx1 pong id=0"] {
        return Err(format!("router answered the readiness ping with {pong:?}"));
    }
    let setup_s = sw.seconds();
    // Every cold process sends the same unit (the reference stream's
    // first), so cold runs do identical work whatever the seed.
    let stream = Stream::new(args.workload, REF_SEED);
    let first = harness::run_unit(&mut client, &stream, 0, false).expect("every stream has unit 0");
    drop(client);
    if let Some(path) = &args.trace_file {
        drain_trace(path, 1)?;
    }
    if let Some(e) = &first.error {
        eprintln!("cold first unit: {e}");
    }
    println!(
        "cold setup_s={setup_s} first_ms={} requests={} failed={}",
        first.latency_s * 1e3,
        first.requests,
        first.failed
    );
    Ok(())
}

/// Waits until the trace holds the `router.connection` span of each of
/// the `conns` connections opened since tracing began. A connection
/// thread records that span last and drains its buffer when it exits,
/// so after this every span of the served requests is in the file.
fn drain_trace(path: &std::path::Path, conns: usize) -> Result<(), String> {
    let sw = Stopwatch::start();
    loop {
        hdx_obs::flush();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if text.matches("\"name\":\"router.connection\"").count() >= conns {
            return Ok(());
        }
        if sw.seconds() > 30.0 {
            return Err(format!(
                "{}: connection threads did not finish",
                path.display()
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Runs `exe` with `args` and returns its stdout; stderr passes through.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| "child wrote non-UTF-8 output".to_owned())
}

struct ColdSample {
    fields: BTreeMap<String, f64>,
    /// The folded trace of a traced run's cold process.
    table: Option<BTreeMap<String, fold::Row>>,
}

/// Runs the cold processes; with `--trace 1` each writes a trace,
/// which is validated, folded and removed.
fn cold_samples(args: &Args) -> Result<Vec<ColdSample>, String> {
    let trace_dir = args.data.join("trace");
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
    let data = args.data.to_string_lossy().into_owned();
    let seed = args.seed.to_string();
    (0..COLD_RUNS)
        .map(|i| {
            let trace = trace_dir.join(format!(
                "{}-{}-cold{i}.jsonl",
                args.workload.name(),
                args.seed
            ));
            let trace_arg = trace.to_string_lossy().into_owned();
            let mut argv = vec![
                "--role",
                "cold",
                "--workload",
                args.workload.name(),
                "--seed",
                &seed,
                "--data",
                &data,
            ];
            if args.trace {
                argv.extend(["--trace-file", &trace_arg]);
            }
            let out = child(&argv)?;
            let line = out
                .lines()
                .rev()
                .find_map(|l| l.strip_prefix("cold "))
                .ok_or_else(|| format!("cold process printed no result: {out:?}"))?;
            let table = if args.trace {
                let text = std::fs::read_to_string(&trace)
                    .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
                std::fs::remove_file(&trace).ok();
                let spans =
                    fold::parse(&text).map_err(|e| format!("cold trace check failed: {e}"))?;
                Some(fold::table(&spans))
            } else {
                None
            };
            Ok(ColdSample {
                fields: parse_fields(line)?,
                table,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Pins: the reference pass's digest and work block
// ---------------------------------------------------------------------

fn pinned(workload: Workload) -> BTreeMap<String, String> {
    PINS.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next()? == workload.name())
                .then(|| Some((cols.next()?.to_owned(), cols.next()?.to_owned())))
                .flatten()
        })
        .collect()
}

/// FNV-1a over the reference responses in unit order, one line each;
/// counter-reading bodies contribute only their kind and id.
fn reference_digest(workload: Workload, phase: &Phase) -> u64 {
    let stream = Stream::new(workload, REF_SEED);
    let mut text = String::new();
    for rec in &phase.units {
        let unit = stream.unit(rec.k).expect("a recorded unit exists");
        let (_, lines) = rec.kept.as_ref().expect("reference units are kept");
        for (want, got) in unit.expected.iter().zip(lines) {
            text.push_str(want.expect.digest_form(got));
            text.push('\n');
        }
    }
    hdx_tensor::ckpt::fnv1a(text.as_bytes())
}

/// Compares observed values with the pins; returns the mismatches.
fn check_pins(workload: Workload, observed: &[(String, String)]) -> Vec<String> {
    let pins = pinned(workload);
    observed
        .iter()
        .filter_map(|(key, value)| match pins.get(key) {
            Some(pin) if pin == value => None,
            Some(pin) => Some(format!("{key}: pinned {pin}, observed {value}")),
            None => Some(format!("{key}: not pinned, observed {value}")),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The benchmark run
// ---------------------------------------------------------------------

/// Totals over the units of one phase.
#[derive(Default)]
struct Totals {
    requests: usize,
    lines: usize,
    jobs: usize,
    failed: usize,
    reports: usize,
    in_constraint: usize,
    latencies_ms: Vec<f64>,
}

fn totals(phase: &Phase) -> Totals {
    let mut t = Totals::default();
    for u in &phase.units {
        t.requests += u.requests;
        t.lines += u.lines_sent;
        t.jobs += u.jobs;
        t.failed += u.failed;
        t.reports += u.reports;
        t.in_constraint += u.in_constraint;
        t.latencies_ms.push(u.latency_s * 1e3);
        if let Some(e) = &u.error {
            eprintln!("unit {}: {e}", u.k);
        }
    }
    t
}

/// Operations a unit counts for in throughput: search jobs, or
/// request lines on `control_plane` (which runs no jobs).
fn ops(workload: Workload, u: &harness::UnitRecord) -> usize {
    if workload == Workload::ControlPlane {
        u.requests
    } else {
        u.jobs
    }
}

/// The timed phase's latency p50, p90 and throughput, each the median
/// over equal time slices of the phase. A slice holds at least 100
/// units, so its p90 has ten samples beyond it; the median over slices
/// keeps a burst of host contention in one slice from moving the run.
struct Windowed {
    slices: usize,
    p50_ms: f64,
    p90_ms: f64,
    per_s: f64,
}

fn windowed(workload: Workload, phase: &Phase) -> Windowed {
    let slices = (phase.units.len() / 100).clamp(1, 10);
    let width = phase.wall_s / slices as f64;
    let (mut p50, mut p90, mut per_s) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..slices {
        let inside: Vec<&harness::UnitRecord> = phase
            .units
            .iter()
            .filter(|u| ((u.end_s / width) as usize).min(slices - 1) == i)
            .collect();
        let lat: Vec<f64> = inside.iter().map(|u| u.latency_s * 1e3).collect();
        p50.push(quantile(&lat, 0.5));
        p90.push(quantile(&lat, 0.9));
        per_s.push(inside.iter().map(|u| ops(workload, u)).sum::<usize>() as f64 / width);
    }
    Windowed {
        slices,
        p50_ms: median(&p50),
        p90_ms: median(&p90),
        per_s: median(&per_s),
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Builds the workload's bundles in a separate process when missing.
fn ensure_data(args: &Args) -> Result<(), String> {
    let w = args.workload;
    if harness::data_ready(w, &args.data) {
        return Ok(());
    }
    eprintln!(
        "building {} bundles under {}",
        w.name(),
        args.data.display()
    );
    child(&[
        "--role",
        "build",
        "--workload",
        w.name(),
        "--data",
        &args.data.to_string_lossy(),
    ])?;
    if harness::data_ready(w, &args.data) {
        Ok(())
    } else {
        Err("bundle build finished but the data is incomplete".to_owned())
    }
}

/// A serving process after setup and the reference pass.
struct Ready {
    addr: std::net::SocketAddr,
    /// Bundle bytes the setup read.
    bundle_bytes: u64,
    /// The pinned keys: `digest` and the work counters.
    work: Vec<(String, String)>,
    reference: Totals,
    /// Reference-pass answers that admission rejected.
    rejects: usize,
    rss_mb: f64,
    problems: Vec<String>,
}

impl Ready {
    fn work(&self, key: &str) -> f64 {
        self.work
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// Loads the bundle set, serves it with `Router::serve_tcp` on a
/// loopback port, and sends the reference pass: checks its digest and
/// work block against the pins.
fn ready(args: &Args) -> Result<Ready, String> {
    let w = args.workload;
    let before = snapshot();
    let (router, bundle_bytes) = harness::setup(w, &args.data)?;
    let addr = hdx_workload::spawn_tcp_router(router).map_err(|e| format!("cannot listen: {e}"))?;
    let reference = run_phase(
        addr,
        w,
        REF_SEED,
        Limit::Units(w.reference_units()),
        usize::MAX,
    )
    .map_err(|e| format!("reference pass: {e}"))?;
    let after = snapshot();
    // Memory after setup and warm-up: fixed work, so a faster program
    // that completes more units in the timed phase reads the same.
    let rss_mb = peak_rss_mb();
    let mut work = vec![(
        "digest".to_owned(),
        format!("{:016x}", reference_digest(w, &reference)),
    )];
    for key in WORK_COUNTERS {
        work.push((key.to_owned(), delta(&before, &after, key).to_string()));
    }
    println!(
        "work block (setup + reference pass, {} units; exact):",
        reference.units.len()
    );
    for (key, value) in &work {
        println!("  {key:<28} {value}");
    }
    let problems = check_pins(w, &work)
        .into_iter()
        .map(|m| format!("pin mismatch: {m}"))
        .collect();
    let rejects = reference
        .units
        .iter()
        .filter_map(|u| u.kept.as_ref())
        .flat_map(|(_, lines)| lines)
        .filter(|l| l.contains("-step_deadline"))
        .count();
    Ok(Ready {
        addr,
        bundle_bytes,
        work,
        reference: totals(&reference),
        rejects,
        rss_mb,
        problems,
    })
}

/// Prints the human-readable metric lines and the result line.
fn report(metrics: &[Metric], attempted: usize, failed: usize, problems: &[String]) {
    println!(
        "fail_frac {} ratio ({failed} of {attempted} requests)",
        ratio(failed as f64, attempted as f64)
    );
    for m in metrics {
        println!("{:<28} {} {}", m.name, m.value, m.unit);
    }
    let mut problems = problems.to_vec();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("{} was not measured", m.name));
    }
    for p in &problems {
        eprintln!("{p}");
    }
    let correct = failed == 0 && problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    ensure_data(args)?;
    println!(
        "workload={} seed={} seconds={} trace={} cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let cold = cold_samples(args)?;
    let mut attempted: usize = cold.iter().map(|c| c.fields["requests"] as usize).sum();
    let mut failed: usize = cold.iter().map(|c| c.fields["failed"] as usize).sum();
    let cold_median = |key: &str| median(&cold.iter().map(|c| c.fields[key]).collect::<Vec<_>>());

    let ready = ready(args)?;
    attempted += ready.reference.requests;
    failed += ready.reference.failed;
    let mut problems = ready.problems.clone();

    // With --trace 1 the untraced phase gets half the time and a traced
    // process the other half.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timed = run_phase(ready.addr, w, args.seed, Limit::Seconds(seconds), 0)
        .map_err(|e| format!("timed phase: {e}"))?;
    let t = totals(&timed);
    attempted += t.requests;
    failed += t.failed;
    let n = t.latencies_ms.len();
    let win = windowed(w, &timed);
    println!(
        "timed phase: {n} units, {} requests, {} jobs in {:.3} s, {} slices of about {} units",
        t.requests,
        t.jobs,
        timed.wall_s,
        win.slices,
        n / win.slices
    );
    println!(
        "peak RSS {} MiB after the reference pass, {} MiB at the end ({} KiB per timed unit)",
        ready.rss_mb,
        peak_rss_mb(),
        (peak_rss_mb() - ready.rss_mb) * 1024.0 / n.max(1) as f64
    );
    println!(
        "in_constraint_frac {} ratio ({} of {} reports)",
        ratio(t.in_constraint as f64, t.reports as f64),
        t.in_constraint,
        t.reports
    );

    let metrics = if args.trace {
        let traced = traced_process(args, seconds)?;
        attempted += traced["requests"] as usize;
        failed += traced["failed"] as usize;
        if traced["problems"] > 0.0 {
            problems.push("the traced process reported problems (see its output)".to_owned());
        }
        layer_metrics(&ready, &cold, &traced, quantile(&t.latencies_ms, 0.5))
    } else {
        vec![
            Metric {
                name: "setup_s",
                value: cold_median("setup_s"),
                unit: "s",
            },
            Metric {
                name: "first_report_ms",
                value: cold_median("first_ms"),
                unit: "ms",
            },
            Metric {
                name: "latency_p50_ms",
                value: win.p50_ms,
                unit: "ms",
            },
            Metric {
                name: "latency_p90_ms",
                value: win.p90_ms,
                unit: "ms",
            },
            Metric {
                name: "throughput_per_s",
                value: win.per_s,
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: ready.rss_mb,
                unit: "MiB",
            },
        ]
    };
    report(&metrics, attempted, failed, &problems);
    Ok(())
}

/// Runs the traced half in a fresh process, so it starts from the same
/// state as the untraced half, and returns its `traced-result` fields (its
/// other output lines are passed through).
fn traced_process(args: &Args, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let trace_file = args.trace_file.clone().unwrap_or_else(|| {
        args.data
            .join("trace")
            .join(format!("{}-{}.jsonl", args.workload.name(), args.seed))
    });
    let out = child(&[
        "--role",
        "traced",
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--data",
        &args.data.to_string_lossy(),
        "--trace-file",
        &trace_file.to_string_lossy(),
    ])?;
    if args.trace_file.is_none() {
        std::fs::remove_file(&trace_file).ok();
    }
    let mut fields = None;
    for line in out.lines() {
        match line.strip_prefix("traced-result ") {
            Some(rest) => fields = Some(parse_fields(rest)?),
            None => println!("{line}"),
        }
    }
    fields.ok_or_else(|| "the traced process printed no result".to_owned())
}

fn parse_fields(line: &str) -> Result<BTreeMap<String, f64>, String> {
    line.split(' ')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| {
            v.parse::<f64>()
                .map(|v| (k.to_owned(), v))
                .map_err(|_| format!("bad field {k}={v}"))
        })
        .collect()
}

/// The traced process: the same setup and reference pass with the
/// trace sink open (the reference responses and work block must still
/// match the pins, so tracing changes no byte and no count), then the
/// traced timed phase, the proto replay and the fold.
fn traced_role(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let trace_file = args
        .trace_file
        .clone()
        .ok_or("the traced role needs --trace-file")?;
    if let Some(dir) = trace_file.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    hdx_tensor::obs::init_trace_to(&trace_file.to_string_lossy());
    println!("traced process (fresh, trace sink open):");
    let ready = ready(args)?;
    for p in &ready.problems {
        eprintln!("traced process: {p}");
    }

    let before = snapshot();
    let phase_span = span("bench.phase");
    let phase = run_phase(
        ready.addr,
        w,
        args.seed,
        Limit::Seconds(args.seconds),
        KEEP_UNITS,
    )
    .map_err(|e| format!("traced phase: {e}"))?;
    let after = snapshot();
    let (decode_us, encode_us) = proto_replay(&phase);
    drop(phase_span);
    drain_trace(&trace_file, 2 * w.connections())?;
    let t = totals(&phase);

    let text = std::fs::read_to_string(&trace_file)
        .map_err(|e| format!("cannot read {}: {e}", trace_file.display()))?;
    let spans = fold::parse(&text).map_err(|e| format!("trace check failed: {e}"))?;
    let window = spans
        .iter()
        .find(|s| s.name == "bench.phase")
        .ok_or("the trace has no bench.phase span")?
        .clone();
    let inside = fold::within(&spans, &window);
    let table = fold::table(&inside);
    let d = fold::dispatches(&inside);
    println!(
        "trace {}: {} spans, {} in the traced phase ({} units)",
        trace_file.display(),
        spans.len(),
        inside.len(),
        phase.units.len()
    );
    print_table("traced phase", std::slice::from_ref(&table));

    let sum = |name: &str| table.get(name).map_or(0, |r| r.incl_us) as f64;
    let us = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let search_total = d.search_us.iter().sum::<u64>() as f64;
    let epochs_total = d.epochs_us.iter().sum::<u64>() as f64;
    let tails: Vec<f64> = d
        .search_us
        .iter()
        .zip(&d.epochs_us)
        .map(|(s, e)| (s - e) as f64 / 1e3)
        .collect();
    let (hits, misses) = (
        delta(&before, &after, "bank.hit") as f64,
        delta(&before, &after, "bank.miss") as f64,
    );
    // Layer numbers a workload without the layer cannot report are
    // printed here, not in the result line.
    println!(
        "engine.search_ms p50 {} ms, engine.epochs_ms p50 {} ms, engine.tail_ms p50 {} ms over {} searches",
        quantile(&us(&d.search_us), 0.5) / 1e3,
        quantile(&us(&d.epochs_us), 0.5) / 1e3,
        quantile(&tails, 0.5),
        d.search_us.len()
    );
    println!(
        "bank.compile_ms {} ms over {} compiles in the traced phase; bank.hit_rate base {} checkouts",
        sum("bank.compile") / 1e3,
        table.get("bank.compile").map_or(0, |r| r.count),
        hits + misses
    );
    let fields = [
        ("p50_ms", quantile(&t.latencies_ms, 0.5)),
        ("decode_us", decode_us),
        ("encode_us", encode_us),
        (
            "conn_self_us",
            (sum("bench.unit") - sum("router.dispatch")) / t.lines as f64 - decode_us - encode_us,
        ),
        ("dispatch_us", mean(&us(&d.dispatch_us))),
        ("router_self_us", mean(&us(&d.self_us))),
        (
            "busy_frac",
            ratio(
                d.engine_us.iter().sum::<u64>() as f64,
                sum("router.dispatch"),
            ),
        ),
        (
            "tail_frac",
            ratio(search_total - epochs_total, search_total),
        ),
        (
            "gflops",
            ratio(
                2.0 * delta(&before, &after, "kernel.macs") as f64,
                d.engine_busy_us as f64 * 1e3,
            ),
        ),
        ("hit_rate", ratio(hits, hits + misses)),
        ("spans", spans.len() as f64),
        ("requests", (ready.reference.requests + t.requests) as f64),
        ("failed", (ready.reference.failed + t.failed) as f64),
        ("problems", ready.problems.len() as f64),
    ];
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("traced-result {}", line.join(" "));
    Ok(())
}

/// The per-layer result metrics: exact counts from the reference pass,
/// setup layers from the cold processes' traces, the rest from the
/// traced process.
fn layer_metrics(
    ready: &Ready,
    cold: &[ColdSample],
    traced: &BTreeMap<String, f64>,
    untraced_p50_ms: f64,
) -> Vec<Metric> {
    let cold_tables: Vec<BTreeMap<String, fold::Row>> =
        cold.iter().filter_map(|c| c.table.clone()).collect();
    print_table("cold processes: setup and first unit", &cold_tables);
    let cold_ms = |name: &str| {
        median(
            &cold_tables
                .iter()
                .map(|t| t.get(name).map_or(0, |r| r.incl_us) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    println!(
        "bank.compile_ms {} ms median per cold first unit; catalog.get_ms (setup.read on \
         mixed_families) {} ms; kernel.macs per reference job {}",
        cold_ms("bank.compile"),
        cold_ms("bench.setup.read"),
        ratio(ready.work("kernel.macs"), ready.reference.jobs as f64)
    );
    println!(
        "obs      trace sink: {} spans in the traced process, validated by hdx_obs::check_trace",
        traced["spans"]
    );
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("proto.decode_us", traced["decode_us"], "us"),
        m("proto.encode_us", traced["encode_us"], "us"),
        m(
            "proto.error_lines",
            ready.work("router.proto_errors"),
            "count",
        ),
        m("conn.self_us", traced["conn_self_us"], "us"),
        m("router.dispatch_us", traced["dispatch_us"], "us"),
        m("router.self_us", traced["router_self_us"], "us"),
        m("router.jobs", ready.reference.jobs as f64, "count"),
        m("router.rejects", ready.rejects as f64, "count"),
        m("engine.steps", ready.work("engine.steps.hdx"), "count"),
        m(
            "engine.meta_searches",
            ready.work("engine.meta.searches"),
            "count",
        ),
        m("engine.busy_frac", traced["busy_frac"], "ratio"),
        m("engine.tail_frac", traced["tail_frac"], "ratio"),
        m("kernel.macs", ready.work("kernel.macs"), "count"),
        m("kernel.gflops", traced["gflops"], "GFLOP/s"),
        m("bank.compiles", ready.work("bank.compile"), "count"),
        m("bank.hit_rate", traced["hit_rate"], "ratio"),
        m("setup.read_ms", cold_ms("bench.setup.read"), "ms"),
        m("artifact.decode_ms", cold_ms("bench.setup.decode"), "ms"),
        m("setup.prepare_ms", cold_ms("bench.setup.prepare"), "ms"),
        m("artifact.bytes", ready.bundle_bytes as f64, "B"),
        m(
            "obs.trace_overhead_pct",
            (traced["p50_ms"] / untraced_p50_ms - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Prints a per-layer inclusive/self table: per span name, the median
/// over `tables` (one per process) of count, inclusive and self time.
fn print_table(title: &str, tables: &[BTreeMap<String, fold::Row>]) {
    let names: std::collections::BTreeSet<&String> = tables.iter().flat_map(|t| t.keys()).collect();
    let mut rows: Vec<(&str, &String)> = names
        .into_iter()
        .filter(|n| n.as_str() != "bench.phase")
        .map(|n| (fold::layer(n), n))
        .collect();
    rows.sort();
    println!(
        "{title} (median of {} process(es)):\n{:<8} {:<28} {:>9} {:>14} {:>14}",
        tables.len(),
        "layer",
        "span",
        "count",
        "incl_ms",
        "self_ms"
    );
    for (layer, name) in rows {
        let med = |f: &dyn Fn(&fold::Row) -> u64| {
            median(
                &tables
                    .iter()
                    .map(|t| t.get(name).map_or(0, f) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "{layer:<8} {name:<28} {:>9} {:>14.3} {:>14.3}",
            med(&|r| r.count),
            med(&|r| r.incl_us) / 1e3,
            med(&|r| r.self_us) / 1e3
        );
    }
}

/// Times the proto layer on the traced phase's own lines: request
/// decode (`v1::decode_request` / `parse_request`) and response encode
/// (`v1::encode_response` of each decoded v1 response). Returns µs per
/// line for each.
fn proto_replay(phase: &Phase) -> (f64, f64) {
    use hdx_serve::v1;
    let kept: Vec<&(String, Vec<String>)> =
        phase.units.iter().filter_map(|u| u.kept.as_ref()).collect();
    let requests: Vec<&str> = kept.iter().flat_map(|(text, _)| text.lines()).collect();
    let responses: Vec<(&str, v1::Envelope<v1::ResponseBody>)> = kept
        .iter()
        .flat_map(|(_, lines)| lines)
        .filter(|l| l.starts_with("hdx1 "))
        .filter_map(|l| v1::decode_response(l).ok().map(|env| (l.as_str(), env)))
        .collect();
    // Repeat short samples so each timing covers at least ~20k calls.
    let reps = |n: usize| (20_000 / n.max(1)).max(1);

    let decode_us = {
        let _span = span("bench.proto.decode");
        let sw = Stopwatch::start();
        for _ in 0..reps(requests.len()) {
            for line in &requests {
                match v1::sniff(line) {
                    v1::Framing::V1 => drop(std::hint::black_box(v1::decode_request(line))),
                    _ => drop(std::hint::black_box(hdx_serve::parse_request(line))),
                }
            }
        }
        sw.seconds() * 1e6 / (reps(requests.len()) * requests.len().max(1)) as f64
    };
    let encode_us = {
        let _span = span("bench.proto.encode");
        let sw = Stopwatch::start();
        for _ in 0..reps(responses.len()) {
            for (_, env) in &responses {
                std::hint::black_box(v1::encode_response(env));
            }
        }
        sw.seconds() * 1e6 / (reps(responses.len()) * responses.len().max(1)) as f64
    };
    let mismatched = responses
        .iter()
        .filter(|(line, env)| v1::encode_response(env) != *line)
        .count();
    // Informational: v1 error responses decode into a generic kind, so
    // they do not re-encode to their own bytes.
    println!(
        "proto replay: {} request lines, {} v1 response lines ({} do not re-encode to their bytes)",
        requests.len(),
        responses.len(),
        mismatched
    );
    (decode_us, encode_us)
}
