//! The measured system and its clients: bundle data, the setup path,
//! and the closed-loop client connections. The router itself is served
//! by `Router::serve_tcp` on a loopback listener, exactly as
//! `hdx-serve serve --tcp` serves it.

use crate::workload::{Stream, Workload};
use hdx_catalog::Catalog;
use hdx_obs::{span, Stopwatch};
use hdx_serve::Router;
use hdx_workload::BundleSpec;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Catalog family label the benchmark publishes under.
const FAMILY: &str = "workload";

fn catalog_dir(data: &Path) -> PathBuf {
    data.join("catalog")
}

/// Whether the workload's bundles are already built under `data`
/// (bundle files and catalog objects are written atomically, so one
/// that exists is whole).
pub fn data_ready(workload: Workload, data: &Path) -> bool {
    let (specs, via_catalog) = workload.bundles();
    if !via_catalog {
        return specs.iter().all(|s| data.join(s.file_name()).is_file());
    }
    if !catalog_dir(data).join(hdx_catalog::INDEX_FILE).is_file() {
        return false;
    }
    match Catalog::open(&catalog_dir(data)) {
        Ok(catalog) => specs
            .iter()
            .all(|s| catalog.resolve(task_code(s), FAMILY, s.seed).is_some()),
        Err(_) => false,
    }
}

fn task_code(spec: &BundleSpec) -> u8 {
    u8::try_from(hdx_serve::artifact::task_code(spec.task)).expect("task codes fit a byte")
}

/// Trains the workload's bundles (deterministic: same spec, same
/// bytes) and writes them under `data`, publishing catalog-served
/// ones into the catalog. Runs in its own process so the measuring
/// process starts with empty caches.
///
/// # Errors
///
/// A message naming the bundle that could not be written.
pub fn build_data(workload: Workload, data: &Path) -> Result<(), String> {
    std::fs::create_dir_all(data).map_err(|e| format!("cannot create {}: {e}", data.display()))?;
    let (specs, via_catalog) = workload.bundles();
    for spec in &specs {
        let path = data.join(spec.file_name());
        if !path.is_file() {
            spec.write_bundle(data, 0)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if via_catalog {
            let catalog = Catalog::open(&catalog_dir(data))
                .map_err(|e| format!("cannot open the catalog: {e}"))?;
            let bytes =
                std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            catalog
                .publish(task_code(spec), FAMILY, spec.seed, &bytes)
                .map_err(|e| format!("cannot publish {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Loads the workload's bundle set into a new router and returns it
/// with the bundle bytes read. Each layer's public call is wrapped in a
/// span, so a traced process times them: the read (a file read, or
/// catalog open + get), `load_bundle_bytes`, `Artifacts::into_prepared`
/// (LUT seeding, `Dataset::generate`) and `Router::insert_prepared`.
///
/// # Errors
///
/// A message naming the bundle that failed to load.
pub fn setup(workload: Workload, data: &Path) -> Result<(Arc<Router>, u64), String> {
    let router = Router::new(workload.router_config());
    let mut total_bytes = 0u64;
    let (specs, via_catalog) = workload.bundles();
    let catalog = if via_catalog {
        let _span = span("bench.setup.read");
        Some(
            Catalog::open(&catalog_dir(data))
                .map_err(|e| format!("cannot open the catalog: {e}"))?,
        )
    } else {
        None
    };
    for spec in &specs {
        let bytes = {
            let _span = span("bench.setup.read");
            match &catalog {
                Some(catalog) => {
                    let receipt = catalog
                        .resolve(task_code(spec), FAMILY, spec.seed)
                        .ok_or_else(|| format!("{} is not in the catalog", spec.file_name()))?;
                    catalog
                        .get(receipt.fingerprint)
                        .map_err(|e| format!("catalog get {}: {e}", spec.file_name()))?
                }
                None => {
                    let path = data.join(spec.file_name());
                    std::fs::read(&path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?
                }
            }
        };
        total_bytes += bytes.len() as u64;
        let artifacts = {
            let _span = span("bench.setup.decode");
            hdx_serve::load_bundle_bytes(&bytes)
                .map_err(|e| format!("cannot decode {}: {e}", spec.file_name()))?
        };
        let (task, seed) = (artifacts.task, artifacts.seed);
        let prepared = {
            let _span = span("bench.setup.prepare");
            artifacts.into_prepared()
        };
        let _span = span("bench.setup.insert");
        router.insert_prepared(task, seed, prepared);
    }
    Ok((Arc::new(router), total_bytes))
}

/// A client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends `text` and reads `lines` response lines (fewer when the
    /// server closes the connection early).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn exchange(&mut self, text: &str, lines: usize) -> std::io::Result<Vec<String>> {
        self.writer.write_all(text.as_bytes())?;
        let mut out = Vec::with_capacity(lines);
        for _ in 0..lines {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                break;
            }
            out.push(self.line.trim_end_matches('\n').to_owned());
        }
        Ok(out)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Ends the server's read loop; errors mean it is already gone.
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

/// One completed unit.
#[derive(Clone, Debug)]
pub struct UnitRecord {
    /// Global unit index.
    pub k: usize,
    pub latency_s: f64,
    /// When the unit completed, seconds since its phase began.
    pub end_s: f64,
    pub requests: usize,
    pub lines_sent: usize,
    /// Search jobs the unit ran (reports expected).
    pub jobs: usize,
    /// Request lines with a missing, wrong or unexpected-error answer.
    pub failed: usize,
    /// Reports with `in_constraint=true`.
    pub in_constraint: usize,
    /// Reports received and checked.
    pub reports: usize,
    /// The unit's request text and response lines, kept for the
    /// digest and the proto replay.
    pub kept: Option<(String, Vec<String>)>,
    /// The first mismatch, for the log.
    pub error: Option<String>,
}

/// When a phase stops.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// The first `n` units of the stream.
    Units(usize),
    /// Closed loop until this many seconds have passed.
    Seconds(f64),
}

/// Everything one phase measured.
pub struct Phase {
    pub units: Vec<UnitRecord>,
    pub wall_s: f64,
}

/// Runs one unit on `client` and checks every response line.
pub fn run_unit(client: &mut Client, stream: &Stream, k: usize, keep: bool) -> Option<UnitRecord> {
    let unit = stream.unit(k)?;
    let sw = Stopwatch::start();
    let got = {
        let _span = span("bench.unit");
        client.exchange(&unit.text, unit.expected.len())
    };
    let latency_s = sw.seconds();
    let got = got.unwrap_or_default();
    let mut failed = vec![false; unit.requests];
    let mut seal_failed = false;
    let mut error = None;
    let (mut in_constraint, mut reports) = (0, 0);
    for (i, want) in unit.expected.iter().enumerate() {
        let result = match got.get(i) {
            Some(line) => want.expect.check(line),
            None => Err("missing response line".to_owned()),
        };
        match result {
            Ok(checked) => {
                if let Some(ok) = checked.report {
                    reports += 1;
                    in_constraint += usize::from(ok);
                }
            }
            Err(e) => {
                error.get_or_insert(e);
                match want.request {
                    Some(r) => failed[r] = true,
                    None => seal_failed = true,
                }
            }
        }
    }
    if got.len() > unit.expected.len() {
        seal_failed = true;
    }
    let mut failed = failed.iter().filter(|f| **f).count();
    if seal_failed && failed == 0 {
        failed = 1;
    }
    let kept = keep.then(|| (unit.text.clone(), got));
    Some(UnitRecord {
        k,
        latency_s,
        end_s: 0.0,
        requests: unit.requests,
        lines_sent: unit.requests + 1,
        jobs: unit.jobs(),
        failed,
        in_constraint,
        reports,
        kept,
        error,
    })
}

/// Runs the workload's closed-loop clients against `addr`: unit `k`
/// of the seed's stream goes to connection `k % connections`, and
/// each connection sends its next unit only after the previous one is
/// answered. Keeps the request and response text of the units below
/// `keep_units`.
///
/// # Errors
///
/// Connect failures.
pub fn run_phase(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    limit: Limit,
    keep_units: usize,
) -> std::io::Result<Phase> {
    let conns = workload.connections();
    let clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<_>>()?;
    let stream = Stream::new(workload, seed);
    let sw = Stopwatch::start();
    let mut units: Vec<UnitRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let stream = &stream;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut k = c;
                    loop {
                        let go = match limit {
                            Limit::Units(n) => k < n,
                            Limit::Seconds(s) => sw.seconds() < s,
                        };
                        if !go {
                            break;
                        }
                        let Some(mut rec) = run_unit(&mut client, stream, k, k < keep_units) else {
                            break;
                        };
                        rec.end_s = sw.seconds();
                        // After a mismatch the response stream may be out
                        // of step with the requests: stop this client.
                        let broken = rec.error.is_some();
                        out.push(rec);
                        if broken {
                            break;
                        }
                        k += conns;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = sw.seconds();
    units.sort_by_key(|u| u.k);
    Ok(Phase { units, wall_s })
}
