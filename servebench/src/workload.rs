//! The three workloads: which bundles each loads, how its router is
//! configured, and the closed-loop units its clients send.
//!
//! A *unit* is one closed-loop exchange on one connection: the client
//! writes the unit's request lines plus a sealing `ping`, then waits
//! for every response line before it sends the next unit. The seal
//! makes the router flush the unit as its own batch, so each unit's
//! latency is one request's latency and never waits behind later
//! requests from the same client.
//!
//! Every unit is a pure function of `(workload, seed, unit index)`, so
//! the same seed replays the same inputs.

use hdx_core::Task;
use hdx_serve::{parse_request, v1, Request, RouterConfig, SearchRequest};
use hdx_tensor::Rng;
use hdx_workload::BundleSpec;

/// Seal ids live above every request id a workload uses.
const SEAL_ID_BASE: u64 = 900_000_000;

/// Request lines per `control_plane` unit (the seal comes on top).
const CONTROL_WINDOW: usize = 64;

/// Units `mixed_families` pre-generates; a timed phase that reaches
/// the end stops early (far beyond what a run completes).
const MIXED_UNITS: usize = 8192;

/// `control_plane`'s line vocabulary and the bytes this commit answers
/// each line with (see that file's header).
const CONTROL_TEMPLATES: &str = include_str!("../control_plane.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmSearch,
    MixedFamilies,
    ControlPlane,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmSearch,
        Workload::MixedFamilies,
        Workload::ControlPlane,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSearch => "warm_search",
            Workload::MixedFamilies => "mixed_families",
            Workload::ControlPlane => "control_plane",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections, each a closed loop.
    pub fn connections(self) -> usize {
        match self {
            Workload::MixedFamilies => 2,
            Workload::WarmSearch | Workload::ControlPlane => 1,
        }
    }

    pub fn router_config(self) -> RouterConfig {
        match self {
            Workload::WarmSearch => RouterConfig {
                jobs: 1,
                ..RouterConfig::default()
            },
            Workload::MixedFamilies => RouterConfig {
                jobs: 2,
                ..RouterConfig::default()
            },
            Workload::ControlPlane => RouterConfig {
                jobs: 1,
                deadline_steps: Some(10),
                ..RouterConfig::default()
            },
        }
    }

    /// The bundle set the workload serves, and whether it is read
    /// through the artifact catalog (else from a loose bundle file).
    pub fn bundles(self) -> (Vec<BundleSpec>, bool) {
        match self {
            // The paper's CIFAR task at the size `serve_oneshot`
            // measures: 600 estimator pairs, 5 epochs, 6 warm LUTs.
            Workload::WarmSearch => (
                vec![BundleSpec {
                    task: Task::Cifar,
                    seed: 1,
                    pairs: 600,
                    est_epochs: 5,
                    warm_luts: 6,
                }],
                false,
            ),
            Workload::MixedFamilies => (hdx_workload::reference_specs(), true),
            Workload::ControlPlane => (
                hdx_workload::reference_specs()
                    .into_iter()
                    .filter(|s| s.task == Task::Spheres)
                    .collect(),
                false,
            ),
        }
    }

    /// Units the reference pass sends: warm-up, pinned response
    /// digest and pinned work counters.
    pub fn reference_units(self) -> usize {
        match self {
            Workload::WarmSearch => 8,
            Workload::MixedFamilies => 16,
            Workload::ControlPlane => 8,
        }
    }
}

/// What one response line must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A search report for request `id` (λ-grid entry `sub`) in the
    /// request's framing. Its `in_constraint` must equal
    /// `latency_ms <= target`: the paper's hard-constraint outcome,
    /// recomputed from the report's own numbers.
    Report {
        v1: bool,
        id: u64,
        sub: Option<usize>,
        target: f64,
    },
    /// Exactly these bytes.
    Line(String),
    /// A body that reads process-wide counters (`stats`, `metrics`):
    /// checked by its kind and id, i.e. this prefix.
    Prefix(String),
}

/// One expected response line and the request line it answers
/// (`None` for the seal).
#[derive(Clone, Debug)]
pub struct Expected {
    pub expect: Expect,
    pub request: Option<usize>,
}

/// One closed-loop exchange.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Request lines then the seal, each newline-terminated.
    pub text: String,
    /// Request lines, seal excluded.
    pub requests: usize,
    pub expected: Vec<Expected>,
}

impl Unit {
    /// Search jobs the unit runs (after grid expansion); a
    /// `control_plane` unit runs none.
    pub fn jobs(&self) -> usize {
        self.expected
            .iter()
            .filter(|e| matches!(e.expect, Expect::Report { .. }))
            .count()
    }
}

/// A checked response line.
pub struct Checked {
    /// `Some(in_constraint)` for a search report.
    pub report: Option<bool>,
}

impl Expect {
    /// Checks one response line.
    ///
    /// # Errors
    ///
    /// A message naming what differs.
    pub fn check(&self, got: &str) -> Result<Checked, String> {
        match self {
            Expect::Line(want) if got == want => Ok(Checked { report: None }),
            Expect::Prefix(want) if got.starts_with(want.as_str()) => Ok(Checked { report: None }),
            Expect::Line(want) | Expect::Prefix(want) => {
                Err(format!("expected {want:?}, got {got:?}"))
            }
            Expect::Report {
                v1,
                id,
                sub,
                target,
            } => {
                let id = match sub {
                    Some(k) => format!("{id}#{k}"),
                    None => id.to_string(),
                };
                let head = if *v1 {
                    format!("hdx1 report id={id} ")
                } else {
                    format!("report id={id} ")
                };
                if !got.starts_with(&head) {
                    return Err(format!("expected a report starting {head:?}, got {got:?}"));
                }
                let field = |key: &str| {
                    got.split(' ')
                        .find_map(|tok| tok.strip_prefix(key))
                        .ok_or_else(|| format!("report lacks {key}: {got:?}"))
                };
                let latency: f64 = field("latency_ms=")?
                    .parse()
                    .map_err(|_| format!("bad latency_ms in {got:?}"))?;
                let in_constraint = match field("in_constraint=")? {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("bad in_constraint={other} in {got:?}")),
                };
                if in_constraint != (latency <= *target) {
                    return Err(format!(
                        "in_constraint={in_constraint} but latency_ms={latency} against a \
                         {target} ms bound: {got:?}"
                    ));
                }
                Ok(Checked {
                    report: Some(in_constraint),
                })
            }
        }
    }

    /// The form the reference digest hashes: exact bytes, except that
    /// counter-reading bodies contribute only their kind and id.
    pub fn digest_form<'a>(&'a self, got: &'a str) -> &'a str {
        match self {
            Expect::Prefix(want) => want,
            _ => got,
        }
    }
}

/// Expectations for one search-type request line (a v1 `search`/
/// `grid`/`meta` or a v0 `search`).
fn search_expectations(line: &str, request: usize) -> Vec<Expected> {
    let (is_v1, req): (bool, SearchRequest) = match v1::sniff(line) {
        v1::Framing::V1 => {
            let env = v1::decode_request(line).expect("generated v1 line decodes");
            let req = v1::into_search_request(env.body).expect("generated v1 line is search-type");
            (true, req)
        }
        _ => match parse_request(line).expect("generated v0 line parses") {
            Request::Search(req) => (false, *req),
            other => panic!("generated v0 line is not a search: {other:?}"),
        },
    };
    let target = req
        .constraints
        .first()
        .expect("generated searches carry an fps constraint")
        .target;
    let subs: Vec<Option<usize>> = if req.lambda_grid.is_empty() {
        vec![None]
    } else {
        (0..req.lambda_grid.len()).map(Some).collect()
    };
    subs.into_iter()
        .map(|sub| Expected {
            expect: Expect::Report {
                v1: is_v1,
                id: req.id,
                sub,
                target,
            },
            request: Some(request),
        })
        .collect()
}

fn seal(text: &mut String, expected: &mut Vec<Expected>, k: usize) {
    let id = SEAL_ID_BASE + k as u64;
    text.push_str(&format!("hdx1 ping id={id}\n"));
    expected.push(Expected {
        expect: Expect::Line(format!("hdx1 pong id={id}")),
        request: None,
    });
}

/// One `control_plane` line kind: its draw weight, request template
/// and expected response (`{id}` stands for the request id).
struct Template {
    weight: usize,
    request: String,
    response: String,
    prefix: bool,
}

fn control_templates() -> Vec<Template> {
    CONTROL_TEMPLATES
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut cols = l.split('\t');
            let weight = cols
                .next()
                .and_then(|w| w.parse().ok())
                .expect("control_plane.txt: weight column");
            let request = cols
                .next()
                .expect("control_plane.txt: request column")
                .to_owned();
            let response = cols.next().expect("control_plane.txt: response column");
            let (response, prefix) = match response.strip_suffix(" *") {
                Some(head) => (format!("{head} "), true),
                None => (response.to_owned(), false),
            };
            Template {
                weight,
                request,
                response,
                prefix,
            }
        })
        .collect()
}

/// The unit stream of one workload and seed. Unit `k` goes to
/// connection `k % connections`.
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// `mixed_families`: the pre-generated request line of each unit.
    mixed: Vec<String>,
    control: Vec<Template>,
}

fn unit_rng(seed: u64, k: usize) -> Rng {
    Rng::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((k as u64).rotate_left(29))
            ^ 0x5EB7_BE4C,
    )
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut mixed = Vec::new();
        if workload == Workload::MixedFamilies {
            // Each family keeps its own `request_lines` stream (so its
            // verb rotation search/grid/v0 search/meta is intact). Every
            // block of four units holds one unit per family, in an order
            // the seed shuffles, so each run serves the same family mix.
            let specs = hdx_workload::reference_specs();
            let mut lines: Vec<std::vec::IntoIter<String>> = specs
                .iter()
                .enumerate()
                .map(|(f, spec)| {
                    hdx_workload::request_lines(
                        spec.task,
                        spec.seed,
                        seed,
                        MIXED_UNITS,
                        1 + 100_000 * f as u64,
                    )
                    .into_iter()
                })
                .collect();
            let mut rng = unit_rng(seed, usize::MAX);
            let mut order: Vec<usize> = (0..specs.len()).collect();
            for _ in 0..MIXED_UNITS / specs.len() {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                for &f in &order {
                    mixed.push(
                        lines[f]
                            .next()
                            .expect("a family stream outlasts the unit list"),
                    );
                }
            }
        }
        let control = if workload == Workload::ControlPlane {
            control_templates()
        } else {
            Vec::new()
        };
        Stream {
            workload,
            seed,
            mixed,
            control,
        }
    }

    /// Unit `k`, or `None` past the end of a finite stream.
    pub fn unit(&self, k: usize) -> Option<Unit> {
        let mut text = String::new();
        let mut expected = Vec::new();
        let requests = match self.workload {
            Workload::WarmSearch => {
                let mut rng = unit_rng(self.seed, k);
                let fps = (20 + rng.below(30)) as f64;
                let req = SearchRequest {
                    id: 1 + k as u64,
                    task: Task::Cifar,
                    bundle_seed: Some(1),
                    seed: rng.below(1000) as u64,
                    lambda_cost: (1 + rng.below(40)) as f64 / 10.0,
                    epochs: 1,
                    steps: 2,
                    batch: 16,
                    final_train: 20,
                    constraints: vec![hdx_core::Constraint::fps(fps)],
                    ..SearchRequest::default()
                };
                let line =
                    v1::encode_request(&v1::Envelope::v1(req.id, v1::RequestBody::Search(req)));
                expected.extend(search_expectations(&line, 0));
                text.push_str(&line);
                text.push('\n');
                1
            }
            Workload::MixedFamilies => {
                let line = self.mixed.get(k)?;
                expected.extend(search_expectations(line, 0));
                text.push_str(line);
                text.push('\n');
                1
            }
            Workload::ControlPlane => {
                let mut rng = unit_rng(self.seed, k);
                let total: usize = self.control.iter().map(|t| t.weight).sum();
                for i in 0..CONTROL_WINDOW {
                    let id = (1 + k * CONTROL_WINDOW + i).to_string();
                    let mut pick = rng.below(total);
                    let t = self
                        .control
                        .iter()
                        .find(|t| {
                            let hit = pick < t.weight;
                            pick = pick.saturating_sub(t.weight);
                            hit
                        })
                        .expect("a draw below the total weight picks a template");
                    text.push_str(&t.request.replace("{id}", &id));
                    text.push('\n');
                    let response = t.response.replace("{id}", &id);
                    expected.push(Expected {
                        expect: if t.prefix {
                            Expect::Prefix(response)
                        } else {
                            Expect::Line(response)
                        },
                        request: Some(i),
                    });
                }
                CONTROL_WINDOW
            }
        };
        seal(&mut text, &mut expected, k);
        Some(Unit {
            text,
            requests,
            expected,
        })
    }
}
