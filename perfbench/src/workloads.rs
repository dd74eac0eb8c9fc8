//! The two workloads: seeded request corpora, set-up, and the closed-loop
//! client rounds that serve them.
//!
//! | workload      | clients | path                                   | what it stresses                                        |
//! |---------------|---------|----------------------------------------|---------------------------------------------------------|
//! | `warm_sample` | 1       | broker, artifacts built in set-up      | DD vs state-vector vs tableau sampling                  |
//! | `serve_mix`   | 2       | QASM → parse → broker (budgeted cache) | hits, misses (DD builds), coalescing, eviction, bypass  |

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use circuit::{Circuit, Qubit};
use weaksim::{
    ArtifactCache, Backend, CacheOutcome, ServiceBroker, ServiceConfig, ShotHistogram,
    WeakSimulator,
};

use crate::check::{Checker, Exact, Expect};
use crate::layers::{phases, Layers};
use crate::rng::Rng;
use crate::trace::{merge, Span, Tracer};
use crate::{Config, Record, Round, Served};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client; 1M-shot requests against artifacts built in set-up.
    WarmSample,
    /// Two clients sending QASM through parse and the broker.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 2] = [Workload::WarmSample, Workload::ServeMix];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSample => "warm_sample",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn clients(self) -> usize {
        match self {
            Workload::WarmSample => 1,
            Workload::ServeMix => 2,
        }
    }
}

/// One request: a circuit (sent as QASM text where the writer can express
/// it), the simulator configuration, the shot count and seed, and what the
/// response must look like.
#[derive(Debug, Clone)]
struct Request {
    family: &'static str,
    circuit: Arc<Circuit>,
    qasm: Option<Arc<str>>,
    sim: usize,
    shots: u64,
    seed: u64,
    expect: Expect,
    /// Sent by every client at once (after a barrier): a coalescing probe.
    together: bool,
}

impl Request {
    fn new(family: &'static str, circuit: Circuit, sim: usize, shots: u64, seed: u64) -> Self {
        let qasm = match family {
            // Grover, Shor and Jellium use multi-controlled gates and
            // permutations the OpenQASM 2 writer cannot express; they are
            // served as generated circuits.
            "grover" | "shor" | "jellium" => None,
            _ => circuit::qasm::to_qasm(&circuit).ok().map(Arc::from),
        };
        let expect = Expect::new(&circuit, shots, None);
        Self {
            family,
            circuit: Arc::new(circuit),
            qasm,
            sim,
            shots,
            seed,
            expect,
            together: false,
        }
    }

    /// The same circuit, sim and expectation with another seed and shot count.
    fn reseeded(&self, shots: u64, seed: u64) -> Self {
        let mut copy = self.clone();
        copy.shots = shots;
        copy.seed = seed;
        copy.expect.shots = shots;
        copy
    }
}

/// `circuit` preceded by X gates on a seeded non-empty subset of qubits: a
/// fresh fingerprint with the family's structure.
fn prepped(circuit: &Circuit, rng: &mut Rng) -> Circuit {
    let n = circuit.num_qubits();
    let mut mask = rng.next_u64();
    if n < 64 {
        mask &= (1u64 << n) - 1;
    }
    mask |= 1;
    let mut out = Circuit::with_name(n, format!("{}_x{mask:x}", circuit.name()));
    for q in 0..n.min(64) {
        if mask >> q & 1 == 1 {
            out.x(Qubit(q));
        }
    }
    out.extend_from(circuit);
    out
}

/// A seeded random Clifford circuit (H, S, CX layers) on the first
/// `active` of `n` qubits, fanned out to the rest by CX, so at most
/// `2^active` outcomes occur: the router sends it to the stabilizer tableau.
fn clifford(n: u16, active: u16, layers: u16, rng: &mut Rng) -> Circuit {
    let mut c = Circuit::with_name(
        n,
        format!(
            "clifford_{n}_{active}x{layers}_{:x}",
            rng.next_u64() & 0xffff
        ),
    );
    for q in 0..active {
        c.h(Qubit(q));
    }
    for _ in 0..layers {
        for q in 0..active {
            match rng.below(3) {
                0 => {
                    c.h(Qubit(q));
                }
                1 => {
                    c.s(Qubit(q));
                }
                _ => {}
            }
        }
        for _ in 0..active / 2 {
            let a = rng.below(u64::from(active)) as u16;
            let b = (a + 1 + (rng.below(u64::from(active) - 1) as u16)) % active;
            c.cx(Qubit(a), Qubit(b));
        }
    }
    for q in active..n {
        c.cx(Qubit(q % active), Qubit(q));
    }
    c
}

fn supremacy(rows: u16, cols: u16, depth: u16, rng: &mut Rng) -> Circuit {
    algorithms::supremacy(rows, cols, depth, rng.next_u64()).0
}

/// A QFT applied to a seeded computational basis state.
fn qft_from_basis(n: u16, rng: &mut Rng) -> Circuit {
    prepped(&algorithms::qft(n, rng.below(2) == 0), rng)
}

fn shor(modulus: u64, rng: &mut Rng) -> Circuit {
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    loop {
        let base = rng.range(2, modulus - 2);
        if gcd(base, modulus) == 1 {
            return algorithms::shor(modulus, base).0;
        }
    }
}

fn jellium(side: u16, steps: u16, rng: &mut Rng) -> Circuit {
    prepped(&algorithms::jellium(side, steps).0, rng)
}

/// Gives `request` the exact distribution of its circuit when the check
/// applies: a noise-free request on a small static circuit (see
/// [`Exact::of`]).  `memo` shares one distribution among requests for the
/// same circuit.
fn attach_exact(
    sims: &[WeakSimulator],
    request: &mut Request,
    memo: &mut HashMap<[u64; 2], Option<Arc<Exact>>>,
) {
    if request.expect.exact.is_some() || sims[request.sim].noise().is_some_and(|m| m.has_noise()) {
        return;
    }
    let circuit = &request.circuit;
    request.expect.exact = memo
        .entry(circuit.fingerprint())
        .or_insert_with(|| Exact::of(circuit))
        .clone();
}

/// The serve loop's state between rounds.
pub(crate) struct State {
    workload: Workload,
    seed: u64,
    tiny: bool,
    tamper: bool,
    sims: Vec<WeakSimulator>,
    broker: Option<ServiceBroker>,
    /// Fixed per-round request lists (one per client), when rounds repeat.
    fixed: Vec<Vec<Request>>,
    /// `serve_mix`: the hot set, with the seeds its repeats use.
    hot: Vec<Request>,
    checker: Checker,
    barrier: Barrier,
    tracers: Vec<Tracer>,
    layers: Layers,
    failures: Vec<String>,
    failure_count: usize,
}

/// What a run leaves for the report.
pub(crate) struct Finish {
    pub layers: Layers,
    pub spans: Vec<Span>,
    pub threads: Vec<(&'static str, usize)>,
    pub failures: Vec<String>,
    /// Failures outside the measured rounds: set-up requests whose response
    /// failed a check, and a failed snapshot round trip.
    pub untimed_failed: usize,
}

/// Sets a workload up: generates its corpus from the seed, builds and warms
/// whatever the measured rounds start from.  The exact distributions the
/// checks compare against are computed afterwards, by
/// [`State::prepare_checks`], outside the timed set-up.
pub(crate) fn setup(config: &Config) -> State {
    let origin = Instant::now();
    let clients = config.workload.clients();
    let mut state = State {
        workload: config.workload,
        seed: config.seed,
        tiny: config.tiny,
        tamper: config.tamper,
        sims: Vec::new(),
        broker: None,
        fixed: Vec::new(),
        hot: Vec::new(),
        checker: Checker::default(),
        barrier: Barrier::new(clients),
        tracers: (0..clients).map(|c| Tracer::new(origin, c)).collect(),
        layers: Layers::default(),
        failures: Vec::new(),
        failure_count: 0,
    };
    match config.workload {
        Workload::WarmSample => setup_warm_sample(&mut state),
        Workload::ServeMix => setup_serve_mix(&mut state),
    }
    state
}

/// `warm_sample`: the same 16-qubit supremacy circuit prepared on the DD
/// and state-vector engines, a 32-qubit QFT on DD (≈1M distinct outcomes
/// per 1M shots) and a routed Clifford circuit on the tableau, each
/// requested at 1M shots with a few repeating seeds.
fn setup_warm_sample(state: &mut State) {
    let mut rng = Rng::new(state.seed, 2);
    let dd = WeakSimulator::new(Backend::DecisionDiagram);
    let sv = WeakSimulator::new(Backend::StateVector);
    let routed = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
    state.sims = vec![dd, sv, routed];
    let (shots, sup, wide, cliff) = if state.tiny {
        (
            2000,
            supremacy(2, 3, 6, &mut rng),
            algorithms::qft(10, rng.below(2) == 0),
            clifford(8, 6, 4, &mut rng),
        )
    } else {
        // The fixed Table I supremacy instance (seed 0, ≈26k DD nodes): the
        // diagram size, and with it set-up time and memory, ranges over 10x
        // across instances, which would swamp the run-to-run spread.
        let sup = algorithms::supremacy(4, 4, 10, 0).0;
        (
            1_000_000,
            sup,
            algorithms::qft(32, rng.below(2) == 0),
            clifford(48, 12, 8, &mut rng),
        )
    };
    let artifacts = [
        Request::new("supremacy", sup.clone(), 0, shots, 0),
        Request::new("supremacy", sup, 1, shots, 0),
        Request::new("qft", wide, 0, shots, 0),
        Request::new("clifford", cliff, 2, shots, 0),
    ];
    state.broker = Some(ServiceBroker::new(
        ArtifactCache::unbounded(),
        ServiceConfig::default(),
    ));
    // Requests per round, per artifact: weighted so the median and the
    // 90th percentile fall inside a class, not on a boundary between two.
    let weights = [4, 3, 3, 2];
    let mut round = Vec::new();
    for (artifact, weight) in artifacts.iter().zip(weights) {
        let bytes_before = state.cache_bytes_now();
        state.serve_untimed(&artifact.reseeded(1000, 0));
        if artifact.sim == 0 {
            let built = state.cache_bytes_now().saturating_sub(bytes_before);
            state.layers.push("dd.compiled_bytes", built as f64);
        }
        // Two seeds per artifact, so (fingerprint, seed) pairs repeat.
        let seeds = [rng.below(1 << 20), rng.below(1 << 20)];
        for i in 0..weight {
            round.push(artifact.reseeded(shots, seeds[i % 2]));
        }
    }
    rng.shuffle(&mut round);
    state.fixed = vec![round];
}

/// `serve_mix`: QASM text from two clients; a hot set that repeats (hits),
/// fresh small circuits every round (misses, some routed to the tableau,
/// and small Shor, Jellium and Grover circuits sent as generated circuits),
/// one fresh circuit both clients send at once (coalesced), and dynamic or
/// noisy circuits that bypass the cache to the trajectory engine.  The cache
/// budget is 1.5× the hot set, below the working set, so fresh artifacts
/// evict.
fn setup_serve_mix(state: &mut State) {
    // The hot set is the same for every seed: its artifact sizes set how
    // often hot entries are evicted and rebuilt, which moved the rates by
    // 20% from seed to seed.  Fresh circuits, shot seeds and the request
    // order come from the workload seed.
    let mut rng = Rng::new(0, 3);
    state.sims = vec![
        WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router(),
        WeakSimulator::new(Backend::DecisionDiagram).with_noise(algorithms::hardware_noise(0.01)),
    ];
    let mut hot: Vec<(&'static str, Circuit)> = Vec::new();
    if state.tiny {
        hot.push(("supremacy", supremacy(2, 3, 6, &mut rng)));
        hot.push(("qft", qft_from_basis(6, &mut rng)));
        hot.push(("clifford", clifford(6, 6, 3, &mut rng)));
    } else {
        for &(rows, cols, depth) in &[(3, 3, 8), (3, 3, 10), (3, 3, 12), (3, 4, 8)] {
            hot.push(("supremacy", supremacy(rows, cols, depth, &mut rng)));
        }
        hot.push(("qft", qft_from_basis(8, &mut rng)));
        hot.push(("qft", algorithms::qft(16, rng.below(2) == 0)));
        hot.push(("clifford", clifford(24, 10, 6, &mut rng)));
        hot.push(("clifford", clifford(40, 12, 6, &mut rng)));
    }
    state.hot = hot
        .into_iter()
        .map(|(family, c)| Request::new(family, c, 0, HOT_SHOTS, 0))
        .collect();
    // Measure the hot set's bytes in an unbounded cache, then warm a
    // broker whose budget sits below the working set.
    state.broker = Some(ServiceBroker::new(
        ArtifactCache::unbounded(),
        ServiceConfig::default(),
    ));
    for request in state.hot.clone() {
        state.serve_untimed(&request);
    }
    let hot_bytes = state.cache_bytes_now();
    let budget = hot_bytes + hot_bytes / 2;
    state.broker = Some(ServiceBroker::new(
        ArtifactCache::with_byte_budget(budget),
        ServiceConfig::default(),
    ));
    for request in state.hot.clone() {
        state.serve_untimed(&request);
    }
}

const HOT_SHOTS: u64 = 2000;

/// `serve_mix` requests for one round, one list per client.
fn serve_mix_round(seed: u64, tiny: bool, hot: &[Request], round: usize) -> Vec<Vec<Request>> {
    // Per client and round: 30 hot repeats, 10 fresh circuits (6 supremacy,
    // 2 QFT, a Clifford, a GHZ), a fresh Shor, Jellium or Grover circuit,
    // 2 dynamic, 1 noisy, 1 coalescing probe.  Fresh supremacy builds are
    // ~13% of requests, so the 90th percentile falls inside their class
    // rather than in the tail of the hits.
    let (hot_count, fresh_count) = if tiny { (6, 2) } else { (30, 10) };
    let mut shared = Rng::new(seed, 0x5e1e_0000 + round as u64);
    let together = {
        let c = if tiny {
            supremacy(2, 3, 6, &mut shared)
        } else {
            supremacy(3, 3, 10, &mut shared)
        };
        let mut r = Request::new("supremacy", c, 0, 1000, shared.below(1 << 20));
        r.together = true;
        r
    };
    (0..2)
        .map(|client| {
            let mut rng = Rng::new(
                seed,
                0x5e1e_0000 + ((round as u64) << 8) + client as u64 + 1,
            );
            let mut list = Vec::new();
            for _ in 0..hot_count {
                let entry = &hot[rng.below(hot.len() as u64) as usize];
                // Two seeds per hot circuit, so (fingerprint, seed) pairs repeat.
                list.push(entry.reseeded(HOT_SHOTS, rng.below(2)));
            }
            for i in 0..fresh_count {
                let seed = rng.below(1 << 20);
                let kind = [0, 1, 0, 2, 0, 3, 0, 1, 0, 0][i % 10];
                let request = match (kind, tiny) {
                    (0, false) => Request::new(
                        "supremacy",
                        supremacy(3, 3, rng.range(6, 10) as u16, &mut rng),
                        0,
                        1000,
                        seed,
                    ),
                    (1, false) => Request::new(
                        "qft",
                        qft_from_basis(rng.range(6, 9) as u16, &mut rng),
                        0,
                        1000,
                        seed,
                    ),
                    (2, false) => Request::new(
                        "clifford",
                        clifford(rng.range(16, 40) as u16, 10, 6, &mut rng),
                        0,
                        1000,
                        seed,
                    ),
                    (3, false) => Request::new(
                        "ghz",
                        prepped(&algorithms::ghz(rng.range(10, 30) as u16), &mut rng),
                        0,
                        1000,
                        seed,
                    ),
                    (_, true) => Request::new(
                        "qft",
                        qft_from_basis(rng.range(4, 8) as u16, &mut rng),
                        0,
                        200,
                        seed,
                    ),
                    _ => unreachable!("kind < 4"),
                };
                list.push(request);
            }
            let theta = (rng.below(16) as f64 + 0.5) * std::f64::consts::PI / 16.0;
            list.push(Request::new(
                "teleportation",
                algorithms::teleportation(theta),
                0,
                1000,
                rng.below(4),
            ));
            let bits = if tiny { 3 } else { 5 };
            let m = rng.below(1 << bits) as f64;
            let phase = 2.0 * std::f64::consts::PI * m / f64::from(1u32 << bits);
            list.push(Request::new(
                "ipe",
                algorithms::ipe(bits, phase),
                0,
                1000,
                rng.below(4),
            ));
            // Noisy teleportation: the noise model makes the broker bypass
            // the cache, so the trajectory engine samples it.
            let theta = (rng.below(16) as f64 + 0.5) * std::f64::consts::PI / 16.0;
            list.push(Request::new(
                "teleportation",
                algorithms::teleportation(theta),
                1,
                1000,
                rng.below(4),
            ));
            // One of the paper's Table I families the OpenQASM 2 writer
            // cannot express, in turn by round and client.
            let seed = rng.below(1 << 20);
            let (family, c) = match (round + client) % 3 {
                0 => ("shor", shor(15, &mut rng)),
                1 => {
                    let steps = if tiny { 1 } else { rng.range(1, 2) as u16 };
                    ("jellium", jellium(2, steps, &mut rng))
                }
                _ => {
                    let n = if tiny { 4 } else { rng.range(6, 9) as u16 };
                    ("grover", algorithms::grover(n, rng.next_u64()))
                }
            };
            list.push(Request::new(family, c, 0, 1000, seed));
            rng.shuffle(&mut list);
            // The coalescing probe sits at the same position in both lists.
            let middle = list.len() / 2;
            list.insert(middle, together.clone());
            list
        })
        .collect()
}

/// The CLI's top-outcome render: counts sorted descending, the first four
/// printed as bitstrings.
fn render(histogram: &ShotHistogram) -> String {
    const TOP: usize = 4;
    let mut top = histogram.sorted_counts();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let shown: Vec<String> = top
        .iter()
        .take(TOP)
        .map(|&(outcome, count)| format!("{} x{count}", histogram.bitstring(outcome)))
        .collect();
    let rest = top.len().saturating_sub(TOP);
    if rest > 0 {
        format!("  top outcomes: {} (+{rest} more)", shown.join(", "))
    } else {
        format!("  top outcomes: {}", shown.join(", "))
    }
}

/// Per-client output of one round.
struct ClientOut {
    records: Vec<Record>,
    /// The client's wall time less the time it spent checking responses.
    busy: Duration,
    layers: Layers,
    failures: Vec<String>,
}

/// Read-only context a client serves from.
struct Env<'a> {
    sims: &'a [WeakSimulator],
    broker: Option<&'a ServiceBroker>,
    checker: &'a Checker,
    barrier: &'a Barrier,
    /// One client: cache byte deltas around a miss are that miss's artifact.
    single: bool,
    /// See [`Config::tamper`].
    tamper: bool,
}

impl Env<'_> {
    /// Serves one request the way `weaksim-cli` does and checks the
    /// response; the latency covers parse, serve and render.
    fn execute(
        &self,
        request: &Request,
        tamper: bool,
        tracer: &mut Tracer,
        layers: &mut Layers,
        failures: &mut Vec<String>,
    ) -> Record {
        let sim = &self.sims[request.sim];
        let broker = self
            .broker
            .expect("every workload serves through the broker");
        let bytes_before = (tracer.enabled() && self.single).then(|| broker.cache().stats().bytes);
        let start = Instant::now();
        let root = tracer.begin("request");
        let parsed;
        let circuit: &Circuit = match &request.qasm {
            Some(text) => {
                let span = tracer.begin("circuit.parse");
                let result = circuit::qasm::parse(text);
                tracer.end(span);
                if tracer.enabled() {
                    layers.add("circuit.qasm_bytes", text.len() as f64);
                    layers.add("circuit.parsed", 1.0);
                }
                match result {
                    Ok(c) => {
                        parsed = c;
                        &parsed
                    }
                    Err(e) => {
                        tracer.end(root);
                        return fail(failures, request, start, format!("QASM parse error: {e}"));
                    }
                }
            }
            None => &request.circuit,
        };
        let serve_start = Instant::now();
        let span = tracer.begin("service.serve");
        let result = broker.serve(sim, circuit, request.shots, request.seed);
        let serve_wall = serve_start.elapsed();
        tracer.end(span);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                tracer.end(root);
                return fail(failures, request, start, format!("run failed: {e}"));
            }
        };
        tracer.derived_children(span, &phases(&outcome));
        let span = tracer.begin("shots.render");
        std::hint::black_box(render(&outcome.histogram));
        tracer.end(span);
        tracer.end(root);
        let latency = start.elapsed();

        let check_start = Instant::now();
        let span = tracer.begin("check");
        let fingerprint_span = tracer.begin("circuit.fingerprint");
        let fingerprint = sim.request_fingerprint(circuit);
        tracer.end(fingerprint_span);
        let tampered;
        let histogram = if tamper {
            let shots = outcome.histogram.shots().saturating_sub(1);
            tampered = ShotHistogram::from_samples(
                outcome.histogram.num_qubits(),
                std::iter::repeat_n(0, shots as usize),
            );
            &tampered
        } else {
            &outcome.histogram
        };
        let verdict = self
            .checker
            .check(&request.expect, fingerprint, request.seed, histogram);
        tracer.end(span);
        let check = check_start.elapsed();
        if tracer.enabled() {
            layers.absorb(request.family, &outcome, serve_wall);
            if let (Some(before), Some(CacheOutcome::Miss)) = (bytes_before, outcome.cache) {
                if outcome.backend == Backend::DecisionDiagram && !outcome.route.used_tableau() {
                    let after = broker.cache().stats().bytes;
                    layers.push("dd.compiled_bytes", after.saturating_sub(before) as f64);
                }
            }
        }
        let served = match outcome.cache {
            Some(CacheOutcome::Hit) => Served::Hit,
            Some(CacheOutcome::Miss) => Served::Miss,
            Some(CacheOutcome::Coalesced) => Served::Coalesced,
            None => Served::Bypass,
        };
        if let Err(message) = &verdict {
            note_failure(failures, request, message);
        }
        Record {
            latency,
            check,
            shots: request.shots,
            served,
            ok: verdict.is_ok(),
        }
    }

    fn client(
        &self,
        requests: &[Request],
        tracer: &mut Tracer,
        traced: bool,
        id_base: u64,
    ) -> ClientOut {
        let start = Instant::now();
        let mut out = ClientOut {
            records: Vec::with_capacity(requests.len()),
            busy: Duration::ZERO,
            layers: Layers::default(),
            failures: Vec::new(),
        };
        tracer.set_enabled(traced);
        for (i, request) in requests.iter().enumerate() {
            if request.together {
                self.barrier.wait();
            }
            tracer.set_request(id_base + i as u64);
            let tamper = self.tamper && i % 10 == 0;
            let record = self.execute(request, tamper, tracer, &mut out.layers, &mut out.failures);
            out.records.push(record);
        }
        tracer.set_enabled(false);
        let checking: Duration = out.records.iter().map(|r| r.check).sum();
        out.busy = start.elapsed().saturating_sub(checking);
        out
    }
}

fn note_failure(failures: &mut Vec<String>, request: &Request, message: &str) {
    failures.push(format!(
        "{} ({} qubits, seed {}): {message}",
        request.circuit.name(),
        request.circuit.num_qubits(),
        request.seed
    ));
}

fn fail(failures: &mut Vec<String>, request: &Request, start: Instant, message: String) -> Record {
    note_failure(failures, request, &message);
    Record {
        latency: start.elapsed(),
        check: Duration::ZERO,
        shots: request.shots,
        served: Served::Failed,
        ok: false,
    }
}

impl State {
    /// Computes the exact distributions the TVD check compares against.  This
    /// is the benchmark's own work, so it is not part of the timed set-up.
    pub(crate) fn prepare_checks(&mut self) {
        let mut memo = HashMap::new();
        for request in self.fixed.iter_mut().flatten().chain(self.hot.iter_mut()) {
            attach_exact(&self.sims, request, &mut memo);
        }
    }

    fn cache_bytes_now(&self) -> u64 {
        self.broker.as_ref().map_or(0, |b| b.cache().stats().bytes)
    }

    fn env(&self) -> Env<'_> {
        Env {
            sims: &self.sims,
            broker: self.broker.as_ref(),
            checker: &self.checker,
            barrier: &self.barrier,
            single: self.workload.clients() == 1,
            tamper: self.tamper,
        }
    }

    /// Serves one request outside any measured round (set-up, warm-up);
    /// a failure here still counts against the run.
    fn serve_untimed(&mut self, request: &Request) {
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut layers = Layers::default();
        let mut failures = Vec::new();
        let record = self
            .env()
            .execute(request, false, &mut tracer, &mut layers, &mut failures);
        if !record.ok {
            self.failure_count += 1;
        }
        self.failures.extend(failures);
    }

    /// Serves rounds while `next` asks for another (`Some(traced)`), given
    /// the rounds served so far.  Client 0 runs on the calling thread; every
    /// other client is one thread that lives for all rounds and is handed
    /// its request list round by round, as a server's worker threads would
    /// be.  (Threads spawned per round would now and then get a fresh
    /// allocator arena, moving peak memory by up to 20% from run to run.)
    pub(crate) fn serve_rounds(
        &mut self,
        mut next: impl FnMut(&[Round]) -> Option<bool>,
    ) -> Vec<Round> {
        let env = Env {
            sims: &self.sims,
            broker: self.broker.as_ref(),
            checker: &self.checker,
            barrier: &self.barrier,
            single: self.workload.clients() == 1,
            tamper: self.tamper,
        };
        let (workload, seed, tiny) = (self.workload, self.seed, self.tiny);
        let (fixed, hot, sims) = (&self.fixed, &self.hot, &self.sims);
        let (layers, failures) = (&mut self.layers, &mut self.failures);
        let (main_tracer, worker_tracers) =
            self.tracers.split_first_mut().expect("a tracer per client");
        let mut rounds = Vec::new();
        std::thread::scope(|scope| {
            let env = &env;
            let workers: Vec<_> = worker_tracers
                .iter_mut()
                .map(|tracer| {
                    let (job_tx, job_rx) = mpsc::channel::<(Vec<Request>, bool, u64)>();
                    let (out_tx, out_rx) = mpsc::channel::<ClientOut>();
                    scope.spawn(move || {
                        for (list, traced, id_base) in job_rx {
                            let out = env.client(&list, tracer, traced, id_base);
                            if out_tx.send(out).is_err() {
                                break;
                            }
                        }
                    });
                    (job_tx, out_rx)
                })
                .collect();
            while let Some(traced) = next(&rounds) {
                let index = rounds.len();
                let mut lists = match workload {
                    Workload::WarmSample => fixed.clone(),
                    Workload::ServeMix => serve_mix_round(seed, tiny, hot, index),
                };
                if fixed.is_empty() {
                    let mut memo = HashMap::new();
                    for request in lists.iter_mut().flatten() {
                        attach_exact(sims, request, &mut memo);
                    }
                }
                let before = env.broker.map(|b| (b.stats(), b.cache().stats()));
                let id_base = |client: usize| ((index as u64) << 32) | ((client as u64) << 24);
                let mut lists = lists.into_iter();
                let first = lists.next().expect("a request list per client");
                for (client, (list, (job_tx, _))) in lists.zip(&workers).enumerate() {
                    job_tx
                        .send((list, traced, id_base(client + 1)))
                        .expect("a client thread panicked");
                }
                let mut outs = vec![env.client(&first, main_tracer, traced, id_base(0))];
                for (_, out_rx) in &workers {
                    outs.push(out_rx.recv().expect("a client thread panicked"));
                }
                // The round's wall time leaves the benchmark's response
                // checks out: it is the longest client's time less what that
                // client spent checking (exact for one client; with two, a
                // client waiting at the coalescing barrier may still wait out
                // the other's checks).
                let wall = outs.iter().map(|o| o.busy).max().unwrap_or_default();
                let mut records = Vec::new();
                for out in outs {
                    records.extend(out.records);
                    failures.extend(out.failures);
                    if traced {
                        layers.merge(out.layers);
                    }
                }
                if let (true, Some((service, cache)), Some(broker)) = (traced, before, env.broker) {
                    let (service_after, cache_after) = (broker.stats(), broker.cache().stats());
                    let delta = |a: u64, b: u64| a.saturating_sub(b) as f64;
                    layers.add(
                        "service.builds",
                        delta(service_after.builds, service.builds),
                    );
                    layers.add(
                        "service.coalesced",
                        delta(service_after.coalesced, service.coalesced),
                    );
                    layers.add("service.shed", delta(service_after.shed, service.shed));
                    layers.add("artifact.hits", delta(cache_after.hits, cache.hits));
                    layers.add(
                        "artifact.lookups",
                        delta(
                            cache_after.hits + cache_after.misses,
                            cache.hits + cache.misses,
                        ),
                    );
                    layers.add(
                        "artifact.evictions",
                        delta(cache_after.evictions, cache.evictions),
                    );
                    layers.max("artifact.bytes", cache_after.bytes as f64);
                }
                rounds.push(Round {
                    wall,
                    traced,
                    records,
                });
            }
            // Closing the job channels ends the client threads.
            drop(workers);
        });
        rounds
    }

    /// Writes the broker's cache to a snapshot under `dir`, reloads it into
    /// a fresh broker and returns the write and load times.
    ///
    /// # Errors
    ///
    /// Describes a failed write or load, or a reload that skipped entries.
    fn snapshot_round_trip(&self, dir: &std::path::Path) -> Result<(f64, f64), String> {
        let broker = self.broker.as_ref().ok_or("no broker to snapshot")?;
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "snapshot-{}-{}.bin",
            self.workload.name(),
            self.seed
        ));
        let start = Instant::now();
        let written = broker.write_snapshot(&path);
        let write_s = start.elapsed().as_secs_f64();
        let reloaded = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let start = Instant::now();
        let loaded = reloaded.load_snapshot(&path);
        let load_s = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&path);
        match (written, loaded) {
            (Ok(_), Ok(report)) if report.skipped == 0 => Ok((write_s, load_s)),
            (w, l) => Err(format!("{w:?} / {l:?}")),
        }
    }

    /// Ends the run: on a traced `serve_mix` run with an output directory,
    /// times a cache snapshot write and reload (a failed round trip counts as
    /// a failed request); collects spans and thread counts.
    pub(crate) fn finish(mut self, config: &Config) -> Finish {
        if config.trace && self.workload == Workload::ServeMix {
            if let Some(dir) = config.out_dir.as_ref() {
                match self.snapshot_round_trip(dir) {
                    Ok((write_s, load_s)) => {
                        self.layers.max("service.snapshot_write_s", write_s);
                        self.layers.max("service.snapshot_load_s", load_s);
                    }
                    Err(message) => {
                        self.failure_count += 1;
                        self.failures
                            .push(format!("snapshot round trip failed: {message}"));
                    }
                }
            }
        }
        let clients = self.workload.clients();
        let spans = merge(self.tracers.into_iter().map(Tracer::into_spans).collect());
        Finish {
            layers: self.layers,
            spans,
            threads: vec![
                ("clients", clients),
                ("rayon_pool", rayon::current_num_threads()),
                ("construction_workers", 1),
                (
                    "available_parallelism",
                    std::thread::available_parallelism().map_or(1, usize::from),
                ),
            ],
            failures: self.failures,
            untimed_failed: self.failure_count,
        }
    }
}
