//! Integration tests for the artifact layer: cached runs must be
//! bit-identical to uncached ones for the same seed on every engine, the
//! request fingerprint must be sensitive to everything that changes the
//! prepared sampler, shared artifacts must sample correctly from many
//! threads at once, and the byte-budgeted cache must evict LRU-first and
//! rebuild evicted artifacts transparently.

use circuit::{Circuit, NoiseChannel, NoiseModel, OneQubitGate, Qubit};
use mathkit::Angle;
use weaksim::{
    ArtifactCache, Backend, CacheOutcome, EngineKind, RouteSegment, RunGovernor, ServiceBroker,
    ServiceConfig, WeakSimulator,
};

/// A broker serving from `cache` (a shared handle, so tests can inspect it).
fn broker(cache: &ArtifactCache) -> ServiceBroker {
    ServiceBroker::new(cache.clone(), ServiceConfig::default())
}

/// Runs `circuit` cold and warm through a fresh cache plus once without any
/// cache, asserting that all three histograms are bit-identical and the
/// cache outcomes are reported correctly.
fn assert_cached_runs_bit_identical(mut sim: WeakSimulator, circuit: &Circuit) {
    let shots = 20_000;
    let seed = 0xfeed_5eed;
    let uncached = sim.run(circuit, shots, seed).unwrap();
    assert_eq!(uncached.cache, None);

    let broker = broker(&ArtifactCache::unbounded());
    let cold = broker.serve(&sim, circuit, shots, seed).unwrap();
    assert_eq!(cold.cache, Some(CacheOutcome::Miss));
    let warm = broker.serve(&sim, circuit, shots, seed).unwrap();
    assert_eq!(warm.cache, Some(CacheOutcome::Hit));

    assert_eq!(cold.histogram, uncached.histogram, "cold != uncached");
    assert_eq!(warm.histogram, uncached.histogram, "warm != uncached");
    assert_eq!(cold.route, uncached.route, "routes must agree");
    assert_eq!(warm.route, uncached.route, "routes must agree");
}

#[test]
fn dd_cached_runs_match_uncached_bit_for_bit() {
    // Trailing measurements exercise the record-relabelling path too.
    let mut circuit = algorithms::ghz(7);
    circuit.measure(Qubit(2), 0).measure(Qubit(5), 1);
    assert_cached_runs_bit_identical(WeakSimulator::new(Backend::DecisionDiagram), &circuit);
}

#[test]
fn sv_cached_runs_match_uncached_bit_for_bit() {
    let circuit = algorithms::qft(6, true);
    assert_cached_runs_bit_identical(WeakSimulator::new(Backend::StateVector), &circuit);
}

#[test]
fn routed_tableau_cached_runs_match_uncached_bit_for_bit() {
    // GHZ is fully Clifford: under the router both the cached and uncached
    // runs must serve it from the tableau engine.
    let circuit = algorithms::ghz(24);
    let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
    let probe = sim.run(&circuit, 100, 1).unwrap();
    assert!(probe.route.used_tableau(), "router must pick the tableau");
    assert_cached_runs_bit_identical(sim, &circuit);
}

#[test]
fn stitched_cached_runs_match_unrouted_bit_for_bit() {
    // `x(q0)` is a Clifford prefix ending in the basis state |001>: the
    // router folds it into an `X` preparation and runs `t(q1)` plus the
    // measurements densely.
    let mut circuit = Circuit::new(3);
    circuit.x(Qubit(0)).t(Qubit(1));
    for q in 0..3 {
        circuit.measure(Qubit(q), q);
    }
    let routed = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
    let outcome = broker(&ArtifactCache::unbounded())
        .serve(&routed, &circuit, 20_000, 0xfeed_5eed)
        .unwrap();
    assert_eq!(
        outcome.route.segments,
        vec![
            RouteSegment {
                engine: EngineKind::Tableau,
                ops: 1,
            },
            RouteSegment {
                engine: EngineKind::DecisionDiagram,
                ops: 4,
            },
        ],
        "a two-segment stitched route"
    );
    let unrouted = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, 20_000, 0xfeed_5eed)
        .unwrap();
    assert_eq!(outcome.histogram, unrouted.histogram, "stitch != unrouted");
    assert_cached_runs_bit_identical(routed, &circuit);
}

#[test]
fn request_fingerprint_is_sensitive_to_the_whole_request() {
    let base = |theta: f64, clbits: u16| {
        let mut c = Circuit::new(3);
        c.set_num_clbits(clbits);
        c.h(Qubit(0));
        c.gate(OneQubitGate::Rz(Angle::Radians(theta)), Qubit(1));
        c.cx(Qubit(0), Qubit(2));
        c
    };
    let theta = 0.123_456_789_f64;
    let circuit = base(theta, 3);
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let key = sim.request_fingerprint(&circuit);

    // Stable across calls and simulator instances with equal configuration.
    assert_eq!(key, sim.request_fingerprint(&circuit));
    assert_eq!(
        key,
        WeakSimulator::new(Backend::DecisionDiagram).request_fingerprint(&circuit)
    );

    // One flipped mantissa bit in a gate angle is a different request.
    let flipped = base(f64::from_bits(theta.to_bits() ^ 1), 3);
    assert_ne!(key, sim.request_fingerprint(&flipped));

    // A different classical-register layout is a different request.
    assert_ne!(key, sim.request_fingerprint(&base(theta, 4)));

    // Backend choice and router flag are part of the key.
    assert_ne!(
        key,
        WeakSimulator::new(Backend::StateVector).request_fingerprint(&circuit)
    );
    assert_ne!(
        key,
        WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .request_fingerprint(&circuit)
    );

    // Attaching real noise changes the key; changing its parameter by one
    // bit changes it again.
    let noisy = |p: f64| {
        WeakSimulator::new(Backend::DecisionDiagram)
            .with_noise(NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(p)))
    };
    let noisy_key = noisy(0.01).request_fingerprint(&circuit);
    assert_ne!(key, noisy_key);
    assert_ne!(
        noisy_key,
        noisy(f64::from_bits(0.01f64.to_bits() ^ 1)).request_fingerprint(&circuit)
    );

    // A noise model with no non-trivial channel is the same request as no
    // noise model at all — both run the identical noise-free simulation.
    let trivial = WeakSimulator::new(Backend::DecisionDiagram)
        .with_noise(NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(0.0)));
    assert_eq!(key, trivial.request_fingerprint(&circuit));
}

#[test]
fn shared_artifacts_sample_concurrently() {
    let circuit = algorithms::w_state(6);
    let cache = ArtifactCache::unbounded();
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let reference = broker(&cache).serve(&sim, &circuit, 10_000, 7).unwrap();

    let artifact = cache
        .get(sim.request_fingerprint(&circuit))
        .expect("the run above populated the cache");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let artifact = std::sync::Arc::clone(&artifact);
                scope.spawn(move || {
                    // Same seed on every thread: all histograms must equal
                    // the single-threaded reference exactly.
                    let hist = artifact.sample(10_000, 7);
                    (worker, hist)
                })
            })
            .collect();
        for handle in handles {
            let (worker, hist) = handle.join().unwrap();
            assert_eq!(hist, reference.histogram, "worker {worker} diverged");
        }
    });

    // Different seeds still produce different draws from the shared arena.
    assert_ne!(artifact.sample(10_000, 8), reference.histogram);
}

#[test]
fn byte_budget_evicts_lru_and_rebuilds_transparently() {
    let a = algorithms::ghz(9);
    let b = algorithms::qft(9, false);

    // Size the budget to hold exactly one of the two artifacts.
    let probe = ArtifactCache::unbounded();
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let sizing = broker(&probe);
    sizing.serve(&sim, &a, 100, 1).unwrap();
    sizing.serve(&sim, &b, 100, 1).unwrap();
    let both = probe.stats().bytes;
    assert_eq!(probe.stats().entries, 2);

    let cache = ArtifactCache::governed(&RunGovernor::unlimited().with_byte_budget(both - 1));
    let broker = broker(&cache);
    let cold_a = broker.serve(&sim, &a, 5_000, 3).unwrap();
    assert_eq!(cold_a.cache, Some(CacheOutcome::Miss));
    let cold_b = broker.serve(&sim, &b, 5_000, 3).unwrap();
    assert_eq!(cold_b.cache, Some(CacheOutcome::Miss));

    // `b` displaced `a` (least recently used), so `a` misses and is rebuilt —
    // with a histogram identical to its first run.
    let stats = cache.stats();
    assert!(stats.evictions >= 1, "budget must have forced an eviction");
    assert!(stats.bytes < both, "budget must hold after eviction");
    let rebuilt_a = broker.serve(&sim, &a, 5_000, 3).unwrap();
    assert_eq!(rebuilt_a.cache, Some(CacheOutcome::Miss));
    assert_eq!(rebuilt_a.histogram, cold_a.histogram);

    // And `a`'s rebuild in turn displaced `b`; a fresh `b` run still matches.
    let rebuilt_b = broker.serve(&sim, &b, 5_000, 3).unwrap();
    assert_eq!(rebuilt_b.cache, Some(CacheOutcome::Miss));
    assert_eq!(rebuilt_b.histogram, cold_b.histogram);
}

#[test]
fn touch_on_hit_keeps_broker_served_entries_off_the_eviction_block() {
    // Regression for the serve-path LRU ordering: a broker-served entry
    // never goes through `ArtifactCache::get` (coalesced waiters take the
    // artifact from the build slot), so recency must be bumped via
    // `ArtifactCache::touch` — without it, an entry that just served a
    // burst of concurrent traffic is still ranked by its *insertion* time
    // and becomes the eviction victim at the next insert.
    //
    // Three near-identical circuits (same structure, different angles) give
    // three same-sized artifacts; a budget sized to hold exactly two forces
    // every insert past the second to evict.
    let variant = |theta: f64| {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(Qubit(q));
        }
        for q in 0..8 {
            c.cx(Qubit(q), Qubit(q + 1));
        }
        c.gate(OneQubitGate::Rz(Angle::Radians(theta)), Qubit(4));
        c
    };
    let (a, b, c) = (variant(0.25), variant(0.5), variant(0.75));

    let probe = ArtifactCache::unbounded();
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let sizing = broker(&probe);
    sizing.serve(&sim, &a, 100, 1).unwrap();
    sizing.serve(&sim, &b, 100, 1).unwrap();
    let two = probe.stats().bytes;
    assert_eq!(probe.stats().entries, 2);

    let cache = ArtifactCache::governed(&RunGovernor::unlimited().with_byte_budget(two));
    let broker = broker(&cache);
    let sim_ro = WeakSimulator::new(Backend::DecisionDiagram);
    let (key_a, key_b) = (
        sim_ro.request_fingerprint(&a),
        sim_ro.request_fingerprint(&b),
    );

    // Insert a then b, then interleave a broker-style slot-serve of `a`
    // (touch, not get) before inserting c at the full budget.
    broker.serve(&sim, &a, 100, 1).unwrap();
    broker.serve(&sim, &b, 100, 1).unwrap();
    assert!(cache.touch(key_a), "a is resident and must be touchable");
    broker.serve(&sim, &c, 100, 1).unwrap();

    // The victim must be b — the true least-recently-*used* entry — not a.
    assert!(
        cache.get(key_a).is_some(),
        "touched entry a must survive the eviction"
    );
    assert!(
        cache.get(key_b).is_none(),
        "untouched entry b must be the eviction victim"
    );
    assert!(!cache.touch(key_b), "touching an evicted key reports false");
}

#[test]
fn noisy_and_dynamic_requests_bypass_the_cache() {
    let cache = ArtifactCache::unbounded();
    let broker = broker(&cache);

    let mut dynamic = algorithms::ghz(3);
    dynamic.measure(Qubit(0), 0);
    dynamic.h(Qubit(1)); // gate after measurement: dynamic
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let outcome = broker.serve(&sim, &dynamic, 500, 1).unwrap();
    assert_eq!(outcome.cache, None);

    let noisy = WeakSimulator::new(Backend::DecisionDiagram)
        .with_noise(NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(0.02)));
    let outcome = broker.serve(&noisy, &algorithms::ghz(3), 500, 1).unwrap();
    assert_eq!(outcome.cache, None);

    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 0, 0),
        "neither request may touch the cache"
    );
}
