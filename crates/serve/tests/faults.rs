//! Chaos suite: the daemon under injected faults. Every test drives a
//! [`FaultPlan`] seam end to end over real TCP and asserts the blast
//! radius stays contained — the offending request gets a typed error,
//! every other request is served correctly, and the daemon never needs a
//! restart.
//!
//! The headline test ([`overload_storm_is_shed_retried_and_served_correctly`])
//! is the acceptance scenario: an armed factorization panic plus 4×
//! overload, with clients retrying through capped backoff, must end with
//! every request answered at sequential parity and the shed/panic/retry
//! counters all accounted for.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfcc_graph::generators;
use cfcc_serve::client::Client;
use cfcc_serve::fault::FaultPlan;
use cfcc_serve::protocol::{fields, MAX_LINE_BYTES};
use cfcc_serve::{ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_graph() -> cfcc_graph::Graph {
    let mut rng = StdRng::seed_from_u64(42);
    generators::barabasi_albert(300, 3, &mut rng)
}

/// Bind a daemon with graph `g` resident and the given config tweaks
/// applied on top of a chaos-friendly base (tight residuals so parity
/// checks bite).
fn spawn_with(
    fault: &Arc<FaultPlan>,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (ServerHandle, std::net::SocketAddr) {
    let mut cfg = ServeConfig {
        rel_tol: 1e-12,
        fault: Arc::clone(fault),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(cfg).unwrap();
    server.registry().insert("g", test_graph()).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn(), addr)
}

fn cfcc_of(terminal: &str) -> f64 {
    assert!(terminal.starts_with("ok "), "{terminal}");
    fields(terminal)["cfcc"].parse::<f64>().unwrap()
}

/// Pull an integer counter out of the `stats` JSON blob.
fn stat_counter(stats_json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = stats_json
        .find(&pat)
        .unwrap_or_else(|| panic!("'{key}' missing from stats: {stats_json}"));
    stats_json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

fn stats_of(c: &mut Client) -> String {
    let t = c.request_terminal("stats").unwrap();
    assert!(t.starts_with("ok "), "{t}");
    fields(&t)["stats"].to_string()
}

/// An injected factorization panic is isolated: the request that hit it
/// gets `err code=internal`, the poisoned cache entry is evicted, and the
/// very same request succeeds on retry — no restart, no wedged lock.
#[test]
fn factorization_panic_is_isolated_and_evicted() {
    let fault = Arc::new(FaultPlan::default());
    fault.fail_factor(1);
    let (mut handle, addr) = spawn_with(&fault, |_| {});
    let mut c = Client::connect(addr).unwrap();

    let req = "eval_group graph=g nodes=3,17,42 backend=sparse-cg probes=4 seed=7";
    let t = c.request_terminal(req).unwrap();
    assert!(t.starts_with("err code=internal"), "{t}");

    // Same connection, same request: the evicted entry rebuilds cleanly.
    let t = c.request_terminal(req).unwrap();
    assert!(t.starts_with("ok "), "{t}");

    let stats = stats_of(&mut c);
    assert!(stat_counter(&stats, "panics") >= 1, "{stats}");
    assert!(c.request_terminal("ping").unwrap().starts_with("ok "));
    handle.shutdown();
}

/// The acceptance scenario: a factorization panic armed, admission capped
/// at 4 in-flight, and 16 concurrent clients (4× overload) retrying
/// through [`Client::request_with_retry`]. Every client must end with a
/// correct answer (parity ≤ 1e-10 against a pristine sequential server),
/// the daemon must have shed with `overloaded`, observed stamped retries,
/// contained at least one panic — and still answer `ping` at the end.
#[test]
fn overload_storm_is_shed_retried_and_served_correctly() {
    let groundings = ["3,17,42", "5,80", "0,1,2,250"];
    let requests: Vec<String> = (0..16)
        .map(|i| {
            format!(
                "eval_group graph=g nodes={} backend=sparse-cg probes=4 seed={}",
                groundings[i % groundings.len()],
                2000 + i
            )
        })
        .collect();

    // Sequential baseline: no faults, no concurrency, batching off.
    let (mut seq_handle, seq_addr) = spawn_with(&FaultPlan::none(), |cfg| cfg.batching = false);
    let mut c = Client::connect(seq_addr).unwrap();
    let baseline: Vec<f64> = requests
        .iter()
        .map(|r| cfcc_of(&c.request_terminal(r).unwrap()))
        .collect();
    drop(c);
    seq_handle.shutdown();

    // Chaos server: first factorization panics, solves run slow enough to
    // keep the in-flight window saturated, admission sheds past 4.
    let fault = Arc::new(FaultPlan::default());
    fault.fail_factor(1);
    fault.delay_solves(Duration::from_millis(20));
    let (mut handle, addr) = spawn_with(&fault, |cfg| {
        cfg.max_inflight = 4;
        cfg.batch_window = Duration::from_millis(10);
    });

    let got: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|r| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    // Backoff-retry absorbs `overloaded`; one more outer
                    // round absorbs the injected `internal` panic.
                    for _ in 0..10 {
                        let lines = c.request_with_retry(r, 8).unwrap();
                        let t = lines.last().unwrap();
                        if t.starts_with("ok ") {
                            return cfcc_of(t);
                        }
                        assert!(
                            t.starts_with("err code=internal")
                                || t.starts_with("err code=overloaded"),
                            "unexpected failure: {t}"
                        );
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    panic!("request never served: {r}");
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (&expect, &got)) in baseline.iter().zip(got.iter()).enumerate() {
        let rel = (got - expect).abs() / expect.abs().max(1.0);
        assert!(
            rel <= 1e-10,
            "request {i}: chaos answer {got} vs sequential {expect} (rel {rel:.2e})"
        );
    }

    // Same daemon, zero restarts: health check plus the fault ledger.
    let mut c = Client::connect(addr).unwrap();
    assert!(c.request_terminal("ping").unwrap().starts_with("ok "));
    let stats = stats_of(&mut c);
    assert!(stat_counter(&stats, "shed") >= 1, "{stats}");
    assert!(stat_counter(&stats, "panics") >= 1, "{stats}");
    assert!(stat_counter(&stats, "retries_observed") >= 1, "{stats}");
    handle.shutdown();
}

/// Satellite 1, at the wire: a deadline that expires *mid-solve* (the
/// per-iteration pause makes the solve slow but interruptible) returns
/// `err code=deadline` within 2× the deadline instead of running the
/// solve to completion — and the factor stays reusable afterwards.
#[test]
fn mid_solve_deadline_expiry_returns_promptly() {
    let fault = Arc::new(FaultPlan::default());
    let (mut handle, addr) = spawn_with(&fault, |cfg| cfg.batch_window = Duration::ZERO);
    let mut c = Client::connect(addr).unwrap();

    // Warm the factor so the deadline budget is spent inside the solve.
    let t = c
        .request_terminal("eval_group graph=g nodes=3,17,42 backend=sparse-cg seed=1")
        .unwrap();
    assert!(t.starts_with("ok "), "{t}");

    // 25ms per block sweep against a 250ms budget: at 1e-12 residual the
    // solve needs far more than 10 sweeps, so the deadline must fire
    // mid-solve, and the stop hook polls once per sweep, so detection
    // latency is about one sweep.
    fault.delay_iterations(Duration::from_millis(25));
    let t0 = Instant::now();
    let t = c
        .request_terminal(
            "eval_group graph=g nodes=3,17,42 backend=sparse-cg deadline_ms=250 seed=2",
        )
        .unwrap();
    let elapsed = t0.elapsed();
    fault.delay_iterations(Duration::ZERO);
    assert!(t.starts_with("err code=deadline"), "{t}");
    assert!(
        elapsed < Duration::from_millis(500),
        "deadline reply took {elapsed:?} — more than 2× the 250ms budget"
    );

    // The abort folded into the ledger and the cached factor (hook
    // cleared) still serves.
    let stats = stats_of(&mut c);
    assert!(stat_counter(&stats, "solver_cancelled") >= 1, "{stats}");
    let t = c
        .request_terminal("eval_group graph=g nodes=3,17,42 backend=sparse-cg seed=3")
        .unwrap();
    assert!(t.starts_with("ok "), "{t}");
    handle.shutdown();
}

/// A dropped reply (connection cut instead of the Nth write) surfaces to
/// that client as an EOF error; the daemon and the next connection are
/// unaffected.
#[test]
fn dropped_reply_only_costs_that_connection() {
    let fault = Arc::new(FaultPlan::default());
    fault.drop_reply(1);
    let (mut handle, addr) = spawn_with(&fault, |_| {});

    let mut c = Client::connect(addr).unwrap();
    let err = c.request_terminal("ping").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");

    let mut c2 = Client::connect(addr).unwrap();
    assert!(c2.request_terminal("ping").unwrap().starts_with("ok "));
    handle.shutdown();
}

/// Hostile bytes on the wire — an oversized line, then invalid UTF-8 —
/// each earn `err code=bad_request` and the connection keeps serving.
#[test]
fn hostile_input_gets_bad_request_and_keeps_the_connection() {
    let (mut handle, addr) = spawn_with(&FaultPlan::none(), |_| {});
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let read_reply = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    // One line far past the bound, no newline until the very end.
    let big = vec![b'a'; MAX_LINE_BYTES + 10];
    writer.write_all(&big).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let t = read_reply(&mut reader);
    assert!(t.starts_with("err code=bad_request"), "{t}");

    // Invalid UTF-8.
    writer.write_all(&[0x66, 0xFF, 0xFE, b'\n']).unwrap();
    writer.flush().unwrap();
    let t = read_reply(&mut reader);
    assert!(t.starts_with("err code=bad_request"), "{t}");

    // A retired backend name is an unknown backend.
    writer
        .write_all(b"eval_group graph=g nodes=3,17 backend=lsst-pcg\n")
        .unwrap();
    writer.flush().unwrap();
    let t = read_reply(&mut reader);
    assert!(t.starts_with("err code=bad_request"), "{t}");
    assert!(t.contains("unknown backend"), "{t}");

    // Same connection still does real work.
    writer.write_all(b"ping\n").unwrap();
    writer.flush().unwrap();
    let t = read_reply(&mut reader);
    assert!(t.starts_with("ok "), "{t}");
    handle.shutdown();
}

/// Graceful shutdown drains: a solve in flight (slowed by an injected
/// delay) when `shutdown` begins still completes and delivers its answer
/// before the daemon exits.
#[test]
fn graceful_shutdown_drains_inflight_work() {
    let fault = Arc::new(FaultPlan::default());
    fault.delay_solves(Duration::from_millis(150));
    let (mut handle, addr) = spawn_with(&fault, |_| {});

    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request_terminal("eval_group graph=g nodes=3,17,42 backend=sparse-cg probes=4 seed=9")
            .unwrap()
    });
    // Let the request reach the (deliberately slow) solve, then shut down
    // while it is in flight.
    while handle.active_requests() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    let t = worker.join().unwrap();
    assert!(t.starts_with("ok "), "drained request lost its answer: {t}");
}
