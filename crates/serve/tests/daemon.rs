//! Integration tests for the `cfcc-serve` daemon over real TCP
//! connections: batching correctness (fused solves match sequential ones),
//! cache counts and epoch semantics over the wire, client-disconnect
//! cancellation, capability refusals, and deadline enforcement.

use std::time::{Duration, Instant};

use cfcc_core::solver::DENSE_MAX_NODES;
use cfcc_graph::generators;
use cfcc_serve::client::Client;
use cfcc_serve::protocol::fields;
use cfcc_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_graph() -> cfcc_graph::Graph {
    let mut rng = StdRng::seed_from_u64(42);
    generators::barabasi_albert(300, 3, &mut rng)
}

/// The request mix the parity test replays on both servers: a few distinct
/// groundings (so same-key requests fuse) with per-request seeds (so every
/// request keeps its own probe block).
fn parity_requests(backend: &str) -> Vec<String> {
    let groundings = ["3,17,42", "5,80", "0,1,2,250"];
    (0..12)
        .map(|i| {
            format!(
                "eval_group graph=g nodes={} backend={} probes=4 seed={}",
                groundings[i % groundings.len()],
                backend,
                1000 + i
            )
        })
        .collect()
}

/// A server holding `g` (the test graph) and `big`, a cycle one node past
/// the dense solvers' size limit.
fn spawn_server(
    batching: bool,
    window: Duration,
    rel_tol: f64,
) -> (cfcc_serve::ServerHandle, std::net::SocketAddr) {
    let server = Server::bind(ServeConfig {
        batching,
        batch_window: window,
        rel_tol,
        ..ServeConfig::default()
    })
    .unwrap();
    server.registry().insert("g", test_graph()).unwrap();
    server
        .registry()
        .insert("big", generators::cycle(DENSE_MAX_NODES + 1))
        .unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn(), addr)
}

fn cfcc_of(terminal: &str) -> f64 {
    let f = fields(terminal);
    assert!(terminal.starts_with("ok "), "{terminal}");
    f["cfcc"].parse::<f64>().unwrap()
}

/// The JSON document of a `stats` reply.
fn stats_of(c: &mut Client) -> String {
    fields(&c.request_terminal("stats").unwrap())["stats"].to_string()
}

/// Concurrent batched requests must produce the same answers as the same
/// requests solved one-by-one with batching off. Solves run at 1e-12
/// residual so the blocked-vs-solo iterate paths agree far below the
/// 1e-10 comparison tolerance. Either way each grounding's factor is
/// built once: a concurrent request for the same key finds the slot the
/// first one inserted under the map lock, so it counts as a hit.
#[test]
fn batched_eval_group_matches_sequential() {
    for backend in ["dense-cholesky", "sparse-cg"] {
        let requests = parity_requests(backend);

        // Sequential baseline: batching off, one connection, in order.
        let (mut seq_handle, seq_addr) = spawn_server(false, Duration::ZERO, 1e-12);
        let mut c = Client::connect(seq_addr).unwrap();
        let baseline: Vec<f64> = requests
            .iter()
            .map(|r| cfcc_of(&c.request_terminal(r).unwrap()))
            .collect();
        let seq_stats = stats_of(&mut c);
        seq_handle.shutdown();

        // Batched run: every request on its own connection, all in flight
        // at once, a wide window so same-grounding requests fuse.
        let (mut bat_handle, bat_addr) = spawn_server(true, Duration::from_millis(40), 1e-12);
        let fused: Vec<(f64, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = requests
                .iter()
                .map(|r| {
                    s.spawn(move || {
                        let mut c = Client::connect(bat_addr).unwrap();
                        let t = c.request_terminal(r).unwrap();
                        let jobs = fields(&t)
                            .get("batch_jobs")
                            .and_then(|v| v.parse::<usize>().ok())
                            .unwrap_or(0);
                        (cfcc_of(&t), jobs)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let bat_stats = stats_of(&mut Client::connect(bat_addr).unwrap());
        bat_handle.shutdown();

        // 12 requests over 3 groundings: 3 factor builds, 9 cache hits.
        for stats in [&seq_stats, &bat_stats] {
            assert!(
                stats.contains(r#""hits":9,"misses":3,"#),
                "{backend}: {stats}"
            );
        }

        for (i, (&expect, &(got, _))) in baseline.iter().zip(fused.iter()).enumerate() {
            let rel = (got - expect).abs() / expect.abs().max(1.0);
            assert!(
                rel <= 1e-10,
                "{backend} request {i}: batched {got} vs sequential {expect} (rel {rel:.2e})"
            );
        }
        if backend != "dense-cholesky" {
            // At least one request must have actually fused with another
            // (12 concurrent requests, 3 groundings, 40ms window).
            let max_jobs = fused.iter().map(|&(_, j)| j).max().unwrap();
            assert!(
                max_jobs >= 2,
                "{backend}: no fusion happened (max batch_jobs = {max_jobs})"
            );
        }
    }
}

/// Factor-cache semantics over the wire: repeat groundings hit, reloading
/// a graph bumps the epoch and invalidates every cached factor.
#[test]
fn cache_hits_and_epoch_invalidation() {
    let (mut handle, addr) = spawn_server(true, Duration::from_millis(1), 1e-8);
    let mut c = Client::connect(addr).unwrap();

    let t = c
        .request_terminal("eval_group graph=g nodes=1,2 seed=7")
        .unwrap();
    assert_eq!(fields(&t)["cache"], "miss");
    let t = c
        .request_terminal("eval_group graph=g nodes=2,1 seed=7")
        .unwrap();
    assert_eq!(
        fields(&t)["cache"],
        "hit",
        "groundings are order-insensitive"
    );

    // Reload under the same name: epoch bumps, factors invalidate.
    let t = c
        .request_terminal("load_graph name=g dataset=karate")
        .unwrap();
    assert_eq!(fields(&t)["epoch"], "2");
    let t = c
        .request_terminal("eval_group graph=g nodes=1,2 seed=7")
        .unwrap();
    assert_eq!(fields(&t)["cache"], "miss", "stale epoch must not serve");

    let t = c.request_terminal("stats").unwrap();
    let stats = fields(&t)["stats"].to_string();
    assert!(stats.contains(r#""hits":1"#), "{stats}");
    assert!(stats.contains(r#""epoch":2"#), "{stats}");
    handle.shutdown();
}

/// A client that disconnects mid-`topk_greedy` must cancel the run (the
/// progress write fails, the sink cancels the token) and free the slot —
/// the daemon keeps serving other clients. A run the solver refuses up
/// front (`exact` past its dense size limit) is a `bad_request`, and the
/// connection keeps serving.
#[test]
fn client_disconnect_cancels_topk_greedy() {
    let (mut handle, addr) = spawn_server(true, Duration::from_millis(1), 1e-8);
    let mut c = Client::connect(addr).unwrap();
    // Plenty of rounds so progress keeps flowing after the disconnect.
    c.send("topk_greedy graph=g k=40 algo=schur seed=3")
        .unwrap();
    drop(c); // disconnect without reading — the daemon's next writes fail

    let t0 = Instant::now();
    while handle.cancelled_requests() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "run was never cancelled after client disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The slot drains and the daemon still answers.
    while handle.active_requests() > 0 {
        assert!(t0.elapsed() < Duration::from_secs(60), "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut c2 = Client::connect(addr).unwrap();
    assert!(c2.request_terminal("ping").unwrap().starts_with("ok "));

    let t = c2
        .request_terminal("topk_greedy graph=big k=2 algo=exact")
        .unwrap();
    assert!(
        t.starts_with("err code=bad_request") && t.contains("dense n x n"),
        "{t}"
    );
    assert!(c2.request_terminal("ping").unwrap().starts_with("ok "));
    handle.shutdown();
}

/// Deadlines: a request whose deadline expires waiting for the batch
/// window gets `err code=deadline` instead of hanging — and the daemon
/// still serves afterwards.
#[test]
fn expired_deadlines_error_instead_of_hanging() {
    // Wide window so a short deadline expires at the batch boundary.
    let (mut handle, addr) = spawn_server(true, Duration::from_millis(80), 1e-8);
    let mut c = Client::connect(addr).unwrap();

    // Warm the factor so the deadline run spends its budget in the queue,
    // not the factorization.
    let t = c
        .request_terminal("eval_group graph=g nodes=9,10 backend=sparse-cg seed=1")
        .unwrap();
    assert!(t.starts_with("ok "), "{t}");

    // Submission-time expiry: deadline_ms=0 is already past at the handler.
    let t = c
        .request_terminal("eval_group graph=g nodes=9,10 backend=sparse-cg deadline_ms=0")
        .unwrap();
    assert!(t.starts_with("err code=deadline"), "{t}");

    // Batch-boundary expiry: 5ms deadline vs 80ms collection window.
    let t = c
        .request_terminal("eval_group graph=g nodes=9,10 backend=sparse-cg deadline_ms=5 seed=2")
        .unwrap();
    assert!(t.starts_with("err code=deadline"), "{t}");

    // A roomy deadline still succeeds on the warm factor.
    let t = c
        .request_terminal(
            "eval_group graph=g nodes=9,10 backend=sparse-cg deadline_ms=30000 seed=3",
        )
        .unwrap();
    assert!(t.starts_with("ok "), "{t}");
    handle.shutdown();
}
