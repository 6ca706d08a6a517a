//! The `serve-hamsterster` workload: an in-process `cfcc-serve` daemon in
//! its default configuration (threads pinned to 2), the hamsterster proxy
//! loaded through `load_graph`, and two clients in a closed loop sending
//! `eval_group probes=8` on 4-node groups. Seven of every eight requests
//! go to one of 16 hot groups warmed during set-up (factor cache hit,
//! solve only); the eighth is a group never seen before (cache miss:
//! factor build plus solve). The hot groups and their probe seeds are the
//! same for every workload seed, which drives the request order and the
//! never-seen groups.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cfcc_core::cfcc::group_mask;
use cfcc_graph::traversal::largest_connected_component;
use cfcc_graph::Node;
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::{DenseMatrix, SddFactor};
use cfcc_serve::client::Client;
use cfcc_serve::protocol::fields;
use cfcc_serve::{ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::json::Json;
use crate::trace::Tracer;
use crate::{median, peak_rss_mb, quantile, ratio, Checks, Options, Report, CLIENTS, THREADS};

/// Hot groups warmed during set-up.
pub const HOT: usize = 16;
/// Nodes per group.
pub const GROUP: usize = 4;
/// Hutchinson probes per request.
pub const PROBES: usize = 8;
/// One request in this many is a never-seen group.
pub const MISS_EVERY: u64 = 8;
/// Draws the hot groups and their probe seeds, whatever the workload seed.
const HOT_SEED: u64 = 0x4075;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests each client sends at least, however short the run.
const MIN_REQUESTS: u64 = 16;
/// Traffic before the measured phase; its replies are checked but not
/// timed.
const WARMUP_S: f64 = 1.0;
/// `throughput_rps` is the median rate over windows this long, so that a
/// stall of a few seconds moves it less than a whole-run rate.
const WINDOW_S: f64 = 2.0;
/// How closely a repeated hot request must reproduce its warm-up answer,
/// relative: a few orders above the daemon's `rel_tol` (1e-8), since a
/// fused block solve stops each column at that residual from a different
/// iterate than the solo warm-up solve did.
const ANSWER_RTOL: f64 = 1e-6;

/// The daemon's configuration: the default, with the worker threads
/// pinned like every other workload.
pub fn config() -> ServeConfig {
    ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    }
}

fn dataset(tiny: bool) -> &'static str {
    if tiny {
        "karate"
    } else {
        "hamsterster"
    }
}

/// A hot group and the answer the daemon gave for it during warm-up.
struct Hot {
    nodes: Vec<Node>,
    seed: u64,
    cfcc: f64,
}

struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
    client: Client,
    n: usize,
    hot: Vec<Hot>,
}

fn eval_line(nodes: &[Node], seed: u64) -> String {
    let list: Vec<String> = nodes.iter().map(|u| u.to_string()).collect();
    format!(
        "eval_group graph=g nodes={} probes={PROBES} seed={seed}",
        list.join(",")
    )
}

/// `cfcc=` of an `ok` reply.
fn reply_cfcc(reply: &str) -> Option<f64> {
    if !reply.starts_with("ok ") {
        return None;
    }
    fields(reply).get("cfcc").and_then(|v| v.parse().ok())
}

/// A random group of `GROUP` distinct nodes, sorted.
fn random_group(rng: &mut StdRng, n: usize) -> Vec<Node> {
    let mut group: Vec<Node> = Vec::with_capacity(GROUP);
    while group.len() < GROUP.min(n - 1) {
        let u = rng.gen_range(0..n) as Node;
        if !group.contains(&u) {
            group.push(u);
        }
    }
    group.sort_unstable();
    group
}

/// Bind, load the graph, and warm the hot groups.
fn setup(tiny: bool, checks: &mut Checks) -> Result<Daemon, String> {
    let server = Server::bind(config()).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let handle = server.spawn();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let reply = client
        .request_terminal(&format!("load_graph name=g dataset={}", dataset(tiny)))
        .map_err(|e| format!("load_graph: {e}"))?;
    let n: usize = fields(&reply)
        .get("n")
        .and_then(|v| v.parse().ok())
        .filter(|_| reply.starts_with("ok "))
        .ok_or_else(|| format!("load_graph replied {reply}"))?;
    let mut rng = StdRng::seed_from_u64(HOT_SEED);
    let mut hot: Vec<Hot> = Vec::with_capacity(HOT);
    while hot.len() < HOT {
        let nodes = random_group(&mut rng, n);
        if hot.iter().any(|h| h.nodes == nodes) {
            continue;
        }
        let seed = rng.gen::<u64>() >> 1;
        let reply = client
            .request_terminal(&eval_line(&nodes, seed))
            .map_err(|e| format!("warm-up: {e}"))?;
        let cfcc = reply_cfcc(&reply);
        checks.op(cfcc.is_some(), || format!("warm-up {nodes:?}: {reply}"));
        hot.push(Hot {
            nodes,
            seed,
            cfcc: cfcc.unwrap_or(f64::NAN),
        });
    }
    Ok(Daemon {
        handle,
        addr,
        client,
        n,
        hot,
    })
}

/// Server-side counters from the `stats` verb.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    eval_group: f64,
    hits: f64,
    misses: f64,
    shed: f64,
    batches: f64,
    fused_columns: f64,
    solves: f64,
    iterations: f64,
}

fn stats(client: &mut Client) -> Result<Stats, String> {
    let reply = client
        .request_terminal("stats")
        .map_err(|e| e.to_string())?;
    let body = reply
        .strip_prefix("ok stats=")
        .ok_or_else(|| format!("stats replied {reply}"))?;
    let j = Json::parse(body)?;
    let num = |path: &[&str]| {
        j.at(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats lacks {}", path.join(".")))
    };
    let batches = num(&["batching", "batches"])?;
    Ok(Stats {
        eval_group: num(&["requests", "eval_group"])?,
        hits: num(&["cache", "hits"])?,
        misses: num(&["cache", "misses"])?,
        shed: num(&["requests", "shed"])?,
        batches,
        fused_columns: num(&["batching", "mean_width"])? * batches,
        solves: num(&["solve", "solves"])?,
        iterations: num(&["solve", "iterations"])?,
    })
}

/// One request as the client saw it.
struct Sample {
    done: Instant,
    ms: f64,
    ok: bool,
    cache_hit: bool,
    /// The hot group asked for, if any, and the answer.
    hot: Option<usize>,
    cfcc: f64,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    checks: Checks,
}

fn client_loop(
    addr: SocketAddr,
    hot: &[Hot],
    seen: &Mutex<HashSet<Vec<Node>>>,
    n: usize,
    seed: u64,
    until: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.checks.op(false, || format!("connect: {e}"));
            return run;
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = 0u64;
    while r < MIN_REQUESTS || Instant::now() < until {
        r += 1;
        let (line, expect, hot_ix) = if r.is_multiple_of(MISS_EVERY) {
            let group = loop {
                let g = random_group(&mut rng, n);
                if seen
                    .lock()
                    .expect("no client panics holding it")
                    .insert(g.clone())
                {
                    break g;
                }
            };
            (eval_line(&group, rng.gen::<u64>() >> 1), None, None)
        } else {
            let i = rng.gen_range(0..hot.len());
            let h = &hot[i];
            (eval_line(&h.nodes, h.seed), Some(h.cfcc), Some(i))
        };
        let t = Instant::now();
        let reply = client.request_terminal(&line);
        let done = Instant::now();
        let ms = (done - t).as_secs_f64() * 1e3;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                run.checks.op(false, || format!("{line}: {e}"));
                break;
            }
        };
        let got = reply_cfcc(&reply);
        let ok = match (got, expect) {
            (Some(c), Some(want)) => (c - want).abs() <= ANSWER_RTOL * want.abs(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        run.checks.op(ok, || {
            format!("{line}: {reply} (warm-up answer {expect:?})")
        });
        run.samples.push(Sample {
            done,
            ms,
            ok: got.is_some(),
            cache_hit: fields(&reply).get("cache") == Some(&"hit"),
            hot: hot_ix,
            cfcc: got.unwrap_or(f64::NAN),
        });
    }
    run
}

pub fn run(opts: &Options, report: &mut Report) {
    report.stamp.extend([
        ("dataset", dataset(opts.tiny).to_string()),
        ("clients", CLIENTS.to_string()),
        ("hot_groups", HOT.to_string()),
        ("group_size", GROUP.to_string()),
        ("probes", PROBES.to_string()),
        ("miss_every", MISS_EVERY.to_string()),
        ("rel_tol", config().rel_tol.to_string()),
    ]);
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut daemon = None;
    for _ in 0..reps {
        // Shut the previous set-up's daemon down before timing the next.
        drop(daemon.take());
        let t = Instant::now();
        match setup(opts.tiny, &mut report.checks) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                report.checks.op(false, || e);
                return;
            }
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let Some(mut d) = daemon else { return };
    let backend = SddBackend::Auto.resolve(d.n - GROUP).name();
    report.stamp.extend([
        ("n", d.n.to_string()),
        ("backend", format!("auto ({backend})")),
    ]);

    let tracer = Tracer::new();
    let before = stats(&mut d.client);
    let seen: Mutex<HashSet<Vec<Node>>> =
        Mutex::new(d.hot.iter().map(|h| h.nodes.clone()).collect());
    let measured_from = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    let until = measured_from + Duration::from_secs_f64(opts.seconds);
    let runs: Vec<ClientRun> = tracer.span("serve.traffic", || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let (hot, seen, addr, n) = (&d.hot, &seen, d.addr, d.n);
                    let seed = cfcc_forest::sampler::splitmix64(opts.seed ^ (c + 1));
                    s.spawn(move || client_loop(addr, hot, seen, n, seed, until))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    });
    let wall = measured_from.elapsed().as_secs_f64();
    let after = stats(&mut d.client);
    let mut samples = Vec::new();
    for run in runs {
        report.checks.attempted += run.checks.attempted;
        report.checks.failed += run.checks.failed;
        report.checks.problems.extend(run.checks.problems);
        samples.extend(run.samples.into_iter().filter(|s| s.done >= measured_from));
    }
    let delta = match (before, after) {
        (Ok(b), Ok(a)) => Some(Stats {
            eval_group: a.eval_group - b.eval_group,
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            shed: a.shed - b.shed,
            batches: a.batches - b.batches,
            fused_columns: a.fused_columns - b.fused_columns,
            solves: a.solves - b.solves,
            iterations: a.iterations - b.iterations,
        }),
        (b, a) => {
            report
                .checks
                .op(false, || format!("stats: {:?} / {:?}", b.err(), a.err()));
            None
        }
    };

    let ok_ms: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.ms).collect();
    let by_cache = |hit: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.ok && s.cache_hit == hit)
            .map(|s| s.ms)
            .collect()
    };
    let hit_p50 = median(&by_cache(true));
    report.notes.push(format!(
        "{} requests in {wall:.2} s ({} hits, {} misses), p50 {:.3} ms, p99 {:.3} ms",
        samples.len(),
        by_cache(true).len(),
        by_cache(false).len(),
        median(&ok_ms),
        quantile(&ok_ms, 0.99)
    ));

    if opts.trace {
        let m = &mut report.metrics;
        m.set("serve.hit_p50_ms", hit_p50);
        m.set("serve.miss_p50_ms", median(&by_cache(false)));
        m.set("serve.p99_ms", quantile(&ok_ms, 0.99));
        if let Some(s) = delta {
            m.set("serve.mean_batch_width", ratio(s.fused_columns, s.batches));
            m.set("serve.cache_hit_rate", ratio(s.hits, s.hits + s.misses));
            m.set(
                "serve.iterations_per_request",
                ratio(s.iterations, s.eval_group),
            );
            m.set("serve.shed", s.shed);
        }
        direct(opts, &d, &tracer, report);
        let direct_ms = report.metrics.get("serve.direct_solve_ms").unwrap_or(0.0);
        report.metrics.set("serve.overhead_ms", hit_p50 - direct_ms);
        // The share of a cache hit's latency the solve itself accounts for;
        // the traffic is never traced, so there is no tracing overhead.
        report
            .metrics
            .set("trace.coverage", ratio(direct_ms, hit_p50));
        report.metrics.set("trace.overhead_s", 0.0);
        report.spans_json = Some(tracer.to_json());
    } else {
        let m = &mut report.metrics;
        m.set("solve_s", median(&ok_ms) / 1e3);
        m.set(
            "throughput_rps",
            windowed_rate(&samples, measured_from, wall),
        );
        m.set("cfcc", hot_answers(&d.hot, &samples));
        m.set("setup_s", median(&setup_times));
        m.set("peak_rss_mb", peak_rss_mb());
    }
    drop(d.client);
    d.handle.shutdown();
}

/// The median over the measured phase's whole `WINDOW_S` windows of the
/// `ok` replies per second completed in each; the whole phase's rate when
/// it is shorter than one window.
fn windowed_rate(samples: &[Sample], from: Instant, wall: f64) -> f64 {
    let windows = (wall / WINDOW_S).floor() as usize;
    let ok = samples.iter().filter(|s| s.ok);
    if windows == 0 {
        return ratio(ok.count() as f64, wall);
    }
    let mut counts = vec![0.0; windows];
    for s in ok {
        let w = ((s.done - from).as_secs_f64() / WINDOW_S) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1.0;
        }
    }
    median(&counts) / WINDOW_S
}

/// The mean over the hot groups of the median answer the daemon gave each
/// during the measured phase (its warm-up answer if it was not asked).
/// The groups and probe seeds are fixed, so this moves only when the
/// daemon's estimate does.
fn hot_answers(hot: &[Hot], samples: &[Sample]) -> f64 {
    let per_group: Vec<f64> = hot
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let answers: Vec<f64> = samples
                .iter()
                .filter(|s| s.ok && s.hot == Some(i))
                .map(|s| s.cfcc)
                .collect();
            if answers.is_empty() {
                h.cfcc
            } else {
                median(&answers)
            }
        })
        .collect();
    per_group.iter().sum::<f64>() / per_group.len() as f64
}

/// Factor and solve the hot groups in-process, as the daemon does on a
/// miss and on a hit, and check the solve reproduces the daemon's answer.
fn direct(opts: &Options, d: &Daemon, tracer: &Tracer, report: &mut Report) {
    let g = cfcc_datasets::registry::by_name(dataset(opts.tiny), 1.0).expect("registered dataset");
    let g = Arc::new(if g.is_connected() {
        g
    } else {
        largest_connected_component(&g).0
    });
    let n = g.num_nodes();
    let cfg = config();
    let sdd_opts = SddOptions {
        rel_tol: cfg.rel_tol,
        max_iter: 50_000,
        threads: cfg.threads,
        ..SddOptions::default()
    };
    let (mut factor_ms, mut solve_ms) = (Vec::new(), Vec::new());
    let (mut solves, mut iterations, mut block_iterations) = (0u64, 0u64, 0.0);
    for h in &d.hot {
        let mask = group_mask(&g, &h.nodes).expect("hot groups are valid");
        let t = Instant::now();
        let built = tracer.span("linalg.factor_owned", || {
            sdd::factor_owned(&g, &mask, SddBackend::Auto, &sdd_opts)
        });
        factor_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut f = match built {
            Ok(f) => f,
            Err(e) => {
                report
                    .checks
                    .op(false, || format!("factor_owned {:?}: {e}", h.nodes));
                continue;
            }
        };
        // The daemon's probe block for this (group, seed).
        let kept = f.dim();
        let mut rng = StdRng::seed_from_u64(h.seed ^ 0x5EED_F00D);
        let mut rhs = DenseMatrix::zeros(kept, PROBES);
        for i in 0..kept {
            for j in 0..PROBES {
                rhs.set(i, j, if rng.gen::<bool>() { 1.0 } else { -1.0 });
            }
        }
        let mut x = DenseMatrix::zeros(kept, PROBES);
        let before = f.stats();
        let t = Instant::now();
        let solved = tracer.span("linalg.solve_mat_into", || f.solve_mat_into(&rhs, &mut x));
        solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let after = f.stats();
        solves += after.solves - before.solves;
        iterations += after.iterations - before.iterations;
        block_iterations += (after.iterations - before.iterations) as f64 / PROBES as f64;
        // On a direct backend the daemon answers with the exact trace.
        let trace = if f.backend_name() == "dense-cholesky" {
            f.trace_inverse().unwrap_or(f64::NAN)
        } else {
            rhs.data()
                .iter()
                .zip(x.data())
                .map(|(z, y)| z * y)
                .sum::<f64>()
                / PROBES as f64
        };
        let cfcc = n as f64 / trace;
        report.checks.op(
            solved.is_ok() && (cfcc - h.cfcc).abs() <= ANSWER_RTOL * h.cfcc.abs(),
            || {
                format!(
                    "direct solve of {:?}: {cfcc} vs daemon {} ({solved:?})",
                    h.nodes, h.cfcc
                )
            },
        );
    }
    let solve_s = tracer.total("linalg.solve_mat_into");
    let m = &mut report.metrics;
    m.set("serve.direct_solve_ms", median(&solve_ms));
    m.set("serve.direct_factor_ms", median(&factor_ms));
    m.set("linalg.factor_s", tracer.total("linalg.factor_owned"));
    m.set("linalg.factors", factor_ms.len() as f64);
    m.set("linalg.solve_s", solve_s);
    m.set("linalg.rhs", solves as f64);
    m.set("linalg.pcg_iterations", iterations as f64);
    m.set(
        "linalg.iters_per_rhs",
        ratio(iterations as f64, solves as f64),
    );
    m.set(
        "linalg.us_per_block_iteration",
        ratio(solve_s * 1e6, block_iterations),
    );
}
