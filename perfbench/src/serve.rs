//! The `serve-conv` workload: the `flash_bench::serving` model behind a
//! one-worker `flash-serve` server with 64 sessions, driven by one
//! load-generator thread in two phases.
//!
//! * `light` — open loop, seeded Poisson arrivals far below capacity
//!   (batches of about one). Each request is timed from when it was due
//!   until the generator observes its result.
//! * `saturated` — closed loop, every session keeping [`WINDOW`]
//!   requests in flight (full batches); reports completions per second.
//!
//! Each phase runs in segments. After a segment's timed part the
//! generator stops, and every response is collected, decrypted and
//! checked against `expected_conv_mod`, so the memory held for checking
//! stays bounded by one segment.

use crate::affinity;
use crate::common::{self, mix, ms, RuntimeCounters};
use crate::stats::{self, mean, quantile, sorted};
use crate::trace::Tracer;
use crate::{Metrics, Outcome, Run};
use flash_2pc::expected_conv_mod;
use flash_2pc::transport::TransportConfig;
use flash_bench::serving::{self, MODEL_ID, SERVER_SEED};
use flash_serve::{
    wire, BatchPolicy, Client, InferenceServer, PreparedRequest, ServeError, ServerStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const SESSIONS: usize = 64;
/// Server worker threads; with the one generator thread this keeps the
/// benchmark within a 2-core budget.
const WORKERS: usize = 1;
/// Open-loop arrival rate of the `light` phase, requests/s.
const LIGHT_RPS: f64 = 100.0;
/// Requests each session keeps in flight in the `saturated` phase.
/// 64 × 2 stays under the batched policy's per-session window (8) and
/// queue bound (256), so a dispatch never blocks the generator.
const WINDOW: usize = 2;
/// Latency limit of `within_slo_frac`, ms: about twice the light
/// phase's p99 on a 2-core x86-64 VM.
const SLO_MS: f64 = 25.0;
/// Distinct activations the generator draws from; share split and
/// encryption randomness stay fresh per request.
const INPUT_POOL: usize = 64;
/// Timed length of one segment.
const SEGMENT: Duration = Duration::from_millis(1500);
/// Saturated-phase requests per second of `--seconds`. At the one-worker
/// capacity this fixture reached on a 2-core x86-64 VM (510–580 rps)
/// the phase takes about a tenth of the run.
const SATURATED_PER_S: f64 = 56.0;
/// Share of the run's seconds given to the `light` phase. The rest goes
/// to the saturated phase, set-up, and the untimed checks.
const LIGHT_SHARE: f64 = 0.4;
/// A segment whose requests do not all finish within this is a failure.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

const INPUT_SALT: u64 = 0x1a9e;
const GEN_SALT: u64 = 0x6e6e;
const CLIENT_SALT: u64 = 0xc11e;
const HE_SALT: u64 = 0x4e4e;

/// The generator's and the server worker's CPUs: the last two the
/// process may use, so neither thread migrates or shares a CPU with the
/// other. With one CPU both stay where the scheduler puts them.
#[derive(Clone, Copy)]
struct Cpus(Option<(usize, usize)>);

impl Cpus {
    fn pick() -> Self {
        let cpus = affinity::allowed_cpus();
        Cpus(match cpus.as_slice() {
            [.., g, w] => Some((*g, *w)),
            _ => None,
        })
    }

    fn pin_generator(self) {
        if let Some((g, _)) = self.0 {
            affinity::pin_current_thread(g);
        }
    }

    fn pin_worker(self) {
        if let Some((_, w)) = self.0 {
            affinity::pin_current_thread(w);
        }
    }
}

/// Seeded activations and their cleartext convolutions, computed on
/// first use.
struct Inputs {
    xs: Vec<Vec<i64>>,
    expected: Vec<Option<Vec<i64>>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let len = serving::shape().input_len();
        let xs = (0..INPUT_POOL as u64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(seed, INPUT_SALT, i));
                (0..len).map(|_| rng.gen_range(-8..8)).collect()
            })
            .collect();
        Inputs {
            xs,
            expected: vec![None; INPUT_POOL],
        }
    }

    fn expected(&mut self, i: usize, ring: flash_2pc::ShareRing) -> &[i64] {
        let x = &self.xs[i];
        self.expected[i].get_or_insert_with(|| {
            expected_conv_mod(x, &serving::weights(), &serving::shape(), ring)
        })
    }
}

/// A started server with its connected sessions.
struct Fleet {
    server: InferenceServer,
    clients: Vec<Client>,
    next_req: Vec<u64>,
    live: Vec<bool>,
    /// Dispatches the server accepted; each owes one terminal outcome.
    promised: u64,
    /// Terminal outcomes the generator has accounted for: results taken
    /// plus refusals.
    terminal: u64,
    refused_seen: u64,
}

impl Fleet {
    /// Whether every accepted dispatch has reached its terminal outcome.
    fn settled(&self) -> bool {
        self.terminal >= self.promised
    }
}

/// Answered requests awaiting their check: `(session, req_id)` →
/// `(input, server share)`.
type Done = HashMap<(usize, u64), (usize, Vec<u64>)>;

/// One in-flight request.
struct Pending {
    client: usize,
    req_id: u64,
    input: usize,
    due: Instant,
    /// Index of the request's span when traced.
    span: Option<usize>,
}

/// Everything one phase measured.
#[derive(Default)]
struct Phase {
    attempted: u64,
    answered: u64,
    failed: u64,
    refused: u64,
    wrong: u64,
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ingest_us: Vec<f64>,
    prepare_ms: Vec<f64>,
    collect_ms: Vec<f64>,
    /// Completions observed before the timed part of their segment ended.
    completed_in_window: u64,
    window_s: f64,
    server_us: Vec<f64>,
    /// Worker queue visits and the tickets they drained.
    batches: u64,
    batched_requests: u64,
}

impl Phase {
    fn mean_batch(&self) -> f64 {
        self.batched_requests as f64 / self.batches.max(1) as f64
    }

    fn add_batches(&mut self, before: &ServerStats, after: &ServerStats) {
        self.batches += after.batches - before.batches;
        self.batched_requests += after.batched_requests - before.batched_requests;
    }
}

/// One session's prepared request, replayed under fresh request ids
/// until the pool is refreshed.
struct Slot {
    blobs: Vec<Vec<u8>>,
    req: PreparedRequest,
    input: usize,
}

/// The load generator: one thread, one seeded stream.
///
/// Client-side preparation (share split, encode, encrypt, serialize) is
/// load generation, not the server's work: it runs untimed, once per
/// session per segment, into a pool of one request per session. Timed
/// dispatches replay the session's pooled ciphertexts re-framed under a
/// fresh request id, so the generator keeps pace with the server while
/// its memory stays one request per session.
struct Gen<'a> {
    fleet: &'a mut Fleet,
    inputs: &'a mut Inputs,
    rng: StdRng,
    tr: Tracer,
    pool: Vec<Option<Slot>>,
}

impl Gen<'_> {
    fn new<'a>(fleet: &'a mut Fleet, inputs: &'a mut Inputs, rng: StdRng) -> Gen<'a> {
        let n = fleet.clients.len();
        Gen {
            fleet,
            inputs,
            rng,
            tr: Tracer::new(false),
            pool: (0..n).map(|_| None).collect(),
        }
    }

    /// Untimed: prepares a fresh request (new activation, new shares,
    /// new encryption randomness) for every live session.
    fn refresh_pool(&mut self, ph: &mut Phase) {
        for c in 0..self.pool.len() {
            if !self.fleet.live[c] {
                continue;
            }
            let input = self.rng.gen_range(0..INPUT_POOL);
            let t0 = Instant::now();
            let mut req = self.fleet.clients[c].prepare(0, &self.inputs.xs[input], &mut self.rng);
            self.tr
                .record("serve.prepare", c as u64, t0, Instant::now(), None);
            ph.prepare_ms.push(ms(t0));
            let (_, blobs) = wire::decode_request(&req.upload).expect("a prepared request decodes");
            // Only a retry would re-prepare from the activation.
            req.activation = Vec::new();
            self.pool[c] = Some(Slot { blobs, req, input });
        }
    }

    /// Dispatches the session's pooled request, due at `due`, under the
    /// session's next request id.
    fn dispatch(
        &mut self,
        client: usize,
        due: Instant,
        pending: &mut Vec<Pending>,
        ph: &mut Phase,
    ) {
        let req_id = self.fleet.next_req[client];
        self.fleet.next_req[client] += 1;
        let slot = self.pool[client]
            .as_mut()
            .expect("pool refreshed before dispatch");
        slot.req.req_id = req_id;
        slot.req.upload = wire::encode_request(req_id, &slot.blobs);
        ph.attempted += 1;
        let t0 = Instant::now();
        ph.late_ms.push(t0.duration_since(due).as_secs_f64() * 1e3);
        let res = self.fleet.clients[client].dispatch(&self.fleet.server, &slot.req);
        let t1 = Instant::now();
        ph.ingest_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        let tag = ((client as u64) << 32) | req_id;
        let span = self.tr.record("serve.request", tag, due, due, None);
        self.tr.record("serve.dispatch", tag, t0, t1, span);
        match res {
            Ok(()) => {
                self.fleet.promised += 1;
                pending.push(Pending {
                    client,
                    req_id,
                    input: slot.input,
                    due,
                    span,
                });
            }
            Err(e) => {
                eprintln!("dispatch on session {client} failed: {e}");
                ph.failed += 1;
                self.fleet.live[client] = false;
            }
        }
    }

    /// Waits until a terminal outcome the generator has not yet seen, or
    /// until `until`. The open loop spins, so a result is observed when
    /// it lands rather than when the generator's idle CPU wakes up (about
    /// 0.8 ms of the light phase's median on a 2-vCPU VM); the closed loop,
    /// whose queue stays full, sleeps.
    fn wait(&mut self, until: Instant, spin: bool) {
        let server = &self.fleet.server;
        let seen = self.fleet.terminal + 1;
        let landed = if spin {
            loop {
                if server.wait_for_timeout(seen, Duration::ZERO) {
                    break true;
                }
                if Instant::now() >= until {
                    break false;
                }
                std::hint::spin_loop();
            }
        } else {
            let now = Instant::now();
            until > now && server.wait_for_timeout(seen, until - now)
        };
        if landed {
            // Refusals complete requests without leaving a result.
            let refused = server.stats().requests_refused;
            self.fleet.terminal += refused - self.fleet.refused_seen;
            self.fleet.refused_seen = refused;
        }
    }

    /// Takes every finished result among `pending`; returns the sessions
    /// whose request finished and when each was observed.
    fn poll(
        &mut self,
        pending: &mut Vec<Pending>,
        done: &mut Done,
        ph: &mut Phase,
    ) -> Vec<(usize, Instant)> {
        let mut freed = Vec::new();
        let mut i = 0;
        while i < pending.len() {
            let p = &pending[i];
            let session = self.fleet.clients[p.client].session_id();
            let Some(y_server) = self.fleet.server.take_result(session, p.req_id) else {
                i += 1;
                continue;
            };
            let now = Instant::now();
            let p = pending.swap_remove(i);
            self.fleet.terminal += 1;
            ph.lat_ms
                .push(now.duration_since(p.due).as_secs_f64() * 1e3);
            if let Some(s) = p.span {
                self.tr.close(s, now);
            }
            done.insert((p.client, p.req_id), (p.input, y_server));
            freed.push((p.client, now));
        }
        freed
    }

    /// Waits for and takes results until every pending request has
    /// finished or been refused. Returns `false` on a stall.
    fn drain(
        &mut self,
        pending: &mut Vec<Pending>,
        done: &mut Done,
        ph: &mut Phase,
        spin: bool,
    ) -> bool {
        let limit = Instant::now() + DRAIN_LIMIT;
        while !pending.is_empty() && !self.fleet.settled() {
            if Instant::now() > limit {
                eprintln!("{} requests never finished", pending.len());
                return false;
            }
            self.wait(Instant::now() + Duration::from_millis(50), spin);
            self.poll(pending, done, ph);
        }
        true
    }

    /// Open-loop segment: Poisson arrivals at `rps` for `dur`, round
    /// robin over the sessions, then drain and check.
    fn open_segment(&mut self, rps: f64, dur: Duration, ph: &mut Phase) -> bool {
        self.refresh_pool(ph);
        let (mut pending, mut done) = (Vec::new(), Done::new());
        let t0 = Instant::now();
        let end = t0 + dur;
        let n = self.pool.len();
        let mut rr = 0usize;
        let mut due = t0 + self.gap(rps);
        while due < end {
            if Instant::now() >= due {
                if let Some(c) = (0..n).map(|k| (rr + k) % n).find(|&c| self.fleet.live[c]) {
                    rr = c + 1;
                    self.dispatch(c, due, &mut pending, ph);
                }
                due += self.gap(rps);
            } else {
                self.wait(due, true);
                self.poll(&mut pending, &mut done, ph);
            }
        }
        ph.window_s += dur.as_secs_f64();
        self.drain(&mut pending, &mut done, ph, true) && self.check(done, pending, ph)
    }

    fn gap(&mut self, rps: f64) -> Duration {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        Duration::from_secs_f64(-u.ln() / rps)
    }

    /// Closed-loop segment: every live session keeps `window` requests
    /// in flight until `quota` requests have been dispatched, then drain
    /// and check. The timed window ends at the last dispatch, so the
    /// drain's shrinking batches are not counted.
    fn closed_segment(&mut self, window: usize, quota: u64, ph: &mut Phase) -> bool {
        self.refresh_pool(ph);
        let (mut pending, mut done) = (Vec::new(), Done::new());
        let t0 = Instant::now();
        let mut sent = 0u64;
        for _ in 0..window {
            for c in 0..self.pool.len() {
                if sent < quota && self.fleet.live[c] {
                    self.dispatch(c, Instant::now(), &mut pending, ph);
                    sent += 1;
                }
            }
        }
        let mut observed: Vec<Instant> = Vec::new();
        let limit = t0 + DRAIN_LIMIT;
        while sent < quota && !pending.is_empty() {
            if Instant::now() > limit {
                eprintln!("closed loop stalled");
                return false;
            }
            self.wait(Instant::now() + Duration::from_millis(50), false);
            for (c, at) in self.poll(&mut pending, &mut done, ph) {
                observed.push(at);
                if sent < quota && self.fleet.live[c] {
                    self.dispatch(c, Instant::now(), &mut pending, ph);
                    sent += 1;
                }
            }
        }
        let end = Instant::now();
        ph.completed_in_window += observed.iter().filter(|&&t| t < end).count() as u64;
        ph.window_s += end.duration_since(t0).as_secs_f64();
        self.drain(&mut pending, &mut done, ph, false) && self.check(done, pending, ph)
    }

    /// Untimed: collects every response of the segment, decrypts it and
    /// checks the reconstruction against the cleartext convolution.
    /// Requests still pending once the fleet has settled were refused:
    /// each owes one REFUSED frame.
    fn check(&mut self, mut done: Done, refused: Vec<Pending>, ph: &mut Phase) -> bool {
        let ring = self.fleet.clients.first().map(|c| c.ring());
        let mut owed: Vec<usize> = vec![0; self.fleet.clients.len()];
        for c in done
            .keys()
            .map(|k| k.0)
            .chain(refused.iter().map(|p| p.client))
        {
            owed[c] += 1;
        }
        for (c, n) in owed.iter().enumerate() {
            for _ in 0..*n {
                let t0 = Instant::now();
                let res = self.fleet.clients[c].collect();
                ph.collect_ms.push(ms(t0));
                self.tr
                    .record("serve.collect", c as u64, t0, Instant::now(), None);
                match res {
                    Ok((req_id, y_client)) => {
                        let Some((input, y_server)) = done.remove(&(c, req_id)) else {
                            eprintln!("session {c}: response to unknown request {req_id}");
                            ph.wrong += 1;
                            continue;
                        };
                        ph.answered += 1;
                        let ring = ring.expect("a session exists");
                        if ring.reconstruct_vec(&y_client, &y_server)
                            != self.inputs.expected(input, ring)
                        {
                            eprintln!("session {c} request {req_id}: output differs from the cleartext conv");
                            ph.wrong += 1;
                        }
                    }
                    Err(ServeError::Refused { .. }) => ph.refused += 1,
                    Err(e) => {
                        eprintln!("session {c}: collect failed: {e}");
                        ph.failed += 1;
                        self.fleet.live[c] = false;
                        break;
                    }
                }
            }
        }
        done.is_empty()
    }
}

fn connect(
    server: &InferenceServer,
    seed: u64,
    sessions: usize,
) -> Result<Vec<Client>, ServeError> {
    (0..sessions as u64)
        .map(|tag| {
            let mut rng = StdRng::seed_from_u64(mix(seed, CLIENT_SALT, tag));
            Client::connect(
                server,
                MODEL_ID,
                tag,
                serving::params(),
                serving::shape(),
                TransportConfig::default(),
                TransportConfig::default(),
                Duration::from_secs(10),
                &mut rng,
            )
        })
        .collect()
}

/// One set-up: server start, model registration, handshakes and a
/// warm-up request per session. Returns the fleet, the set-up seconds
/// and the registration milliseconds.
fn setup(seed: u64, sessions: usize, inputs: &mut Inputs, cpus: Cpus) -> Option<(Fleet, f64, f64)> {
    let t0 = Instant::now();
    // The server's threads inherit the CPU of the thread that starts it.
    cpus.pin_worker();
    let server = InferenceServer::start(BatchPolicy::batched(), SERVER_SEED, WORKERS);
    cpus.pin_generator();
    let t_reg = Instant::now();
    if let Err(e) = server.register_model(serving::spec()) {
        eprintln!("register_model failed: {e}");
        return None;
    }
    let register_ms = ms(t_reg);
    let clients = match connect(&server, seed, sessions) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("handshake failed: {e}");
            return None;
        }
    };
    let n = clients.len();
    let mut fleet = Fleet {
        server,
        clients,
        next_req: vec![0; n],
        live: vec![true; n],
        promised: 0,
        terminal: 0,
        refused_seen: 0,
    };
    let mut warm = Phase::default();
    let mut gen = Gen::new(
        &mut fleet,
        inputs,
        StdRng::seed_from_u64(mix(seed, GEN_SALT, u64::MAX)),
    );
    let ok = gen.closed_segment(1, n as u64, &mut warm);
    // Preparing the warm-up requests is load generation, not set-up.
    let secs = t0.elapsed().as_secs_f64() - warm.prepare_ms.iter().sum::<f64>() / 1e3;
    fleet.server.take_latencies_us();
    let clean =
        ok && warm.answered == warm.attempted && warm.wrong + warm.failed + warm.refused == 0;
    if !clean {
        eprintln!("serve warm-up failed");
    }
    clean.then_some((fleet, secs, register_ms))
}

/// Sums of the per-session byte and transport counters.
fn session_totals(server: &InferenceServer) -> [u64; 3] {
    server.session_snapshots().iter().fold([0; 3], |acc, s| {
        [
            acc[0] + s.upload_bytes + s.download_bytes,
            acc[1] + s.frames_retried,
            acc[2] + s.faults_detected,
        ]
    })
}

/// The light phase: `secs` of timed open-loop arrivals, in segments.
fn light_phase(gen: &mut Gen, secs: f64, ph: &mut Phase) -> bool {
    let before = gen.fleet.server.stats();
    let mut ok = true;
    while ok && ph.window_s < secs {
        let seg = SEGMENT.as_secs_f64().min(secs - ph.window_s).max(0.05);
        ok = gen.open_segment(LIGHT_RPS, Duration::from_secs_f64(seg), ph);
        ph.server_us.extend(
            gen.fleet
                .server
                .take_latencies_us()
                .iter()
                .map(|&u| u as f64),
        );
    }
    ph.add_batches(&before, &gen.fleet.server.stats());
    ok
}

/// The saturated phase: a fixed number of closed-loop requests,
/// [`SATURATED_PER_S`] × `secs`, in segments. The count, not the clock,
/// ends the phase, so the traffic a run pushes does not depend on how
/// fast the server is. That matters for `peak_rss_mb`: every session's
/// transport keeps each frame it ever sent.
fn saturated_phase(gen: &mut Gen, secs: f64, ph: &mut Phase) -> bool {
    let before = gen.fleet.server.stats();
    let total = (SATURATED_PER_S * secs).round().max(1.0) as u64;
    let per_segment = 840;
    let mut ok = true;
    while ok && ph.attempted < total {
        ok = gen.closed_segment(WINDOW, per_segment.min(total - ph.attempted), ph);
        gen.fleet.server.take_latencies_us();
    }
    ph.add_batches(&before, &gen.fleet.server.stats());
    ok
}

/// Runs the `serve-conv` workload.
pub fn run(run: &Run) -> Outcome {
    flash_runtime::set_threads(WORKERS);
    let cpus = Cpus::pick();
    let mut inputs = Inputs::new(run.seed);
    let mut setup_s = Vec::new();
    let mut register_ms = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for _ in 0..run.setups() {
        if let Some(f) = fleet.take() {
            f.server.shutdown();
        }
        common::clear_plan_caches();
        let sessions = if run.tiny { 4 } else { SESSIONS };
        let Some((f, s, r)) = setup(run.seed, sessions, &mut inputs, cpus) else {
            return Outcome::failed();
        };
        setup_s.push(s);
        register_ms.push(r);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    let counters0 = RuntimeCounters::now();
    let totals0 = session_totals(&fleet.server);
    let stats0 = fleet.server.stats();

    let budget = run.budget().as_secs_f64();
    let light_s = budget * LIGHT_SHARE;
    // Only the traced half of the light phase records spans; the
    // untraced half measures the same traffic without them, and the
    // difference of their medians is the tracing overhead.
    let mut gen = Gen::new(
        &mut fleet,
        &mut inputs,
        StdRng::seed_from_u64(mix(run.seed, GEN_SALT, 0)),
    );
    let (mut light, mut traced, mut sat) = (Phase::default(), Phase::default(), Phase::default());
    let mut tr = Tracer::new(false);
    let mut ok = if run.trace {
        let ok = light_phase(&mut gen, light_s / 2.0, &mut light);
        gen.tr = Tracer::new(true);
        let ok = ok && light_phase(&mut gen, light_s / 2.0, &mut traced);
        tr = std::mem::replace(&mut gen.tr, Tracer::new(false));
        ok
    } else {
        light_phase(&mut gen, light_s, &mut light)
    };
    ok = ok && saturated_phase(&mut gen, budget, &mut sat);

    let (pool_hit_rate, cache_misses) = RuntimeCounters::now().since(&counters0);
    let totals = session_totals(&fleet.server);
    let stats1 = fleet.server.stats();
    fleet.server.shutdown();

    let phases = [&light, &traced, &sat];
    let sum = |f: fn(&Phase) -> u64| phases.iter().map(|p| f(p)).sum::<u64>();
    let attempted = sum(|p| p.attempted);
    let answered = sum(|p| p.answered);
    let (failed, refused, wrong) = (sum(|p| p.failed), sum(|p| p.refused), sum(|p| p.wrong));
    let correct = ok && wrong == 0 && failed == 0 && refused == 0 && answered == attempted;
    let outcome = |metrics| Outcome {
        correct,
        attempted,
        failed: failed + refused + wrong,
        metrics,
    };
    let concat = |ps: &[&Phase], f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        sorted(
            &ps.iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<_>>(),
        )
    };

    stats::describe("light-phase latency", &light.lat_ms);
    let lat = sorted(&light.lat_ms);
    if !run.trace {
        let within = lat.iter().filter(|&&l| l <= SLO_MS).count() as f64;
        return outcome(vec![
            ("latency_ms_p50", quantile(&lat, 0.5)),
            ("within_slo_frac", within / light.attempted.max(1) as f64),
            (
                "saturated_rps",
                sat.completed_in_window as f64 / sat.window_s,
            ),
            (
                "comm_bytes_per_op",
                (totals[0] - totals0[0]) as f64 / answered.max(1) as f64,
            ),
            ("setup_s", stats::median(&setup_s)),
            ("peak_rss_mb", common::peak_rss_mb()),
        ]);
    }

    run.write_trace(&tr);
    let req = tr
        .totals()
        .get("serve.request")
        .copied()
        .unwrap_or_default();
    let both = [&light, &traced];
    let light_batch = Phase {
        batches: light.batches + traced.batches,
        batched_requests: light.batched_requests + traced.batched_requests,
        ..Phase::default()
    };
    let he = common::he_call_us(&serving::params(), mix(run.seed, HE_SALT, 0));
    let kernel_slots = stats1.kernel_slots - stats0.kernel_slots;
    let occupancy = (stats1.kernel_polys - stats0.kernel_polys) as f64 / kernel_slots.max(1) as f64;
    let self_ms = req.self_ns as f64 / 1e6 / req.count.max(1) as f64;
    let m: Metrics = vec![
        ("latency_ms_p90", quantile(&lat, 0.9)),
        ("latency_ms_p99", quantile(&lat, 0.99)),
        (
            "serve.ingest_us_p50",
            quantile(&concat(&phases, |p| &p.ingest_us), 0.5),
        ),
        (
            "serve.ingest_us_p99",
            quantile(&concat(&phases, |p| &p.ingest_us), 0.99),
        ),
        (
            "serve.server_ms_p99",
            quantile(&concat(&both, |p| &p.server_us), 0.99) / 1e3,
        ),
        ("serve.mean_batch.light", light_batch.mean_batch()),
        ("serve.mean_batch.saturated", sat.mean_batch()),
        ("serve.occupancy", occupancy),
        (
            "serve.refused",
            (stats1.requests_refused - stats0.requests_refused) as f64,
        ),
        ("serve.retries", (stats1.retries - stats0.retries) as f64),
        ("serve.register_ms", stats::median(&register_ms)),
        (
            "serve.client_prepare_ms",
            mean(&concat(&phases, |p| &p.prepare_ms)),
        ),
        (
            "serve.client_collect_ms",
            mean(&concat(&phases, |p| &p.collect_ms)),
        ),
        ("serve.unattributed_ms", self_ms),
        ("transport.frames_retried", (totals[1] - totals0[1]) as f64),
        ("transport.faults_detected", (totals[2] - totals0[2]) as f64),
        ("he.encrypt_us", he[0]),
        ("he.decrypt_us", he[1]),
        ("he.serialize_us", he[2]),
        ("he.deserialize_us", he[3]),
        ("runtime.pool_hit_rate", pool_hit_rate),
        ("runtime.cache_misses_timed", cache_misses),
        (
            "loadgen.late_ms_p99",
            quantile(&concat(&both, |p| &p.late_ms), 0.99),
        ),
        (
            "trace.overhead_ms",
            stats::median(&traced.lat_ms) - stats::median(&light.lat_ms),
        ),
        // The outside-in request span's self time against the server's
        // own submission-to-response record of the same requests.
        (
            "trace.layer_sum_ratio",
            self_ms / (mean(&traced.server_us) / 1e3).max(f64::MIN_POSITIVE),
        ),
        (
            "failed_frac",
            (failed + refused) as f64 / attempted.max(1) as f64,
        ),
    ];
    outcome(crate::with_absent_layers(m))
}
