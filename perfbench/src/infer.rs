//! The private-inference workloads: back-to-back calls of
//! [`run_resnet_e2e`] on a reduced ResNet-18, one load-generator thread,
//! closed loop.
//!
//! The traced run walks the same network with the same public calls
//! `run_resnet_e2e` makes ([`FlashHconv::run_layer_shared`] and the
//! [`NonlinearSession`] ops), recording a span around each, and
//! cross-checks its per-layer rows against the untraced run's
//! [`LayerReport`] rows.

use crate::affinity;
use crate::common::{self, mix, ms, RuntimeCounters};
use crate::stats::{self, quantile, sorted};
use crate::trace::Tracer;
use crate::{Metrics, Outcome, Run};
use flash_2pc::error::FlashError;
use flash_2pc::protocol::ProtocolStats;
use flash_2pc::transport::TransportConfig;
use flash_2pc::NonlinearSession;
use flash_accel::e2e::{e2e_config, run_resnet_e2e, E2eOptions, LayerReport};
use flash_accel::hconv::FlashHconv;
use flash_accel::FlashConfig;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use flash_nn::layers::ConvLayerSpec;
use flash_nn::quant::Quantizer;
use flash_nn::resnet::QuantResnet;
use flash_nn::synthetic::SyntheticCnn;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The model is fixed; only the inputs follow the workload seed.
const NET_SEED: u64 = 0x2e18;
const OP_SALT: u64 = 0x0b5e;
const WARM_SALT: u64 = 0xa4a4;
const HE_SALT: u64 = 0x4e4e;

/// One inference workload.
pub struct Inference {
    cfg: FlashConfig,
    /// Latency limit of `within_slo_frac`, ms: about twice the median
    /// latency this workload measured on a 2-core x86-64 VM.
    slo_ms: f64,
    /// Inferences a run measures at least, whatever its length: enough
    /// that `latency_ms_p90` has ten samples beyond it where the
    /// workload is fast enough to afford it.
    min_ops: usize,
}

/// `resnet18-n4096`: the paper's ring degree.
pub fn resnet18_n4096() -> Inference {
    Inference {
        cfg: FlashConfig {
            he: HeParams::flash_pow2(),
            ..FlashConfig::paper_default()
        },
        slo_ms: 3200.0,
        min_ops: 1,
    }
}

/// `resnet18-n256`: the same network on 16× smaller ciphertexts.
pub fn resnet18_n256() -> Inference {
    Inference {
        cfg: e2e_config(),
        slo_ms: 250.0,
        min_ops: 100,
    }
}

fn build_net(tiny: bool) -> QuantResnet {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    if tiny {
        QuantResnet::reduced_resnet18(16, 16, 8, &mut rng)
    } else {
        QuantResnet::reduced_resnet18(8, 32, 10, &mut rng)
    }
}

fn opts(seed: u64) -> E2eOptions {
    E2eOptions {
        samples: 1,
        seed,
        transport: TransportConfig::default(),
    }
}

/// The untraced closed loop: per-inference latency plus the product's
/// own per-layer report, summed.
#[derive(Default)]
struct Untraced {
    lat_ms: Vec<f64>,
    /// Time from one inference's end to the next one's start, ms.
    gap_ms: Vec<f64>,
    elapsed_s: f64,
    attempted: u64,
    failed: u64,
    comm_bytes: u64,
    rows: Vec<LayerReport>,
    faults: u64,
    retries: u64,
}

fn untraced(
    w: &Inference,
    net: &QuantResnet,
    seed: u64,
    budget: Duration,
    min_ops: usize,
) -> Untraced {
    let mut u = Untraced::default();
    let t_start = Instant::now();
    let mut last_end: Option<Instant> = None;
    while t_start.elapsed() < budget || u.lat_ms.len() < min_ops {
        let op_seed = mix(seed, OP_SALT, u.attempted);
        u.attempted += 1;
        let t0 = Instant::now();
        if let Some(e) = last_end {
            u.gap_ms.push(t0.duration_since(e).as_secs_f64() * 1e3);
        }
        let res = run_resnet_e2e(net, &w.cfg, &opts(op_seed));
        let t1 = Instant::now();
        last_end = Some(t1);
        match res {
            Ok(rep) if rep.agreement == 1.0 => {
                u.lat_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
                u.comm_bytes += rep.he_bytes() + rep.nonlinear_wire_bytes();
                u.faults += rep.faults_detected();
                u.retries += rep.frames_retried();
                merge_rows(&mut u.rows, rep.layers);
            }
            Ok(_) => {
                eprintln!("inference {op_seed:#x}: private argmax differs from plaintext");
                u.failed += 1;
            }
            Err(e) => {
                eprintln!("inference {op_seed:#x} failed: {e}");
                u.failed += 1;
            }
        }
    }
    u.elapsed_s = t_start.elapsed().as_secs_f64();
    u
}

fn merge_rows(total: &mut Vec<LayerReport>, rows: Vec<LayerReport>) {
    if total.is_empty() {
        *total = rows;
        return;
    }
    for (t, r) in total.iter_mut().zip(rows) {
        t.he_ms += r.he_ms;
        t.he_bytes += r.he_bytes;
        t.nonlinear_ms += r.nonlinear_ms;
        t.nonlinear_payload_bytes += r.nonlinear_payload_bytes;
    }
}

/// One per-layer row of the traced walk, laid out as `LayerReport`.
#[derive(Debug, Clone, Default)]
struct Row {
    name: String,
    he_ms: f64,
    nl_ms: f64,
    he_bytes: u64,
    nl_payload: u64,
}

/// What one traced inference produced.
struct Walk {
    agree: bool,
    rows: Vec<Row>,
    proto: ProtocolStats,
    nl: flash_2pc::NonlinearStats,
}

type Shares = (Vec<u64>, Vec<u64>);

fn add_stats(acc: &mut ProtocolStats, s: &ProtocolStats) {
    acc.upload_bytes += s.upload_bytes;
    acc.download_bytes += s.download_bytes;
    acc.ciphertexts_up += s.ciphertexts_up;
    acc.ciphertexts_down += s.ciphertexts_down;
    acc.weight_transforms += s.weight_transforms;
    acc.sparse_weight_transforms += s.sparse_weight_transforms;
    acc.activation_transforms += s.activation_transforms;
    acc.inverse_transforms += s.inverse_transforms;
    acc.pointwise_muls += s.pointwise_muls;
    acc.upload_wire_bytes += s.upload_wire_bytes;
    acc.download_wire_bytes += s.download_wire_bytes;
    acc.faults_detected += s.faults_detected;
    acc.frames_retried += s.frames_retried;
    acc.ntt_fallbacks += s.ntt_fallbacks;
    acc.pow2_fallbacks += s.pow2_fallbacks;
}

/// The per-inference state of the walk.
struct Walker<'a> {
    tr: &'a mut Tracer,
    req: u64,
    engine: FlashHconv,
    sk: SecretKey,
    session: NonlinearSession,
    rng: StdRng,
    proto: ProtocolStats,
    rows: Vec<Row>,
}

impl Walker<'_> {
    /// `FlashHconv::run_layer_shared` under an `accel.conv` span
    /// (`accel.conv_stride2` for stride-2 layers).
    fn conv(
        &mut self,
        spec: &ConvLayerSpec,
        weights: &[i64],
        xc: &[u64],
        xs: &[u64],
    ) -> Result<(Shares, Row), FlashError> {
        let name = if spec.stride == 2 {
            "accel.conv_stride2"
        } else {
            "accel.conv"
        };
        let (engine, sk, rng) = (&self.engine, &self.sk, &mut self.rng);
        let t0 = Instant::now();
        let res = self.tr.time(name, self.req, || {
            engine.run_layer_shared(sk, spec, xc, xs, weights, rng)
        });
        let he_ms = ms(t0);
        let (shares, s) = res?;
        add_stats(&mut self.proto, &s);
        let row = Row {
            name: spec.name.clone(),
            he_ms,
            he_bytes: (s.upload_bytes + s.download_bytes) as u64,
            ..Row::default()
        };
        Ok((shares, row))
    }

    /// One `NonlinearSession` op under an `nl.<op>` span; its time and
    /// payload are added to `row`.
    fn nl<T>(
        &mut self,
        name: &'static str,
        row: &mut Row,
        op: impl FnOnce(&mut NonlinearSession, &mut StdRng) -> Result<T, FlashError>,
    ) -> Result<T, FlashError> {
        let before = self.session.stats();
        let (session, rng) = (&mut self.session, &mut self.rng);
        let t0 = Instant::now();
        let out = self.tr.time(name, self.req, || op(session, rng));
        row.nl_ms += ms(t0);
        row.nl_payload += self.session.stats().since(&before).payload_bytes;
        out
    }
}

/// One traced private inference, mirroring `run_resnet_e2e` call for
/// call.
fn walk(
    net: &QuantResnet,
    cfg: &FlashConfig,
    op_seed: u64,
    tr: &mut Tracer,
    req: u64,
) -> Result<Walk, FlashError> {
    let root = tr.enter("inference", req);
    let engine = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Pow2)
        .with_transport_config(TransportConfig::default());
    let ring = engine.ring();
    let mut rng = StdRng::seed_from_u64(op_seed);
    let sk = SecretKey::generate(&cfg.he, &mut rng);
    let session = NonlinearSession::new(ring, TransportConfig::default(), op_seed ^ 0x18e5);
    let aq = Quantizer::a4();
    let x: Vec<i64> = (0..net.input_len()).map(|_| aq.sample(&mut rng)).collect();
    let expected = SyntheticCnn::argmax(&net.logits(&x));
    let (mut xc, mut xs) = ring.share_vec(&x, &mut rng);
    let mut w = Walker {
        tr,
        req,
        engine,
        sk,
        session,
        rng,
        proto: ProtocolStats::default(),
        rows: Vec::new(),
    };

    let stem = &net.stem;
    let ((yc, ys), mut row) = w.conv(&stem.spec, &stem.weights, &xc, &xs)?;
    (xc, xs) = w.nl("nl.relu_requant", &mut row, |s, r| {
        s.relu_requant(&yc, &ys, stem.rq, r)
    })?;
    w.rows.push(row);
    let (mut c, mut h, mut wd) = (stem.spec.m, stem.spec.out_h(), stem.spec.out_w());
    let (pk, pstride, ppad) = net.pool;
    let mut row = Row {
        name: "maxpool".into(),
        ..Row::default()
    };
    (xc, xs) = w.nl("nl.maxpool", &mut row, |s, r| {
        s.maxpool(&xc, &xs, (c, h, wd), pk, pstride, ppad, r)
    })?;
    w.rows.push(row);
    h = (h + 2 * ppad - pk) / pstride + 1;
    wd = (wd + 2 * ppad - pk) / pstride + 1;

    for b in &net.blocks {
        let ((y1c, y1s), mut row1) = w.conv(&b.conv1.spec, &b.conv1.weights, &xc, &xs)?;
        let (tc, ts) = w.nl("nl.relu_requant", &mut row1, |s, r| {
            s.relu_requant(&y1c, &y1s, b.conv1.rq, r)
        })?;
        w.rows.push(row1);
        let ((y2c, y2s), mut row2) = w.conv(&b.conv2.spec, &b.conv2.weights, &tc, &ts)?;
        let (sc, ss) = match &b.down {
            Some(d) => {
                let ((ydc, yds), mut rowd) = w.conv(&d.spec, &d.weights, &xc, &xs)?;
                let out = w.nl("nl.requant", &mut rowd, |s, r| {
                    s.requant(&ydc, &yds, d.rq, r)
                })?;
                w.rows.push(rowd);
                out
            }
            None => (xc.clone(), xs.clone()),
        };
        let (zc, zs) = w.nl("nl.requant", &mut row2, |s, r| {
            s.requant(&y2c, &y2s, b.conv2.rq, r)
        })?;
        let sum_c: Vec<u64> = zc.iter().zip(&sc).map(|(&a, &b)| ring.add(a, b)).collect();
        let sum_s: Vec<u64> = zs.iter().zip(&ss).map(|(&a, &b)| ring.add(a, b)).collect();
        (xc, xs) = w.nl("nl.relu", &mut row2, |s, r| s.relu(&sum_c, &sum_s, r))?;
        w.rows.push(row2);
        (c, h, wd) = (b.conv2.spec.m, b.conv2.spec.out_h(), b.conv2.spec.out_w());
    }

    let mut row = Row {
        name: "avgpool".into(),
        ..Row::default()
    };
    let (pc, ps) = w.nl("nl.avgpool_global", &mut row, |s, r| {
        s.avgpool_global(&xc, &xs, c, h * wd, r)
    })?;
    w.rows.push(row);
    let (ni, no) = net.fc;
    let mut row = Row {
        name: "fc".into(),
        ..Row::default()
    };
    let (fc, fs) = w.nl("nl.fc", &mut row, |s, r| {
        s.fc(&pc, &ps, &net.fc_weights, ni, no, r)
    })?;
    w.rows.push(row);
    let mut row = Row {
        name: "argmax".into(),
        ..Row::default()
    };
    let idx = w.nl("nl.argmax", &mut row, |s, r| s.argmax(&fc, &fs, r))?;
    w.rows.push(row);

    let out = Walk {
        agree: idx == expected,
        rows: w.rows,
        proto: w.proto,
        nl: w.session.stats(),
    };
    tr.exit(root);
    Ok(out)
}

/// The non-linear ops the walk calls: span name and per-layer metric.
const NL_OPS: [(&str, &str); 7] = [
    ("nl.relu_requant", "nl.relu_requant_ms"),
    ("nl.maxpool", "nl.maxpool_ms"),
    ("nl.requant", "nl.requant_ms"),
    ("nl.relu", "nl.relu_ms"),
    ("nl.avgpool_global", "nl.avgpool_global_ms"),
    ("nl.fc", "nl.fc_ms"),
    ("nl.argmax", "nl.argmax_ms"),
];

/// Set-up, repeated `setups` times from cold plan caches: network build
/// plus one warm-up inference. Returns the network, each repetition's
/// seconds, and whether every warm-up revealed the plaintext argmax.
fn setup(w: &Inference, run: &Run) -> (QuantResnet, Vec<f64>, bool) {
    let mut times = Vec::new();
    let mut ok = true;
    let mut net = None;
    for k in 0..run.setups() {
        common::clear_plan_caches();
        let t0 = Instant::now();
        let n = build_net(run.tiny);
        let warm = run_resnet_e2e(&n, &w.cfg, &opts(mix(run.seed, WARM_SALT, k as u64)));
        times.push(t0.elapsed().as_secs_f64());
        ok &= warm.is_ok_and(|r| r.agreement == 1.0);
        net = Some(n);
    }
    (net.expect("at least one set-up"), times, ok)
}

/// Runs one inference workload.
pub fn run(w: &Inference, run: &Run) -> Outcome {
    // One compute thread, pinned: on a 2-vCPU VM the parallel stride-2
    // phases made run-to-run spread 3-5x wider (p50 8-12%, p99 32-45%
    // over five runs of resnet18-n256, against 2% and 6% on one thread).
    flash_runtime::set_threads(1);
    if let Some(&cpu) = affinity::allowed_cpus().last() {
        affinity::pin_current_thread(cpu);
    }
    let (net, setup_times, setup_ok) = setup(w, run);
    let min_ops = if run.tiny { 1 } else { w.min_ops };
    if !run.trace {
        let u = untraced(w, &net, run.seed, run.budget(), min_ops);
        return end_to_end(w, &u, &setup_times, setup_ok);
    }

    // Traced run: half the time untraced, half walking with spans, so
    // the difference of their medians is the tracing overhead.
    let half = run.budget() / 2;
    let before = RuntimeCounters::now();
    let u = untraced(w, &net, run.seed, half, 1);
    let (pool_hit_rate, cache_misses) = RuntimeCounters::now().since(&before);

    let mut tr = Tracer::new(true);
    let mut walks: Vec<Walk> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut failed = u.failed;
    let mut attempted = u.attempted;
    let t_start = Instant::now();
    while t_start.elapsed() < half || walks.is_empty() {
        let req = attempted;
        attempted += 1;
        let t0 = Instant::now();
        match walk(&net, &w.cfg, mix(run.seed, OP_SALT, req), &mut tr, req) {
            Ok(wk) if wk.agree => {
                traced_ms.push(ms(t0));
                walks.push(wk);
            }
            Ok(_) => {
                eprintln!("traced inference {req}: private argmax differs from plaintext");
                failed += 1;
            }
            Err(e) => {
                eprintln!("traced inference {req} failed: {e}");
                failed += 1;
            }
        }
    }
    let consistent = cross_check(&u, &walks);
    run.write_trace(&tr);

    let n = walks.len().max(1) as f64;
    let tot = tr.totals();
    let per_inf_ms = |name: &str| tot.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6 / n);
    let mut proto = ProtocolStats::default();
    let mut nl = flash_2pc::NonlinearStats::default();
    for wk in &walks {
        add_stats(&mut proto, &wk.proto);
        nl.messages += wk.nl.messages;
        nl.compare_rounds += wk.nl.compare_rounds;
        nl.wire_bytes += wk.nl.wire_bytes;
        nl.faults_detected += wk.nl.faults_detected;
        nl.frames_retried += wk.nl.frames_retried;
    }
    let frac = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let he = common::he_call_us(&w.cfg.he, mix(run.seed, HE_SALT, 0));
    let traced_rows_ms: f64 = walks
        .iter()
        .flat_map(|wk| &wk.rows)
        .map(|r| r.he_ms + r.nl_ms)
        .sum::<f64>()
        / n;
    let report_rows_ms: f64 =
        u.rows.iter().map(|r| r.he_ms + r.nonlinear_ms).sum::<f64>() / u.lat_ms.len().max(1) as f64;

    let lat = sorted(&u.lat_ms);
    stats::describe("untraced inference latency", &u.lat_ms);
    let mut m: Metrics = vec![
        ("latency_ms_p90", quantile(&lat, 0.9)),
        ("latency_ms_p99", quantile(&lat, 0.99)),
        ("accel.conv_ms", per_inf_ms("accel.conv")),
        ("accel.conv_stride2_ms", per_inf_ms("accel.conv_stride2")),
        (
            "accel.unattributed_ms",
            tot.get("inference")
                .map_or(0.0, |t| t.self_ns as f64 / 1e6 / n),
        ),
        ("hconv.ct_up", proto.ciphertexts_up as f64 / n),
        ("hconv.ct_down", proto.ciphertexts_down as f64 / n),
        (
            "hconv.weight_transforms",
            proto.weight_transforms as f64 / n,
        ),
        (
            "hconv.sparse_weight_frac",
            frac(proto.sparse_weight_transforms, proto.weight_transforms),
        ),
        (
            "hconv.guard_fallback_frac",
            frac(
                proto.ntt_fallbacks + proto.pow2_fallbacks,
                proto.ciphertexts_down,
            ),
        ),
        ("hconv.pointwise_muls", proto.pointwise_muls as f64 / n),
        (
            "hconv.wire_overhead_frac",
            frac(
                proto.upload_wire_bytes + proto.download_wire_bytes,
                proto.upload_bytes + proto.download_bytes,
            ) - 1.0,
        ),
        ("nl.messages", nl.messages as f64 / n),
        ("nl.compare_rounds", nl.compare_rounds as f64 / n),
        ("nl.wire_bytes", nl.wire_bytes as f64 / n),
        (
            "transport.frames_retried",
            (u.retries + proto.frames_retried as u64 + nl.frames_retried) as f64,
        ),
        (
            "transport.faults_detected",
            (u.faults + proto.faults_detected as u64 + nl.faults_detected) as f64,
        ),
        ("he.encrypt_us", he[0]),
        ("he.decrypt_us", he[1]),
        ("he.serialize_us", he[2]),
        ("he.deserialize_us", he[3]),
        ("runtime.pool_hit_rate", pool_hit_rate),
        ("runtime.cache_misses_timed", cache_misses),
        ("loadgen.late_ms_p99", quantile(&sorted(&u.gap_ms), 0.99)),
        (
            "trace.overhead_ms",
            stats::median(&traced_ms) - stats::median(&u.lat_ms),
        ),
        (
            "trace.layer_sum_ratio",
            traced_rows_ms / report_rows_ms.max(f64::MIN_POSITIVE),
        ),
        ("failed_frac", failed as f64 / attempted as f64),
    ];
    for (span, metric) in NL_OPS {
        m.push((metric, per_inf_ms(span)));
    }
    Outcome {
        correct: setup_ok && failed == 0 && consistent,
        attempted,
        failed,
        metrics: crate::with_absent_layers(m),
    }
}

/// The traced walk must see the same layers, in the same order, with
/// the same per-inference HE and 2PC payload bytes as the product's own
/// per-layer report.
fn cross_check(u: &Untraced, walks: &[Walk]) -> bool {
    let ops = u.lat_ms.len() as u64;
    if ops == 0 || walks.is_empty() {
        return false;
    }
    walks.iter().all(|wk| {
        let same = wk.rows.len() == u.rows.len()
            && wk.rows.iter().zip(&u.rows).all(|(r, l)| {
                r.name == l.name
                    && r.he_bytes * ops == l.he_bytes
                    && r.nl_payload * ops == l.nonlinear_payload_bytes
            });
        if !same {
            eprintln!("traced walk disagrees with the product's per-layer report");
        }
        same
    })
}

fn end_to_end(w: &Inference, u: &Untraced, setup_times: &[f64], setup_ok: bool) -> Outcome {
    let lat = sorted(&u.lat_ms);
    stats::describe("inference latency", &u.lat_ms);
    let ok = lat.len() as f64;
    let within = lat.iter().filter(|&&l| l <= w.slo_ms).count() as f64;
    let metrics: Metrics = vec![
        ("latency_ms_p50", quantile(&lat, 0.5)),
        ("within_slo_frac", within / u.attempted as f64),
        ("saturated_rps", ok / u.elapsed_s),
        ("comm_bytes_per_op", u.comm_bytes as f64 / ok.max(1.0)),
        ("setup_s", stats::median(setup_times)),
        ("peak_rss_mb", common::peak_rss_mb()),
    ];
    Outcome {
        correct: setup_ok && u.failed == 0,
        attempted: u.attempted,
        failed: u.failed,
        metrics,
    }
}
