//! `paper`: the paper's own setting. One NAMOS source, one group of 256
//! stateless DC1 subscriptions over `tmpr1`–`tmpr4` placed round-robin
//! on the 63 non-source nodes of an 8×8 grid overlay; RegionGreedy +
//! Earliest inline; ordered 1 024-row batches handed to
//! `Middleware::ingest` one chunk per call.

use crate::common::{
    hash_of, mean_deltas, memory_delivery_ms, namos_trace, spread_spec, steps, timed, Checks,
    ChunkRec, Metric, OneChunk, TimedTransport, Tracer,
};
use crate::oracle::{dc1_params, dc1_refs, SiOutputs};
use crate::{Pass, Scale};
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::quality::FilterSpec;
use gasf_net::{NodeId, NullTransport, Overlay, Topology};
use gasf_solar::{GrantPolicy, IngestOptions, Middleware, MiddlewareConfig, SourceId};
use gasf_sources::{Trace, TraceReplay};
use std::sync::Arc;
use std::time::Instant;

const GRID: usize = 8;
const CHUNK: usize = 1024;

pub struct Paper {
    trace: Trace,
    specs: Vec<FilterSpec>,
    /// Reference count of each subscription's DC1 scan.
    expected: Vec<u64>,
    si_outputs: u64,
}

impl Paper {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let (tuples, subs) = match scale {
            Scale::Full => (40 * CHUNK, 256),
            Scale::Tiny => (2 * CHUNK, 32),
        };
        let trace = namos_trace(seed, tuples);
        let means = mean_deltas(&trace);
        let specs: Vec<FilterSpec> = (0..subs).map(|i| spread_spec(i, subs, &means)).collect();
        let mut si = SiOutputs::new(tuples);
        let expected = specs
            .iter()
            .map(|spec| {
                let (attr, delta, _) = dc1_params(spec);
                let values: Vec<f64> = trace
                    .series_of(attr)
                    .expect("NAMOS attribute")
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect();
                let refs = dc1_refs(&values, delta);
                si.mark(0, &refs);
                refs.len() as u64
            })
            .collect();
        Paper {
            trace,
            specs,
            expected,
            si_outputs: si.count(),
        }
    }

    fn deploy(&self, tracer: Option<&Tracer>) -> (Middleware, SourceId) {
        let overlay = Overlay::new(Topology::grid(GRID, GRID).build());
        let mut mw = Middleware::with_config(
            overlay,
            MiddlewareConfig {
                algorithm: Algorithm::RegionGreedy,
                strategy: OutputStrategy::Earliest,
                parallelism: 1,
                ..MiddlewareConfig::default()
            },
        );
        let src = mw
            .register_source("namos", NodeId(0), self.trace.schema().clone())
            .expect("fresh middleware");
        timed(tracer, "setup.subscribe", || {
            for (i, spec) in self.specs.iter().enumerate() {
                let node = NodeId(1 + (i % (GRID * GRID - 1)) as u32);
                let _ = mw
                    .subscribe(format!("app{i}"), node, src, spec.clone())
                    .expect("valid DC1 spec");
            }
        });
        timed(tracer, "setup.deploy", || mw.deploy()).expect("deploy");
        (mw, src)
    }

    pub fn pass(&self, tracer: Option<&Tracer>, origin: Instant, checks: &mut Checks) -> Pass {
        let input = self.trace.clone();
        let schema = self.trace.schema().clone();
        let setup = Instant::now();
        let (mut mw, src) = self.deploy(tracer);
        let setup_s = setup.elapsed().as_secs_f64();

        let mut replay = TraceReplay::new(input);
        let mut chunks = Vec::new();
        let mut ingest_us = Vec::new();
        let stream = Instant::now();
        while let Some(chunk) = timed(tracer, "sources.next_chunk", || replay.next_chunk(CHUNK))
            .expect("in-memory replay")
        {
            let Chunk::Batch(batch) = &chunk else {
                unreachable!("an ordered trace replays as batches")
            };
            let newest = batch.timestamp(batch.rows() - 1).as_micros();
            let options = IngestOptions {
                max_rows: CHUNK,
                grant: GrantPolicy::Refill,
                finish: replay.remaining() == 0,
            };
            let start = Instant::now();
            let report = timed(tracer, "ingest", || {
                mw.ingest(src, &mut OneChunk::new(&schema, Some(chunk)), options)
            })
            .expect("paper ingest");
            let end = Instant::now();
            ingest_us.push((end - start).as_secs_f64() * 1e6);
            chunks.push(ChunkRec {
                start: (start - origin).as_secs_f64(),
                end: (end - origin).as_secs_f64(),
                newest_ts: newest,
                emitted: mw.flow_monitor(src).expect("source").emitted(),
            });
            checks.eq("paper chunk admitted whole", report.accepted, report.rows);
        }
        let stream_s = stream.elapsed().as_secs_f64();
        let starts: Vec<f64> = chunks.iter().map(|c| c.start).collect();
        let steps_s = steps(&starts, (Instant::now() - origin).as_secs_f64());

        let report = mw.report(src).expect("source report");
        let engine = &report.engine;
        let emitted = mw.flow_monitor(src).expect("source").emitted();
        let counts: Vec<u64> = report.per_app.iter().map(|a| a.tuples).collect();
        checks.eq("paper subscriptions", counts.len(), self.expected.len());
        for (i, (&got, &want)) in counts.iter().zip(&self.expected).enumerate() {
            checks.check(got == want, || {
                format!("paper app{i}: {got} deliveries, DC1 scan has {want} references")
            });
        }
        let delivered: u64 = counts.iter().sum();
        checks.eq(
            "paper deliveries = engine.recipient_labels",
            delivered,
            engine.recipient_labels,
        );
        checks.eq(
            "paper disseminated = engine.emissions",
            emitted,
            engine.emissions,
        );
        checks.eq(
            "paper delay samples = engine.emissions",
            engine.latencies_us.len() as u64,
            engine.emissions,
        );

        let mut pass = Pass {
            setup_s,
            stream_s,
            steps_s,
            tuples: self.trace.len() as u64,
            delivery_ms: memory_delivery_ms(&chunks, &engine.latencies_us),
            ingest_us,
            delays_us: engine.latencies_us.clone(),
            bytes: report.network_bytes,
            fingerprint: hash_of(&(
                &counts,
                engine.output_tuples,
                engine.emissions,
                engine.recipient_labels,
                &engine.latencies_us,
                report.network_bytes,
                report.messages,
            )),
            ..Pass::default()
        };
        if let Some(t) = tracer {
            let unattributed = stream_s * 1e3 - t.stream_roots_ms();
            let null = self.null_pass(t, checks, engine.emissions, engine.recipient_labels);
            let ingest_ms = t.total_ms("ingest");
            let engine_ms = engine.cpu.as_secs_f64() * 1e3;
            // The overlay's price: this pass's ingest minus the null pass's
            // ingest without its (timed) transport calls.
            let overlay_ms = ingest_ms - null;
            let self_ms = ingest_ms - engine_ms - overlay_ms;
            let sources_ms = t.total_ms("sources.next_chunk");
            pass.layers = vec![
                Metric::new("sources.busy_ms", "ms", sources_ms),
                Metric::new(
                    "sources.chunks",
                    "count",
                    t.count("sources.next_chunk") as f64,
                ),
                Metric::new("sources.rows", "count", self.trace.len() as f64),
                Metric::new("engine.busy_ms", "ms", engine_ms),
                Metric::new(
                    "engine.ns_per_tuple",
                    "ns/tuple",
                    engine_ms * 1e6 / engine.input_tuples as f64,
                ),
                Metric::new(
                    "engine.solve_ms",
                    "ms",
                    engine.greedy_cpu.as_secs_f64() * 1e3,
                ),
                Metric::new("engine.regions", "count", engine.regions as f64),
                Metric::new(
                    "engine.region_size_mean",
                    "tuples",
                    engine.mean_region_size(),
                ),
                Metric::new("engine.output_tuples", "count", engine.output_tuples as f64),
                Metric::new("engine.si_output_tuples", "count", self.si_outputs as f64),
                Metric::new("engine.emissions", "count", engine.emissions as f64),
                Metric::new(
                    "engine.recipient_labels",
                    "count",
                    engine.recipient_labels as f64,
                ),
                Metric::new("middleware.self_ms", "ms", self_ms),
                Metric::new("middleware.deliveries", "count", delivered as f64),
                Metric::new(
                    "middleware.ns_per_delivery",
                    "ns/delivery",
                    self_ms * 1e6 / delivered as f64,
                ),
                Metric::new("overlay.repairs", "count", mw.overlay().repairs() as f64),
                Metric::new("overlay.busy_ms", "ms", overlay_ms),
                Metric::new(
                    "overlay.us_per_send",
                    "us/send",
                    overlay_ms * 1e3 / report.messages as f64,
                ),
                Metric::new("overlay.messages", "count", report.messages as f64),
                Metric::new("overlay.bytes", "B", report.network_bytes as f64),
                Metric::new("setup.subscribe_ms", "ms", t.total_ms("setup.subscribe")),
                Metric::new("setup.deploy_ms", "ms", t.total_ms("setup.deploy")),
            ];
            pass.breakdown = vec![
                ("sources", sources_ms),
                ("engine", engine_ms),
                ("overlay", overlay_ms),
                ("middleware", self_ms),
                ("unattributed", unattributed),
            ];
        }
        pass
    }

    /// The same stream sent to a timed `NullTransport` through
    /// `pipeline_over`: emissions are identical across transports, so
    /// the difference to the overlay pass prices the overlay. Returns
    /// this pass's ingest time without its transport calls, in ms.
    fn null_pass(&self, t: &Tracer, checks: &mut Checks, emissions: u64, labels: u64) -> f64 {
        let (mut mw, src) = self.deploy(None);
        let mut null = TimedTransport::new(NullTransport::new(), Some(t));
        let before = t.total_ms("transport.send") + t.total_ms("transport.flush");
        for batch in self.trace.batches(CHUNK) {
            let batch = Arc::new(batch);
            t.span("ingest.null", || {
                mw.pipeline_over(src, &mut null)
                    .and_then(|mut p| p.push_columnar(&batch))
            })
            .expect("null-transport ingest");
        }
        t.span("ingest.null", || {
            mw.pipeline_over(src, &mut null).and_then(|p| p.finish())
        })
        .expect("null-transport finish");
        let engine = mw.report(src).expect("source report").engine;
        checks.eq("null pass emissions", engine.emissions, emissions);
        checks.eq(
            "null pass recipient labels",
            engine.recipient_labels,
            labels,
        );
        let transport = t.total_ms("transport.send") + t.total_ms("transport.flush") - before;
        t.total_ms("ingest.null") - transport
    }
}
