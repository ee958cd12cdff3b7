//! `wire`: disordered arrivals over a real socket. A NAMOS trace with a
//! 200 ms bounded shuffle and a straggler every 1 000 tuples enters a
//! 200 ms event-time front end (late tuples dropped); 16 DC1
//! subscriptions, each on its own node, all live in one subscriber
//! thread of this process. Rows are pushed in 16-row chunks through
//! `pipeline_over` onto `TcpTransport` over localhost, and the
//! subscriber thread decodes every frame.

use crate::common::{
    hash_of, mean_deltas, namos_trace, spread_spec, steps, timed, Checks, Metric, Span,
    TimedTransport, Tracer,
};
use crate::oracle::{dc1_params, dc1_refs, SiOutputs};
use crate::{Pass, Scale};
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::event_time::EventTimeConfig;
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;
use gasf_net::{NodeId, Overlay, Topology, Transport};
use gasf_solar::{Middleware, MiddlewareConfig, SourceId};
use gasf_sources::{ArrivalReplay, Disorder};
use gasf_wire::layout::{HostLayout, ProcessSpec, Role, WorkloadSpec};
use gasf_wire::{Frame, TcpTransport, WireConfig, DEFAULT_MAX_FRAME};
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

const SUBS: usize = 16;
const CHUNK: usize = 16;
const BOUND_MS: u64 = 200;
const STRAGGLER_EVERY: usize = 1_000;
const STRAGGLER_DELAY_MS: u64 = 300;

pub struct Wire {
    schema: Schema,
    arrivals: Vec<Tuple>,
    /// Event timestamp → index of the chunk that carries its arrival.
    arrival_chunk: HashMap<u64, usize>,
    specs: Vec<FilterSpec>,
    /// Reference values of each subscription's DC1 scan over the tuples
    /// that survive the lateness rule, in timestamp order.
    refs: Vec<Vec<f64>>,
    late: u64,
    si_outputs: u64,
}

impl Wire {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let tuples = match scale {
            Scale::Full => 100_000,
            Scale::Tiny => 4_000,
        };
        let trace = namos_trace(seed, tuples);
        let arrivals = Disorder::bounded(Micros::from_millis(BOUND_MS))
            .seed(seed)
            .stragglers(STRAGGLER_EVERY, Micros::from_millis(STRAGGLER_DELAY_MS))
            .apply(&trace);
        let arrival_chunk = arrivals
            .iter()
            .enumerate()
            .map(|(i, t)| (t.timestamp().as_micros(), i / CHUNK))
            .collect();

        // The lateness rule on arrival: late when ts < max_seen − bound.
        let bound = Micros::from_millis(BOUND_MS).as_micros();
        let mut max_seen: Option<u64> = None;
        let mut survivors: Vec<&Tuple> = Vec::with_capacity(arrivals.len());
        for t in &arrivals {
            let ts = t.timestamp().as_micros();
            if max_seen.is_some_and(|m| ts + bound < m) {
                continue;
            }
            max_seen = Some(max_seen.map_or(ts, |m| m.max(ts)));
            survivors.push(t);
        }
        let late = (arrivals.len() - survivors.len()) as u64;
        survivors.sort_by_key(|t| t.timestamp());

        let means = mean_deltas(&trace);
        let specs: Vec<FilterSpec> = (0..SUBS).map(|i| spread_spec(i, SUBS, &means)).collect();
        let schema = trace.schema().clone();
        let mut si = SiOutputs::new(survivors.len());
        let refs = specs
            .iter()
            .map(|spec| {
                let (attr, delta, _) = dc1_params(spec);
                let id = schema.attr(attr).expect("NAMOS attribute");
                let values: Vec<f64> = survivors
                    .iter()
                    .map(|t| t.get(id).expect("full tuple"))
                    .collect();
                let refs = dc1_refs(&values, delta);
                si.mark(0, &refs);
                refs.iter().map(|&r| values[r]).collect()
            })
            .collect();
        Wire {
            schema,
            arrivals,
            arrival_chunk,
            specs,
            refs,
            late,
            si_outputs: si.count(),
        }
    }

    fn layout() -> HostLayout {
        HostLayout {
            name: "perfbench-wire".into(),
            workload: WorkloadSpec::default(),
            processes: vec![
                ProcessSpec {
                    id: 0,
                    role: Role::Source,
                    addr: "127.0.0.1:0".into(),
                    nodes: vec![NodeId(0)],
                },
                ProcessSpec {
                    id: 1,
                    role: Role::Subscriber,
                    addr: "127.0.0.1:0".into(),
                    nodes: (1..=SUBS as u32).map(NodeId).collect(),
                },
            ],
        }
    }

    pub fn pass(&self, tracer: Option<&Tracer>, origin: Instant, checks: &mut Checks) -> Pass {
        let input = self.arrivals.clone();
        let setup = Instant::now();
        let overlay = Overlay::new(Topology::grid(5, 4).build());
        let mut mw = Middleware::with_config(
            overlay,
            MiddlewareConfig {
                algorithm: Algorithm::RegionGreedy,
                strategy: OutputStrategy::Earliest,
                parallelism: 1,
                event_time: Some(EventTimeConfig::bounded(Micros::from_millis(BOUND_MS))),
                ..MiddlewareConfig::default()
            },
        );
        let src: SourceId = mw
            .register_source("namos", NodeId(0), self.schema.clone())
            .expect("fresh middleware");
        timed(tracer, "setup.subscribe", || {
            for (i, spec) in self.specs.iter().enumerate() {
                let _ = mw
                    .subscribe(format!("app{i}"), NodeId(1 + i as u32), src, spec.clone())
                    .expect("valid DC1 spec");
            }
        });
        timed(tracer, "setup.deploy", || mw.deploy()).expect("deploy");
        let traced = tracer.is_some();
        let (subscriber, tcp) = timed(tracer, "setup.connect", || {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
            let addr = listener.local_addr().expect("bound address");
            let subscriber = thread::spawn(move || serve(listener, origin, traced));
            let tcp =
                TcpTransport::connect(&Self::layout(), 0, WireConfig::default(), |_| Ok(addr))
                    .expect("connect to the subscriber thread");
            (subscriber, tcp)
        });
        let setup_s = setup.elapsed().as_secs_f64();

        let mut wire = TimedTransport::new(tcp, tracer);
        let mut replay = ArrivalReplay::new(self.schema.clone(), input);
        let mut chunk_start = Vec::new();
        let mut ingest_us = Vec::new();
        let mut buffered_max = 0usize;
        let stream = Instant::now();
        while let Some(chunk) = timed(tracer, "sources.next_chunk", || replay.next_chunk(CHUNK))
            .expect("in-memory replay")
        {
            let Chunk::Rows(rows) = chunk else {
                unreachable!("arrival replay hands over rows")
            };
            let start = Instant::now();
            timed(tracer, "ingest", || {
                mw.pipeline_over(src, &mut wire)
                    .and_then(|mut p| p.push_batch(rows))
            })
            .expect("wire ingest");
            let end = Instant::now();
            chunk_start.push((start - origin).as_secs_f64());
            ingest_us.push((end - start).as_secs_f64() * 1e6);
            checks.ops(1);
            if traced {
                let stats = mw.event_time_stats(src).expect("source");
                buffered_max = buffered_max.max(stats.buffered);
            }
        }
        timed(tracer, "ingest", || {
            mw.pipeline_over(src, &mut wire).and_then(|p| p.finish())
        })
        .expect("wire finish");
        timed(tracer, "transport.flush", || {
            wire.inner.broadcast_control(&Frame::Finish)
        })
        .expect("finish frame");
        let got = subscriber
            .join()
            .expect("subscriber thread panicked")
            .expect("subscriber stream");
        let stream_s = stream.elapsed().as_secs_f64();
        let steps_s = steps(&chunk_start, (Instant::now() - origin).as_secs_f64());

        let report = mw.report(src).expect("source report");
        let engine = &report.engine;
        let stats = mw.event_time_stats(src).expect("source");
        let counts: Vec<u64> = report.per_app.iter().map(|a| a.tuples).collect();
        checks.eq("wire subscriptions", counts.len(), SUBS);
        let mut delivered_values: Vec<Vec<(u64, f64)>> = vec![Vec::new(); SUBS];
        let mut delivery_ms = Vec::with_capacity(got.emissions.len());
        for e in &got.emissions {
            let ts = e.tuple.timestamp().as_micros();
            let chunk = self.arrival_chunk[&ts];
            delivery_ms.push((e.decoded_at - chunk_start[chunk]) * 1e3);
            for &node in &e.nodes {
                let i = node as usize - 1;
                let (attr, _, _) = dc1_params(&self.specs[i]);
                let id = self.schema.attr(attr).expect("NAMOS attribute");
                delivered_values[i].push((ts, e.tuple.get(id).expect("full tuple")));
            }
        }
        for (i, (want, got_values)) in self.refs.iter().zip(&mut delivered_values).enumerate() {
            checks.check(counts[i] == want.len() as u64, || {
                format!(
                    "wire app{i}: {} deliveries, DC1 scan has {} references",
                    counts[i],
                    want.len()
                )
            });
            // Earliest completes regions out of stream order: compare in
            // timestamp order.
            got_values.sort_by_key(|&(ts, _)| ts);
            let (_, _, slack) = dc1_params(&self.specs[i]);
            let within = got_values.len() == want.len()
                && got_values
                    .iter()
                    .zip(want)
                    .all(|(&(_, v), &r)| (v - r).abs() <= slack);
            checks.check(within, || {
                format!("wire app{i}: a delivery is not within slack of its reference")
            });
        }
        let delivered: u64 = counts.iter().sum();
        checks.eq(
            "wire deliveries = engine.recipient_labels",
            delivered,
            engine.recipient_labels,
        );
        checks.eq(
            "wire frames decoded = TcpTransport sends",
            got.emissions.len() as u64,
            wire.messages(),
        );
        checks.eq(
            "wire bytes read = TcpTransport bytes",
            got.bytes,
            wire.total_bytes(),
        );
        checks.eq(
            "wire late drops = lateness rule",
            stats.late_dropped,
            self.late,
        );
        checks.eq(
            "wire delay samples = engine.emissions",
            engine.latencies_us.len() as u64,
            engine.emissions,
        );

        let mut pass = Pass {
            setup_s,
            stream_s,
            steps_s,
            tuples: self.arrivals.len() as u64,
            ingest_us,
            delivery_ms,
            delays_us: engine.latencies_us.clone(),
            bytes: got.bytes,
            fingerprint: hash_of(&(
                &counts,
                (
                    engine.output_tuples,
                    engine.emissions,
                    engine.recipient_labels,
                ),
                &engine.latencies_us,
                (got.bytes, got.frames, stats.late_dropped, stats.released),
            )),
            ..Pass::default()
        };
        if let Some(t) = tracer {
            let engine_ms = engine.cpu.as_secs_f64() * 1e3;
            let wire_ms = t.total_ms("transport.send") + t.total_ms("transport.flush");
            let self_ms = t.self_ms("ingest") - engine_ms;
            let sources_ms = t.total_ms("sources.next_chunk");
            let unattributed = stream_s * 1e3 - t.stream_roots_ms();
            t.absorb(got.spans);
            let subscriber_ms = t.total_ms("subscriber.decode");
            pass.layers = vec![
                Metric::new("sources.busy_ms", "ms", sources_ms),
                Metric::new(
                    "sources.chunks",
                    "count",
                    t.count("sources.next_chunk") as f64,
                ),
                Metric::new("sources.rows", "count", self.arrivals.len() as f64),
                Metric::new("reorder.released", "count", stats.released as f64),
                Metric::new("reorder.late_dropped", "count", stats.late_dropped as f64),
                Metric::new("reorder.buffered_max", "count", buffered_max as f64),
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
                Metric::new("wire.busy_ms", "ms", wire_ms),
                Metric::new(
                    "wire.us_per_send",
                    "us/send",
                    wire_ms * 1e3 / wire.messages() as f64,
                ),
                Metric::new("wire.sends", "count", wire.messages() as f64),
                Metric::new("wire.bytes", "B", wire.total_bytes() as f64),
                Metric::new("subscriber.busy_ms", "ms", subscriber_ms),
                Metric::new("subscriber.frames", "count", got.frames as f64),
                Metric::new("setup.subscribe_ms", "ms", t.total_ms("setup.subscribe")),
                Metric::new("setup.deploy_ms", "ms", t.total_ms("setup.deploy")),
                Metric::new("setup.connect_ms", "ms", t.total_ms("setup.connect")),
            ];
            pass.breakdown = vec![
                ("sources", sources_ms),
                ("engine", engine_ms),
                ("wire (send+flush)", wire_ms),
                ("middleware", self_ms),
                ("unattributed", unattributed),
                ("subscriber (other thread)", subscriber_ms),
            ];
        }
        pass
    }
}

/// One emission frame as the subscriber decoded it.
struct Received {
    tuple: Arc<Tuple>,
    nodes: Vec<u32>,
    /// Seconds since the run's origin when its decode finished.
    decoded_at: f64,
}

struct Served {
    frames: u64,
    bytes: u64,
    emissions: Vec<Received>,
    spans: Vec<Span>,
}

/// The subscriber thread: accepts the one connection and decodes every
/// frame until `Finish`, counting frames and bytes read.
fn serve(listener: TcpListener, origin: Instant, traced: bool) -> Result<Served, String> {
    let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let mut r = BufReader::new(stream);
    let tracer = traced.then(|| Tracer::new(origin, 1));
    let mut served = Served {
        frames: 0,
        bytes: 0,
        emissions: Vec::new(),
        spans: Vec::new(),
    };
    let mut body = Vec::new();
    loop {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)
            .map_err(|e| format!("frame length: {e}"))?;
        let len = u32::from_le_bytes(len) as usize;
        if len > DEFAULT_MAX_FRAME {
            return Err(format!("oversize frame of {len} bytes"));
        }
        body.resize(len, 0);
        r.read_exact(&mut body)
            .map_err(|e| format!("frame body: {e}"))?;
        served.frames += 1;
        served.bytes += 4 + len as u64;
        let frame = timed(tracer.as_ref(), "subscriber.decode", || {
            Frame::decode(&body)
        })
        .map_err(|e| format!("decode: {e}"))?;
        match frame {
            Frame::Emission {
                nodes, emission, ..
            } => served.emissions.push(Received {
                tuple: emission.tuple,
                nodes: nodes.iter().map(|n| n.index() as u32).collect(),
                decoded_at: origin.elapsed().as_secs_f64(),
            }),
            Frame::Hello { .. } => {}
            Frame::Finish => break,
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    served.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    Ok(served)
}
