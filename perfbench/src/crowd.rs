//! `crowd`: the soak's shape at 2 500 subscriptions. The soak's 64 DC1
//! spec combos, on each of `tmpr1`–`tmpr4`, cycled over the 16×16
//! grid's non-source nodes (two forwarders next to the source stay free
//! for the fault), half of them declaring `ShedHeadroom`; parallelism 1;
//! a credit gate of 16 with a shedding ladder. 8-row batches go through `try_push_columnar` in
//! three phases — calm, credit-starved, calm — with churn ticks and one
//! forwarder fault and recovery.
//!
//! At the soak's 10⁴ subscriptions, or at parallelism 2 (one route, one
//! busy shard worker beside the caller), whole passes drifted with the
//! host by ±20 % over minutes and runs did not repeat within their
//! bounds (see README). A quarter of the roster on one thread keeps
//! epoch rebuilds the dominant cost; a traced run prices the shard layer
//! with a second pass at parallelism 2.
//!
//! Credits follow a schedule the benchmark fixes: the gate is refilled
//! before every calm batch and granted one credit per throttle under
//! pressure. Nothing reads measured CPU time, so every pass sheds the
//! same rows and delivers the same outputs.

use crate::common::{
    hash_of, mean_deltas, memory_delivery_ms, namos_trace, steps, timed, Checks, ChunkRec, Metric,
    OneChunk, Tracer, ATTRS,
};
use crate::oracle::{dc1_params, dc1_refs, SiOutputs};
use crate::{Pass, Scale};
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::quality::FilterSpec;
use gasf_core::shed::ShedHeadroom;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{
    GrantPolicy, IngestOptions, Middleware, MiddlewareConfig, ShedConfig, SourceId,
    SubscriptionHandle,
};
use gasf_sources::{Trace, TraceReplay};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const COMBOS: usize = 64;
const CAPACITY: u64 = 16;
const BATCH: usize = 8;
const CHURN_EVERY: usize = 6;
const SHED: ShedConfig = ShedConfig {
    trigger: 4,
    recover: 4,
    max_rung: 2,
};

pub struct Crowd {
    trace: Trace,
    /// The `ATTRS` columns the crowd's filters watch.
    columns: [Vec<f64>; 4],
    /// Mean |Δ| of each column: the unit of its filters' deltas.
    means: [f64; 4],
    subscriptions: usize,
    grid: usize,
    parallelism: usize,
}

/// A control-plane change the oracle must replay, stamped with the
/// number of rows admitted when it happened.
#[derive(Debug, Clone)]
enum Event {
    Subscribe(usize, FilterSpec),
    Unsubscribe(usize),
    Resubscribe(usize, FilterSpec),
    /// The ladder moved; `retuned` says whether any filter was updated
    /// (and so whether the engines cross an epoch boundary).
    Rung {
        rung: u8,
        retuned: bool,
    },
}

impl Event {
    fn is_boundary(&self) -> bool {
        !matches!(self, Event::Rung { retuned: false, .. })
    }
}

impl Crowd {
    pub fn generate(seed: u64, scale: Scale, parallelism: Option<usize>) -> Self {
        let (tuples, subscriptions, grid) = match scale {
            Scale::Full => (1152, 2_500, 16),
            Scale::Tiny => (192, 400, 8),
        };
        let trace = namos_trace(seed, tuples);
        let columns = ATTRS.map(|a| {
            trace
                .series_of(a)
                .expect("NAMOS has thermistors")
                .into_iter()
                .map(|(_, v)| v)
                .collect()
        });
        let means = mean_deltas(&trace);
        Crowd {
            trace,
            columns,
            means,
            subscriptions,
            grid,
            parallelism: parallelism.unwrap_or(1),
        }
    }

    /// Spec `k`: combo `k mod 64` on channel `ATTRS[(k / 64) mod 4]`,
    /// so every channel carries all 64 combos. A combo's delta is
    /// 1.5–3.25 × the channel's mean |Δ| and its slack 15–39 % of the
    /// delta; even combos declare 3–5 rungs of shedding headroom.
    ///
    /// Every ladder is taller than the shedder's top rung (2): at a
    /// ladder's own top rung `FilterSpec::degraded` can land one ulp
    /// above the delta/2 slack cap, and the ladder move then fails
    /// validation inside `try_push_columnar` on some seeds.
    fn spec(&self, k: usize) -> FilterSpec {
        let combo = k % COMBOS;
        let attr = (k / COMBOS) % ATTRS.len();
        let delta = self.means[attr] * (1.5 + 0.25 * (combo % 8) as f64);
        let slack = delta * (0.15 + 0.08 * ((combo / 8) % 4) as f64);
        let spec = FilterSpec::delta(ATTRS[attr], delta, slack);
        if combo.is_multiple_of(2) {
            spec.with_shed_headroom(ShedHeadroom::rungs(3 + (combo % 3) as u8))
        } else {
            spec
        }
    }

    /// Forwarders kept free of subscribers: the source corner's two
    /// underlay neighbours. The first is the fault victim.
    fn reserved(&self) -> [u32; 2] {
        [1, self.grid as u32]
    }

    fn node_for(&self, i: usize) -> NodeId {
        let reserved = self.reserved();
        let usable = (self.grid * self.grid) as u32 - 1 - reserved.len() as u32;
        let mut n = 1 + (i as u32 % usable);
        for r in reserved {
            if n >= r {
                n += 1;
            }
        }
        NodeId(n)
    }

    fn deploy(
        &self,
        parallelism: usize,
        tracer: Option<&Tracer>,
    ) -> (Middleware, SourceId, Vec<SubscriptionHandle>) {
        let overlay = Overlay::new(Topology::grid(self.grid, self.grid).build());
        let mut mw = Middleware::with_config(
            overlay,
            MiddlewareConfig {
                algorithm: Algorithm::RegionGreedy,
                strategy: OutputStrategy::Earliest,
                parallelism,
                ingress_capacity: Some(CAPACITY),
                shedding: Some(SHED),
                ..MiddlewareConfig::default()
            },
        );
        let src = mw
            .register_source("crowd", NodeId(0), self.trace.schema().clone())
            .expect("fresh middleware");
        let handles = timed(tracer, "setup.subscribe", || {
            (0..self.subscriptions)
                .map(|i| {
                    mw.subscribe(format!("app{i}"), self.node_for(i), src, self.spec(i))
                        .expect("valid DC1 spec")
                })
                .collect()
        });
        timed(tracer, "setup.deploy", || mw.deploy()).expect("deploy");
        (mw, src, handles)
    }

    pub fn pass(&self, tracer: Option<&Tracer>, origin: Instant, checks: &mut Checks) -> Pass {
        let mut pass = self.run(self.parallelism, tracer, origin, checks);
        if tracer.is_some() && self.parallelism == 1 {
            // The shard layer only runs at parallelism 2: price it with a
            // second traced pass there, which must emit exactly what this
            // pass emitted.
            let sharded = self.run(2, Some(&Tracer::new(origin, 0)), origin, checks);
            checks.eq(
                "sharded pass emits what the single-thread pass emits",
                &sharded.delays_us,
                &pass.delays_us,
            );
            for m in pass
                .layers
                .iter_mut()
                .filter(|m| m.name.starts_with("shard."))
            {
                m.value = sharded
                    .layers
                    .iter()
                    .find(|s| s.name == m.name)
                    .map_or(0.0, |s| s.value);
            }
        }
        pass
    }

    fn run(
        &self,
        parallelism: usize,
        tracer: Option<&Tracer>,
        origin: Instant,
        checks: &mut Checks,
    ) -> Pass {
        let input = self.trace.clone();
        let schema = self.trace.schema().clone();
        let setup = Instant::now();
        let (mut mw, src, handles) = self.deploy(parallelism, tracer);
        let setup_s = setup.elapsed().as_secs_f64();

        let total = self.trace.len().div_ceil(BATCH);
        let pressure_from = total / 3;
        let recover_from = 2 * total / 3;
        let fault_at = pressure_from + (recover_from - pressure_from) / 2;
        let victim = NodeId(self.reserved()[0]);

        let mut replay = TraceReplay::new(input);
        let mut chunks = Vec::new();
        let mut ingest_us = Vec::new();
        let mut events: Vec<(usize, Event)> = Vec::new();
        let mut admitted = 0usize;
        let mut gate_calls = 0u64;
        let mut credits = 0u64;
        let mut ladder_ops = 0u64;
        let mut rung = 0u8;
        let mut max_rung = 0u8;
        let mut joiner: Option<SubscriptionHandle> = None;
        let mut churn = 0usize;

        let stream = Instant::now();
        let mut b = 0usize;
        while let Some(chunk) = timed(tracer, "sources.next_chunk", || replay.next_chunk(BATCH))
            .expect("in-memory replay")
        {
            let Chunk::Batch(batch) = chunk else {
                unreachable!("an ordered trace replays as batches")
            };
            if b == recover_from {
                timed(tracer, "control", || mw.recover_node(victim)).expect("victim revives");
            }
            let batch = Arc::new(batch);
            let calm = b < pressure_from || b >= recover_from;
            let start = Instant::now();
            timed(tracer, "ingest", || {
                if calm {
                    credits += mw.grant_credits(src, CAPACITY).expect("source");
                }
                let mut row = 0;
                while row < batch.rows() {
                    let (n, outcome) = mw.try_push_columnar(src, &batch, row).expect("crowd push");
                    gate_calls += 1;
                    row += n;
                    let flow = mw.flow_monitor(src).expect("source");
                    let ops = flow.degrade_ops() + flow.restore_ops();
                    let now = mw.shed_rung(src).expect("source");
                    if now != rung {
                        let retuned = ops != ladder_ops;
                        events.push((admitted + row, Event::Rung { rung: now, retuned }));
                        rung = now;
                        max_rung = max_rung.max(now);
                    }
                    ladder_ops = ops;
                    if !outcome.is_accepted() {
                        credits += mw.grant_credits(src, 1).expect("source");
                    }
                }
            });
            let end = Instant::now();
            admitted += batch.rows();
            ingest_us.push((end - start).as_secs_f64() * 1e6);
            chunks.push(ChunkRec {
                start: (start - origin).as_secs_f64(),
                end: (end - origin).as_secs_f64(),
                newest_ts: batch.timestamp(batch.rows() - 1).as_micros(),
                emitted: mw.flow_monitor(src).expect("source").emitted(),
            });
            checks.ops(1);

            if b == fault_at {
                timed(tracer, "control", || mw.fail_node(victim))
                    .expect("victim is a free forwarder");
            }
            if b > 0 && b.is_multiple_of(CHURN_EVERY) && b + 1 < total {
                // One churn tick: the previous joiner leaves, a new app
                // joins, one standing subscription retunes.
                if let Some(h) = joiner.take() {
                    timed(tracer, "control", || mw.unsubscribe(h)).expect("joiner leaves");
                    events.push((admitted, Event::Unsubscribe(h.index())));
                }
                let spec = self.spec(churn);
                let node = self.node_for(churn * 7919);
                let h = timed(tracer, "control", || {
                    mw.subscribe(format!("churn{churn}"), node, src, spec.clone())
                })
                .expect("joiner subscribes");
                joiner = Some(h);
                events.push((admitted, Event::Subscribe(h.index(), spec)));
                let standing = handles[(churn * 104_729) % handles.len()];
                let spec = self.spec(churn + 1);
                timed(tracer, "control", || mw.resubscribe(standing, spec.clone()))
                    .expect("standing retunes");
                events.push((admitted, Event::Resubscribe(standing.index(), spec)));
                churn += 1;
            }
            b += 1;
        }
        // End of stream: an ingest that admits nothing and finishes.
        let start = Instant::now();
        timed(tracer, "ingest", || {
            mw.ingest(
                src,
                &mut OneChunk::new(&schema, None),
                IngestOptions {
                    max_rows: BATCH,
                    grant: GrantPolicy::Refill,
                    finish: true,
                },
            )
        })
        .expect("crowd finish");
        let end = Instant::now();
        chunks.push(ChunkRec {
            start: (start - origin).as_secs_f64(),
            end: (end - origin).as_secs_f64(),
            newest_ts: chunks.last().map_or(0, |c| c.newest_ts),
            emitted: mw.flow_monitor(src).expect("source").emitted(),
        });
        let stream_s = stream.elapsed().as_secs_f64();
        let starts: Vec<f64> = chunks.iter().map(|c| c.start).collect();
        let steps_s = steps(&starts, (Instant::now() - origin).as_secs_f64());

        let report = mw.report(src).expect("source report");
        let engine = &report.engine;
        let flow = mw.flow_monitor(src).expect("source");
        let (expected, si_outputs, epochs) = self.scan(&handles, &events, admitted);
        let counts: Vec<u64> = report.per_app.iter().map(|a| a.tuples).collect();
        checks.eq("crowd subscriptions", counts.len(), expected.len());
        for (i, (&got, &want)) in counts.iter().zip(&expected).enumerate() {
            checks.check(got == want, || {
                format!("crowd subscription {i}: {got} deliveries, DC1 scan has {want} references")
            });
        }
        let delivered: u64 = counts.iter().sum();
        checks.eq(
            "crowd deliveries = engine.recipient_labels",
            delivered,
            engine.recipient_labels,
        );
        checks.eq(
            "crowd disseminated = engine.emissions",
            flow.emitted(),
            engine.emissions,
        );
        checks.eq(
            "crowd delay samples = engine.emissions",
            engine.latencies_us.len() as u64,
            engine.emissions,
        );
        checks.eq("crowd final rung", mw.shed_rung(src).expect("source"), 0);
        checks.eq("crowd shed drops", flow.shed_dropped(), 0);
        checks.check(flow.degrade_ops() > 0, || {
            "crowd pressure never degraded a subscription".into()
        });

        let mut pass = Pass {
            setup_s,
            stream_s,
            steps_s,
            tuples: admitted as u64,
            delivery_ms: memory_delivery_ms(&chunks, &engine.latencies_us),
            ingest_us,
            delays_us: engine.latencies_us.clone(),
            bytes: report.network_bytes,
            fingerprint: hash_of(&(
                &counts,
                (
                    engine.output_tuples,
                    engine.emissions,
                    engine.recipient_labels,
                ),
                &engine.latencies_us,
                (report.network_bytes, report.messages),
                (flow.throttled(), flow.degrade_ops(), flow.restore_ops()),
                mw.overlay().repairs(),
            )),
            ..Pass::default()
        };
        if let Some(t) = tracer {
            let ingest_ms = t.total_ms("ingest");
            let engine_ms = engine.cpu.as_secs_f64() * 1e3;
            let self_ms = ingest_ms - engine_ms;
            let sources_ms = t.total_ms("sources.next_chunk");
            let control_ms = t.total_ms("control");
            let sharded = parallelism > 1;
            pass.layers = vec![
                Metric::new("sources.busy_ms", "ms", sources_ms),
                Metric::new(
                    "sources.chunks",
                    "count",
                    t.count("sources.next_chunk") as f64,
                ),
                Metric::new("sources.rows", "count", admitted as f64),
                Metric::new("gate.calls", "count", gate_calls as f64),
                Metric::new("gate.throttled", "count", flow.throttled() as f64),
                Metric::new("gate.credits", "count", credits as f64),
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
                Metric::new("engine.si_output_tuples", "count", si_outputs as f64),
                Metric::new("engine.emissions", "count", engine.emissions as f64),
                Metric::new(
                    "engine.recipient_labels",
                    "count",
                    engine.recipient_labels as f64,
                ),
                Metric::new(
                    "shard.worker_busy_ms",
                    "ms",
                    if sharded { engine_ms } else { 0.0 },
                ),
                Metric::new(
                    "shard.overlap",
                    "ratio",
                    if sharded { engine_ms / ingest_ms } else { 0.0 },
                ),
                Metric::new("middleware.self_ms", "ms", self_ms),
                Metric::new("middleware.deliveries", "count", delivered as f64),
                Metric::new(
                    "middleware.ns_per_delivery",
                    "ns/delivery",
                    self_ms * 1e6 / delivered as f64,
                ),
                Metric::new("control.busy_ms", "ms", control_ms),
                Metric::new("control.ops", "count", t.count("control") as f64),
                Metric::new("control.epochs", "count", epochs as f64),
                Metric::new("shed.degrade_ops", "count", flow.degrade_ops() as f64),
                Metric::new("shed.restore_ops", "count", flow.restore_ops() as f64),
                Metric::new("shed.max_rung", "rung", max_rung as f64),
                Metric::new("shed.dropped", "count", flow.shed_dropped() as f64),
                Metric::new("overlay.repairs", "count", mw.overlay().repairs() as f64),
                Metric::new("overlay.messages", "count", report.messages as f64),
                Metric::new("overlay.bytes", "B", report.network_bytes as f64),
                Metric::new("setup.subscribe_ms", "ms", t.total_ms("setup.subscribe")),
                Metric::new("setup.deploy_ms", "ms", t.total_ms("setup.deploy")),
            ];
            pass.breakdown = vec![
                ("sources", sources_ms),
                ("engine", engine_ms),
                ("middleware", self_ms),
                ("control", control_ms),
                ("unattributed", stream_s * 1e3 - t.stream_roots_ms()),
            ];
        }
        pass
    }

    /// Replays the pass's control events over the admitted rows: every
    /// event that queued a roster change starts a new epoch at the next
    /// admitted row, where every filter restarts. Returns each
    /// subscription's reference count (indexed by handle), the distinct
    /// reference rows, and the number of epoch boundaries crossed.
    fn scan(
        &self,
        handles: &[SubscriptionHandle],
        events: &[(usize, Event)],
        rows: usize,
    ) -> (Vec<u64>, u64, usize) {
        let mut declared: Vec<FilterSpec> = (0..handles.len()).map(|i| self.spec(i)).collect();
        let mut live = vec![true; handles.len()];
        let mut expected = vec![0u64; handles.len()];
        let mut rung = 0u8;
        let mut si = SiOutputs::new(rows);
        let mut bounds: Vec<usize> = events
            .iter()
            .filter(|(row, e)| e.is_boundary() && *row < rows)
            .map(|&(row, _)| row)
            .collect();
        bounds.dedup();
        let epochs = bounds.len();
        bounds.push(rows);
        let mut next_event = 0;
        let mut start = 0;
        for end in bounds {
            while next_event < events.len() && events[next_event].0 <= start {
                match &events[next_event].1 {
                    Event::Subscribe(h, spec) => {
                        if *h >= declared.len() {
                            declared.resize(h + 1, spec.clone());
                            live.resize(h + 1, false);
                            expected.resize(h + 1, 0);
                        }
                        declared[*h] = spec.clone();
                        live[*h] = true;
                    }
                    Event::Unsubscribe(h) => live[*h] = false,
                    Event::Resubscribe(h, spec) => declared[*h] = spec.clone(),
                    Event::Rung { rung: r, .. } => rung = *r,
                }
                next_event += 1;
            }
            let mut by_filter: HashMap<(&str, u64), u64> = HashMap::new();
            for (h, spec) in declared.iter().enumerate() {
                if !live[h] {
                    continue;
                }
                let engine_spec = spec.degraded(rung).unwrap_or_else(|| spec.clone());
                let (attr, delta, _) = dc1_params(&engine_spec);
                let column = ATTRS
                    .iter()
                    .position(|&a| a == attr)
                    .expect("a NAMOS thermistor");
                let refs = *by_filter
                    .entry((ATTRS[column], delta.to_bits()))
                    .or_insert_with(|| {
                        let refs = dc1_refs(&self.columns[column][start..end], delta);
                        si.mark(start, &refs);
                        refs.len() as u64
                    });
                expected[h] += refs;
            }
            start = end;
        }
        (expected, si.count(), epochs)
    }
}
