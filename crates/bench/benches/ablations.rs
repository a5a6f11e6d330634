//! Ablation benches for the design choices the README's "Benchmarks"
//! section lists.
//!
//! Each ablation runs the tiny deployment with one knob moved off its
//! default and reports the run as a Criterion benchmark; the *quality*
//! impact of each knob is printed once per process so the numbers land in
//! the bench log.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gossip_core::GossipConfig;
use gossip_experiments::Scenario;
use gossip_types::Duration;

const SEED: u64 = 1;

fn report(label: &str, scenario: &Scenario) {
    let result = scenario.run();
    println!(
        "ablation {label}: avg quality (20 s) = {:.1}%, viewers = {:.1}%, events = {}",
        result.quality.average_quality_percent(Duration::from_secs(20)),
        result.quality.percent_viewing(0.01, Duration::from_secs(20)),
        result.events_processed
    );
}

/// Infect-and-die (propose once) vs re-proposing for several rounds.
fn ablation_infect(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_infect");
    g.sample_size(10);
    for lifetime in [1u32, 2, 4] {
        let scenario = Scenario::tiny(6)
            .with_seed(SEED)
            .with_gossip(GossipConfig::new(6).with_propose_lifetime(lifetime));
        report(&format!("propose_lifetime={lifetime}"), &scenario);
        g.bench_function(format!("lifetime_{lifetime}"), |b| {
            b.iter(|| black_box(scenario.run().events_processed));
        });
    }
    g.finish();
}

/// Retransmission budget K (1 disables retransmission entirely).
fn ablation_retransmit(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_retransmit");
    g.sample_size(10);
    for k in [1u32, 2, 3] {
        let scenario = Scenario::tiny(6)
            .with_seed(SEED)
            .with_gossip(GossipConfig::new(6).with_max_requests(k));
        report(&format!("K={k}"), &scenario);
        g.bench_function(format!("k_{k}"), |b| {
            b.iter(|| black_box(scenario.run().events_processed));
        });
    }
    g.finish();
}

/// FEC parity count r at fixed window data size.
fn ablation_fec(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fec");
    g.sample_size(10);
    for r in [0usize, 2, 4, 8] {
        let mut scenario = Scenario::tiny(6).with_seed(SEED);
        scenario.stream.window = gossip_fec::WindowParams::new(30, r);
        report(&format!("parity={r}"), &scenario);
        g.bench_function(format!("parity_{r}"), |b| {
            b.iter(|| black_box(scenario.run().events_processed));
        });
    }
    g.finish();
}

/// Throttling-queue depth: shallow queues drop bursts, deep queues delay
/// them.
fn ablation_throttle(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_throttle");
    g.sample_size(10);
    for secs in [1u64, 5, 25] {
        let scenario =
            Scenario::tiny(6).with_seed(SEED).with_max_queue_delay(Duration::from_secs(secs));
        report(&format!("queue={secs}s"), &scenario);
        g.bench_function(format!("queue_{secs}s"), |b| {
            b.iter(|| black_box(scenario.run().events_processed));
        });
    }
    g.finish();
}

/// Serve batching: MTU-realistic single-event serves vs large batches (the
/// batch-loss correlation pathology: one lost datagram costs a whole batch).
fn ablation_serve_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_serve_batch");
    g.sample_size(10);
    for batch in [1usize, 4, 16] {
        let scenario = Scenario::tiny(6)
            .with_seed(SEED)
            .with_gossip(GossipConfig::new(6).with_serve_batch(batch));
        report(&format!("serve_batch={batch}"), &scenario);
        g.bench_function(format!("batch_{batch}"), |b| {
            b.iter(|| black_box(scenario.run().events_processed));
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablation_infect,
    ablation_retransmit,
    ablation_fec,
    ablation_throttle,
    ablation_serve_batch
);
criterion_main!(ablations);
