//! Microbenchmarks of the hot substrates.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use gossip_core::wire::{decode_message, encode_message};
use gossip_core::{Event, Message, TestEvent};
use gossip_fec::{ReedSolomon, WindowParams};
use gossip_net::UploadLink;
use gossip_sim::{DetRng, EventQueue};
use gossip_stream::{PacketId, StreamPacket};
use gossip_types::{Duration, NodeId, Time};

fn bench_gf_mul_acc(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256");
    let src = vec![0xA5u8; 1000];
    let mut dst = vec![0x5Au8; 1000];
    g.throughput(Throughput::Bytes(1000));
    g.bench_function("mul_acc_slice_1000B", |b| {
        b.iter(|| gossip_fec::gf::mul_acc_slice(black_box(&mut dst), black_box(&src), 0x1D));
    });
    let short_src = vec![0xA5u8; 64];
    let mut short_dst = vec![0x5Au8; 64];
    g.throughput(Throughput::Bytes(64));
    g.bench_function("mul_acc_slice_64B", |b| {
        b.iter(|| {
            gossip_fec::gf::mul_acc_slice(black_box(&mut short_dst), black_box(&short_src), 0x1D)
        });
    });
    g.finish();
}

/// The payload-integrity kernel, as a receiver pays it: one
/// `StreamPacket::verify` per served packet, at the payload sizes the
/// benchmark's workloads stream (500 B, 1000 B) and a short one where the
/// finalisation dominates.
fn bench_stream_packet_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_packet_verify");
    for len in [64usize, 500, 1000] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let packet =
            StreamPacket::new(PacketId::new(3, 14), Time::from_millis(1592), payload.into());
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("verify_{len}B"), |b| {
            b.iter(|| black_box(black_box(&packet).verify()));
        });
    }
    g.finish();
}

fn bench_rs_paper_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("reed_solomon");
    g.sample_size(20);
    let rs = ReedSolomon::new(101, 9).expect("paper geometry");
    let data: Vec<Vec<u8>> =
        (0..101).map(|i| (0..1000).map(|j| ((i * 7 + j) % 251) as u8).collect()).collect();
    g.throughput(Throughput::Bytes(101 * 1000));
    g.bench_function("encode_101_9_1000B", |b| {
        b.iter(|| black_box(rs.encode(black_box(&data)).expect("encodes")));
    });

    let parity = rs.encode(&data).expect("encodes");
    let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
    g.bench_function("reconstruct_9_erasures", |b| {
        b.iter(|| {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for i in [3usize, 17, 33, 50, 76, 100, 101, 105, 109] {
                shards[i] = None;
            }
            rs.reconstruct(black_box(&mut shards)).expect("reconstructs");
            black_box(shards);
        });
    });
    g.finish();
}

fn bench_window_params(c: &mut Criterion) {
    c.bench_function("window_decodable_check", |b| {
        let p = WindowParams::paper_default();
        b.iter(|| black_box(p.is_decodable(black_box(101))));
    });
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        let mut rng = DetRng::seed_from(1);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(Time::from_micros(rng.next_below(1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        });
    });
    g.finish();
}

/// Steady-state queue operations at a fixed resident population, the shape
/// of the simulator's hot loop: every pop schedules a follow-up a random
/// span ahead, events cluster around a round cadence, and a fraction of
/// the scheduled work is cancelled before it fires.
///
/// Runs identically against the calendar queue (the default) and the
/// reference heap, so a queue change is measurable in isolation from the
/// full scenario.
fn bench_event_queue_resident(c: &mut Criterion) {
    use gossip_sim::EventSchedule;

    fn steady_state<Q: EventSchedule<u64> + Default>(
        g: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        resident: usize,
    ) {
        const OPS: u64 = 100_000;
        g.throughput(Throughput::Elements(OPS));
        g.bench_function(format!("{name}_{}k_resident", resident / 1000), |b| {
            // Build the resident population once per iteration batch: times
            // cluster around a 200 ms cadence with ~jittered offsets, like
            // gossip rounds.
            let mut rng = DetRng::seed_from(7);
            b.iter(|| {
                let mut q = Q::default();
                let mut cancellable = Vec::with_capacity(resident / 8);
                for i in 0..resident as u64 {
                    let at = Time::from_micros(rng.next_below(1_000_000));
                    let h = q.push(at, i);
                    if i % 8 == 0 {
                        cancellable.push(h);
                    }
                }
                // pop → push steady state with interleaved cancels and
                // horizon-bounded pops.
                let mut sum = 0u64;
                for step in 0..OPS {
                    let (at, v) = q.pop().expect("queue stays populated");
                    sum = sum.wrapping_add(v);
                    // Schedule the follow-up 200 ms ± jitter ahead.
                    let jitter = rng.next_below(40_000);
                    let h = q.push(at + Duration::from_micros(180_000 + jitter), v);
                    if step % 8 == 0 {
                        cancellable.push(h);
                    }
                    if step % 16 == 0 {
                        if let Some(h) = cancellable.pop() {
                            q.cancel(h);
                            let at2 = at + Duration::from_micros(rng.next_below(400_000));
                            q.push(at2, step);
                        }
                    }
                    if step % 64 == 0 {
                        while let Some((_, v)) = q.pop_before(at) {
                            sum = sum.wrapping_add(v);
                            let at2 = at + Duration::from_micros(200_000 + rng.next_below(1000));
                            q.push(at2, v);
                        }
                    }
                }
                black_box(sum)
            });
        });
    }

    let mut g = c.benchmark_group("event_queue_resident");
    g.sample_size(10);
    for resident in [10_000usize, 100_000] {
        steady_state::<gossip_sim::CalendarQueue<u64>>(&mut g, "calendar", resident);
        steady_state::<gossip_sim::HeapQueue<u64>>(&mut g, "heap", resident);
    }
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("det_rng");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("sample_indices_230_choose_7_x1000", |b| {
        let mut rng = DetRng::seed_from(2);
        b.iter(|| {
            for _ in 0..1000 {
                black_box(rng.sample_indices(230, 7));
            }
        });
    });
    g.finish();
}

fn bench_upload_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("upload_link");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("enqueue_complete_1k", |b| {
        b.iter(|| {
            let mut link: UploadLink<u32> = UploadLink::new(Some(700_000), Duration::from_secs(60));
            let mut now = Time::ZERO;
            let mut next = match link.enqueue(now, 1000, 0) {
                gossip_net::Enqueued::Started { completes_at } => completes_at,
                _ => unreachable!(),
            };
            for i in 1..1000u32 {
                link.enqueue(now, 1000, i);
            }
            loop {
                now = next;
                let (_, n) = link.complete_head(now);
                match n {
                    Some(at) => next = at,
                    None => break,
                }
            }
            black_box(link.stats().bytes_sent)
        });
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");
    let serve: Message<TestEvent> = Message::Serve { events: vec![TestEvent::new(42, 1000)] };
    let propose: Message<TestEvent> = Message::Propose { ids: (0..15).collect() };
    g.bench_function("encode_serve", |b| {
        b.iter(|| black_box(encode_message(NodeId::new(1), black_box(&serve))));
    });
    let bytes = encode_message(NodeId::new(1), &propose);
    g.bench_function("decode_propose_15ids", |b| {
        b.iter(|| black_box(decode_message::<TestEvent>(black_box(&bytes)).expect("decodes")));
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_gf_mul_acc,
    bench_stream_packet_verify,
    bench_rs_paper_window,
    bench_window_params,
    bench_event_queue,
    bench_event_queue_resident,
    bench_rng,
    bench_upload_link,
    bench_wire_codec
);
criterion_main!(micro);
